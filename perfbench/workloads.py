"""The three benchmark workloads, one unit of work each.

Every function here runs inside a fresh child process (see ``child.py``):
it builds its world from the seed, optionally arms the tracer for the
timed phase, does a fixed amount of work, checks every output, and
returns a JSON-able sample.  ``run.py`` repeats units and aggregates.

Every time is a sum of laps of a :class:`meter.Meter`: CPU time scaled
by a reference loop timed around each lap, so the host's changing core
speed cancels out (see ``meter.py``).  Laps are short: one record, one
handshake, or about LAP_CPU_S of simulator events.
"""

from __future__ import annotations

import hashlib
import resource
import time
from dataclasses import replace

from meter import Meter

from repro import obs
from repro.baselines.mdtls import MdTLSDeployment
from repro.baselines.split_tls import SplitTLSMiddlebox
from repro.bench import fleet
from repro.bench.scenarios import Pki, build_chain_network
from repro.core.client import MbTLSClientEngine
from repro.core.config import (
    MbTLSEndpointConfig,
    MiddleboxConfig,
    MiddleboxRole,
    SessionEstablished,
)
from repro.core.drivers import MiddleboxService, open_mbtls, serve_mbtls
from repro.core.middlebox import MbTLSMiddlebox
from repro.core.server import MbTLSServerEngine
from repro.crypto.drbg import HmacDrbg
from repro.io import pump_chain
from repro.pki.authority import Credential
from repro.tls.config import TLSConfig
from repro.tls.engine import TLSClientEngine, TLSServerEngine
from repro.tls.events import ApplicationData
from repro.tls.record_layer import reset_aead_cache

#: Bulk arrivals per fleet unit.  With 4 shards and a 30 s virtual
#: lifetime every long-lived session overlaps every other, so peak
#: concurrency is close to this number.
FLEET_SESSIONS = 900
#: 16 KiB application records timed per chain unit, after the warm-up.
CHAIN_RECORDS = 100
#: Records sent before timing: every hop key passes the 64 KiB after
#: which ``repro.crypto.gcm`` builds its aggregated GHASH tables.
CHAIN_WARMUP_RECORDS = 24
CHAIN_RECORD_BYTES = 16384
#: Round-robin rounds per handshake unit; one round is one cold
#: handshake of each implementation in ``HANDSHAKE_CASES``.
HANDSHAKE_ROUNDS = 24
HANDSHAKE_CASES = ("tls", "mbtls_middlebox", "split_tls", "mdtls_middlebox")
HANDSHAKE_KEY_BITS = 2048
_PROBE = b"perfbench-probe"
_ESTABLISHED = ("established", "degraded")
_PUMP_ROUNDS = 60
#: CPU time after which a simulator run sliced by ``_run_sliced`` takes
#: a meter lap.
LAP_CPU_S = 0.008


def seed_bytes(seed: int, index: int) -> bytes:
    """The byte seed of unit ``index`` of a run started with ``--seed``."""
    return b"perfbench/%d/%d" % (seed, index)


def _rss_kib() -> int:
    with open("/proc/self/statm") as handle:
        resident_pages = int(handle.read().split()[1])
    return resident_pages * resource.getpagesize() // 1024


def _peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _run_sliced(sim, run, meter: Meter, until: float | None = None) -> None:
    """``run(until=until)`` on ``sim``, one event time at a time, with a
    meter lap every LAP_CPU_S of CPU time and one at the end.

    Each slice runs every event up to the next pending event's time, so
    the slices fire the same events in the same order as one run and
    leave the clock where it would.
    """
    started = time.process_time()
    while True:
        next_time = sim.peek_time()
        if next_time is None or (until is not None and next_time > until):
            break
        run(until=next_time)
        if time.process_time() - started >= LAP_CPU_S:
            meter.lap()
            started = time.process_time()
    if until is not None:
        run(until=until)
    meter.lap()


def _fixed_pki(label: bytes, key_bits: int) -> Pki:
    """A PKI whose keys do not depend on the workload seed.

    RSA key generation searches for primes, and how long that takes
    depends on the DRBG stream; a seed-derived PKI would make
    ``setup_s`` measure the luck of the draw instead of the code.
    """
    return Pki(rng=HmacDrbg(b"perfbench-pki", personalization=label), key_bits=key_bits)


# ----------------------------------------------------------------- fleet_churn


def fleet_churn(seed: int, index: int, tracer=None, meter: Meter | None = None) -> dict:
    """One ``run_fleet`` over ``quick_config`` shrunk to FLEET_SESSIONS.

    Open loop on the virtual clock.  Set-up runs up to the end of the
    warm-up wave; the timed phase is the bulk wave, from
    ``arrival_start`` until every session has closed.
    """
    meter = meter or Meter()
    reset_aead_cache()
    config = replace(
        fleet.quick_config(seed_bytes(seed, index)), sessions=FLEET_SESSIONS
    )
    marks: dict = {}
    orchestrators: list = []
    make_orchestrator = fleet.SessionOrchestrator

    def orchestrator_with_timed_run(*args, **kwargs):
        orchestrator = make_orchestrator(*args, **kwargs)
        orchestrators.append(orchestrator)
        sim = orchestrator.sim
        sim_run = sim.run

        def run(*_args, **_kwargs):
            # Run in slices (see _run_sliced): the same events in the
            # same order as run_fleet's one drain of the queue.
            meter.lap()
            _run_sliced(sim, sim_run, meter, until=config.arrival_start)
            marks["setup_s"] = meter.total_s
            if tracer is not None:
                tracer.start()
            _run_sliced(sim, sim_run, meter)
            marks["timed_s"] = meter.total_s - marks["setup_s"]
            if tracer is not None:
                tracer.stop()

        orchestrator.sim.run = run
        return orchestrator

    rss_before = _rss_kib()
    fleet.SessionOrchestrator = orchestrator_with_timed_run
    try:
        report = fleet.run_fleet(config)
    finally:
        fleet.SessionOrchestrator = make_orchestrator
    (orchestrator,) = orchestrators
    entries = [entry for shard in orchestrator.shards for entry in shard.ledger]
    bulk = [entry for entry in entries if entry.get("phase") == "bulk"]
    # "degraded" sessions work too, after a redial under congestion;
    # the fleet report counts them as established, and so does this.
    established = [e for e in bulk if e.get("outcome") in _ESTABLISHED]
    failures = [
        f"session {e.get('shard')}/{e.get('sid')} ended {e.get('outcome')}"
        for e in entries
        if e.get("outcome") not in _ESTABLISHED
    ]
    if report["sessions"]["submitted"] != len(entries):
        failures.append(
            f"{report['sessions']['submitted']} submitted but "
            f"{len(entries)} ledger entries"
        )
    peak_concurrent = report["concurrency"]["peak_concurrent"]
    return {
        "setup_s": marks["setup_s"],
        "timed_s": marks["timed_s"],
        "ops": len(established),
        "attempted": len(entries),
        "failed": len(failures),
        "failures": failures,
        "latencies_ms": [e["handshake_seconds"] * 1e3 for e in established],
        "digests": report["digests"],
        "peak_concurrent": peak_concurrent,
        "kib_per_session": (_peak_rss_kib() - rss_before) / peak_concurrent,
        "resumption_hit_rate": report["resumption"]["hit_rate"],
        "sim_events": report["sim"]["events"],
    }


# ------------------------------------------------------------------ chain_bulk


def chain_bulk(seed: int, index: int, tracer=None, meter: Meter | None = None) -> dict:
    """One established mbTLS session through two client-side middleboxes.

    Closed loop: the client sends one 16 KiB record and the zero-latency
    simulator runs until the server has it, then the next record goes.
    Built like ``repro.bench.crypto._run_chain_once``.
    """
    meter = meter or Meter()
    reset_aead_cache()
    rss_before = _rss_kib()
    with obs.scoped():
        rng = HmacDrbg(seed_bytes(seed, index), personalization=b"chain")
        pki = _fixed_pki(b"chain", 1024)
        meter.lap()
        hops = ["hop1", "hop2"]
        network = build_chain_network([0.0] * (len(hops) + 1))
        for position, host in enumerate(hops):
            credential = pki.credential(f"mb-{host}")

            def make_middlebox_config(host=host, credential=credential, position=position):
                return MiddleboxConfig(
                    name=f"mb-{host}",
                    tls=TLSConfig(rng=rng.fork(b"mb%d" % position), credential=credential),
                    role=MiddleboxRole.CLIENT_SIDE,
                )

            MiddleboxService(network.host(host), make_middlebox_config)

        received: list[bytes] = []

        def make_server_config():
            return MbTLSEndpointConfig(
                tls=TLSConfig(rng=rng.fork(b"server"), credential=pki.credential("server")),
                middlebox_trust_store=pki.trust,
            )

        def on_server_event(engine, driver, event):
            if isinstance(event, ApplicationData):
                received.append(bytes(event.data))

        serve_mbtls(network.host("server"), make_server_config, on_event=on_server_event)
        established = []

        def on_client_event(event):
            if isinstance(event, SessionEstablished):
                established.append(event)

        client_config = MbTLSEndpointConfig(
            tls=TLSConfig(rng=rng.fork(b"client"), trust_store=pki.trust, server_name="server"),
            middlebox_trust_store=pki.trust,
        )
        _engine, driver = open_mbtls(
            network.host("client"), "server", client_config, on_event=on_client_event
        )
        _run_sliced(network.sim, network.sim.run, meter)
        if not established:
            raise RuntimeError("chain_bulk: the session did not establish")
        payload_rng = rng.fork(b"payloads")
        payloads = [payload_rng.random_bytes(CHAIN_RECORD_BYTES) for _ in range(4)]

        def send(payload: bytes) -> None:
            driver.send_application_data(payload)
            network.sim.run()

        meter.lap()
        for position in range(CHAIN_WARMUP_RECORDS):
            send(payloads[position % len(payloads)])
            meter.lap()
        warm_ok = b"".join(received) == b"".join(
            payloads[position % len(payloads)] for position in range(CHAIN_WARMUP_RECORDS)
        )
        received.clear()
        setup_s = meter.total_s

        latencies_ms = []
        if tracer is not None:
            tracer.start()
        meter.skip()
        for position in range(CHAIN_RECORDS):
            send(payloads[position % len(payloads)])
            latencies_ms.append(meter.lap() * 1e3)
        timed_s = meter.total_s - setup_s
        if tracer is not None:
            tracer.stop()
        got = hashlib.sha256(b"".join(received)).hexdigest()
        sent = hashlib.sha256(
            b"".join(payloads[position % len(payloads)] for position in range(CHAIN_RECORDS))
        ).hexdigest()
        # One operation per record; a mismatch in the byte stream fails
        # every record, since the hash cannot say which one went wrong.
        failed = 0 if got == sent and warm_ok else CHAIN_RECORDS
        return {
            "setup_s": setup_s,
            "timed_s": timed_s,
            "ops": CHAIN_RECORDS - failed,
            "attempted": CHAIN_RECORDS,
            "failed": failed,
            "failures": [] if not failed else ["server received different bytes"],
            "latencies_ms": latencies_ms,
            "peak_concurrent": 1,
            "kib_per_session": _peak_rss_kib() - rss_before,
        }


# -------------------------------------------------------------- handshake_cold


class _Cast:
    """One session's parties, left - middles - right."""

    def __init__(self, left, middles, right):
        self.left, self.middles, self.right = left, middles, right


def _tls_config(rng, pki, label: bytes, *, client: bool) -> TLSConfig:
    if client:
        return TLSConfig(rng=rng.fork(label), trust_store=pki.trust, server_name="server")
    return TLSConfig(rng=rng.fork(label), credential=pki.credential("server"))


def _build_tls(pki, rng, split_credential) -> _Cast:
    return _Cast(
        TLSClientEngine(_tls_config(rng, pki, b"cli", client=True)),
        [],
        TLSServerEngine(_tls_config(rng, pki, b"srv", client=False)),
    )


def _build_mbtls_middlebox(pki, rng, split_credential) -> _Cast:
    def endpoint(label, client):
        return MbTLSEndpointConfig(
            tls=_tls_config(rng, pki, label, client=client),
            middlebox_trust_store=pki.trust,
        )

    middlebox = MbTLSMiddlebox(
        MiddleboxConfig(
            name="mbox",
            tls=TLSConfig(rng=rng.fork(b"mb"), credential=pki.credential("mbox")),
            role=MiddleboxRole.AUTO,
        ),
        destination="server",
    )
    return _Cast(
        MbTLSClientEngine(endpoint(b"cli", True)),
        [middlebox],
        MbTLSServerEngine(endpoint(b"srv", False)),
    )


def _build_split_tls(pki, rng, split_credential) -> _Cast:
    middlebox = SplitTLSMiddlebox(
        pki.ca,
        "server",
        rng.fork(b"split"),
        upstream_trust=pki.trust,
        fabricated_credential=split_credential,
    )
    return _Cast(
        TLSClientEngine(_tls_config(rng, pki, b"cli", client=True)),
        [middlebox],
        TLSServerEngine(_tls_config(rng, pki, b"srv", client=False)),
    )


def _build_mdtls_middlebox(pki, rng, split_credential) -> _Cast:
    deployment = MdTLSDeployment(
        rng=rng.fork(b"mdtls"),
        trust_store=pki.trust,
        client_credential=pki.credential("client"),
        server_credential=pki.credential("server"),
        middleboxes=[("mbox", pki.credential("mbox"))],
    )
    return _Cast(
        deployment.build_client(),
        [deployment.build_middlebox(0)],
        deployment.build_server(),
    )


_CAST_BUILDERS = {
    "tls": _build_tls,
    "mbtls_middlebox": _build_mbtls_middlebox,
    "split_tls": _build_split_tls,
    "mdtls_middlebox": _build_mdtls_middlebox,
}


def _established(party) -> bool:
    return bool(
        getattr(party, "established", False) or getattr(party, "handshake_complete", False)
    )


def handshake_cold(seed: int, index: int, tracer=None, meter: Meter | None = None) -> dict:
    """HANDSHAKE_ROUNDS rounds of cold full handshakes, no simulator.

    Closed loop, one handshake at a time, round-robin over
    HANDSHAKE_CASES.  Every handshake draws its randomness from a fresh
    DRBG fork, so it derives new keys and shares nothing with the last.
    A handshake counts as done once both endpoints are established and a
    probe record has crossed the chain.
    """
    meter = meter or Meter()
    reset_aead_cache()
    rss_before = _rss_kib()
    with obs.scoped():
        pki = _fixed_pki(b"handshake", HANDSHAKE_KEY_BITS)
        meter.lap()
        shared = pki.credential("server").private_key
        meter.lap()
        split_credential = Credential(
            private_key=shared,
            chain=(pki.ca.issue("server", shared.public_key), pki.ca.certificate),
        )
        for subject in ("client", "mbox"):
            pki.credential(subject)
            meter.lap()
        base = HmacDrbg(seed_bytes(seed, index), personalization=b"handshake")
        meter.lap()
        setup_s = meter.total_s

        round_ms: list[float] = []
        handshake_s = 0.0
        failures: list[str] = []
        if tracer is not None:
            tracer.start()
        for round_index in range(HANDSHAKE_ROUNDS):
            round_s = 0.0
            for case in HANDSHAKE_CASES:
                rng = base.fork(b"%d/%s" % (round_index, case.encode()))
                cast = _CAST_BUILDERS[case](pki, rng, split_credential)
                meter.skip()
                cast.left.start()
                for middle in cast.middles:
                    middle.start()
                cast.right.start()
                pump_chain(cast.left, cast.middles, cast.right, rounds=_PUMP_ROUNDS)
                round_s += meter.lap()
                problem = _probe(cast)
                if problem:
                    failures.append(f"round {round_index} {case}: {problem}")
            handshake_s += round_s
            round_ms.append(round_s * 1e3 / len(HANDSHAKE_CASES))
        if tracer is not None:
            tracer.stop()
        attempted = HANDSHAKE_ROUNDS * len(HANDSHAKE_CASES)
        return {
            "setup_s": setup_s,
            "timed_s": handshake_s,
            "ops": attempted - len(failures),
            "attempted": attempted,
            "failed": len(failures),
            "failures": failures,
            "latencies_ms": round_ms,
            "peak_concurrent": 1,
            "kib_per_session": _peak_rss_kib() - rss_before,
        }


def _probe(cast: _Cast) -> str | None:
    """Check both ends are established, then round-trip one record."""
    if not (_established(cast.left) and _established(cast.right)):
        return "handshake did not establish"
    cast.left.send_application_data(_PROBE)
    _events, _middle_events, right_events = pump_chain(
        cast.left, cast.middles, cast.right, rounds=_PUMP_ROUNDS
    )
    if _app_data(right_events) != _PROBE:
        return f"server got {_app_data(right_events)!r} for the probe"
    cast.right.send_application_data(_PROBE)
    left_events, _middle_events, _events = pump_chain(
        cast.left, cast.middles, cast.right, rounds=_PUMP_ROUNDS
    )
    if _app_data(left_events) != _PROBE:
        return f"client got {_app_data(left_events)!r} back"
    return None


def _app_data(events) -> bytes:
    return b"".join(
        bytes(event.data) for event in events if isinstance(event, ApplicationData)
    )


WORKLOADS = {
    "fleet_churn": fleet_churn,
    "chain_bulk": chain_bulk,
    "handshake_cold": handshake_cold,
}
