"""Chain comparison harness for the sans-IO implementation matrix.

The Figure 5/6 harnesses drive the engine-based protocols (TLS, mbTLS,
split TLS) over the simulated network.  The sans-IO baselines — and the
mdTLS proxy-signature party in particular — live on the
:class:`~repro.io.connection.Connection` plane instead, so this module
measures the three quantities the paper's comparison figures need
directly on that plane:

* **handshake CPU** — process time from ``start()`` to both endpoints
  established, adversary-free;
* **flight count** — how many endpoint-originated batches of bytes cross
  the chain before establishment (mdTLS's claim: proxy signatures ride
  the existing four flights, unlike mbTLS's secondary handshakes which
  add encapsulated traffic inside the same flights);
* **chain throughput** — application bytes delivered end-to-end per CPU
  second through the established chain, including every per-hop
  re-encryption a middlebox performs.

Implementations are addressed by the same case names the fuzz corpus and
the connection contract pin, so ``measure_matrix`` stays in lockstep with
the implementations under test.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.bench.fuzzing import SessionRun, build_parties
from repro.tls.events import ApplicationData

__all__ = ["COMPARE_CASES", "ChainMeasurement", "measure_case", "measure_matrix"]

#: mdTLS against mbTLS and the five comparison baselines, middlebox-free
#: and one-middlebox chains alike.
COMPARE_CASES = (
    "tls",
    "mbtls",
    "mbtls_middlebox",
    "mctls",
    "split_tls",
    "splice_relay",
    "shared_key",
    "mdtls",
    "mdtls_middlebox",
)

@dataclass(frozen=True)
class ChainMeasurement:
    """One implementation's handshake and data-plane costs."""

    case: str
    handshake_cpu_seconds: float
    flights: int
    throughput_bytes_per_second: float


def measure_case(
    name: str,
    seed: bytes = b"chain-compare",
    payload_bytes: int = 16384,
    batches: int = 8,
) -> ChainMeasurement:
    """Handshake CPU, flight count, and c2s throughput for one case."""
    flights = [0]

    def count_flights(link, data):
        # Only endpoint-originated drains count as flights: middlebox
        # forwarding continues the same flight rather than starting one.
        flights[0] += link.tag in (b"c>", b"s>")
        return data

    parties = build_parties(name, seed)
    run = SessionRun(parties, count_flights)
    handshake_start = time.process_time()
    run.start()
    # Stop at establishment: pumping on to quiescence would count the
    # post-handshake traffic some protocols send as a further flight.
    run.pump(until=run.both_established)
    handshake_cpu = time.process_time() - handshake_start
    handshake_flights = flights[0]
    if not run.both_established() or run.leaked:
        raise RuntimeError(f"{name} failed to establish adversary-free {run.leaked}")
    if parties.after_handshake is not None:
        run.guard("harness", parties.after_handshake)

    mark = len(run.events)
    payload = b"\xa5" * payload_bytes
    data_start = time.process_time()
    for _ in range(batches):
        run.send("left", payload)
    data_cpu = time.process_time() - data_start
    delivered = sum(
        len(event.data)
        for who, event in run.events[mark:]
        if who == "right" and isinstance(event, ApplicationData)
    )
    if delivered != batches * payload_bytes:
        raise RuntimeError(
            f"{name} delivered {delivered} of {batches * payload_bytes} bytes"
        )
    return ChainMeasurement(
        case=name,
        handshake_cpu_seconds=handshake_cpu,
        flights=handshake_flights,
        throughput_bytes_per_second=delivered / data_cpu if data_cpu else 0.0,
    )


def measure_matrix(
    cases=COMPARE_CASES, seed: bytes = b"chain-compare"
) -> list[ChainMeasurement]:
    """Measure every comparison case with a shared seed."""
    return [measure_case(name, seed) for name in cases]
