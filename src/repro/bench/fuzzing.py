"""Fuzz-conformance harness: every party versus the mutation corpus.

Builds an in-memory session for each of the twelve
:class:`repro.io.Connection` / :class:`~repro.io.DuplexConnection`
implementations (the same twelve ``tests/test_connection_contract.py`` pins),
applies one deterministic :class:`~repro.netsim.fuzz.ChunkMutator` to the
client-to-server byte stream, and checks the abort invariant:

* no party ever leaks a non-:class:`~repro.errors.ReproError` exception;
* the pump always quiesces (a mutation may stall a session, never hang it);
* authenticated protocols never deliver plaintext that was not sent
  (BlindBox is exempt by design — it has no record integrity, which is the
  point the §2.2 comparison makes);
* both endpoints end the run closed — cleanly or via the alert plane,
  never half-open.

Every run is replayable: :func:`run_case` with an equal
:class:`~repro.netsim.fuzz.FuzzCase` produces a byte-identical transcript
digest. ``python -m repro fuzz`` runs the smoke corpus and prints failing
``(seed, mutation_index)`` pairs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.baselines.blindbox import (
    BlindBoxDetector,
    BlindBoxInspectorConnection,
    BlindBoxStreamConnection,
    RuleAuthority,
    TokenStream,
)
from repro.baselines.mctls import (
    ContextPermission,
    McTLSMiddleboxConnection,
    McTLSRecordConnection,
    McTLSSession,
)
from repro.baselines.mdtls import MdTLSDeployment
from repro.baselines.relay import SpliceRelay
from repro.baselines.shared_key import KeySharingConnection, KeySharingMiddlebox
from repro.baselines.split_tls import SplitTLSMiddlebox
from repro.bench.scenarios import Pki
from repro.core.client import MbTLSClientEngine
from repro.core.config import MbTLSEndpointConfig, MiddleboxConfig, MiddleboxRole
from repro.core.middlebox import MbTLSMiddlebox
from repro.core.server import MbTLSServerEngine
from repro.crypto.drbg import HmacDrbg
from repro.errors import ReproError
from repro.netsim.fuzz import MUTATION_KINDS, AppliedMutation, FuzzCase
from repro.tls.config import TLSConfig
from repro.tls.engine import TLSClientEngine, TLSServerEngine
from repro.tls.events import ApplicationData

__all__ = [
    "CASE_NAMES",
    "UNAUTHENTICATED_CASES",
    "FuzzReport",
    "build_parties",
    "run_case",
    "run_corpus",
    "smoke_corpus",
]

_PUMP_ROUNDS = 60
_C2S_PAYLOADS = (b"fuzz-ping-one", b"fuzz-ping-two")
_S2C_PAYLOADS = (b"fuzz-pong",)

#: Cases whose data plane carries no integrity protection: tampered bytes
#: reaching the application are the *documented* weakness, not a harness
#: failure.
UNAUTHENTICATED_CASES = frozenset({"blindbox", "blindbox_inspector"})


@dataclass
class _Parties:
    """One session's cast: ``left - middles - right`` plus phase hooks."""

    left: object
    middles: list
    right: object
    after_handshake: object = None  # callable, e.g. shared-key installation
    needs_handshake: bool = True


# One PKI per seed (RSA generation dominates otherwise); the engine DRBGs
# are derived independently so caching cannot perturb replay determinism.
_PKI_CACHE: dict[bytes, Pki] = {}


def _pki(seed: bytes) -> Pki:
    if seed not in _PKI_CACHE:
        pki = Pki(rng=HmacDrbg(seed, personalization=b"fuzz-pki"))
        # A certificate carries the CA's running serial, so every credential
        # the builders use is issued here, in the order a sweep over
        # CASE_NAMES first asks for it. A case then replays the same
        # certificates whichever cases its process ran before.
        pki.credential("server")
        pki.credential("mbox")
        _fabricated_credential(seed, pki)
        pki.credential("client")
        _PKI_CACHE[seed] = pki
    return _PKI_CACHE[seed]


def _tls_config(rng, pki, label: bytes, *, client: bool) -> TLSConfig:
    if client:
        return TLSConfig(
            rng=rng.fork(label), trust_store=pki.trust, server_name="server"
        )
    return TLSConfig(rng=rng.fork(label), credential=pki.credential("server"))


def _build_tls(pki, rng, seed) -> _Parties:
    return _Parties(
        left=TLSClientEngine(_tls_config(rng, pki, b"cli", client=True)),
        middles=[],
        right=TLSServerEngine(_tls_config(rng, pki, b"srv", client=False)),
    )


def _mbtls_endpoints(pki, rng):
    client = MbTLSClientEngine(
        MbTLSEndpointConfig(
            tls=_tls_config(rng, pki, b"cli", client=True),
            middlebox_trust_store=pki.trust,
            tamper_policy="abort",
        )
    )
    server = MbTLSServerEngine(
        MbTLSEndpointConfig(
            tls=_tls_config(rng, pki, b"srv", client=False),
            middlebox_trust_store=pki.trust,
            tamper_policy="abort",
        )
    )
    return client, server


def _build_mbtls(pki, rng, seed) -> _Parties:
    client, server = _mbtls_endpoints(pki, rng)
    return _Parties(left=client, middles=[], right=server)


def _build_mctls(pki, rng, seed) -> _Parties:
    session = McTLSSession(rng.fork(b"c"), rng.fork(b"s"), [1])
    return _Parties(
        left=McTLSRecordConnection(session.endpoint_party(), default_context=1),
        middles=[],
        right=McTLSRecordConnection(session.endpoint_party(), default_context=1),
        needs_handshake=False,
    )


def _build_blindbox(pki, rng, seed) -> _Parties:
    key = rng.fork(b"tok").random_bytes(32)
    return _Parties(
        left=BlindBoxStreamConnection(TokenStream(key)),
        middles=[],
        right=BlindBoxStreamConnection(TokenStream(key)),
        needs_handshake=False,
    )


def _build_mbtls_middlebox(pki, rng, seed) -> _Parties:
    client, server = _mbtls_endpoints(pki, rng)
    middlebox = MbTLSMiddlebox(
        MiddleboxConfig(
            name="mbox",
            tls=TLSConfig(rng=rng.fork(b"mb"), credential=pki.credential("mbox")),
            role=MiddleboxRole.AUTO,
            process=lambda direction, data: data,
            tamper_policy="abort",
        ),
        destination="server",
    )
    return _Parties(left=client, middles=[middlebox], right=server)


# The interception CA's serial counter advances on every issue, so the
# fabricated leaf is cached per seed too or replays would differ.
_FAB_CACHE: dict[bytes, object] = {}


def _fabricated_credential(seed: bytes, pki: Pki):
    if seed not in _FAB_CACHE:
        _FAB_CACHE[seed] = pki.ca.issue_credential(
            "server",
            rng=HmacDrbg(seed, personalization=b"fuzz-split-leaf"),
            key_bits=pki.key_bits,
        )
    return _FAB_CACHE[seed]


def _build_split_tls(pki, rng, seed) -> _Parties:
    middlebox = SplitTLSMiddlebox(
        pki.ca,
        "server",
        rng.fork(b"split"),
        upstream_trust=pki.trust,
        fabricated_credential=_fabricated_credential(seed, pki),
    )
    return _Parties(
        left=TLSClientEngine(_tls_config(rng, pki, b"cli", client=True)),
        middles=[middlebox],
        right=TLSServerEngine(_tls_config(rng, pki, b"srv", client=False)),
    )


def _build_splice_relay(pki, rng, seed) -> _Parties:
    return _Parties(
        left=TLSClientEngine(_tls_config(rng, pki, b"cli", client=True)),
        middles=[SpliceRelay()],
        right=TLSServerEngine(_tls_config(rng, pki, b"srv", client=False)),
    )


def _build_shared_key(pki, rng, seed) -> _Parties:
    client = TLSClientEngine(_tls_config(rng, pki, b"cli", client=True))
    server = TLSServerEngine(_tls_config(rng, pki, b"srv", client=False))
    middlebox = KeySharingMiddlebox()

    def share_keys() -> None:
        if client.handshake_complete and not middlebox.keys_installed:
            suite, key_block = client.export_key_block()
            middlebox.install_keys(suite.code, key_block)

    return _Parties(
        left=client,
        middles=[KeySharingConnection(middlebox)],
        right=server,
        after_handshake=share_keys,
    )


def _build_mctls_inspector(pki, rng, seed) -> _Parties:
    session = McTLSSession(rng.fork(b"c"), rng.fork(b"s"), [1])
    return _Parties(
        left=McTLSRecordConnection(session.endpoint_party(), default_context=1),
        middles=[
            McTLSMiddleboxConnection(
                session.middlebox_party({1: ContextPermission.READ})
            )
        ],
        right=McTLSRecordConnection(session.endpoint_party(), default_context=1),
        needs_handshake=False,
    )


def _build_blindbox_inspector(pki, rng, seed) -> _Parties:
    key = rng.fork(b"tok").random_bytes(32)
    authority = RuleAuthority(key)
    detector = BlindBoxDetector([authority.encrypt_rule("rule", b"suspicious")])
    return _Parties(
        left=BlindBoxStreamConnection(TokenStream(key)),
        middles=[BlindBoxInspectorConnection(detector)],
        right=BlindBoxStreamConnection(TokenStream(key)),
        needs_handshake=False,
    )


def _mdtls_deployment(pki, rng, middleboxes=()) -> MdTLSDeployment:
    return MdTLSDeployment(
        rng=rng.fork(b"mdtls"),
        trust_store=pki.trust,
        client_credential=pki.credential("client"),
        server_credential=pki.credential("server"),
        middleboxes=[(name, pki.credential(name)) for name in middleboxes],
    )


def _build_mdtls(pki, rng, seed) -> _Parties:
    deployment = _mdtls_deployment(pki, rng)
    return _Parties(
        left=deployment.build_client(),
        middles=[],
        right=deployment.build_server(),
    )


def _build_mdtls_middlebox(pki, rng, seed) -> _Parties:
    deployment = _mdtls_deployment(pki, rng, middleboxes=("mbox",))
    return _Parties(
        left=deployment.build_client(),
        middles=[deployment.build_middlebox(0)],
        right=deployment.build_server(),
    )


_BUILDERS = {
    "tls": _build_tls,
    "mbtls": _build_mbtls,
    "mctls": _build_mctls,
    "blindbox": _build_blindbox,
    "mbtls_middlebox": _build_mbtls_middlebox,
    "split_tls": _build_split_tls,
    "splice_relay": _build_splice_relay,
    "shared_key": _build_shared_key,
    "mctls_inspector": _build_mctls_inspector,
    "blindbox_inspector": _build_blindbox_inspector,
    "mdtls": _build_mdtls,
    "mdtls_middlebox": _build_mdtls_middlebox,
}

CASE_NAMES = tuple(_BUILDERS)


def build_parties(name: str, seed: bytes) -> _Parties:
    """Build the party chain for one implementation, deterministically."""
    rng = HmacDrbg(seed, personalization=b"fuzz-parties")
    return _BUILDERS[name](_pki(seed), rng, seed)


@dataclass
class FuzzReport:
    """The outcome of one fuzz case against one implementation."""

    name: str
    case: FuzzCase
    kind: str
    failures: tuple[str, ...]
    digest: str
    mutations: tuple[AppliedMutation, ...]
    events: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        status = "ok" if self.ok else "FAIL " + "; ".join(self.failures)
        return f"{self.name} {self.case.describe()} kind={self.kind}: {status}"


class _Run:
    """One mutated session: the pump, the ledger, and the verdict."""

    def __init__(self, name: str, parties: _Parties, mutator) -> None:
        self.name = name
        self.parties = parties
        self.mutator = mutator
        self.failures: list[str] = []
        self.events: list[tuple[str, object]] = []
        self.hash = hashlib.sha256()

    # ------------------------------------------------------------- plumbing

    def _guard(self, party_name: str, fn, *args):
        """Run one party step; a non-ReproError escaping it is a finding."""
        try:
            return fn(*args)
        except ReproError:
            # The sans-IO contract prefers alerts over raises, but a raised
            # ReproError is still a *typed* refusal, not a crash.
            return []
        except Exception as exc:  # noqa: BLE001 - the invariant under test
            self.failures.append(
                f"{party_name} leaked {type(exc).__name__}: {exc}"
            )
            return []

    def _record(self, party_name: str, events) -> None:
        for event in events or []:
            self.events.append((party_name, event))
            self.hash.update(party_name.encode() + type(event).__name__.encode())

    def _deliver(self, tag: bytes, data: bytes) -> None:
        self.hash.update(tag + len(data).to_bytes(4, "big") + data)

    def pump(self) -> None:
        """pump_chain with the mutator tapped into the c2s first hop."""
        left, middles, right = (
            self.parties.left,
            self.parties.middles,
            self.parties.right,
        )
        for _ in range(_PUMP_ROUNDS):
            progressed = False
            data = left.data_to_send()
            if data:
                progressed = True
                data = self.mutator.process_chunk(data) or b""
            if data:
                self._deliver(b"c>", data)
                target = middles[0].receive_down if middles else right.receive_bytes
                target_name = "middle0" if middles else "right"
                self._record(target_name, self._guard(target_name, target, data))
            for index, middle in enumerate(middles):
                data = middle.data_to_send_up()
                if data:
                    progressed = True
                    self._deliver(b"m>", data)
                    if index + 1 < len(middles):
                        nxt, nxt_name = (
                            middles[index + 1].receive_down,
                            f"middle{index + 1}",
                        )
                    else:
                        nxt, nxt_name = right.receive_bytes, "right"
                    self._record(nxt_name, self._guard(nxt_name, nxt, data))
            data = right.data_to_send()
            if data:
                progressed = True
                self._deliver(b"s>", data)
                target = middles[-1].receive_up if middles else left.receive_bytes
                target_name = f"middle{len(middles) - 1}" if middles else "left"
                self._record(target_name, self._guard(target_name, target, data))
            for index in range(len(middles) - 1, -1, -1):
                data = middles[index].data_to_send_down()
                if data:
                    progressed = True
                    self._deliver(b"m<", data)
                    if index > 0:
                        nxt, nxt_name = middles[index - 1].receive_up, f"middle{index - 1}"
                    else:
                        nxt, nxt_name = left.receive_bytes, "left"
                    self._record(nxt_name, self._guard(nxt_name, nxt, data))
            if not progressed:
                return
        self.failures.append(f"pump did not quiesce within {_PUMP_ROUNDS} rounds")

    def send(self, party_name: str, party, data: bytes) -> None:
        if getattr(party, "closed", False):
            return
        self._guard(party_name, party.send_application_data, data)
        self.pump()

    def close(self, party_name: str, party) -> None:
        self._guard(party_name, party.close)
        self.pump()

    # -------------------------------------------------------------- verdict

    def check_invariants(self) -> None:
        if self.name not in UNAUTHENTICATED_CASES:
            allowed = set(_C2S_PAYLOADS) | set(_S2C_PAYLOADS)
            for party_name, event in self.events:
                if party_name not in ("left", "right"):
                    continue
                if isinstance(event, ApplicationData) and event.data not in allowed:
                    self.failures.append(
                        f"{party_name} delivered tampered plaintext "
                        f"{event.data[:32]!r}"
                    )
        for party_name, party in (
            ("left", self.parties.left),
            ("right", self.parties.right),
        ):
            if not getattr(party, "closed", False):
                self.failures.append(f"{party_name} left half-open")

    def digest(self) -> str:
        self.hash.update(b"|".join(f.encode() for f in self.failures))
        return self.hash.hexdigest()


def run_case(name: str, case: FuzzCase) -> FuzzReport:
    """Run one implementation through one mutated session."""
    parties = build_parties(name, case.seed)
    mutator = case.mutator()
    run = _Run(name, parties, mutator)

    for party_name, party in (
        ("left", parties.left),
        *((f"middle{i}", m) for i, m in enumerate(parties.middles)),
        ("right", parties.right),
    ):
        run._guard(party_name, party.start)
    run.pump()
    if parties.after_handshake is not None:
        run._guard("harness", parties.after_handshake)

    established = (
        not parties.needs_handshake
        or getattr(parties.left, "established", False)
        or getattr(parties.left, "handshake_complete", False)
    )
    if established:
        for payload in _C2S_PAYLOADS:
            run.send("left", parties.left, payload)
        for payload in _S2C_PAYLOADS:
            run.send("right", parties.right, payload)
    run.close("left", parties.left)
    run.close("right", parties.right)
    run.check_invariants()

    return FuzzReport(
        name=name,
        case=case,
        kind=mutator.kind,
        failures=tuple(run.failures),
        digest=run.digest(),
        mutations=tuple(mutator.applied),
        events=tuple(
            f"{who}:{type(event).__name__}" for who, event in run.events
        ),
    )


def run_corpus(
    names=CASE_NAMES,
    seeds=(b"fz-0", b"fz-1", b"fz-2", b"fz-3", b"fz-4"),
    kinds=MUTATION_KINDS,
    mutation_indices=(1, 3),
) -> list[FuzzReport]:
    """The full conformance sweep: implementations x kinds x seeds."""
    reports = []
    for name in names:
        for kind in kinds:
            for seed in seeds:
                for index in mutation_indices:
                    reports.append(
                        run_case(name, FuzzCase(seed, index, kind))
                    )
    return reports


def smoke_corpus(seeds=(b"smoke-0", b"smoke-1")) -> list[FuzzReport]:
    """A CI-sized sweep: DRBG-chosen kinds over a small seed matrix."""
    reports = []
    for name in CASE_NAMES:
        for seed in seeds:
            for index in (0, 2):
                reports.append(run_case(name, FuzzCase(seed, index)))
    return reports
