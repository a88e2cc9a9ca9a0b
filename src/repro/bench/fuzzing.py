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

:class:`SessionRun` is the one guarded, hashed in-memory session loop: the
fuzz corpus, the downgrade selftest, the chain benchmark and the mdTLS
threat rows all walk :func:`repro.io.chain_links` through it, each with its
own ``tap`` on the links.
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
from repro.io import chain_links
from repro.netsim.fuzz import MUTATION_KINDS, AppliedMutation, FuzzCase
from repro.tls.config import TLSConfig
from repro.tls.engine import TLSClientEngine, TLSServerEngine
from repro.tls.events import ApplicationData

__all__ = [
    "CASE_NAMES",
    "PUMP_ROUNDS",
    "UNAUTHENTICATED_CASES",
    "FuzzReport",
    "Parties",
    "SessionRun",
    "build_parties",
    "run_case",
    "run_corpus",
    "smoke_corpus",
]

#: The round bound of every harness pump; a healthy session quiesces in a
#: handful, so a pump that hits it is a livelock.
PUMP_ROUNDS = 80
_C2S_PAYLOADS = (b"fuzz-ping-one", b"fuzz-ping-two")
_S2C_PAYLOADS = (b"fuzz-pong",)

#: Cases whose data plane carries no integrity protection: tampered bytes
#: reaching the application are the *documented* weakness, not a harness
#: failure.
UNAUTHENTICATED_CASES = frozenset({"blindbox", "blindbox_inspector"})


@dataclass
class Parties:
    """One session's cast: ``left - middles - right`` plus phase hooks."""

    left: object
    middles: list
    right: object
    after_handshake: object = None  # callable, e.g. shared-key installation
    needs_handshake: bool = True

    def named(self) -> list:
        """``(name, party)`` client first, named as the chain's sinks are."""
        return [
            ("left", self.left),
            *((f"middle{i}", m) for i, m in enumerate(self.middles)),
            ("right", self.right),
        ]


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


def _build_tls(pki, rng, seed) -> Parties:
    return Parties(
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


def _build_mbtls(pki, rng, seed) -> Parties:
    client, server = _mbtls_endpoints(pki, rng)
    return Parties(left=client, middles=[], right=server)


def _build_mctls(pki, rng, seed) -> Parties:
    session = McTLSSession(rng.fork(b"c"), rng.fork(b"s"), [1])
    return Parties(
        left=McTLSRecordConnection(session.endpoint_party(), default_context=1),
        middles=[],
        right=McTLSRecordConnection(session.endpoint_party(), default_context=1),
        needs_handshake=False,
    )


def _build_blindbox(pki, rng, seed) -> Parties:
    key = rng.fork(b"tok").random_bytes(32)
    return Parties(
        left=BlindBoxStreamConnection(TokenStream(key)),
        middles=[],
        right=BlindBoxStreamConnection(TokenStream(key)),
        needs_handshake=False,
    )


def _build_mbtls_middlebox(pki, rng, seed) -> Parties:
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
    return Parties(left=client, middles=[middlebox], right=server)


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


def _build_split_tls(pki, rng, seed) -> Parties:
    middlebox = SplitTLSMiddlebox(
        pki.ca,
        "server",
        rng.fork(b"split"),
        upstream_trust=pki.trust,
        fabricated_credential=_fabricated_credential(seed, pki),
    )
    return Parties(
        left=TLSClientEngine(_tls_config(rng, pki, b"cli", client=True)),
        middles=[middlebox],
        right=TLSServerEngine(_tls_config(rng, pki, b"srv", client=False)),
    )


def _build_splice_relay(pki, rng, seed) -> Parties:
    return Parties(
        left=TLSClientEngine(_tls_config(rng, pki, b"cli", client=True)),
        middles=[SpliceRelay()],
        right=TLSServerEngine(_tls_config(rng, pki, b"srv", client=False)),
    )


def _build_shared_key(pki, rng, seed) -> Parties:
    client = TLSClientEngine(_tls_config(rng, pki, b"cli", client=True))
    server = TLSServerEngine(_tls_config(rng, pki, b"srv", client=False))
    middlebox = KeySharingMiddlebox()

    def share_keys() -> None:
        if client.handshake_complete and not middlebox.keys_installed:
            suite, key_block = client.export_key_block()
            middlebox.install_keys(suite.code, key_block)

    return Parties(
        left=client,
        middles=[KeySharingConnection(middlebox)],
        right=server,
        after_handshake=share_keys,
    )


def _build_mctls_inspector(pki, rng, seed) -> Parties:
    session = McTLSSession(rng.fork(b"c"), rng.fork(b"s"), [1])
    return Parties(
        left=McTLSRecordConnection(session.endpoint_party(), default_context=1),
        middles=[
            McTLSMiddleboxConnection(
                session.middlebox_party({1: ContextPermission.READ})
            )
        ],
        right=McTLSRecordConnection(session.endpoint_party(), default_context=1),
        needs_handshake=False,
    )


def _build_blindbox_inspector(pki, rng, seed) -> Parties:
    key = rng.fork(b"tok").random_bytes(32)
    authority = RuleAuthority(key)
    detector = BlindBoxDetector([authority.encrypt_rule("rule", b"suspicious")])
    return Parties(
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


def _build_mdtls(pki, rng, seed) -> Parties:
    deployment = _mdtls_deployment(pki, rng)
    return Parties(
        left=deployment.build_client(),
        middles=[],
        right=deployment.build_server(),
    )


def _build_mdtls_middlebox(pki, rng, seed) -> Parties:
    deployment = _mdtls_deployment(pki, rng, middleboxes=("mbox",))
    return Parties(
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


def build_parties(name: str, seed: bytes) -> Parties:
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


class SessionRun:
    """One in-memory session walked over :func:`repro.io.chain_links`.

    Every party step is guarded (a non-:class:`~repro.errors.ReproError`
    escaping it lands in :attr:`leaked`), every delivered byte and event is
    folded into :attr:`hash`, and every drained flight passes through
    ``tap(link, data)``, which returns the bytes to deliver (empty to drop
    them). :attr:`quiesced` turns false once any pump of the run hits
    :data:`PUMP_ROUNDS`.
    """

    def __init__(self, parties: Parties, tap=None) -> None:
        self.parties = parties
        self.tap = tap
        self.links = chain_links(parties.left, parties.middles, parties.right)
        self.events: list[tuple[str, object]] = []
        self.leaked: list[str] = []
        self.quiesced = True
        self.established = False  # sampled before the close; CLOSED wipes it
        self.hash = hashlib.sha256()

    def guard(self, party_name: str, fn, *args):
        """Run one party step; a non-ReproError escaping it is a finding."""
        try:
            return fn(*args)
        except ReproError:
            # The sans-IO contract prefers alerts over raises, but a raised
            # ReproError is still a *typed* refusal, not a crash.
            return []
        except Exception as exc:  # noqa: BLE001 - the invariant under test
            self.leaked.append(f"{party_name} leaked {type(exc).__name__}: {exc}")
            return []

    def step(self) -> bool:
        """One round over every link; True iff any party had bytes to send."""
        progressed = False
        for link in self.links:
            data = link.drain()
            if not data:
                continue
            progressed = True
            if self.tap is not None:
                data = self.tap(link, data)
            if data:
                self.hash.update(link.tag + len(data).to_bytes(4, "big") + data)
                for event in self.guard(link.sink, link.deliver, data) or ():
                    self.events.append((link.sink, event))
                    self.hash.update(link.sink.encode() + type(event).__name__.encode())
        return progressed

    def pump(self, until=None) -> None:
        """Step until no party has bytes to send or ``until()`` holds."""
        for _ in range(PUMP_ROUNDS):
            if not self.step() or (until is not None and until()):
                return
        self.quiesced = False

    def start(self) -> None:
        for party_name, party in self.parties.named():
            self.guard(party_name, party.start)

    def both_established(self) -> bool:
        if not self.parties.needs_handshake:
            return True
        return all(
            getattr(party, "established", False)
            or getattr(party, "handshake_complete", False)
            for party in (self.parties.left, self.parties.right)
        )

    def send(self, side: str, data: bytes) -> None:
        party = getattr(self.parties, side)
        if getattr(party, "closed", False):
            return
        self.guard(side, party.send_application_data, data)
        self.pump()

    def close(self, side: str) -> None:
        self.guard(side, getattr(self.parties, side).close)
        self.pump()

    def play(self, c2s, s2c) -> None:
        """The harness script: handshake; if both ends are established send
        the ``c2s`` then the ``s2c`` payloads; close the client, then the
        server."""
        self.start()
        self.pump()
        if self.parties.after_handshake is not None:
            self.guard("harness", self.parties.after_handshake)
        self.established = self.both_established()
        if self.established:
            for payload in c2s:
                self.send("left", payload)
            for payload in s2c:
                self.send("right", payload)
        self.close("left")
        self.close("right")

    def digest(self, failures) -> str:
        self.hash.update(b"|".join(f.encode() for f in failures))
        return self.hash.hexdigest()


def _failures(name: str, run: SessionRun) -> list[str]:
    """The abort invariant, checked over one finished run."""
    failures = list(run.leaked)
    if not run.quiesced:
        failures.append(f"pump did not quiesce within {PUMP_ROUNDS} rounds")
    if name not in UNAUTHENTICATED_CASES:
        allowed = set(_C2S_PAYLOADS) | set(_S2C_PAYLOADS)
        failures += [
            f"{who} delivered tampered plaintext {event.data[:32]!r}"
            for who, event in run.events
            if who in ("left", "right")
            and isinstance(event, ApplicationData)
            and event.data not in allowed
        ]
    for party_name in ("left", "right"):
        if not getattr(getattr(run.parties, party_name), "closed", False):
            failures.append(f"{party_name} left half-open")
    return failures


def run_case(name: str, case: FuzzCase) -> FuzzReport:
    """Run one implementation through one mutated session."""
    mutator = case.mutator()

    def mutate(link, data):
        if link.at("c2s", "left"):
            return mutator.process_chunk(data) or b""
        return data

    run = SessionRun(build_parties(name, case.seed), mutate)
    run.play(_C2S_PAYLOADS, _S2C_PAYLOADS)
    failures = _failures(name, run)
    return FuzzReport(
        name=name,
        case=case,
        kind=mutator.kind,
        failures=tuple(failures),
        digest=run.digest(failures),
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
