"""Conformance suite for the shared sans-IO connection contract.

Every party in the tree — the plain TLS engines, all three mbTLS engines,
and every baseline — implements :class:`repro.io.Connection` or
:class:`repro.io.DuplexConnection`. These tests pin the contract documented
in ``repro/io/connection.py``:

* ``start()`` is once-only: a second call raises ``ProtocolError`` and
  produces no output;
* ``data_to_send()`` drains: an immediate second call returns ``b""``;
* receiving bytes after close yields no events;
* ``close()`` and ``peer_closed*()`` are idempotent;
* sending application data on a closed connection raises ``ProtocolError``;
* hostile bytes end in one abort (``repro.io.abort``): one attributed
  ``ConnectionClosed``, one fatal alert on every side the party writes to,
  and silence afterwards — except for the parties that relay by design;
* a flight yields the same events and output bytes at every hop whether
  it arrives in one call, one record per call or one byte per call, and
  a forged record still lets the records before it through;
* the same DRBG seed yields byte-identical wire transcripts (golden hashes
  captured before the record-plane refactor).
"""

from __future__ import annotations

import hashlib
from functools import partial

import pytest

from helpers import MbTLSScenario, identity
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
from repro.errors import ProtocolError, SessionAborted
from repro.io import Connection, DuplexConnection, pump, pump_chain
from repro.io.framing import FRAME_ALERT, FramedConnection, FramedDuplex, pop_frames
from repro.tls.config import TLSConfig
from repro.tls.engine import TLSClientEngine, TLSServerEngine
from repro.tls.events import AlertReceived, ApplicationData, ConnectionClosed
from repro.wire.alerts import Alert
from repro.wire.handshake import HandshakeType
from repro.wire.records import ContentType, Record, RecordBuffer

# ---------------------------------------------------------------------------
# Factories
# ---------------------------------------------------------------------------


def _tls_pair(pki, rng):
    client = TLSClientEngine(
        TLSConfig(rng=rng.fork(b"cli"), trust_store=pki.trust, server_name="server")
    )
    server = TLSServerEngine(
        TLSConfig(rng=rng.fork(b"srv"), credential=pki.credential("server"))
    )
    return client, server


def _mbtls_pair(pki, rng):
    client = MbTLSClientEngine(
        MbTLSEndpointConfig(
            tls=TLSConfig(
                rng=rng.fork(b"cli"), trust_store=pki.trust, server_name="server"
            ),
            middlebox_trust_store=pki.trust,
        )
    )
    server = MbTLSServerEngine(
        MbTLSEndpointConfig(
            tls=TLSConfig(rng=rng.fork(b"srv"), credential=pki.credential("server")),
            middlebox_trust_store=pki.trust,
        )
    )
    return client, server


def _mctls_pair(pki, rng):
    session = McTLSSession(rng.fork(b"c"), rng.fork(b"s"), [1])
    return (
        McTLSRecordConnection(session.endpoint_party(), default_context=1),
        McTLSRecordConnection(session.endpoint_party(), default_context=1),
    )


def _mdtls_deployment(pki, rng, middleboxes=()):
    return MdTLSDeployment(
        rng=rng.fork(b"mdtls"),
        trust_store=pki.trust,
        client_credential=pki.credential("client"),
        server_credential=pki.credential("server"),
        middleboxes=[(name, pki.credential(name)) for name in middleboxes],
    )


def _mdtls_pair(pki, rng):
    deployment = _mdtls_deployment(pki, rng)
    return deployment.build_client(), deployment.build_server()


def _blindbox_pair(pki, rng):
    key = rng.fork(b"tok").random_bytes(32)
    return (
        BlindBoxStreamConnection(TokenStream(key)),
        BlindBoxStreamConnection(TokenStream(key)),
    )


# Each case: (pair factory, needs_pump). ``needs_pump`` marks pairs with a
# handshake to run before application data may flow.
ENDPOINT_CASES = {
    "tls": (_tls_pair, True),
    "mbtls": (_mbtls_pair, True),
    "mctls": (_mctls_pair, False),
    "mdtls": (_mdtls_pair, True),
    "blindbox": (_blindbox_pair, False),
}


def _mbtls_middlebox(pki, rng):
    return MbTLSMiddlebox(
        MiddleboxConfig(
            name="mbox",
            tls=TLSConfig(rng=rng.fork(b"mb"), credential=pki.credential("mbox")),
            role=MiddleboxRole.AUTO,
            process=identity,
        ),
        destination="server",
    )


def _stimulate_mbtls(middlebox, pki, rng):
    client = MbTLSClientEngine(
        MbTLSEndpointConfig(
            tls=TLSConfig(
                rng=rng.fork(b"cli"), trust_store=pki.trust, server_name="server"
            ),
            middlebox_trust_store=pki.trust,
        )
    )
    client.start()
    middlebox.receive_down(client.data_to_send())


def _mdtls_middlebox(pki, rng):
    deployment = _mdtls_deployment(pki, rng, middleboxes=("mbox",))
    conn = deployment.build_middlebox(0)
    conn._deployment = deployment
    return conn


def _stimulate_mdtls(conn, pki, rng):
    client = conn._deployment.build_client()
    client.start()
    conn.receive_down(client.data_to_send())


def _split_tls(pki, rng):
    return SplitTLSMiddlebox(
        pki.ca, "server", rng.fork(b"split"), upstream_trust=pki.trust
    )


def _key_sharing(pki, rng):
    return KeySharingConnection(KeySharingMiddlebox())


def _mctls_inspector(pki, rng):
    session = McTLSSession(rng.fork(b"c"), rng.fork(b"s"), [1])
    conn = McTLSMiddleboxConnection(
        session.middlebox_party({1: ContextPermission.READ})
    )
    conn._endpoint = McTLSRecordConnection(session.endpoint_party(), 1)
    return conn


def _stimulate_mctls(conn, pki, rng):
    conn._endpoint.start()
    conn._endpoint.send_application_data(b"inspect me")
    conn.receive_down(conn._endpoint.data_to_send())


def _blindbox_inspector(pki, rng):
    key = rng.fork(b"tok").random_bytes(32)
    authority = RuleAuthority(key)
    detector = BlindBoxDetector([authority.encrypt_rule("rule", b"suspicious")])
    conn = BlindBoxInspectorConnection(detector)
    conn._endpoint = BlindBoxStreamConnection(TokenStream(key))
    return conn


def _stimulate_blindbox(conn, pki, rng):
    conn._endpoint.start()
    conn._endpoint.send_application_data(b"nothing suspicious here")
    conn.receive_down(conn._endpoint.data_to_send())


def _stimulate_raw(conn, pki, rng):
    # A well-formed APPLICATION_DATA record (relays parse record framing).
    conn.receive_down(b"\x17\x03\x03\x00\x03abc")


# Each case: (factory, stimulate). ``stimulate`` makes the duplex queue
# outbound bytes so the drain contract can be observed (None: start() alone
# already produces output).
DUPLEX_CASES = {
    "mbtls_middlebox": (_mbtls_middlebox, _stimulate_mbtls),
    "mdtls_middlebox": (_mdtls_middlebox, _stimulate_mdtls),
    "split_tls": (_split_tls, None),
    "splice_relay": (lambda pki, rng: SpliceRelay(), _stimulate_raw),
    "shared_key": (_key_sharing, _stimulate_raw),
    "mctls_inspector": (_mctls_inspector, _stimulate_mctls),
    "blindbox_inspector": (_blindbox_inspector, _stimulate_blindbox),
}


@pytest.fixture
def make_pair(pki, rng):
    def factory(name):
        build, needs_pump = ENDPOINT_CASES[name]
        a, b = build(pki, rng)
        return a, b, needs_pump

    return factory


@pytest.fixture
def make_duplex(pki, rng):
    def factory(name):
        build, stimulate = DUPLEX_CASES[name]
        conn = build(pki, rng)
        return conn, (
            (lambda: stimulate(conn, pki, rng)) if stimulate is not None else None
        )

    return factory


# ---------------------------------------------------------------------------
# Endpoint (Connection) contract
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ENDPOINT_CASES)
class TestConnectionContract:
    def test_satisfies_protocol(self, make_pair, name):
        a, b, _ = make_pair(name)
        assert isinstance(a, Connection)
        assert isinstance(b, Connection)

    def test_start_twice_raises_without_output(self, make_pair, name):
        a, _, _ = make_pair(name)
        a.start()
        a.data_to_send()  # drain whatever start legitimately queued
        with pytest.raises(ProtocolError):
            a.start()
        assert a.data_to_send() == b""

    def test_data_to_send_drains(self, make_pair, name):
        a, b, needs_pump = make_pair(name)
        a.start()
        b.start()
        if needs_pump:
            pump(a, b)
        a.send_application_data(b"drain me")
        first = a.data_to_send()
        assert first != b""
        assert a.data_to_send() == b""

    def test_close_is_idempotent(self, make_pair, name):
        a, b, needs_pump = make_pair(name)
        a.start()
        b.start()
        if needs_pump:
            pump(a, b)
        a.close()
        a.data_to_send()
        a.close()  # second close: no error, no new output
        assert a.data_to_send() == b""
        assert a.closed

    def test_send_after_close_raises(self, make_pair, name):
        a, b, needs_pump = make_pair(name)
        a.start()
        b.start()
        if needs_pump:
            pump(a, b)
        a.close()
        with pytest.raises(ProtocolError):
            a.send_application_data(b"too late")

    def test_receive_after_close_yields_nothing(self, make_pair, name):
        a, b, needs_pump = make_pair(name)
        a.start()
        b.start()
        if needs_pump:
            pump(a, b)
        b.send_application_data(b"in flight")
        wire = b.data_to_send()
        a.close()
        a.data_to_send()
        assert a.receive_bytes(wire) == []

    def test_peer_closed_is_idempotent(self, make_pair, name):
        a, _, _ = make_pair(name)
        a.start()
        first = a.peer_closed()
        assert isinstance(first, list)
        assert a.closed
        assert a.peer_closed() == []


# ---------------------------------------------------------------------------
# Middlebox (DuplexConnection) contract
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", DUPLEX_CASES)
class TestDuplexConnectionContract:
    def test_satisfies_protocol(self, make_duplex, name):
        conn, _ = make_duplex(name)
        assert isinstance(conn, DuplexConnection)

    def test_start_twice_raises(self, make_duplex, name):
        conn, _ = make_duplex(name)
        conn.start()
        with pytest.raises(ProtocolError):
            conn.start()

    def test_output_drains(self, make_duplex, name):
        conn, stimulate = make_duplex(name)
        conn.start()
        if stimulate is not None:
            stimulate()
        produced = conn.data_to_send_down() + conn.data_to_send_up()
        assert produced != b""
        assert conn.data_to_send_down() == b""
        assert conn.data_to_send_up() == b""

    def test_peer_closed_down_is_idempotent(self, make_duplex, name):
        conn, _ = make_duplex(name)
        conn.start()
        first = conn.peer_closed_down()
        assert isinstance(first, list)
        assert conn.peer_closed_down() == []

    def test_peer_closed_up_is_idempotent(self, make_duplex, name):
        conn, _ = make_duplex(name)
        conn.start()
        first = conn.peer_closed_up()
        assert isinstance(first, list)
        assert conn.peer_closed_up() == []

    def test_receive_after_close_yields_nothing(self, make_duplex, name):
        conn, _ = make_duplex(name)
        conn.start()
        conn.peer_closed_down()
        assert conn.receive_down(b"\x17\x03\x03\x00\x03abc") == []
        assert conn.receive_up(b"\x17\x03\x03\x00\x03abc") == []


# ---------------------------------------------------------------------------
# Abort contract: one fault, one fatal alert per side, one attributed close
# ---------------------------------------------------------------------------

# A record header declaring more than the maximum TLS record size.
_OVERSIZED_RECORD = b"\x17\x03\x03\xff\xff"
# A length-frame header declaring 2 GiB (past MAX_FRAME_PAYLOAD).
_OVERSIZED_FRAME = b"\x7f\xff\xff\xff"

# The cheapest hostile input each party aborts on, and the origin label
# its alert must carry. Endpoints are the first party of the pair; duplex
# parties receive the input on their client-facing segment.
ABORT_CASES = {
    "tls": (_OVERSIZED_RECORD, ""),
    "mbtls": (_OVERSIZED_RECORD, "client"),
    "mctls": (_OVERSIZED_FRAME, "mctls-endpoint"),
    "mdtls": (_OVERSIZED_RECORD, "mdtls-client"),
    "blindbox": (_OVERSIZED_FRAME, "blindbox-endpoint"),
    "mdtls_middlebox": (_OVERSIZED_RECORD, "mdtls-middlebox:mbox"),
    "split_tls": (_OVERSIZED_RECORD, "split-tls-middlebox"),
    "shared_key": (_OVERSIZED_RECORD, "shared-key-middlebox"),
    "mctls_inspector": (_OVERSIZED_FRAME, "mctls-middlebox"),
    "blindbox_inspector": (_OVERSIZED_FRAME, "blindbox-inspector"),
}

# Parties that by design do not abort on hostile bytes.
NON_ABORTING_CASES = {
    # An unauthenticated byte relay: it has nothing to check.
    "splice_relay": "relays every byte verbatim",
    # Framing that is not TLS means the flow is not mbTLS (§3.4).
    "mbtls_middlebox": "demotes itself to a transparent relay",
}


def _alerts_on_wire(conn, wire: bytes) -> list[Alert]:
    """The alerts in one drained outbox, framed or TLS records."""
    if isinstance(conn, (FramedConnection, FramedDuplex)):
        return [
            Alert.decode(payload)
            for kind, payload in pop_frames(bytearray(wire))
            if kind == FRAME_ALERT
        ]
    buffer = RecordBuffer()
    buffer.feed(wire)
    return [
        Alert.decode(record.payload)
        for record in buffer.pop_records()
        if record.content_type == ContentType.ALERT
    ]


def _hostile_party(name, pki, rng):
    """(party, receive, drains) for one case, started and drained."""
    if name in ENDPOINT_CASES:
        party, _ = ENDPOINT_CASES[name][0](pki, rng)
        party.start()
        party.data_to_send()
        return party, party.receive_bytes, (party.data_to_send,)
    party = DUPLEX_CASES[name][0](pki, rng)
    party.start()
    drains = (party.data_to_send_down, party.data_to_send_up)
    for drain in drains:
        drain()
    return party, party.receive_down, drains


def test_abort_cases_cover_every_implementation():
    assert not set(ABORT_CASES) & set(NON_ABORTING_CASES)
    assert set(ABORT_CASES) | set(NON_ABORTING_CASES) == (
        set(ENDPOINT_CASES) | set(DUPLEX_CASES)
    )


@pytest.mark.parametrize("name", ABORT_CASES)
def test_abort_sends_one_attributed_alert_per_side(pki, rng, name):
    hostile, origin = ABORT_CASES[name]
    party, receive, drains = _hostile_party(name, pki, rng)

    events = receive(hostile)

    closes = [e for e in events if isinstance(e, ConnectionClosed) and e.alert]
    assert len(closes) == 1
    assert closes[0].origin == origin
    assert party.closed
    assert isinstance(party.abort, SessionAborted)
    assert party.abort.origin == origin
    assert party.abort.alert == closes[0].alert
    for drain in drains:
        alerts = _alerts_on_wire(party, drain())
        assert [(a.is_fatal, a.origin) for a in alerts] == [(True, origin)]
        assert alerts[0].description.name.lower() == party.abort.alert
    assert receive(hostile) == []


@pytest.mark.parametrize("name", NON_ABORTING_CASES)
def test_relaying_parties_forward_hostile_bytes(pki, rng, name):
    party, receive, drains = _hostile_party(name, pki, rng)
    assert receive(_OVERSIZED_RECORD) == []
    assert not party.closed
    assert drains[1]() == _OVERSIZED_RECORD


# One handshake header declaring 0xFFFFFF bytes, in a handshake record.
_HUGE_HANDSHAKE = Record(
    content_type=ContentType.HANDSHAKE,
    payload=bytes([HandshakeType.CERTIFICATE]) + b"\xff\xff\xff",
).encode()


@pytest.mark.parametrize("name", ("tls", "mbtls", "mdtls", "split_tls"))
def test_oversized_handshake_header_aborts_at_once(pki, rng, name):
    """The handshake reassembly bound trips at the header, not after
    buffering the 16 MiB the header declares."""
    party, receive, _ = _hostile_party(name, pki, rng)
    events = receive(_HUGE_HANDSHAKE)
    assert party.closed
    assert party.abort.alert == "decode_error"
    assert [e.alert for e in events if isinstance(e, ConnectionClosed)] == ["decode_error"]


# ---------------------------------------------------------------------------
# Transcript determinism — golden hashes captured BEFORE the record-plane
# refactor. If any of these change, the sans-IO core changed observable
# behavior, which this refactor promised not to do.
# ---------------------------------------------------------------------------


class _WireTap:
    """Wraps a Connection so pump() traffic can be hashed and event-ordered."""

    def __init__(self, inner, tag: bytes, wire, event_log: list) -> None:
        self._inner = inner
        self._tag = tag
        self._wire = wire
        self._log = event_log

    def data_to_send(self) -> bytes:
        data = self._inner.data_to_send()
        if data:
            self._wire.update(self._tag + data)
        return data

    def receive_bytes(self, data: bytes) -> list:
        events = self._inner.receive_bytes(data)
        side = "client" if self._tag == b"C" else "server"
        self._log += [(side, type(event).__name__) for event in events]
        return events


def test_tls_transcript_golden():
    rng = HmacDrbg(b"golden-determinism")
    pki = Pki(rng=rng.fork(b"pki"))
    client = TLSClientEngine(
        TLSConfig(rng=rng.fork(b"cli"), trust_store=pki.trust, server_name="server")
    )
    server = TLSServerEngine(
        TLSConfig(rng=rng.fork(b"srv"), credential=pki.credential("server"))
    )
    client.start()
    server.start()

    wire = hashlib.sha256()
    events: list = []
    pump(
        _WireTap(client, b"C", wire, events),
        _WireTap(server, b"S", wire, events),
    )
    client.send_application_data(b"hello determinism")
    data = client.data_to_send()
    wire.update(b"C" + data)
    events += [("server", type(e).__name__) for e in server.receive_bytes(data)]

    assert events == [
        ("server", "HandshakeComplete"),
        ("client", "HandshakeComplete"),
        ("server", "ApplicationData"),
    ]
    assert (
        hashlib.sha256(b"".join(client._transcript)).hexdigest()
        == "d82ea685d71b3cf4a47842b93c37eae65202ea2fb5868d1f71b0c2c7ae99817e"
    )
    assert (
        hashlib.sha256(client.master_secret).hexdigest()
        == "267684709696ef657691f466362dcf03ebb6059eaf4aca974d901a3e988d3a47"
    )
    assert (
        wire.hexdigest()
        == "512e83a045db37e41c54cb971b6dfe3428e5d7dc47c8b3b272683f6507ce0e7b"
    )


def test_mdtls_transcript_golden():
    """One-middlebox mdTLS run: same seed, byte-identical wire transcript."""
    rng = HmacDrbg(b"golden-mdtls")
    pki = Pki(rng=rng.fork(b"pki"))
    deployment = MdTLSDeployment(
        rng=rng.fork(b"deploy"),
        trust_store=pki.trust,
        client_credential=pki.credential("client"),
        server_credential=pki.credential("server"),
        middleboxes=[("mbox", pki.credential("mbox"))],
    )
    client = deployment.build_client()
    middlebox = deployment.build_middlebox(0)
    server = deployment.build_server()
    client.start()
    middlebox.start()
    server.start()

    wire = hashlib.sha256()
    events: list = []
    for _ in range(12):
        progressed = False
        data = client.data_to_send()
        if data:
            wire.update(b"C" + data)
            middlebox.receive_down(data)
            progressed = True
        data = middlebox.data_to_send_up()
        if data:
            wire.update(b"MU" + data)
            events += [
                ("server", type(e).__name__) for e in server.receive_bytes(data)
            ]
            progressed = True
        data = server.data_to_send()
        if data:
            wire.update(b"S" + data)
            middlebox.receive_up(data)
            progressed = True
        data = middlebox.data_to_send_down()
        if data:
            wire.update(b"MD" + data)
            events += [
                ("client", type(e).__name__) for e in client.receive_bytes(data)
            ]
            progressed = True
        if not progressed:
            break

    assert events == [
        ("server", "HandshakeComplete"),
        ("client", "HandshakeComplete"),
    ]
    assert client.established and middlebox.established and server.established

    client.send_application_data(b"GOLDEN-MDTLS")
    data = client.data_to_send()
    wire.update(b"C" + data)
    middlebox.receive_down(data)
    data = middlebox.data_to_send_up()
    wire.update(b"MU" + data)
    received = server.receive_bytes(data)
    assert [type(e).__name__ for e in received] == ["ApplicationData"]
    assert received[0].data == b"GOLDEN-MDTLS"

    assert (
        hashlib.sha256(bytes(client._transcript)).hexdigest()
        == "2f4692cb2a98ca7a53d89b6702364251b4eb17b48223733786a0597c67261603"
    )
    assert (
        wire.hexdigest()
        == "270422efa68c48c3253846fc7095321e2da9b1564fbca0b6ce51c33bd63d51eb"
    )


def test_mbtls_transcript_golden():
    rng = HmacDrbg(b"golden-mbtls")
    pki = Pki(rng=rng.fork(b"pki"))
    scenario = MbTLSScenario(
        pki=pki,
        rng=rng,
        mbox_specs=[("mbox", MiddleboxRole.AUTO, identity, {})],
    ).run_client(b"GOLDEN-PING")

    assert [type(e).__name__ for e in scenario.events] == [
        "MiddleboxJoined",
        "SessionEstablished",
        "ApplicationData",
    ]
    assert [type(e).__name__ for e in scenario.server_events] == [
        "SessionEstablished",
        "ApplicationData",
    ]
    assert scenario.client_received == [b"REPLY:GOLDEN-PING"]
    assert (
        hashlib.sha256(
            b"".join(scenario.client_engine.primary._transcript)
        ).hexdigest()
        == "e51bf3a6aa57325822a341543bcbf6bbb77aecfef63a32e506e4982a5e84c565"
    )
    combined = hashlib.sha256()
    for event in scenario.events:
        combined.update(type(event).__name__.encode())
    for event in scenario.server_events:
        combined.update(type(event).__name__.encode())
    for chunk in scenario.client_received:
        combined.update(chunk)
    assert (
        combined.hexdigest()
        == "2b4c05c8b432dabd954e14e985ae154e97656867c5fb5473a741cb9187896c15"
    )


# ---------------------------------------------------------------------------
# Receive path: one flight, any segmentation, same outcome
# ---------------------------------------------------------------------------

# Four application writes of unequal size, queued and drained as one flight.
_FLIGHT_WRITES = (b"first", b"second" * 40, b"third" * 300, b"fourth")
_TAMPERED_RECORD = 1  # the second record of the flight


def _record_spans(wire: bytes) -> list[tuple[int, int]]:
    """(start, end) of every complete record in ``wire``."""
    spans, offset = [], 0
    while offset + 5 <= len(wire):
        end = offset + 5 + int.from_bytes(wire[offset + 3 : offset + 5], "big")
        spans.append((offset, end))
        offset = end
    return spans


def _segments(wire: bytes, delivery: str) -> list[bytes]:
    if delivery == "one_call":
        return [wire] if wire else []
    if delivery == "per_record":
        return [wire[start:end] for start, end in _record_spans(wire)]
    return [wire[index : index + 1] for index in range(len(wire))]


def _flip_tag(wire: bytes, index: int) -> bytes:
    """Flip the last byte (inside the AEAD tag) of record ``index``."""
    _, end = _record_spans(wire)[index]
    return wire[: end - 1] + bytes([wire[end - 1] ^ 0x01]) + wire[end:]


def _path(client, middles, server, direction):
    """(sender, hops) along ``client - middles - server`` in ``direction``:
    each middle element, then the far endpoint."""
    if direction == "c2s":
        hops = [(m.receive_down, m.data_to_send_up, m.data_to_send_down) for m in middles]
        return client, hops + [(server.receive_bytes, None, server.data_to_send)]
    hops = [(m.receive_up, m.data_to_send_down, m.data_to_send_up) for m in middles[::-1]]
    return server, hops + [(client.receive_bytes, None, client.data_to_send)]


def _segmentation_pair(factory, pki, direction):
    """(sender, hops) for an endpoint pair: one hop, the receiving end."""
    client, server = factory(pki, HmacDrbg(b"segmentation"))
    client.start()
    server.start()
    pump(client, server)
    return _path(client, [], server, direction)


def _mbtls_chain_parties(pki, rng, tamper_policy):
    def endpoint_config(tls):
        return MbTLSEndpointConfig(
            tls=tls, middlebox_trust_store=pki.trust, tamper_policy=tamper_policy
        )

    client = MbTLSClientEngine(endpoint_config(
        TLSConfig(rng=rng.fork(b"cli"), trust_store=pki.trust, server_name="server")
    ))
    middlebox = MbTLSMiddlebox(
        MiddleboxConfig(
            name="mbox",
            tls=TLSConfig(rng=rng.fork(b"mb"), credential=pki.credential("mbox")),
            process=identity,
            tamper_policy=tamper_policy,
        ),
        destination="server",
    )
    server = MbTLSServerEngine(endpoint_config(
        TLSConfig(rng=rng.fork(b"srv"), credential=pki.credential("server"))
    ))
    return client, middlebox, server


def _mdtls_chain_parties(pki, rng):
    deployment = _mdtls_deployment(pki, rng, middleboxes=("mbox",))
    return (
        deployment.build_client(),
        deployment.build_middlebox(0),
        deployment.build_server(),
    )


def _segmentation_chain(build, pki, direction):
    """(sender, hops) for a one-middlebox chain: the middlebox, then the
    far endpoint."""
    client, middlebox, server = build(pki, HmacDrbg(b"segmentation"))
    for party in (client, middlebox, server):
        party.start()
    pump_chain(client, middlebox, server)
    assert client.established and server.established
    return _path(client, [middlebox], server, direction)


# Each case: (pki, direction) -> (sender, hops), handshake done. A hop is
# (receive, drain toward the far end or None, drain back toward the sender).
SEGMENTATION_CASES = {
    "tls": partial(_segmentation_pair, _tls_pair),
    "mbtls": partial(_segmentation_pair, _mbtls_pair),
    "mdtls": partial(_segmentation_pair, _mdtls_pair),
    "mbtls_chain_drop": partial(
        _segmentation_chain, partial(_mbtls_chain_parties, tamper_policy="drop")
    ),
    "mbtls_chain_abort": partial(
        _segmentation_chain, partial(_mbtls_chain_parties, tamper_policy="abort")
    ),
    "mdtls_chain": partial(_segmentation_chain, _mdtls_chain_parties),
}


def _framed_path(protocol, middles, pki, direction):
    """(sender, hops) for a framed baseline: no handshake, and the flight is
    length frames, not TLS records."""
    rng = HmacDrbg(b"segmentation")
    if protocol == "mctls":
        session = McTLSSession(rng.fork(b"c"), rng.fork(b"s"), [1])
        client, server = (
            McTLSRecordConnection(session.endpoint_party(), default_context=1)
            for _ in "cs"
        )
        boxes = [
            McTLSMiddleboxConnection(
                session.middlebox_party({1: ContextPermission.READ})
            )
        ]
    else:
        key = rng.fork(b"tok").random_bytes(32)
        client, server = (BlindBoxStreamConnection(TokenStream(key)) for _ in "cs")
        rule = RuleAuthority(key).encrypt_rule("rule", b"suspicious")
        boxes = [BlindBoxInspectorConnection(BlindBoxDetector([rule]))]
    boxes = boxes[:middles]
    for party in (client, *boxes, server):
        party.start()
    return _path(client, boxes, server, direction)


# The framed baselines (mcTLS, BlindBox), endpoint pairs and one-inspector
# chains: segmentation cases without a per-record or forged-tag leg.
FRAMED_SEGMENTATION_CASES = {
    "mctls": partial(_framed_path, "mctls", 0),
    "blindbox": partial(_framed_path, "blindbox", 0),
    "mctls_inspector": partial(_framed_path, "mctls", 1),
    "blindbox_inspector": partial(_framed_path, "blindbox", 1),
}


def _deliver_flight(case, direction, pki, tampered: bool, delivery: str):
    """Send the four-write flight along one case's path, segmented one way.

    Returns per hop the events it emitted, the bytes it forwarded to the
    next hop, and the bytes it wrote back toward the sender.
    """
    if case in FRAMED_SEGMENTATION_CASES:
        sender, hops = FRAMED_SEGMENTATION_CASES[case](pki, direction)
    else:
        sender, hops = SEGMENTATION_CASES[case](pki, direction)
    for data in _FLIGHT_WRITES:
        sender.send_application_data(data)
    wire = sender.data_to_send()
    if case in SEGMENTATION_CASES:
        assert len(_record_spans(wire)) == len(_FLIGHT_WRITES)
    if tampered:
        wire = _flip_tag(wire, _TAMPERED_RECORD)
    observed = []
    for receive, forward, backward in hops:
        events, forwarded, returned = [], b"", b""
        for segment in _segments(wire, delivery):
            events += receive(segment)
            if forward is not None:
                forwarded += forward()
            returned += backward()
        observed.append((events, forwarded, returned))
        wire = forwarded
    return observed


@pytest.mark.parametrize("tampered", (False, True), ids=("clean", "tampered"))
@pytest.mark.parametrize("direction", ("c2s", "s2c"))
@pytest.mark.parametrize("case", SEGMENTATION_CASES)
def test_flight_outcome_is_independent_of_segmentation(pki, case, direction, tampered):
    """A flight delivered in one call, one record per call or one byte per
    call yields the same events and the same output bytes at every hop;
    with a forged tag on the second record, the record before it is still
    delivered and the forged one never is."""
    outcomes = {
        delivery: _deliver_flight(case, direction, pki, tampered, delivery)
        for delivery in ("one_call", "per_record", "per_byte")
    }
    assert outcomes["per_record"] == outcomes["one_call"]
    assert outcomes["per_byte"] == outcomes["one_call"]
    far_events = outcomes["one_call"][-1][0]
    delivered = [event.data for event in far_events if isinstance(event, ApplicationData)]
    if tampered:
        assert delivered[0] == _FLIGHT_WRITES[0]
        assert _FLIGHT_WRITES[_TAMPERED_RECORD] not in delivered
    else:
        assert delivered == list(_FLIGHT_WRITES)


@pytest.mark.parametrize("direction", ("c2s", "s2c"))
@pytest.mark.parametrize("case", FRAMED_SEGMENTATION_CASES)
def test_framed_flight_outcome_is_independent_of_segmentation(pki, case, direction):
    """A framed flight delivered in one call or one byte per call yields the
    same events and the same output bytes at every hop, and every write
    arrives in order."""
    one_call = _deliver_flight(case, direction, pki, False, "one_call")
    assert _deliver_flight(case, direction, pki, False, "per_byte") == one_call
    for _, forwarded, _ in one_call[:-1]:
        assert forwarded  # every middle element passed the flight on
    far_events = one_call[-1][0]
    delivered = [event.data for event in far_events if isinstance(event, ApplicationData)]
    assert delivered == list(_FLIGHT_WRITES)


def _queue_after_close(sender, data: bytes) -> None:
    """Queue application data under the keys ``sender`` writes with, as a
    peer that ignores its own close_notify would."""
    if getattr(sender, "primary", None) is not None and sender._plane.write_state is None:
        # An mbTLS endpoint without hop keys writes through its primary.
        sender.primary._plane.queue_record(ContentType.APPLICATION_DATA, data)
        sender._drain_primary()
    else:
        sender._plane.queue_record(ContentType.APPLICATION_DATA, data)


@pytest.mark.parametrize("direction", ("c2s", "s2c"))
@pytest.mark.parametrize("case", SEGMENTATION_CASES)
def test_a_close_inside_a_flight_ends_the_walk(pki, case, direction):
    """A record behind a close_notify in the same flight raises no event:
    every party stops walking a flight once it is closed."""
    sender, hops = SEGMENTATION_CASES[case](pki, direction)
    sender.send_application_data(b"before")
    sender.close()
    _queue_after_close(sender, b"after")
    wire = sender.data_to_send()
    assert len(_record_spans(wire)) == 3
    for receive, forward, _ in hops:
        events = receive(wire)
        wire = forward() if forward is not None else b""
    assert [type(event) for event in events] == [
        ApplicationData, AlertReceived, ConnectionClosed,
    ]
    assert events[0].data == b"before"
