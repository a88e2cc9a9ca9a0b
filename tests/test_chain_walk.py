"""The one in-memory chain walk: ``repro.io.chain_links`` and the harness
loop every in-memory check shares, ``repro.bench.fuzzing.SessionRun``.

Fake parties stand in for the protocols so the visit order, the edge flags
and the tap placement are checked apart from any handshake.
"""

from __future__ import annotations

import pytest

from repro.bench import selftest
from repro.bench.fuzzing import Parties, SessionRun
from repro.io import chain_links, pump_chain


class _Endpoint:
    """Queues what it is told to send; records what it receives."""

    def __init__(self, greeting: bytes = b"") -> None:
        self.outbox = greeting
        self.received: list[bytes] = []
        self.closed = False

    def start(self) -> None:
        pass

    def data_to_send(self) -> bytes:
        data, self.outbox = self.outbox, b""
        return data

    def receive_bytes(self, data: bytes) -> list:
        self.received.append(data)
        return []


class _Forwarder:
    """A middle element that forwards each chunk with its name appended."""

    def __init__(self, name: bytes) -> None:
        self.name = name
        self.up = b""
        self.down = b""

    def start(self) -> None:
        pass

    def receive_down(self, data: bytes) -> list:
        self.up += data + b"|" + self.name
        return []

    def receive_up(self, data: bytes) -> list:
        self.down += data + b"|" + self.name
        return []

    def data_to_send_up(self) -> bytes:
        data, self.up = self.up, b""
        return data

    def data_to_send_down(self) -> bytes:
        data, self.down = self.down, b""
        return data


class _Echo(_Endpoint):
    """Sends back whatever it receives: two of these never fall quiet."""

    established = True

    def receive_bytes(self, data: bytes) -> list:
        self.outbox += data
        return []

    def send_application_data(self, data: bytes) -> None:
        self.outbox += data

    def close(self) -> None:
        self.closed = True


def _chain(middles: int):
    left, right = _Endpoint(), _Endpoint()
    return left, [_Forwarder(b"m%d" % i) for i in range(middles)], right


def _expected(left, middles, right):
    """(direction, tag, drain, deliver, sink, client_edge, server_edge)."""
    if not middles:
        return [
            ("c2s", b"c>", left.data_to_send, right.receive_bytes, "right", True, True),
            ("s2c", b"s>", right.data_to_send, left.receive_bytes, "left", True, True),
        ]
    if len(middles) == 1:
        (m0,) = middles
        return [
            ("c2s", b"c>", left.data_to_send, m0.receive_down, "middle0", True, False),
            ("c2s", b"m>", m0.data_to_send_up, right.receive_bytes, "right", False, True),
            ("s2c", b"s>", right.data_to_send, m0.receive_up, "middle0", False, True),
            ("s2c", b"m<", m0.data_to_send_down, left.receive_bytes, "left", True, False),
        ]
    m0, m1 = middles
    return [
        ("c2s", b"c>", left.data_to_send, m0.receive_down, "middle0", True, False),
        ("c2s", b"m>", m0.data_to_send_up, m1.receive_down, "middle1", False, False),
        ("c2s", b"m>", m1.data_to_send_up, right.receive_bytes, "right", False, True),
        ("s2c", b"s>", right.data_to_send, m1.receive_up, "middle1", False, True),
        ("s2c", b"m<", m1.data_to_send_down, m0.receive_up, "middle0", False, False),
        ("s2c", b"m<", m0.data_to_send_down, left.receive_bytes, "left", True, False),
    ]


@pytest.mark.parametrize("middles", (0, 1, 2))
def test_chain_links_visit_order_tags_sinks_and_edges(middles):
    left, mids, right = _chain(middles)
    links = chain_links(left, mids, right)
    assert [tuple(link) for link in links] == _expected(left, mids, right)


def test_chain_links_accepts_one_bare_middle():
    left, (middle,), right = _chain(1)
    assert chain_links(left, middle, right) == chain_links(left, [middle], right)


def test_link_at_matches_direction_and_edge():
    left, _, right = _chain(0)
    c2s, s2c = chain_links(left, [], right)
    # With no middle element one hop is both edges of its direction.
    assert c2s.at("c2s", "left") and c2s.at("c2s", "right")
    assert not c2s.at("s2c", "left") and not c2s.at("s2c", "right")
    assert s2c.at("s2c", "left") and s2c.at("s2c", "right")


def test_pump_chain_carries_each_direction_through_every_middle():
    left, middles, right = _chain(2)
    left.outbox, right.outbox = b"ping", b"pong"
    pump_chain(left, middles, right)
    assert right.received == [b"ping|m0|m1"]
    assert left.received == [b"pong|m1|m0"]


def test_a_server_edge_tap_sees_only_the_bytes_entering_the_server():
    left, middles, right = _chain(2)
    left.outbox, right.outbox = b"ping", b"pong"
    seen = []

    def tap(link, data):
        if link.at("c2s", "right"):
            seen.append(data)
        return data

    run = SessionRun(Parties(left, middles, right), tap)
    run.start()
    run.pump()
    assert seen == [b"ping|m0|m1"]
    assert right.received == [b"ping|m0|m1"]
    assert run.quiesced


def test_a_tap_may_drop_a_flight():
    left, middles, right = _chain(1)
    left.outbox = b"ping"
    run = SessionRun(Parties(left, middles, right), lambda link, data: b"")
    run.pump()
    assert right.received == [] and middles[0].up == b""
    assert run.quiesced  # a dropped flight still counts as progress once


def test_one_unquiet_pump_marks_the_whole_run():
    """The handshake pump quiesces, then a send ping-pongs forever: the run
    must not stay marked quiesced."""
    run = SessionRun(Parties(_Echo(), [], _Echo(), needs_handshake=False))
    run.start()
    run.pump()
    assert run.quiesced
    run.send("left", b"ping")
    assert not run.quiesced
    run.parties.left.outbox = run.parties.right.outbox = b""
    run.pump()  # a later quiet pump does not clear the mark
    assert not run.quiesced


def test_selftest_flags_a_data_phase_livelock(monkeypatch):
    def echo_pair(name, seed):
        return Parties(_Echo(), [], _Echo(), needs_handshake=False)

    monkeypatch.setattr(selftest, "build_parties", echo_pair)
    outcome = selftest._execute("echo", b"livelock", None, None)
    assert outcome.established and not outcome.quiesced
    verdict, _, detail = selftest._classify("echo", "strip_support", outcome, outcome)
    assert (verdict, detail) == ("silent-downgrade", "pump did not quiesce")
