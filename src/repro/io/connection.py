"""The shared connection contract every protocol party implements.

Every party in the tree — the plain TLS engines, the three mbTLS engines,
and all five baselines — is a *sans-IO* state machine behind one of two
surfaces:

* :class:`Connection` — an endpoint: one byte stream in, one byte stream
  out (``start / receive_bytes -> events / data_to_send / close /
  peer_closed / closed``).
* :class:`DuplexConnection` — an in-path element between two TCP segments
  (*down* faces the client, *up* faces the server), with the same surface
  per side.

The contract (enforced by ``tests/test_connection_contract.py``):

* ``start()`` may be called exactly once; a second call raises
  :class:`~repro.errors.ProtocolError` and must not emit bytes or events.
* ``data_to_send()`` drains: an immediate second call returns ``b""``.
* ``receive_bytes()`` after ``closed`` returns ``[]`` — never raises.
* ``close()`` and ``peer_closed()`` are idempotent; events after close
  are empty.
* sending application data after close raises
  :class:`~repro.errors.ProtocolError` instead of silently queueing.
* the same DRBG seed yields a byte-identical wire transcript.

This module also owns the order in which bytes cross an in-memory chain:
:func:`chain_links` lists its hops (:class:`Link`) in visit order, and every
in-memory walk in the tree loops over those links — :func:`pump_chain`
(endpoint - duplex elements - endpoint), :func:`pump` (two directly
connected endpoints, the chain with no middle) and the guarded, hashed
harness run :class:`repro.bench.fuzzing.SessionRun` that fuzz, selftest,
the chain benchmark and the mdTLS threat rows share. :class:`DuplexPump`
drains a duplex element's outboxes into two transports. Drivers and tests
must use these instead of hand-rolling quiescence loops.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Protocol, runtime_checkable

__all__ = [
    "Connection",
    "DuplexConnection",
    "DuplexPump",
    "Link",
    "chain_links",
    "flush_connection",
    "pump",
    "pump_chain",
]

#: Safety bound on pump rounds; any healthy handshake quiesces well before.
DEFAULT_PUMP_ROUNDS = 30


@runtime_checkable
class Connection(Protocol):
    """A sans-IO endpoint: one inbound byte stream, one outbound."""

    @property
    def closed(self) -> bool: ...

    def start(self) -> None:
        """Kick the state machine off (e.g. send a ClientHello)."""
        ...

    def receive_bytes(self, data: bytes) -> list:
        """Feed transport bytes; returns the protocol events they caused."""
        ...

    def data_to_send(self) -> bytes:
        """Drain bytes destined for the transport."""
        ...

    def send_application_data(self, data: bytes) -> None:
        """Queue application data (raises once closed)."""
        ...

    def close(self) -> None:
        """Shut down cleanly (say goodbye on the wire if possible)."""
        ...

    def peer_closed(self) -> list:
        """The transport died under us; returns the resulting events."""
        ...


@runtime_checkable
class DuplexConnection(Protocol):
    """A sans-IO in-path element between two TCP segments."""

    @property
    def closed(self) -> bool: ...

    def start(self) -> None: ...

    def receive_down(self, data: bytes) -> list:
        """Feed bytes arriving on the client-facing segment."""
        ...

    def receive_up(self, data: bytes) -> list:
        """Feed bytes arriving on the server-facing segment."""
        ...

    def data_to_send_down(self) -> bytes: ...

    def data_to_send_up(self) -> bytes: ...

    def peer_closed_down(self) -> list:
        """The client-facing segment closed under us."""
        ...

    def peer_closed_up(self) -> list:
        """The server-facing segment closed under us."""
        ...


class Link(NamedTuple):
    """One hop of an in-memory chain: where bytes leave and where they land.

    ``tag`` names the hop on the wire (``c>`` leaves the client, ``m>`` and
    ``m<`` leave a middle element, ``s>`` leaves the server); ``sink`` names
    the party that receives (``left``, ``middle{i}``, ``right``). A hop
    that leaves the client or enters it touches the client edge; likewise
    for the server. With no middle element each direction's one hop
    touches both edges.
    """

    direction: str  # "c2s" or "s2c"
    tag: bytes
    drain: Callable[[], bytes]
    deliver: Callable[[bytes], list]
    sink: str
    client_edge: bool
    server_edge: bool

    def at(self, direction: str, edge: str) -> bool:
        """True iff this hop runs ``direction`` and touches ``edge``
        (``"left"``, the client edge, or ``"right"``, the server edge)."""
        touches = self.client_edge if edge == "left" else self.server_edge
        return self.direction == direction and touches


def chain_links(
    left: Connection, middles: DuplexConnection | list, right: Connection
) -> list[Link]:
    """The hops of ``left - [duplex elements] - right`` in pump visit order.

    ``middles`` is one duplex element or a list ordered client-to-server.
    A round visits the client-to-server hops from the client on, then the
    server-to-client hops from the server on.
    """
    if not isinstance(middles, (list, tuple)):
        middles = [middles]
    last = len(middles)
    names = ["left", *(f"middle{i}" for i in range(last)), "right"]
    hops = [left, *middles, right]
    links = []
    for i in range(last + 1):
        src, dst = hops[i], hops[i + 1]
        links.append(Link(
            "c2s",
            b"c>" if i == 0 else b"m>",
            src.data_to_send if i == 0 else src.data_to_send_up,
            dst.receive_bytes if i == last else dst.receive_down,
            names[i + 1],
            client_edge=i == 0,
            server_edge=i == last,
        ))
    for i in range(last + 1, 0, -1):
        src, dst = hops[i], hops[i - 1]
        links.append(Link(
            "s2c",
            b"s>" if i == last + 1 else b"m<",
            src.data_to_send if i == last + 1 else src.data_to_send_down,
            dst.receive_bytes if i == 1 else dst.receive_up,
            names[i - 1],
            client_edge=i == 1,
            server_edge=i == last + 1,
        ))
    return links


def pump(
    a: Connection, b: Connection, rounds: int = DEFAULT_PUMP_ROUNDS
) -> tuple[list, list]:
    """Drive two directly connected connections to quiescence.

    The chain with no middle element: ``a -> b`` then ``b -> a`` until
    neither side produced output. Returns ``(a_events, b_events)``.
    """
    a_events, _, b_events = pump_chain(a, [], b, rounds)
    return a_events, b_events


def pump_chain(
    left: Connection,
    middles: DuplexConnection | list,
    right: Connection,
    rounds: int = DEFAULT_PUMP_ROUNDS,
) -> tuple[list, list, list]:
    """Drive ``left - [duplex elements] - right`` to quiescence in memory.

    ``middles`` is one duplex element or a list ordered client-to-server.
    Returns ``(left_events, middle_events, right_events)`` with the middle
    events flattened across elements.
    """
    left_events: list = []
    middle_events: list = []
    right_events: list = []
    sinks = {"left": left_events, "right": right_events}
    links = chain_links(left, middles, right)
    for _ in range(rounds):
        progressed = False
        for link in links:
            data = link.drain()
            if data:
                sinks.get(link.sink, middle_events).extend(link.deliver(data))
                progressed = True
        if not progressed:
            break
    return left_events, middle_events, right_events


def flush_connection(connection: Connection, send: Callable[[bytes], None]) -> bool:
    """Drain a connection's outbox into ``send``; True if bytes moved."""
    data = connection.data_to_send()
    if data:
        send(data)
        return True
    return False


class DuplexPump:
    """Drains a duplex element's outboxes into its two transports.

    The transports only need ``send(data)`` and a ``closed`` attribute —
    the simulated :class:`~repro.netsim.network.Socket` qualifies, as does
    any test double. The up transport may be bound late (optimistic split
    TCP dials the onward segment after the first client flight).
    """

    def __init__(self, connection: DuplexConnection, down, up=None) -> None:
        self.connection = connection
        self.down = down
        self.up = up

    def bind_up(self, up) -> None:
        self.up = up

    def flush(self) -> None:
        """Move pending output toward whichever segments are still open."""
        if self.up is not None and not self.up.closed:
            data = self.connection.data_to_send_up()
            if data:
                self.up.send(data)
        if self.down is not None and not self.down.closed:
            data = self.connection.data_to_send_down()
            if data:
                self.down.send(data)
