"""Shared length-prefixed framing for the non-TLS baselines.

The mcTLS and BlindBox connections both speak a simple stream framing:
a 4-byte big-endian length followed by the payload, with a zero length
marking an orderly close. This module owns that format once, adds an
**alert frame** (length sentinel ``0xFFFFFFFF`` + u16 length + encoded
:class:`~repro.wire.alerts.Alert`) so those baselines can participate in
the alert plane, and bounds the advertised length so a tampered length
field produces a :class:`~repro.errors.DecodeError` instead of an
indefinitely-starved parser.

It also owns the one frame-receive loop and the contract plumbing those
baselines share: :class:`FramedConnection` (an endpoint) and
:class:`FramedDuplex` (an on-path inspector). A subclass supplies one
payload hook and an ``origin_label``; aborts and alerts go through
:mod:`repro.io.abort`.
"""

from __future__ import annotations

from functools import partial

from repro.errors import DecodeError, ProtocolError, ReproError, SessionAborted
from repro.io import abort
from repro.io.record_plane import RecordPlane
from repro.tls.events import AlertReceived, ApplicationData, ConnectionClosed
from repro.wire.alerts import Alert

__all__ = [
    "FRAME_DATA",
    "FRAME_CLOSE",
    "FRAME_ALERT",
    "MAX_FRAME_PAYLOAD",
    "FramedConnection",
    "FramedDuplex",
    "frame",
    "close_frame",
    "alert_frame",
    "pop_frames",
]

FRAME_DATA = "data"
FRAME_CLOSE = "close"
FRAME_ALERT = "alert"

_HEADER = 4
_ALERT_SENTINEL = 0xFFFFFFFF
_ALERT_HEADER = 2

# Any frame longer than this is treated as a framing attack, not data. The
# largest legitimate payload in the corpus is tens of kilobytes.
MAX_FRAME_PAYLOAD = 1 << 24


def frame(payload: bytes) -> bytes:
    """Encode one data frame."""
    if not payload:
        raise DecodeError("data frames must be non-empty (0 marks close)")
    if len(payload) > MAX_FRAME_PAYLOAD:
        raise DecodeError(f"frame payload of {len(payload)} bytes exceeds bound")
    return len(payload).to_bytes(_HEADER, "big") + payload


def close_frame() -> bytes:
    """Encode the orderly-close marker."""
    return (0).to_bytes(_HEADER, "big")


def alert_frame(alert_payload: bytes) -> bytes:
    """Encode an alert frame carrying an encoded :class:`Alert`."""
    return (
        _ALERT_SENTINEL.to_bytes(_HEADER, "big")
        + len(alert_payload).to_bytes(_ALERT_HEADER, "big")
        + alert_payload
    )


def pop_frames(buffer: bytearray) -> list[tuple[str, bytes]]:
    """Pop complete frames off ``buffer`` in place.

    Returns ``(kind, payload)`` pairs where ``kind`` is one of
    :data:`FRAME_DATA`, :data:`FRAME_CLOSE` (empty payload), or
    :data:`FRAME_ALERT` (payload is the encoded alert). Raises
    :class:`DecodeError` on an implausible length field.
    """
    frames: list[tuple[str, bytes]] = []
    while len(buffer) >= _HEADER:
        length = int.from_bytes(buffer[:_HEADER], "big")
        if length == 0:
            del buffer[:_HEADER]
            frames.append((FRAME_CLOSE, b""))
            continue
        if length == _ALERT_SENTINEL:
            if len(buffer) < _HEADER + _ALERT_HEADER:
                break
            alert_len = int.from_bytes(
                buffer[_HEADER : _HEADER + _ALERT_HEADER], "big"
            )
            total = _HEADER + _ALERT_HEADER + alert_len
            if len(buffer) < total:
                break
            payload = bytes(buffer[_HEADER + _ALERT_HEADER : total])
            del buffer[:total]
            frames.append((FRAME_ALERT, payload))
            continue
        if length > MAX_FRAME_PAYLOAD:
            raise DecodeError(f"frame length {length} exceeds bound")
        if len(buffer) < _HEADER + length:
            break
        payload = bytes(buffer[_HEADER : _HEADER + length])
        del buffer[: _HEADER + length]
        frames.append((FRAME_DATA, payload))
    return frames


def _send_alert(plane: RecordPlane, alert: Alert) -> None:
    plane.queue_raw(alert_frame(alert.encode()))


class _Framed:
    """Contract plumbing shared by both framed shapes."""

    origin_label = ""

    def __init__(self) -> None:
        self.closed = False
        self._started = False
        self.abort: SessionAborted | None = None

    def start(self) -> None:
        if self._started:
            raise ProtocolError(f"{self.origin_label} already started")
        self._started = True

    def _peer_closed(self, error: str) -> list:
        if self.closed:
            return []
        self.closed = True
        return [ConnectionClosed(error=error)]


class FramedConnection(_Framed):
    """A sans-IO :class:`~repro.io.Connection` over length frames.

    Subclasses implement :meth:`_open` (a data frame's payload -> the
    application bytes it carries) and queue their own data frames on
    ``self._out``.
    """

    def __init__(self) -> None:
        super().__init__()
        self._out = RecordPlane()  # coalesced outbox only; no TLS parsing
        self._buffer = bytearray()

    def _open(self, payload: bytes) -> bytes:
        raise NotImplementedError

    def receive_bytes(self, data: bytes) -> list:
        if self.closed:
            return []
        self._buffer += data
        events: list = []
        try:
            for kind, payload in pop_frames(self._buffer):
                if kind == FRAME_CLOSE:
                    self.closed = True
                    events.append(ConnectionClosed())
                elif kind == FRAME_ALERT:
                    alert = Alert.decode(payload)
                    events.append(AlertReceived(alert=alert))
                    ended = abort.received(self, alert)
                    if ended is not None:
                        events.append(ended)
                else:
                    events.append(ApplicationData(data=self._open(payload)))
                if self.closed:
                    break
        except abort.HOSTILE_INPUT as exc:
            # Forged, truncated or undecodable input: answer with a fatal
            # alert and close (the abort invariant).
            events.append(abort.fail(self, exc, partial(_send_alert, self._out)))
        return events

    def data_to_send(self) -> bytes:
        return self._out.data_to_send()

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self._out.queue_raw(close_frame())

    def peer_closed(self) -> list:
        return self._peer_closed("transport closed")


class FramedDuplex(_Framed):
    """A sans-IO :class:`~repro.io.DuplexConnection` over length frames.

    Data frames are forwarded verbatim after :meth:`_inspect` has seen
    them; close and alert frames pass through, and a fatal alert passing
    through tears this hop down too.
    """

    def __init__(self) -> None:
        super().__init__()
        self._planes = [RecordPlane(), RecordPlane()]  # outboxes only
        self._buffers = [bytearray(), bytearray()]

    def _inspect(self, side: int, payload: bytes) -> None:
        """See one data frame arriving on ``side`` (0 = down, 1 = up)."""
        raise NotImplementedError

    def receive_down(self, data: bytes) -> list:
        return self._receive(0, data)

    def receive_up(self, data: bytes) -> list:
        return self._receive(1, data)

    def _receive(self, side: int, data: bytes) -> list:
        if self.closed:
            return []
        buffer = self._buffers[side]
        outbound = self._planes[1 - side]
        buffer += data
        events: list = []
        try:
            for kind, payload in pop_frames(buffer):
                if kind == FRAME_CLOSE:
                    outbound.queue_raw(close_frame())
                    continue
                if kind == FRAME_ALERT:
                    outbound.queue_raw(alert_frame(payload))
                    try:
                        alert = Alert.decode(payload)
                    except ReproError:
                        continue  # forwarded verbatim; the endpoints judge it
                    ended = abort.passed_through(self, alert)
                    if ended is not None:
                        events.append(ended)
                        break
                    continue
                self._inspect(side, payload)
                outbound.queue_raw(frame(payload))
        except abort.HOSTILE_INPUT as exc:
            # A frame this hop could check failed: alert both segments.
            events.append(
                abort.fail(self, exc, *(partial(_send_alert, plane) for plane in self._planes))
            )
        return events

    def data_to_send_down(self) -> bytes:
        return self._planes[0].data_to_send()

    def data_to_send_up(self) -> bytes:
        return self._planes[1].data_to_send()

    def peer_closed_down(self) -> list:
        return self._peer_closed("client segment closed")

    def peer_closed_up(self) -> list:
        return self._peer_closed("server segment closed")
