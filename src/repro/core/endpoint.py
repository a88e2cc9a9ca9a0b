"""What the two mbTLS endpoints share (§3.4).

:class:`~repro.core.client.MbTLSClientEngine` and
:class:`~repro.core.server.MbTLSServerEngine` differ in how middleboxes
join — the client admits secondary ServerHellos, the server answers
announcements — but not in anything else a record can reach: the primary
TLS stream until the hop keys arrive, the hop-key data plane after, and
the abort path (:mod:`repro.io.abort`) on both.
"""

from __future__ import annotations

from repro import obs
from repro.core.config import MbTLSEndpointConfig, MiddleboxInfo
from repro.core.mux import Subchannel
from repro.errors import IntegrityError, ProtocolError, SessionAborted
from repro.io import abort
from repro.io.record_plane import RecordPlane
from repro.tls.events import AlertReceived, ApplicationData, ConnectionClosed, Event
from repro.wire.alerts import Alert
from repro.wire.mbtls import EncapsulatedRecord
from repro.wire.records import ContentType, Record

__all__ = ["MbTLSEndpoint"]


class MbTLSEndpoint:
    """Base of both mbTLS endpoints.

    :meth:`receive_bytes` is shared: it walks each flight with the
    plane's :meth:`~repro.io.record_plane.RecordPlane.open_flight`.
    Subclasses implement ``start`` and ``send_application_data``, the
    subchannel hooks :meth:`_new_subchannel` and
    ``_handle_secondary_events``, and ``_check_established``, which runs
    after every flight.
    """

    is_client: bool

    def __init__(self, config: MbTLSEndpointConfig, primary, origin_label: str) -> None:
        self.config = config
        self.primary = primary
        # The plane's read/write states are this endpoint's adjacent hop
        # keys, installed at establishment; before that everything is
        # forwarded raw.
        self._plane = RecordPlane()
        self._events: list[Event] = []
        self._secondaries: dict[int, Subchannel] = {}
        self._arrival_order: list[int] = []
        self._middlebox_infos: dict[int, MiddleboxInfo] = {}
        self.established = False
        self.closed = False
        self.records_dropped = 0
        # Alert-plane attribution (see DESIGN.md §9).
        self.origin_label = origin_label
        self.primary.origin_label = origin_label
        self._plane.party = origin_label
        self._session_span = None
        self.abort: SessionAborted | None = None
        # Subchannels abandoned because their middlebox stalled or died
        # mid-handshake (graceful degradation, not rejection-by-policy).
        self.bypassed_subchannels: list[int] = []
        # Every decision to proceed without a path member, as
        # (subchannel_id, reason) — the downgrade-visibility ledger.
        self.fallback_decisions: list[tuple[int, str]] = []

    # ------------------------------------------------------------------ API

    def receive_bytes(self, data: bytes) -> list[Event]:
        if self.closed:
            return []
        try:
            plane = self._plane
            plane.feed(data)
            for record, plaintext in plane.open_flight(
                plane.pop_records(), self._on_hop_keys
            ):
                if self.closed:
                    break
                if plaintext is None:
                    self._process_record(record)
                else:
                    self._events.append(ApplicationData(data=plaintext))
            self._check_established()
        except (IntegrityError, ProtocolError) as exc:
            # Unparseable or forged input on the primary stream: answer with
            # a fatal alert on whatever plane is live, then shut down.
            self._abort(exc)
        events = self._events
        self._events = []
        return events

    def data_to_send(self) -> bytes:
        return self._plane.data_to_send()

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        alert = Alert.close_notify()
        if self._plane.write_state is not None:
            self._plane.queue_record(ContentType.ALERT, alert.encode())
        else:
            self.primary.close()
            self._drain_primary()
        self._events.append(ConnectionClosed())

    def peer_closed(self) -> list[Event]:
        """The TCP stream died under us (crash, reset): report cleanly."""
        if self.closed:
            return []
        self.closed = True
        self._events.append(ConnectionClosed(error="transport closed"))
        events = self._events
        self._events = []
        return events

    # Back-compat alias for pre-contract callers.
    handle_transport_close = peer_closed

    @property
    def middleboxes(self) -> tuple[MiddleboxInfo, ...]:
        """Joined middleboxes in path order from the client.

        Each middlebox opens its subchannel before relaying those of the
        middleboxes behind it, so subchannels reach either endpoint
        nearest-first; path order from the client is the reverse.
        """
        return tuple(
            self._middlebox_infos[sub]
            for sub in reversed(self._arrival_order)
            if sub in self._middlebox_infos and not self._secondaries[sub].rejected
        )

    @property
    def resumed(self) -> bool:
        return self.primary.resumed

    @property
    def _data_read(self):
        """The adjacent hop read state (None until established)."""
        return self._plane.read_state

    @property
    def _data_write(self):
        """The adjacent hop write state (None until established)."""
        return self._plane.write_state

    # ------------------------------------------------------------ internals

    def _drain_primary(self) -> None:
        self._plane.queue_raw(self.primary.data_to_send())

    def _drain_secondary(self, sub: Subchannel) -> None:
        self._plane.queue_raw(sub.drain())

    def _abort(self, exc: Exception) -> None:
        """Send a fatal alert for ``exc`` and close (the abort invariant)."""
        if self.closed:
            return
        self._events.append(abort.fail(self, exc, self._send_alert))
        name = self.abort.alert
        obs.counter("alerts_sent", origin=self.origin_label, alert=name).inc()
        obs.tracer().end(self._session_span, error=name)

    def _send_alert(self, alert: Alert) -> None:
        if self._plane.write_state is not None:
            self._plane.queue_record(ContentType.ALERT, alert.encode())
        else:
            # Pre-establishment: the alert travels on the primary stream
            # under whatever protection the primary currently has.
            self.primary._plane.queue_record(ContentType.ALERT, alert.encode())
            self._drain_primary()

    def _on_hop_keys(self) -> bool:
        """Whether data records travel under this endpoint's hop keys."""
        return self.established and self._plane.write_state is not None

    def _process_record(self, record: Record) -> None:
        if record.content_type == ContentType.MBTLS_ENCAPSULATED:
            self._process_encapsulated(EncapsulatedRecord.from_record(record))
            return
        if self._on_hop_keys() and record.content_type in (
            ContentType.APPLICATION_DATA,
            ContentType.ALERT,
        ):
            self._process_data_record(record)
            return
        events = self.primary.receive_bytes(record.encode())
        self._drain_primary()
        for event in events:
            # HandshakeComplete is folded into SessionEstablished.
            if isinstance(event, (ApplicationData, AlertReceived, ConnectionClosed)):
                self._events.append(event)
                if isinstance(event, ConnectionClosed):
                    self.closed = True
                    if self.abort is None:
                        self.abort = self.primary.abort

    def _process_data_record(self, record: Record) -> None:
        try:
            plaintext = self._plane.unprotect(record)
        except IntegrityError as exc:
            if self.config.tamper_policy == "abort":
                self._abort(exc)
            else:
                # Tampered, replayed, or cross-hop record: discard it (P2/P4).
                self.records_dropped += 1
            return
        if record.content_type == ContentType.APPLICATION_DATA:
            self._events.append(ApplicationData(data=plaintext))
        else:
            alert = Alert.decode(plaintext)
            self._events.append(AlertReceived(alert=alert))
            ended = abort.received(self, alert)
            if ended is not None:
                self._events.append(ended)

    def _process_encapsulated(self, encap: EncapsulatedRecord) -> None:
        sub = self._secondaries.get(encap.subchannel_id)
        if sub is None:
            self._new_subchannel(encap)
            return
        events = sub.feed_inner(encap.inner)
        self._drain_secondary(sub)
        self._handle_secondary_events(sub, events)

    def _new_subchannel(self, encap: EncapsulatedRecord) -> None:
        """A record arrived on a subchannel no secondary session owns yet."""
        raise NotImplementedError

    def _note_fallback(self, subchannel_id: int, reason: str) -> None:
        """Ledger + counter: the session will proceed without this member."""
        self.fallback_decisions.append((subchannel_id, reason))
        obs.counter(
            "session.fallback", party=self.origin_label, reason=reason
        ).inc()
