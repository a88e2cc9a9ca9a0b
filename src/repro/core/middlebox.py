"""The mbTLS middlebox engine (§3.4).

A middlebox sits between two TCP segments — *down* faces the client, *up*
faces the server — and plays one of three parts per session:

* **client-side**: the ClientHello carries MiddleboxSupport, so the
  middlebox joins the client's session: it claims a subchannel, answers the
  (double-duty) ClientHello with its own secondary ServerHello *before*
  forwarding the primary ServerHello, completes the secondary handshake,
  receives per-hop keys, and then re-encrypts the data stream hop to hop.
* **server-side**: the middlebox optimistically announces itself toward the
  server with a MiddleboxAnnouncement; if the server speaks mbTLS it opens
  a secondary handshake (server as TLS client), otherwise the middlebox
  notices the primary handshake completing without it, demotes itself to a
  transparent relay, and caches the server as non-mbTLS (§3.4).
* **relay**: forwards bytes verbatim (non-mbTLS traffic, or after rejection).

The engine is sans-IO: drivers feed ``receive_down``/``receive_up`` and
drain ``data_to_send_down``/``data_to_send_up``.
"""

from __future__ import annotations

from functools import partial

from repro.core.config import MiddleboxConfig, MiddleboxRole
from repro import obs
from repro.errors import (
    CryptoError,
    DecodeError,
    IntegrityError,
    ProtocolError,
    SessionAborted,
)
from repro.io import abort
from repro.io.record_plane import MAX_BUFFERED_BYTES, RecordPlane
from repro.tls.ciphersuites import suite_by_code
from repro.tls.engine import TLSServerEngine
from repro.tls.events import (
    ConnectionClosed,
    Event,
    HandshakeComplete,
    MiddleboxKeysInstalled,
    RawRecordReceived,
)
from repro.core.keys import states_from_hop_keys
from repro.core.mux import wrap_engine_output
from repro.wire.alerts import Alert
from repro.wire.extensions import ExtensionType, MiddleboxSupportExtension, ServerNameExtension
from repro.wire.handshake import ClientHello, HandshakeBuffer, HandshakeType
from repro.wire.mbtls import EncapsulatedRecord, KeyMaterial, MiddleboxAnnouncement
from repro.wire.records import ContentType, Record, RecordBuffer

__all__ = ["MbTLSMiddlebox"]

_DOWN, _UP = 0, 1


def _send_alert(plane: RecordPlane, alert: Alert) -> None:
    plane.queue_record(ContentType.ALERT, alert.encode())


class MbTLSMiddlebox:
    """One middlebox instance handling one client connection."""

    MODE_WAITING = "waiting"
    MODE_CLIENT_SIDE = "client-side"
    MODE_SERVER_SIDE = "server-side"
    MODE_RELAY = "relay"

    def __init__(
        self,
        config: MiddleboxConfig,
        destination: str | None = None,
        port: int = 443,
    ) -> None:
        self.config = config
        self.destination = destination
        self.port = port
        self.mode = self.MODE_WAITING
        self.dial_target: tuple[str, int] | None = None
        # One plane per segment. The hop states are *crossed*: c2s records
        # are read on the down plane and re-protected on the up plane (and
        # vice versa), so each plane's read/write states belong to the
        # segment it faces.
        self._planes = [RecordPlane(), RecordPlane()]
        # Party labels: ``<name>:down`` faces the client-side segment,
        # ``<name>:up`` the server-side one, so per-hop sealed/opened
        # counters attribute to the exact plane that did the work.
        self._planes[_DOWN].party = f"{config.name}:down"
        self._planes[_UP].party = f"{config.name}:up"
        self._started = False
        self._events: list[Event] = []
        # Secondary session (we are the TLS server toward our endpoint).
        self._secondary: TLSServerEngine | None = None
        self._secondary_out = RecordBuffer()
        self.my_subchannel: int | None = None
        self._claimed = False
        self._client_hello_record: Record | None = None
        self._seen_subchannels: set[int] = set()
        # Server-side subchannel translation (down id -> up id).
        self._subchannel_map: dict[int, int] = {}
        self._used_up_subchannels: set[int] = set()
        # Data plane.
        self.keys_installed = False
        self.rejected = False
        self.gave_up = False
        self._pending: tuple[list[Record], list[Record]] = ([], [])
        self.records_processed = 0
        self.records_dropped = 0
        self._primary_session_id: bytes = b""
        self.closed = False
        # Alert-plane attribution (see DESIGN.md §9).
        self.abort: SessionAborted | None = None

    # ------------------------------------------------------------------ API

    def start(self) -> None:
        """A middlebox only reacts to traffic; start just arms the engine."""
        if self._started:
            raise ProtocolError("middlebox already started")
        self._started = True

    def receive_down(self, data: bytes) -> list[Event]:
        return self._receive(_DOWN, data)

    def receive_up(self, data: bytes) -> list[Event]:
        return self._receive(_UP, data)

    def data_to_send_down(self) -> bytes:
        return self._planes[_DOWN].data_to_send()

    def data_to_send_up(self) -> bytes:
        return self._planes[_UP].data_to_send()

    @property
    def joined(self) -> bool:
        """Whether this middlebox is an authenticated session member."""
        return self.keys_installed and not self.rejected

    @property
    def outbox_fill(self) -> float:
        """Fullest outbound buffer as a fraction of the 4 MiB bound.

        The backpressure signal: past ~1.0 the next queued record raises
        ``record_overflow``, so admission controllers stop dialing new
        sessions through this middlebox well before that.
        """
        fullest = max(plane.pending_outbound_bytes for plane in self._planes)
        return fullest / MAX_BUFFERED_BYTES

    # Hop-state views (the planes own them; see the crossing note above).

    @property
    def _c2s_read(self):
        return self._planes[_DOWN].read_state

    @property
    def _c2s_write(self):
        return self._planes[_UP].write_state

    @property
    def _s2c_read(self):
        return self._planes[_UP].read_state

    @property
    def _s2c_write(self):
        return self._planes[_DOWN].write_state

    def peer_closed_down(self) -> list[Event]:
        """The client-facing segment closed; tear down toward the server."""
        return self._handle_close(_DOWN)

    def peer_closed_up(self) -> list[Event]:
        """The server-facing segment closed; tear down toward the client."""
        return self._handle_close(_UP)

    def _handle_close(self, from_side: int) -> list[Event]:
        """Half-open teardown: one side of the split TCP connection closed.

        A joined middlebox owes the surviving side a ``close_notify`` under
        the hop keys (so the endpoint sees a clean TLS close, not a bare
        TCP reset), and its secondary session — if it faces the surviving
        side — is closed too so the subchannel dies with the connection.
        """
        if self.closed:
            return []
        self.closed = True
        surviving = 1 - from_side
        if self.joined:
            plane = self._planes[surviving]
            if plane.write_state is not None:
                plane.queue_record(ContentType.ALERT, Alert.close_notify().encode())
        if self._secondary is not None and not self._secondary.closed:
            secondary_side = _DOWN if self.mode == self.MODE_CLIENT_SIDE else _UP
            if secondary_side == surviving:
                self._close_secondary()
        self._events.append(ConnectionClosed())
        events = self._events
        self._events = []
        return events

    # ------------------------------------------------------------ internals

    def _receive(self, side: int, data: bytes) -> list[Event]:
        if self.closed:
            return []
        if self.mode == self.MODE_RELAY:
            try:
                self._planes[1 - side].queue_raw(data)
            except ProtocolError as exc:
                # Outbox overflow: the relay target stopped draining.
                self.closed = True
                self._events.append(
                    ConnectionClosed(
                        error=str(exc), alert=exc.alert, origin=self.config.name
                    )
                )
        else:
            plane = self._planes[side]
            try:
                plane.feed(data)
                records = plane.pop_records()
            except DecodeError:
                # Not TLS framing: become a transparent relay.
                self._demote_to_relay(flush_side=side)
                records = []
            except ProtocolError as exc:
                # A mutated length field starved the parser until the
                # buffer bound tripped: abort rather than buffer forever.
                self._abort(exc)
                records = []
            for record, plaintext in plane.open_flight(records, self._can_batch_data):
                if self.closed:
                    break
                if self.mode == self.MODE_RELAY:
                    self._planes[1 - side].queue_encoded(record)
                    continue
                try:
                    if plaintext is None:
                        self._process(side, record)
                    else:
                        self._data_plane(side, record, plaintext)
                except (DecodeError, IntegrityError, CryptoError):
                    # A corrupted record inside otherwise-valid framing
                    # (malformed Encapsulated wrapper, garbage key
                    # material): drop it. Endpoint AEAD/timers catch what
                    # the path mangled; a middlebox must never crash its
                    # driver over hostile bytes.
                    pass
                except ProtocolError as exc:
                    self._abort(exc)
        events = self._events
        self._events = []
        return events

    @property
    def origin_label(self) -> str:
        """Alerts this middlebox originates name it by its configured name."""
        return self.config.name

    def _abort(self, exc: Exception) -> None:
        """Originate a fatal alert toward both segments and shut down.

        Used for faults this hop detects itself (buffer overflow, or AEAD
        failure under ``tamper_policy="abort"``); both endpoints receive an
        alert attributed to this middlebox by name.
        """
        if self.closed:
            return
        event = abort.fail(
            self, exc, *(partial(_send_alert, plane) for plane in self._planes)
        )
        obs.counter("alerts_sent", origin=self.config.name, alert=self.abort.alert).inc()
        self._close_secondary()
        self._events.append(event)

    def _close_secondary(self) -> None:
        if self._secondary is not None and not self._secondary.closed:
            self._secondary.close()
            self._drain_secondary()

    def _demote_to_relay(self, flush_side: int | None = None) -> None:
        self.mode = self.MODE_RELAY
        # Flush any buffered data-phase records verbatim, preserving direction.
        for record in self._pending[0]:
            self._planes[_UP].queue_encoded(record)
        for record in self._pending[1]:
            self._planes[_DOWN].queue_encoded(record)
        self._pending = ([], [])
        for side in (_DOWN, _UP):
            raw = self._planes[side].drain_inbound_raw()
            if raw:
                self._planes[1 - side].queue_raw(raw)

    def _forward(self, from_side: int, record: Record) -> None:
        self._planes[1 - from_side].queue_encoded(record)

    def _process(self, side: int, record: Record) -> None:
        if self.mode == self.MODE_WAITING:
            self._process_waiting(side, record)
        elif self.mode == self.MODE_CLIENT_SIDE:
            if side == _DOWN:
                self._client_side_down(record)
            else:
                self._client_side_up(record)
        elif self.mode == self.MODE_SERVER_SIDE:
            if side == _DOWN:
                self._server_side_down(record)
            else:
                self._server_side_up(record)

    # ----------------------------------------------------------- role choice

    def _process_waiting(self, side: int, record: Record) -> None:
        if side != _DOWN or record.content_type != ContentType.HANDSHAKE:
            # Anything else before a ClientHello: not our protocol; relay.
            self._demote_to_relay()
            self._planes[1 - side].queue_encoded(record)
            return
        buffer = HandshakeBuffer()
        buffer.feed(record.payload)
        try:
            messages = buffer.pop_messages()
        except DecodeError:
            self._demote_to_relay()
            self._planes[_UP].queue_encoded(record)
            return
        if not messages or messages[0].msg_type != HandshakeType.CLIENT_HELLO:
            self._demote_to_relay()
            self._planes[_UP].queue_encoded(record)
            return
        hello = ClientHello.decode_body(messages[0].body)
        self._decide_role(hello, record)

    def _decide_role(self, hello: ClientHello, record: Record) -> None:
        support_ext = hello.find_extension(int(ExtensionType.MIDDLEBOX_SUPPORT))
        sni_ext = hello.find_extension(int(ExtensionType.SERVER_NAME))
        sni = (
            ServerNameExtension.from_extension(sni_ext).host_name if sni_ext else None
        )
        destination = self.destination or sni or ""
        self._session_destination = destination
        self.dial_target = (self._next_hop(support_ext, destination), self.port)

        role = self.config.role
        client_side = support_ext is not None and role in (
            MiddleboxRole.AUTO,
            MiddleboxRole.CLIENT_SIDE,
        )
        server_side = (
            not client_side
            and role in (MiddleboxRole.AUTO, MiddleboxRole.SERVER_SIDE)
            and self.config.serves(destination)
            and destination not in self.config.non_mbtls_servers
        )
        if client_side:
            self.mode = self.MODE_CLIENT_SIDE
            self._client_hello_record = record
            self._forward(_DOWN, record)
        elif server_side:
            self.mode = self.MODE_SERVER_SIDE
            self._forward(_DOWN, record)
            self._announce()
        else:
            self._forward(_DOWN, record)
            self._demote_to_relay()

    def _next_hop(self, support_ext, destination: str) -> str:
        """Preconfigured middleboxes dial the next listed hop; otherwise
        (interception) continue toward the original destination."""
        if support_ext is not None:
            try:
                listed = MiddleboxSupportExtension.from_extension(support_ext).middleboxes
            except DecodeError:
                return destination
            if self.config.name in listed:
                index = listed.index(self.config.name)
                if index + 1 < len(listed):
                    return listed[index + 1]
        return destination

    # ----------------------------------------------------------- client side

    def _client_side_down(self, record: Record) -> None:
        if record.content_type == ContentType.MBTLS_ENCAPSULATED:
            encap = EncapsulatedRecord.from_record(record)
            self._seen_subchannels.add(encap.subchannel_id)
            if self._claimed and encap.subchannel_id == self.my_subchannel:
                self._feed_secondary(encap.inner)
            else:
                self._forward(_DOWN, record)
            return
        if record.content_type == ContentType.APPLICATION_DATA or (
            self.keys_installed and record.content_type == ContentType.ALERT
        ):
            self._data_plane(_DOWN, record)
            return
        self._forward(_DOWN, record)

    def _client_side_up(self, record: Record) -> None:
        if record.content_type == ContentType.MBTLS_ENCAPSULATED:
            encap = EncapsulatedRecord.from_record(record)
            self._seen_subchannels.add(encap.subchannel_id)
            self._forward(_UP, record)
            return
        if record.content_type == ContentType.HANDSHAKE and not self._claimed:
            # First handshake record from the server: the primary ServerHello.
            # Claim the next subchannel and inject our secondary ServerHello
            # *before* forwarding it (the paper's ordering).
            self._note_primary_server_hello(record)
            self._claim_subchannel()
            self._forward(_UP, record)
            return
        if record.content_type == ContentType.APPLICATION_DATA or (
            self.keys_installed and record.content_type == ContentType.ALERT
        ):
            self._data_plane(_UP, record)
            return
        self._forward(_UP, record)

    def _note_primary_server_hello(self, record: Record) -> None:
        """Extract the primary session ID: the key under which we cache our
        secondary session for §3.5 resumption."""
        try:
            buffer = HandshakeBuffer()
            buffer.feed(record.payload)
            messages = buffer.pop_messages()
        except DecodeError:
            return
        if messages and messages[0].msg_type == HandshakeType.SERVER_HELLO:
            from repro.wire.handshake import ServerHello

            try:
                hello = ServerHello.decode_body(messages[0].body)
            except DecodeError:
                return
            self._primary_session_id = hello.session_id

    def _cache_secondary_session(self) -> None:
        """Cache the secondary session under the PRIMARY session ID, so a
        resumed primary hello (which reuses that ID) finds it (§3.5)."""
        cache = self.config.tls.session_cache
        if (
            cache is None
            or not self._primary_session_id
            or self._secondary is None
            or self._secondary.master_secret is None
        ):
            return
        from repro.tls.session import SessionState

        cache.store(
            SessionState(
                session_id=self._primary_session_id,
                master_secret=self._secondary.master_secret,
                cipher_suite=self._secondary.suite.code,
            )
        )

    def _claim_subchannel(self) -> None:
        self.my_subchannel = (max(self._seen_subchannels) + 1) if self._seen_subchannels else 1
        self._claimed = True
        self._secondary = TLSServerEngine(self.config.tls)
        self._secondary._plane.party = f"{self.config.name}:secondary"
        self._secondary.start()
        assert self._client_hello_record is not None
        self._feed_secondary(
            Record(
                content_type=ContentType.HANDSHAKE,
                payload=self._client_hello_record.payload,
            )
        )

    # ----------------------------------------------------------- server side

    def _announce(self) -> None:
        self.my_subchannel = 1
        self._claimed = True
        self._used_up_subchannels.add(1)
        self._secondary = TLSServerEngine(self.config.tls)
        self._secondary._plane.party = f"{self.config.name}:secondary"
        self._secondary.start()
        announcement = EncapsulatedRecord(
            subchannel_id=self.my_subchannel,
            inner=MiddleboxAnnouncement().to_record(),
        )
        self._planes[_UP].queue_encoded(announcement.to_record())

    def _translate_up(self, down_id: int) -> int:
        if down_id in self._subchannel_map:
            return self._subchannel_map[down_id]
        up_id = down_id
        while up_id in self._used_up_subchannels:
            up_id = (up_id % 255) + 1
        self._subchannel_map[down_id] = up_id
        self._used_up_subchannels.add(up_id)
        return up_id

    def _translate_down(self, up_id: int) -> int | None:
        for down_id, mapped in self._subchannel_map.items():
            if mapped == up_id:
                return down_id
        return None

    def _server_side_down(self, record: Record) -> None:
        if record.content_type == ContentType.MBTLS_ENCAPSULATED:
            encap = EncapsulatedRecord.from_record(record)
            up_id = self._translate_up(encap.subchannel_id)
            rewrapped = EncapsulatedRecord(subchannel_id=up_id, inner=encap.inner)
            self._planes[_UP].queue_encoded(rewrapped.to_record())
            return
        if record.content_type == ContentType.APPLICATION_DATA or (
            self.keys_installed and record.content_type == ContentType.ALERT
        ):
            self._data_plane(_DOWN, record)
            return
        self._forward(_DOWN, record)

    def _server_side_up(self, record: Record) -> None:
        if record.content_type == ContentType.MBTLS_ENCAPSULATED:
            encap = EncapsulatedRecord.from_record(record)
            if encap.subchannel_id == self.my_subchannel:
                self._feed_secondary(encap.inner)
                return
            down_id = self._translate_down(encap.subchannel_id)
            if down_id is not None:
                record = EncapsulatedRecord(
                    subchannel_id=down_id, inner=encap.inner
                ).to_record()
            self._planes[_DOWN].queue_encoded(record)
            return
        if record.content_type == ContentType.CHANGE_CIPHER_SPEC and not self._secondary_started():
            # The server is finishing the primary handshake without having
            # opened a secondary session with us: it does not speak mbTLS
            # (or rejected us — or an on-path attacker suppressed our
            # announcement; the wire looks identical). Give up, relay, and
            # remember (§3.4). The fallback counter is the only footprint
            # this silent downgrade leaves, so it is load-bearing.
            self.gave_up = True
            obs.counter(
                "session.fallback",
                party=self.config.name,
                reason="announcement_unanswered",
            ).inc()
            self.config.non_mbtls_servers.add(self._session_destination)
            self._flush_pending_verbatim()
            self._forward(_UP, record)
            return
        if record.content_type == ContentType.APPLICATION_DATA or (
            self.keys_installed and record.content_type == ContentType.ALERT
        ):
            self._data_plane(_UP, record)
            return
        self._forward(_UP, record)

    def _secondary_started(self) -> bool:
        """Whether the server engaged us (sent its secondary ClientHello)."""
        if self._secondary is None:
            return False
        return self._secondary.client_random is not None

    def _flush_pending_verbatim(self) -> None:
        for record in self._pending[0]:
            self._planes[_UP].queue_encoded(record)
        for record in self._pending[1]:
            self._planes[_DOWN].queue_encoded(record)
        self._pending = ([], [])

    # ------------------------------------------------------ secondary session

    def _feed_secondary(self, inner: Record) -> None:
        events = self._secondary.receive_bytes(inner.encode())
        self._drain_secondary()
        for event in events:
            if isinstance(event, RawRecordReceived) and event.content_type == (
                ContentType.MBTLS_KEY_MATERIAL
            ):
                self._install_keys(KeyMaterial.from_payload(event.payload))
            elif isinstance(event, HandshakeComplete):
                # Endpoint verified us; keys arrive next. Remember the
                # secondary session for future abbreviated handshakes.
                self._cache_secondary_session()
            elif isinstance(event, ConnectionClosed):
                # The endpoint rejected us: carry traffic verbatim.
                self.rejected = True
                self._flush_pending_verbatim()

    def _drain_secondary(self) -> None:
        side = _DOWN if self.mode == self.MODE_CLIENT_SIDE else _UP
        self._planes[side].queue_raw(
            wrap_engine_output(self._secondary, self.my_subchannel, self._secondary_out)
        )

    def _install_keys(self, material: KeyMaterial) -> None:
        suite_down = suite_by_code(material.toward_client.cipher_suite)
        suite_up = suite_by_code(material.toward_server.cipher_suite)
        c2s_read, s2c_write = states_from_hop_keys(suite_down, material.toward_client)
        c2s_write, s2c_read = states_from_hop_keys(suite_up, material.toward_server)
        self._planes[_DOWN].replace_states(c2s_read, s2c_write)
        self._planes[_UP].replace_states(s2c_read, c2s_write)
        self.keys_installed = True
        obs.counter(
            "key_installs", party=self.config.name, kind="hop",
            suite=suite_down.name,
        ).inc()
        obs.tracer().mark("keys.installed", party=self.config.name)
        self._events.append(
            MiddleboxKeysInstalled(
                toward_client_suite=suite_down.code,
                toward_server_suite=suite_up.code,
            )
        )
        # Flush data that arrived before our keys (the False-Start case).
        pending_down, pending_up = self._pending
        self._pending = ([], [])
        for record in pending_down:
            self._data_plane(_DOWN, record)
        for record in pending_up:
            self._data_plane(_UP, record)

    # -------------------------------------------------------------- data path

    def _can_batch_data(self) -> bool:
        """Whether application data can be opened in a batch: steady-state
        forwarding with hop keys installed, where every application-data
        record reaches :meth:`_data_plane` (every special case — pending
        keys, rejected, gave up — goes per record)."""
        return (
            self.mode in (self.MODE_CLIENT_SIDE, self.MODE_SERVER_SIDE)
            and self.keys_installed
            and not self.rejected
            and not self.gave_up
        )

    def _data_plane(
        self, from_side: int, record: Record, plaintext: bytes | None = None
    ) -> None:
        """Re-protect one data record onto the next hop.

        ``plaintext`` is given when the flight walk already opened the
        record in a batch; otherwise it is opened here.
        """
        if self.rejected or self.gave_up:
            self._forward(from_side, record)
            return
        if not self.keys_installed:
            self._pending[0 if from_side == _DOWN else 1].append(record)
            return
        direction = "c2s" if from_side == _DOWN else "s2c"
        if plaintext is None:
            try:
                plaintext = self._planes[from_side].unprotect(record)
            except IntegrityError as exc:
                if self.config.tamper_policy == "abort":
                    self._abort(exc)
                else:
                    # Tampered or out-of-path record: drop it (P2/P4).
                    self.records_dropped += 1
                    obs.counter("records_dropped", party=self.config.name).inc()
                return
        if record.content_type == ContentType.ALERT:
            self._propagate_alert(from_side, plaintext)
            return
        if record.content_type == ContentType.APPLICATION_DATA:
            plaintext = self._run_app(direction, plaintext)
            self.records_processed += 1
            obs.counter(
                "records_processed", party=self.config.name, direction=direction
            ).inc()
            if plaintext is None:
                return  # the application consumed the chunk
        self._planes[1 - from_side].queue_record(record.content_type, plaintext)

    def _propagate_alert(self, from_side: int, plaintext: bytes) -> None:
        """Re-protect an authenticated alert onto the next hop, and on a
        fatal (non-close) alert tear this hop down too, so the abort sweeps
        the whole path instead of leaving middleboxes half-open."""
        self._planes[1 - from_side].queue_record(ContentType.ALERT, plaintext)
        try:
            alert = Alert.decode(plaintext)
        except DecodeError:
            return  # forwarded verbatim; the endpoints will judge it
        ended = abort.passed_through(self, alert)
        if ended is not None:
            self._close_secondary()
            self._events.append(ended)

    def _run_app(self, direction: str, plaintext: bytes) -> bytes | None:
        """Invoke the middlebox application, rich or plain-callable."""
        on_data = getattr(self.config.process, "on_data", None)
        if on_data is None:
            return self.config.process(direction, plaintext)
        from repro.apps.base import AppApi

        def send_to_client(data: bytes) -> None:
            self._planes[_DOWN].queue_record(ContentType.APPLICATION_DATA, data)

        def send_to_server(data: bytes) -> None:
            self._planes[_UP].queue_record(ContentType.APPLICATION_DATA, data)

        return on_data(direction, plaintext, AppApi(send_to_client, send_to_server))
