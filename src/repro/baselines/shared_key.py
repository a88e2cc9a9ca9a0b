"""The naïve approach of Figure 1: share the primary session key.

An IETF-draft-era design (and CloudFlare Keyless SSL's cousin): establish a
normal end-to-end TLS session, then hand the session keys to the middlebox
over a secondary channel. mbTLS's §3.3 explains why this fails its threat
model; the benchmarks demonstrate the failures concretely:

* the same key protects every hop, so an adversary comparing records
  entering and leaving a middlebox learns whether it modified them
  (no P1C) — an unmodified record is *byte-identical* on both hops;
* records can be replayed from one hop onto another or made to skip the
  middlebox entirely (no P4);
* the key sits in plain middlebox memory, visible to the MIP (no P1A
  against the infrastructure).
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro.errors import CryptoError, ProtocolError, SessionAborted
from repro.io import abort
from repro.io.record_plane import RecordPlane
from repro.netsim.driver import CpuMeter, DuplexDriver
from repro.netsim.network import Host, InterceptedFlow
from repro.tls.ciphersuites import suite_by_code
from repro.tls.engine import TLSClientEngine
from repro.tls.events import ConnectionClosed
from repro.tls.keyschedule import KeyBlock
from repro.tls.record_layer import ConnectionState
from repro.wire.alerts import Alert
from repro.wire.records import ContentType, Record

__all__ = [
    "KeySharingClient",
    "KeySharingConnection",
    "KeySharingMiddlebox",
    "KeySharingService",
]

_DOWN, _UP = 0, 1


class KeySharingClient:
    """A TLS client that exports its session keys for a middlebox.

    Wraps :class:`TLSClientEngine`; after the handshake the application
    calls :meth:`exported_keys` and ships them to the middlebox over any
    secure side channel (the experiments use a separate TLS connection).
    """

    def __init__(self, engine: TLSClientEngine) -> None:
        self.engine = engine

    def exported_keys(self) -> tuple[int, KeyBlock]:
        suite, key_block = self.engine.export_key_block()
        return suite.code, key_block


class KeySharingMiddlebox:
    """In-path middlebox holding the endpoints' own session keys.

    It decrypts passing records to run ``process`` over the plaintext and —
    this is the point — re-encrypts them under the *same* keys and sequence
    numbers, so unmodified records leave byte-identical.
    """

    def __init__(
        self, process: Callable[[str, bytes], bytes] = lambda direction, data: data
    ) -> None:
        self._process = process
        self._suite = None
        self._c2s_state: ConnectionState | None = None
        self._s2c_state: ConnectionState | None = None
        self.records_processed = 0
        self.plaintext_seen: list[bytes] = []

    @property
    def keys_installed(self) -> bool:
        return self._c2s_state is not None

    def install_keys(
        self, suite_code: int, key_block: KeyBlock, start_sequence: int = 1
    ) -> None:
        """Receive the shared session keys (out of band)."""
        suite = suite_by_code(suite_code)
        self._suite = suite
        self._c2s_state = ConnectionState(
            suite, key_block.client_write_key, key_block.client_write_iv, start_sequence
        )
        self._s2c_state = ConnectionState(
            suite, key_block.server_write_key, key_block.server_write_iv, start_sequence
        )

    def handle_record(self, direction: str, record: Record) -> Record:
        """Decrypt, process, and re-encrypt one data record in place."""
        state = self._c2s_state if direction == "c2s" else self._s2c_state
        sequence_before = state.sequence
        plaintext = state.unprotect(record)
        self.plaintext_seen.append(plaintext)
        transformed = self._process(direction, plaintext)
        self.records_processed += 1
        # Re-protect under the SAME key at the SAME sequence number: this is
        # what makes unmodified records byte-identical across the middlebox.
        rewrite = state.clone_at(sequence_before)
        out = rewrite.protect(record.content_type, transformed)
        return out

    def seal_alert(self, direction: str, payload: bytes) -> Record | None:
        """Protect an alert toward one side under the shared keys.

        Returns ``None`` before the keys arrive — alerts travel in the
        clear during the handshake anyway.
        """
        state = self._c2s_state if direction == "c2s" else self._s2c_state
        if state is None:
            return None
        return state.protect(ContentType.ALERT, payload)


class KeySharingConnection:
    """Sans-IO duplex splice around a :class:`KeySharingMiddlebox`.

    Handshake records are relayed verbatim; once keys arrive, application
    data records are decrypted/processed/re-encrypted. Records that arrive
    before the keys are relayed verbatim (the middlebox physically cannot
    do anything else).
    """

    def __init__(self, middlebox: KeySharingMiddlebox) -> None:
        self.middlebox = middlebox
        self._planes = [RecordPlane(), RecordPlane()]
        self.closed = False
        self._started = False
        self.origin_label = "shared-key-middlebox"
        self.abort: SessionAborted | None = None

    def start(self) -> None:
        if self._started:
            raise ProtocolError("key-sharing splice already started")
        self._started = True

    def receive_down(self, data: bytes) -> list:
        return self._receive(_DOWN, "c2s", data)

    def receive_up(self, data: bytes) -> list:
        return self._receive(_UP, "s2c", data)

    def _receive(self, side: int, direction: str, data: bytes) -> list:
        if self.closed:
            return []
        inbound = self._planes[side]
        outbound = self._planes[1 - side]
        events: list = []
        try:
            inbound.feed(data)
            records = inbound.pop_records()
        except ProtocolError as exc:
            events.append(self._abort(exc))
            return events
        for record in records:
            if (
                record.content_type == ContentType.APPLICATION_DATA
                and self.middlebox.keys_installed
            ):
                try:
                    record = self.middlebox.handle_record(direction, record)
                except (CryptoError, ProtocolError) as exc:
                    # A tampered record: it cannot be forwarded, and the
                    # shared sequence numbers mean neither can anything
                    # after it. Alert both sides and tear the splice down.
                    events.append(self._abort(exc))
                    break
            outbound.queue_encoded(record)
        return events

    def _abort(self, exc: Exception) -> ConnectionClosed:
        return abort.fail(self, exc, *(partial(self._send_alert, side) for side in (_DOWN, _UP)))

    def _send_alert(self, side: int, alert: Alert) -> None:
        """Seal toward ``side`` under the shared keys once they arrived,
        else send in the clear."""
        payload = alert.encode()
        sealed = self.middlebox.seal_alert("s2c" if side == _DOWN else "c2s", payload)
        if sealed is not None:
            self._planes[side].queue_encoded(sealed)
        else:
            self._planes[side].queue_record(ContentType.ALERT, payload)

    def data_to_send_down(self) -> bytes:
        return self._planes[_DOWN].data_to_send()

    def data_to_send_up(self) -> bytes:
        return self._planes[_UP].data_to_send()

    def peer_closed_down(self) -> list:
        if self.closed:
            return []
        self.closed = True
        return [ConnectionClosed(error="client segment closed")]

    def peer_closed_up(self) -> list:
        if self.closed:
            return []
        self.closed = True
        return [ConnectionClosed(error="server segment closed")]


class KeySharingService:
    """Deploys a key-sharing middlebox as an on-path interceptor."""

    def __init__(
        self,
        host: Host,
        process: Callable[[str, bytes], bytes] = lambda direction, data: data,
        port: int = 443,
        meter: CpuMeter | None = None,
    ) -> None:
        self.host = host
        self.meter = meter if meter is not None else CpuMeter(host.name)
        self.middleboxes: list[KeySharingMiddlebox] = []
        self.drivers: list[DuplexDriver] = []
        self._process = process
        host.intercept(port, self._on_intercept)

    def share_keys(self, suite_code: int, key_block: KeyBlock) -> None:
        """The client pushes its session keys to every flow's middlebox."""
        for middlebox in self.middleboxes:
            middlebox.install_keys(suite_code, key_block)

    def _on_intercept(self, flow: InterceptedFlow) -> None:
        middlebox = KeySharingMiddlebox(self._process)
        self.middleboxes.append(middlebox)
        connection = KeySharingConnection(middlebox)
        driver = DuplexDriver(connection, flow.socket, meter=self.meter)
        self.drivers.append(driver)
        with self.meter.measure():
            connection.start()
        driver.bind_up(flow.dial_onward())
