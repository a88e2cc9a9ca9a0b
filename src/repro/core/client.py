"""The mbTLS client endpoint (§3.4).

Wraps a primary TLS client engine and adds:

* the ``MiddleboxSupport`` ClientHello extension (in-band discovery signal
  plus the list of preconfigured middleboxes);
* demultiplexing of Encapsulated records into per-middlebox secondary TLS
  sessions, where the primary ClientHello did double duty as the secondary
  hello (so discovery adds no round trip);
* authentication/approval of each middlebox (certificate, and optionally an
  SGX attestation bound to the handshake transcript);
* per-hop key generation and distribution (MBTLSKeyMaterial), and the
  client-side data plane under the client-adjacent hop keys.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.config import (
    MbTLSEndpointConfig,
    MiddleboxInfo,
    MiddleboxRejected,
    SessionEstablished,
)
from repro.core.endpoint import MbTLSEndpoint
from repro.core.keys import build_hop_chain, bridge_hop_keys, hop_states_for_endpoint
from repro.core.mux import Subchannel
from repro.core.resumption import RememberedMiddlebox
from repro import obs
from repro.errors import ProtocolError
from repro.tls.ciphersuites import suite_by_code
from repro.tls.config import TLSConfig
from repro.tls.engine import TLSClientEngine
from repro.tls.events import (
    ConnectionClosed,
    Event,
    HandshakeComplete,
    MiddleboxJoined,
)
from repro.wire.alerts import Alert, AlertDescription
from repro.wire.extensions import (
    AttestationRequestExtension,
    MiddleboxSupportExtension,
)
from repro.wire.mbtls import EncapsulatedRecord, KeyMaterial
from repro.wire.records import ContentType, Record

__all__ = ["MbTLSClientEngine"]


class MbTLSClientEngine(MbTLSEndpoint):
    """Sans-IO mbTLS client."""

    is_client = True

    def __init__(self, config: MbTLSEndpointConfig) -> None:
        extra = list(config.tls.extra_extensions)
        extra.append(
            MiddleboxSupportExtension(
                middleboxes=tuple(config.preconfigured_middleboxes)
            ).to_extension()
        )
        if config.require_middlebox_attestation and not config.tls.require_attestation:
            # The primary hello doubles as every secondary hello, so the
            # attestation request must ride in it even when only middlebox
            # (not server) attestation is demanded.
            extra.append(AttestationRequestExtension().to_extension())
        self._primary_config = replace(config.tls, extra_extensions=tuple(extra))
        super().__init__(config, TLSClientEngine(self._primary_config), "client")
        # §3.5 resumption: remembered secondary sessions, by arrival order.
        self._resume_candidates: list[RememberedMiddlebox] = []
        if config.middlebox_session_store is not None and config.tls.server_name:
            self._resume_candidates = config.middlebox_session_store.lookup(
                config.tls.server_name
            )

    # ------------------------------------------------------------------ API

    def start(self) -> None:
        """Send the primary ClientHello (with the MiddleboxSupport extension)."""
        self._session_span = obs.tracer().begin(
            "handshake.mbtls", party=self.origin_label)
        self.primary.start()
        self._drain_primary()

    def send_application_data(self, data: bytes) -> None:
        if self.closed:
            raise ProtocolError("cannot send application data on a closed connection")
        if not self.established:
            raise ProtocolError("mbTLS session not yet established")
        if self._plane.write_state is not None:
            self._plane.queue_application_data(data)
        else:
            self.primary.send_application_data(data)
            self._drain_primary()

    def bypass_pending_middleboxes(
        self, reason: str = "secondary handshake timed out"
    ) -> list[Event]:
        """Give up on middleboxes whose secondary handshakes never finished.

        The paper's middleboxes join *optimistically*; the mirror image is
        that an endpoint must not wait forever for one that stalled or died
        mid-handshake. Each pending subchannel is closed with a fatal alert
        and excluded from the session, and if the primary handshake is done
        the session establishes without them (degraded to the surviving
        path members). Driven by the driver's handshake timer.
        """
        if self.established or self.closed:
            return []
        for sub in self._secondaries.values():
            if sub.complete:
                continue
            sub.complete = True
            sub.rejected = True
            sub.reject_reason = reason
            self.bypassed_subchannels.append(sub.subchannel_id)
            self._note_fallback(sub.subchannel_id, "middlebox_bypassed")
            obs.counter("middleboxes_bypassed", party=self.origin_label).inc()
            obs.tracer().mark(
                "middlebox.bypassed", party=self.origin_label,
                subchannel=sub.subchannel_id, reason=reason,
            )
            self._send_subchannel_alert(sub.subchannel_id)
            self._events.append(
                MiddleboxRejected(subchannel_id=sub.subchannel_id, reason=reason)
            )
        self._check_established()
        events = self._events
        self._events = []
        return events

    # ------------------------------------------------------------ internals

    def _new_subchannel(self, encap: EncapsulatedRecord) -> None:
        """A middlebox opened a new subchannel with its secondary ServerHello."""
        if self.established or self.primary.handshake_complete:
            # Too late to join; ignore the straggler.
            return
        if len(self._secondaries) >= self.config.max_middleboxes:
            self._send_subchannel_alert(encap.subchannel_id)
            return
        position = len(self._arrival_order)
        candidate = (
            self._resume_candidates[position]
            if position < len(self._resume_candidates)
            else None
        )
        secondary_config = TLSConfig(
            rng=self.config.tls.rng.fork(b"secondary-%d" % encap.subchannel_id),
            trust_store=self.config.secondary_trust_store(),
            server_name=None,
            cipher_suites=self.config.tls.cipher_suites,
            now=self.config.tls.now,
            require_attestation=self.config.require_middlebox_attestation,
            attestation_verifier=self.config.middlebox_attestation_verifier,
            on_secret=self.config.tls.on_secret,
            preset_client_hello=self.primary.first_transcript_message,
            preset_resume_session=candidate.session if candidate else None,
        )
        engine = TLSClientEngine(secondary_config)
        # Metrics attribution only — origin_label stays unset so the
        # wire-visible alert plane is untouched.
        engine._plane.party = f"client:sub{encap.subchannel_id}"
        engine.start()  # enters the preset hello into the transcript
        sub = Subchannel(encap.subchannel_id, engine)
        sub.resume_candidate = candidate
        self._secondaries[encap.subchannel_id] = sub
        self._arrival_order.append(encap.subchannel_id)
        events = sub.feed_inner(encap.inner)
        self._drain_secondary(sub)
        self._handle_secondary_events(sub, events)

    def _handle_secondary_events(self, sub: Subchannel, events: list[Event]) -> None:
        for event in events:
            if isinstance(event, HandshakeComplete):
                sub.complete = True
                measurement = sub.engine.attested_measurement
                candidate = getattr(sub, "resume_candidate", None)
                if measurement is None and sub.engine.resumed and candidate:
                    # §3.5: no fresh attestation on resumption — possession
                    # of the cached secondary master proves it is the same
                    # attested enclave; carry the measurement forward.
                    measurement = candidate.measurement
                info = MiddleboxInfo(
                    subchannel_id=sub.subchannel_id,
                    certificate=sub.engine.peer_certificate,
                    measurement=measurement,
                    discovered=True,
                    known_name=(
                        candidate.name if sub.engine.resumed and candidate else None
                    ),
                )
                self._middlebox_infos[sub.subchannel_id] = info
                if not self.config.approve_middlebox(info):
                    self._reject(sub, "application policy rejected the middlebox")
                else:
                    self._events.append(
                        MiddleboxJoined(
                            subchannel_id=sub.subchannel_id,
                            name=info.name,
                            certificate=info.certificate,
                            measurement=info.measurement,
                        )
                    )
            elif isinstance(event, ConnectionClosed) and not sub.complete:
                sub.rejected = True
                sub.complete = True
                self._note_fallback(sub.subchannel_id, "secondary_failed")
                self._events.append(
                    MiddleboxRejected(
                        subchannel_id=sub.subchannel_id,
                        reason=event.error or "secondary handshake failed",
                    )
                )

    def _reject(self, sub: Subchannel, reason: str) -> None:
        sub.rejected = True
        sub.reject_reason = reason
        self._note_fallback(sub.subchannel_id, "policy_rejected")
        self._send_subchannel_alert(sub.subchannel_id)
        self._events.append(
            MiddleboxRejected(subchannel_id=sub.subchannel_id, reason=reason)
        )

    def _send_subchannel_alert(self, subchannel_id: int) -> None:
        alert = Alert.fatal(AlertDescription.ACCESS_DENIED)
        inner = Record(content_type=ContentType.ALERT, payload=alert.encode())
        self._plane.queue_encoded(
            EncapsulatedRecord(subchannel_id=subchannel_id, inner=inner).to_record()
        )

    def _check_established(self) -> None:
        if self.established or not self.primary.handshake_complete:
            return
        pending = [
            sub for sub in self._secondaries.values() if not sub.complete
        ]
        if pending:
            return
        self._establish()

    def _establish(self) -> None:
        if self.fallback_decisions and not self.config.allow_fallback:
            # Fail closed: an on-path attacker who broke a middlebox's
            # secondary handshake must not be able to force a session on
            # the weakened party set (forced-fallback downgrade).
            reasons = sorted({reason for _, reason in self.fallback_decisions})
            self._abort(
                ProtocolError(
                    "refusing fallback to a degraded path "
                    f"({len(self.fallback_decisions)} middlebox(es) excluded: "
                    f"{', '.join(reasons)})",
                    alert="insufficient_security",
                )
            )
            return
        suite = suite_by_code(self.primary.suite.code)
        active_order = [
            sub_id
            for sub_id in reversed(self._arrival_order)
            if not self._secondaries[sub_id].rejected
        ]
        _, key_block = self.primary.export_key_block()
        bridge = bridge_hop_keys(suite, key_block)
        if active_order:
            hops = build_hop_chain(
                suite,
                len(active_order),
                self.config.tls.rng,
                bridge,
                client_side=True,
            )
            for index, sub_id in enumerate(active_order):
                sub = self._secondaries[sub_id]
                material = KeyMaterial(
                    toward_client=hops[index], toward_server=hops[index + 1]
                )
                sub.engine.send_raw_record(
                    ContentType.MBTLS_KEY_MATERIAL, material.encode_payload()
                )
                sub.keys_sent = True
                self._drain_secondary(sub)
            data_read, data_write = hop_states_for_endpoint(
                suite, hops[0], is_client=True
            )
            self._plane.replace_states(data_read, data_write)
            obs.counter(
                "key_installs", party=self.origin_label, kind="hop",
                suite=suite.name,
            ).inc()
            for hop in hops[:-1]:
                self.config.tls.report_secret("hop_key", hop.client_write_key)
                self.config.tls.report_secret("hop_key", hop.server_write_key)
        self.established = True
        obs.tracer().end(
            self._session_span,
            middleboxes=len(self.middleboxes), resumed=self.primary.resumed,
        )
        self._remember_middlebox_sessions()
        self._events.append(
            SessionEstablished(
                cipher_suite=suite.code,
                middleboxes=self.middleboxes,
                resumed=self.primary.resumed,
            )
        )

    def _remember_middlebox_sessions(self) -> None:
        """Store secondary sessions for §3.5 resumption (arrival order)."""
        store = self.config.middlebox_session_store
        server_name = self.config.tls.server_name
        if store is None or not server_name or self.primary.session_state is None:
            return
        primary_id = self.primary.session_state.session_id
        if not primary_id:
            return
        from repro.tls.session import SessionState

        remembered = []
        for sub_id in self._arrival_order:
            sub = self._secondaries[sub_id]
            if sub.rejected or sub.engine.master_secret is None:
                continue
            info = self._middlebox_infos.get(sub_id)
            remembered.append(
                RememberedMiddlebox(
                    session=SessionState(
                        session_id=primary_id,
                        master_secret=sub.engine.master_secret,
                        cipher_suite=sub.engine.suite.code,
                    ),
                    name=info.name if info else "",
                    measurement=info.measurement if info else None,
                )
            )
        store.remember(server_name, remembered)
