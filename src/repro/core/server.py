"""The mbTLS server endpoint (§3.4).

Wraps a primary TLS server engine and adds:

* acceptance of optimistic ``MiddleboxAnnouncement`` records from
  server-side middleboxes (each on its own subchannel);
* a secondary TLS handshake per announced middlebox, with the *server*
  playing the TLS client role (this is why Figure 5 shows server cost
  growing by roughly one client-handshake — ~20% — per middlebox);
* per-hop key generation for the server side of the path and the
  server-side data plane.

A legacy TLS server would instead ignore (or choke on) the announcements —
that behaviour lives in the plain :class:`~repro.tls.engine.TLSServerEngine`
via ``ignore_unknown_records``.
"""

from __future__ import annotations

from repro.core.config import (
    MbTLSEndpointConfig,
    MiddleboxInfo,
    MiddleboxRejected,
    SessionEstablished,
)
from repro.core.endpoint import MbTLSEndpoint
from repro.core.keys import build_hop_chain, bridge_hop_keys, hop_states_for_endpoint
from repro.core.mux import Subchannel
from repro import obs
from repro.errors import DecodeError, ProtocolError
from repro.tls.ciphersuites import suite_by_code
from repro.tls.config import TLSConfig
from repro.tls.engine import TLSClientEngine, TLSServerEngine
from repro.tls.events import (
    AnnouncementReceived,
    ConnectionClosed,
    Event,
    HandshakeComplete,
    MiddleboxJoined,
)
from repro.wire.mbtls import EncapsulatedRecord, KeyMaterial, MiddleboxAnnouncement
from repro.wire.records import ContentType

__all__ = ["MbTLSServerEngine"]


class MbTLSServerEngine(MbTLSEndpoint):
    """Sans-IO mbTLS server."""

    is_client = False

    def __init__(self, config: MbTLSEndpointConfig) -> None:
        super().__init__(config, TLSServerEngine(config.tls), "server")
        self._announcement_window_open = True
        self._pending_app_data: list[bytes] = []

    # ------------------------------------------------------------------ API

    def start(self) -> None:
        self._session_span = obs.tracer().begin(
            "handshake.mbtls", party=self.origin_label)
        self.primary.start()

    def send_application_data(self, data: bytes) -> None:
        if self.closed:
            raise ProtocolError("cannot send application data on a closed connection")
        if not self.established:
            # §3.5 False-Start territory: queue until keys are distributed.
            self._pending_app_data.append(bytes(data))
            return
        self._send_app_now(data)

    def _send_app_now(self, data: bytes) -> None:
        if self._plane.write_state is not None:
            self._plane.queue_application_data(data)
        else:
            self.primary.send_application_data(data)
            self._drain_primary()

    def bypass_pending_middleboxes(
        self, reason: str = "secondary handshake timed out"
    ) -> list[Event]:
        """Exclude middleboxes that announced but never finished their
        secondary handshake, and establish without them if the primary is
        done (graceful degradation; driven by the driver's timer)."""
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
            self._events.append(
                MiddleboxRejected(subchannel_id=sub.subchannel_id, reason=reason)
            )
        self._check_established()
        events = self._events
        self._events = []
        return events

    # ------------------------------------------------------------ internals

    def _new_subchannel(self, encap: EncapsulatedRecord) -> None:
        """A server-side middlebox announced itself on a new subchannel."""
        try:
            MiddleboxAnnouncement.from_record(encap.inner)
        except DecodeError:
            return  # not an announcement: stray subchannel traffic; drop
        if (
            not self.config.accept_announcements
            or not self._announcement_window_open
            or len(self._secondaries) >= self.config.max_middleboxes
        ):
            return  # behave like a legacy server: silently ignore (§3.4)
        self._events.append(AnnouncementReceived(subchannel_id=encap.subchannel_id))
        secondary_config = TLSConfig(
            rng=self.config.tls.rng.fork(b"secondary-%d" % encap.subchannel_id),
            trust_store=self.config.secondary_trust_store(),
            server_name=None,
            cipher_suites=self.config.tls.cipher_suites,
            now=self.config.tls.now,
            require_attestation=self.config.require_middlebox_attestation,
            attestation_verifier=self.config.middlebox_attestation_verifier,
            on_secret=self.config.tls.on_secret,
        )
        engine = TLSClientEngine(secondary_config)
        # Metrics attribution only — origin_label stays unset so the
        # wire-visible alert plane is untouched.
        engine._plane.party = f"server:sub{encap.subchannel_id}"
        engine.start()  # the server initiates: it is the TLS client here
        sub = Subchannel(encap.subchannel_id, engine)
        self._secondaries[encap.subchannel_id] = sub
        self._arrival_order.append(encap.subchannel_id)
        self._drain_secondary(sub)

    def _handle_secondary_events(self, sub: Subchannel, events: list[Event]) -> None:
        for event in events:
            if isinstance(event, HandshakeComplete):
                sub.complete = True
                info = MiddleboxInfo(
                    subchannel_id=sub.subchannel_id,
                    certificate=sub.engine.peer_certificate,
                    measurement=sub.engine.attested_measurement,
                    discovered=True,
                )
                self._middlebox_infos[sub.subchannel_id] = info
                if not self.config.approve_middlebox(info):
                    sub.rejected = True
                    self._note_fallback(sub.subchannel_id, "policy_rejected")
                    self._events.append(
                        MiddleboxRejected(
                            subchannel_id=sub.subchannel_id,
                            reason="application policy rejected the middlebox",
                        )
                    )
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

    def _check_established(self) -> None:
        if self.established or not self.primary.handshake_complete:
            return
        # Snapshot: anything not announced by primary completion is too late.
        self._announcement_window_open = False
        if any(not sub.complete for sub in self._secondaries.values()):
            return
        self._establish()

    def _establish(self) -> None:
        if self.fallback_decisions and not self.config.allow_fallback:
            # Fail closed: see the client-side twin of this gate.
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
        # Path order from the client = reversed announcement arrival order
        # (see the `middleboxes` property).
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
                client_side=False,
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
                suite, hops[-1], is_client=False
            )
            self._plane.replace_states(data_read, data_write)
            obs.counter(
                "key_installs", party=self.origin_label, kind="hop",
                suite=suite.name,
            ).inc()
            for hop in hops[1:]:
                self.config.tls.report_secret("hop_key", hop.client_write_key)
                self.config.tls.report_secret("hop_key", hop.server_write_key)
        self.established = True
        obs.tracer().end(
            self._session_span,
            middleboxes=len(self.middleboxes), resumed=self.primary.resumed,
        )
        self._events.append(
            SessionEstablished(
                cipher_suite=suite.code,
                middleboxes=self.middleboxes,
                resumed=self.primary.resumed,
            )
        )
        for data in self._pending_app_data:
            self._send_app_now(data)
        self._pending_app_data.clear()
