"""mdTLS (arXiv 2306.03573) — delegation certificates + proxy signatures.

mdTLS keeps mbTLS's per-hop record protection but replaces the per-hop
*secondary handshakes* with delegation: before the session, each endpoint
issues a signed warrant (:class:`~repro.wire.mdtls.DelegationCertificate`)
for every middlebox it wants on path, binding the middlebox's identity,
public key, and permissions to the endpoint's own certificate chain.  The
primary handshake then runs end to end **once**:

* the ClientHello / ServerHello carry the endpoints' warrant batches in
  the ``delegation_certificate`` extension;
* middleboxes forward every handshake record *verbatim* (so the endpoint
  Finished computation stays valid end to end) while shadowing the
  transcript, and each one **proxy-signs** the transcript hash after the
  Finished in each direction instead of handshaking for itself;
* the client delivers each middlebox's two hop secrets RSA-sealed under
  the warranted key (:class:`~repro.wire.mdtls.HopKeyDelivery`);
* both endpoints verify the aggregate proxy-signature chain against the
  warranted keys before declaring the session established.

The endpoints are the TLS 1.2 engines (:mod:`repro.tls.engine`) with
:class:`_MdTLSEndpoint` mixed in: the engine runs the hellos, chain
validation, the signed key exchange, the master secret, Finished, the
receive walk and close/abort; this module adds only what 2306.03573 adds.

The data plane is per-hop AEAD exactly like mbTLS: hop *i*'s keys are
derived from ``hop_secret(i)`` and a middlebox re-encrypts between its
client-side and server-side hops.

Simplifications, recorded in DESIGN.md §15: no ChangeCipherSpec (the
Finished flight travels in the clear, like our mcTLS reproduction), X25519
whatever the negotiated suite, and warrants are issued out of band by the
deployment rather than via an online enrollment protocol.
"""

from __future__ import annotations

import hashlib
from functools import partial

from repro.crypto.kdf import prf
from repro.errors import CryptoError, ProtocolError, SessionAborted
from repro.io import abort
from repro.io.record_plane import RecordPlane
from repro.pki.authority import Credential
from repro.pki.store import TrustStore
from repro.tls.ciphersuites import CipherSuite, suite_by_code
from repro.tls.config import TLSConfig
from repro.tls.engine import TLSClientEngine, TLSServerEngine
from repro.tls.events import ConnectionClosed
from repro.tls.keyschedule import derive_key_block
from repro.tls.record_layer import ConnectionState
from repro.wire.alerts import Alert
from repro.wire.extensions import Extension, ExtensionType
from repro.wire.handshake import (
    ClientHello,
    ClientKeyExchange,
    Handshake,
    HandshakeBuffer,
    HandshakeType,
    KexAlgorithm,
    ServerHello,
)
from repro.wire.mdtls import (
    DelegationCertificate,
    DelegationCertificateExtension,
    HopKeyDelivery,
    ProxySignature,
)
from repro.wire.records import ContentType, Record

__all__ = [
    "MdTLSDeployment",
    "MdTLSClientConnection",
    "MdTLSMiddleboxConnection",
    "MdTLSServerConnection",
    "derive_hop_secret",
    "hop_states",
]

_HOP_SECRET_LABEL = b"mdtls hop secret"
_HOP_EXPANSION_LABEL = b"mdtls key expansion"
_WARRANT_LIFETIME = 3600.0


def derive_hop_secret(
    master_secret: bytes, client_random: bytes, server_random: bytes, hop: int
) -> bytes:
    """The 32-byte secret protecting hop ``hop`` (0 = client-side hop)."""
    return prf(
        master_secret,
        _HOP_SECRET_LABEL,
        client_random + server_random + bytes([hop]),
        32,
    )


def hop_states(
    hop_secret: bytes,
    suite: CipherSuite,
    client_random: bytes,
    server_random: bytes,
) -> tuple[ConnectionState, ConnectionState]:
    """(client_write, server_write) record states for one hop."""
    block = derive_key_block(
        hop_secret, client_random, server_random, suite, label=_HOP_EXPANSION_LABEL
    )
    return (
        ConnectionState(suite, block.client_write_key, block.client_write_iv),
        ConnectionState(suite, block.server_write_key, block.server_write_iv),
    )


def _send_alert(plane: RecordPlane, alert: Alert) -> None:
    """Alerts always travel unprotected on the mdTLS alert plane."""
    plane.queue_encoded(Record(content_type=ContentType.ALERT, payload=alert.encode()))


def _warrants(hello: ClientHello | ServerHello, sender: str):
    """The warrant batch a hello carries; mdTLS is delegation-or-abort."""
    extension = hello.find_extension(int(ExtensionType.DELEGATION_CERTIFICATE))
    if extension is None:
        # The in-band mdTLS signal is missing: the peer does not speak
        # mdTLS or a downgrade box stripped the extension.
        raise ProtocolError(
            f"{sender} hello carries no delegation certificates",
            alert="handshake_failure",
        )
    return DelegationCertificateExtension.from_extension(extension).warrants


def _verify_proxy_chain(
    signatures: list[ProxySignature],
    expected: list[tuple[str, object]],
    direction: int,
    transcript_hash: bytes,
) -> None:
    """Every warranted middlebox signed ``transcript_hash`` exactly once."""
    keys = dict(expected)
    payload = ProxySignature.signed_payload(direction, transcript_hash)
    for signature in signatures:
        if signature.direction != direction:
            raise ProtocolError(
                "proxy signature for the other direction",
                alert="unexpected_message",
            )
        key = keys.pop(signature.middlebox, None)
        if key is None:
            raise ProtocolError(
                f"proxy signature from unwarranted or repeated "
                f"{signature.middlebox!r}",
                alert="handshake_failure",
            )
        if not key.verify(payload, signature.signature):
            raise ProtocolError(
                f"bad proxy signature from {signature.middlebox!r}",
                alert="decrypt_error",
            )


class MdTLSDeployment:
    """Pre-session warrant issuance plus connection builders.

    The deployment models the out-of-band step of the mdTLS design: both
    endpoints know the on-path middleboxes ahead of time and sign one
    warrant each per middlebox.  ``build_client`` / ``build_middlebox`` /
    ``build_server`` then hand out sans-IO connections wired with exactly
    the material each party would hold.
    """

    def __init__(
        self,
        *,
        rng,
        trust_store: TrustStore,
        client_credential: Credential,
        server_credential: Credential,
        middleboxes: list[tuple[str, Credential]] | tuple = (),
        server_name: str | None = None,
        now: float = 0.0,
    ) -> None:
        self.rng = rng
        self.trust_store = trust_store
        self.client_credential = client_credential
        self.server_credential = server_credential
        self.middleboxes = list(middleboxes)
        self.server_name = (
            server_name
            if server_name is not None
            else server_credential.certificate.subject
        )
        self.now = now
        self.client_warrants = tuple(
            self._issue(client_credential, name, credential)
            for name, credential in self.middleboxes
        )
        self.server_warrants = tuple(
            self._issue(server_credential, name, credential)
            for name, credential in self.middleboxes
        )

    def _issue(
        self, delegator: Credential, name: str, credential: Credential
    ) -> DelegationCertificate:
        return DelegationCertificate.issue(
            delegator=delegator.certificate.subject,
            delegator_key=delegator.private_key,
            delegator_chain=delegator.encoded_chain(),
            middlebox=name,
            middlebox_key=credential.private_key.public_key,
            permissions="read-write",
            not_before=self.now,
            not_after=self.now + _WARRANT_LIFETIME,
        )

    def build_client(self, rng=None) -> "MdTLSClientConnection":
        return MdTLSClientConnection(
            rng=rng if rng is not None else self.rng.fork(b"mdtls-client"),
            trust_store=self.trust_store,
            server_name=self.server_name,
            warrants=self.client_warrants,
            now=self.now,
        )

    def build_middlebox(self, index: int, rng=None) -> "MdTLSMiddleboxConnection":
        name, credential = self.middleboxes[index]
        return MdTLSMiddleboxConnection(
            name=name,
            credential=credential,
            trust_store=self.trust_store,
            now=self.now,
        )

    def build_server(self, rng=None) -> "MdTLSServerConnection":
        return MdTLSServerConnection(
            rng=rng if rng is not None else self.rng.fork(b"mdtls-server"),
            credential=self.server_credential,
            trust_store=self.trust_store,
            warrants=self.server_warrants,
            expected_middleboxes=[
                (name, credential.private_key.public_key)
                for name, credential in self.middleboxes
            ],
            now=self.now,
        )


class _MdTLSEndpoint:
    """What 2306.03573 adds to a TLS 1.2 engine, for both endpoints.

    Mixed in ahead of :class:`TLSClientEngine` / :class:`TLSServerEngine`.
    It checks the peer's warrants on its hello, holds establishment until
    every warranted middlebox has proxy-signed the transcript through the
    peer's Finished, and then installs this endpoint's hop keys. Its record
    rules depart from TLS 1.2 (DESIGN.md §15): only application data is
    sealed, and a ChangeCipherSpec, an mbTLS record or a handshake record
    after establishment is ``unexpected_message``.
    """

    def __init__(self, config: TLSConfig, *, expected, origin_label: str) -> None:
        super().__init__(config)
        self.origin_label = origin_label
        # (middlebox name, warranted public key), client side first.
        self._expected = list(expected)
        self._proxy_signatures: list[ProxySignature] = []
        # The transcript hash through the peer's Finished, once verified.
        self._signed_hash: bytes | None = None

    @property
    def established(self) -> bool:
        return self.handshake_complete

    def _hop_secret(self, hop: int) -> bytes:
        return derive_hop_secret(
            self.master_secret, self.client_random, self.server_random, hop
        )

    # -- record rules --------------------------------------------------------

    def _process_record(self, record: Record, payload: bytes | None = None) -> None:
        kind = record.content_type
        if kind == ContentType.APPLICATION_DATA:
            super()._process_record(record, payload)
        elif kind == ContentType.ALERT or (
            kind == ContentType.HANDSHAKE and not self.handshake_complete
        ):
            super()._process_record(record, bytes(record.payload))
        else:
            raise ProtocolError(
                f"unexpected content type {int(kind)}", alert="unexpected_message"
            )

    def _send_record(self, content_type: ContentType, payload: bytes) -> None:
        self._plane.queue_encoded(Record(content_type=content_type, payload=payload))

    def _install_key_block(self) -> None:
        """mdTLS seals records under hop keys only (see _maybe_establish)."""

    # -- the seams -------------------------------------------------------------

    def _peer_hello(self, hello: ClientHello | ServerHello) -> None:
        sender = "server" if self.is_client else "client"
        warrants = _warrants(hello, sender)
        if len(warrants) != len(self._expected):
            raise ProtocolError(
                f"{sender} warrant count does not match the deployment",
                alert="handshake_failure",
            )
        for (name, public_key), warrant in zip(self._expected, warrants):
            warrant.verify(
                self.config.trust_store,
                now=self.config.now(),
                middlebox=name,
                middlebox_key=public_key,
            )

    def _on_peer_finished(self) -> None:
        self._signed_hash = self._transcript_hash()
        self._maybe_establish()

    def _process_handshake(self, message: Handshake) -> None:
        if self._signed_hash is None:
            super()._process_handshake(message)
            return
        # Past the peer's Finished only the proxy signatures may follow.
        if (
            message.msg_type != HandshakeType.MDTLS_PROXY_SIGNATURE
            or self.handshake_complete
        ):
            raise ProtocolError(
                f"unexpected {message.msg_type.name} after the peer's Finished",
                alert="unexpected_message",
            )
        self._proxy_signatures.append(ProxySignature.decode_body(message.body))
        self._maybe_establish()

    def _maybe_establish(self) -> None:
        if len(self._proxy_signatures) < len(self._expected):
            return
        _verify_proxy_chain(
            self._proxy_signatures,
            self._expected,
            1 if self.is_client else 0,
            self._signed_hash,
        )
        if not self.is_client:
            # The server withholds its Finished until the chain verifies.
            self._send_finished()
        hop = 0 if self.is_client else len(self._expected)
        client_write, server_write = hop_states(
            self._hop_secret(hop), self.suite, self.client_random, self.server_random
        )
        if self.is_client:
            self._plane.replace_states(server_write, client_write)
        else:
            self._plane.replace_states(client_write, server_write)
        self._complete()


class MdTLSClientConnection(_MdTLSEndpoint, TLSClientEngine):
    """Sans-IO mdTLS client endpoint.

    Flight 1: ClientHello carrying the client's warrant batch and no server
    name.  Flight 3 (after the server's hello flight): ClientKeyExchange,
    one HopKeyDelivery per warranted middlebox, and the client Finished.
    The session is established once the server Finished *and* every
    middlebox's server-to-client proxy signature verify.
    """

    def __init__(
        self,
        *,
        rng,
        trust_store: TrustStore,
        server_name: str,
        warrants: tuple[DelegationCertificate, ...] = (),
        now: float = 0.0,
    ) -> None:
        warrants = tuple(warrants)
        super().__init__(
            TLSConfig(
                rng=rng,
                trust_store=trust_store,
                now=lambda: now,
                extra_extensions=(
                    DelegationCertificateExtension(warrants).to_extension(),
                ),
            ),
            expected=[(warrant.middlebox, warrant.middlebox_key) for warrant in warrants],
            origin_label="mdtls-client",
        )
        self._server_name = server_name

    def _peer_name(self) -> str:
        return self._server_name

    def _send_client_flight(self, exchange_data: bytes) -> None:
        self._send_handshake(ClientKeyExchange(exchange_data=exchange_data))
        for hop, (name, public_key) in enumerate(self._expected):
            secrets = self._hop_secret(hop) + self._hop_secret(hop + 1)
            self._send_handshake(
                HopKeyDelivery(
                    middlebox=name,
                    encrypted_secrets=public_key.encrypt(secrets, self.config.rng),
                )
            )
        self._send_finished()


class MdTLSServerConnection(_MdTLSEndpoint, TLSServerEngine):
    """Sans-IO mdTLS server endpoint.

    Requires the client's warrant batch in the ClientHello (a stripped
    extension aborts the handshake — no silent fallback to vanilla TLS),
    answers with its own warrants, and withholds its Finished until the
    client Finished *and* every middlebox's client-to-server proxy
    signature verify against the warranted keys.
    """

    def __init__(
        self,
        *,
        rng,
        credential: Credential,
        trust_store: TrustStore,
        warrants: tuple[DelegationCertificate, ...] = (),
        expected_middleboxes: list[tuple[str, object]] | tuple = (),
        now: float = 0.0,
    ) -> None:
        super().__init__(
            TLSConfig(
                rng=rng, credential=credential, trust_store=trust_store, now=lambda: now
            ),
            expected=expected_middleboxes,
            origin_label="mdtls-server",
        )
        self._hello_extensions = (
            DelegationCertificateExtension(tuple(warrants)).to_extension(),
        )
        self._deliveries = 0

    def _new_session_id(self) -> bytes:
        return b""  # no resumption, and no DRBG draw

    def _server_hello_extensions(self) -> tuple[Extension, ...]:
        return self._hello_extensions

    def _kex_algorithm(self) -> KexAlgorithm:
        return KexAlgorithm.ECDHE_X25519

    def _on_client_finished(self, message: Handshake) -> None:
        if message.msg_type == HandshakeType.MDTLS_KEY_DELIVERY:
            self._transcript.append(message.encode())
            self._check_delivery(HopKeyDelivery.decode_body(message.body))
            return
        if message.msg_type == HandshakeType.FINISHED and self._deliveries < len(
            self._expected
        ):
            raise ProtocolError(
                "client Finished before all hop-key deliveries",
                alert="handshake_failure",
            )
        super()._on_client_finished(message)

    def _check_delivery(self, delivery: HopKeyDelivery) -> None:
        if self._deliveries >= len(self._expected):
            raise ProtocolError(
                "more hop-key deliveries than warranted middleboxes",
                alert="unexpected_message",
            )
        expected_name = self._expected[self._deliveries][0]
        if delivery.middlebox != expected_name:
            raise ProtocolError(
                f"hop-key delivery for {delivery.middlebox!r}, expected "
                f"{expected_name!r}",
                alert="handshake_failure",
            )
        self._deliveries += 1


class MdTLSMiddleboxConnection:
    """Sans-IO duplex mdTLS middlebox.

    Forwards every handshake record *verbatim* (keeping the endpoints'
    Finished computation valid end to end) while shadowing the transcript,
    verifies its own warrants as they fly past, decrypts its
    :class:`HopKeyDelivery`, and appends a :class:`ProxySignature` after
    the Finished in each direction.  Once both Finished have passed it
    installs the two hop states and re-encrypts application data between
    its client-side and server-side hops.
    """

    origin_label = "mdtls-middlebox"

    def __init__(
        self,
        *,
        name: str,
        credential: Credential,
        trust_store: TrustStore,
        now: float = 0.0,
    ) -> None:
        self.name = name
        self.origin_label = f"mdtls-middlebox:{name}"
        self._credential = credential
        self._trust = trust_store
        self._now = now
        # Plane 0 faces the client ("down"), plane 1 the server ("up").
        self._planes = [RecordPlane(), RecordPlane()]
        self._handshakes = [HandshakeBuffer(), HandshakeBuffer()]
        self._transcript = bytearray()
        self._suite: CipherSuite | None = None
        self._client_random = b""
        self._server_random = b""
        self._hop_secrets: tuple[bytes, bytes] | None = None
        self._client_warrant_seen = False
        self._server_warrant_seen = False
        self._client_finished_seen = False
        self.established = False
        self.closed = False
        self._started = False
        self.abort: SessionAborted | None = None
        self.records_forwarded = 0

    def start(self) -> None:
        if self._started:
            raise ProtocolError("mdTLS middlebox already started")
        self._started = True

    def receive_down(self, data: bytes) -> list:
        return self._receive(0, data)

    def receive_up(self, data: bytes) -> list:
        return self._receive(1, data)

    def data_to_send_down(self) -> bytes:
        return self._planes[0].data_to_send()

    def data_to_send_up(self) -> bytes:
        return self._planes[1].data_to_send()

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

    def _transcript_hash(self) -> bytes:
        return hashlib.sha256(bytes(self._transcript)).digest()

    def _receive(self, side: int, data: bytes) -> list:
        if self.closed:
            return []
        inbound = self._planes[side]
        outbound = self._planes[1 - side]
        events: list = []
        try:
            inbound.feed(data)
            for record, plaintext in inbound.open_flight(
                inbound.pop_records(), lambda: self.established
            ):
                if self.closed:
                    break
                if record.content_type == ContentType.ALERT:
                    self._forward_alert(record, outbound, events)
                    continue
                if record.content_type == ContentType.HANDSHAKE:
                    # Still legal after establishment: trailing proxy
                    # signatures from middleboxes closer to the server pass
                    # through here; _shadow_handshake rejects anything else.
                    self._forward_handshake(side, record, outbound, events)
                    continue
                if record.content_type == ContentType.APPLICATION_DATA:
                    if not self.established:
                        raise ProtocolError(
                            "application data before handshake completion",
                            alert="unexpected_message",
                        )
                    if plaintext is None:
                        plaintext = inbound.unprotect(record)
                    outbound.queue_record(ContentType.APPLICATION_DATA, plaintext)
                    self.records_forwarded += 1
                    continue
                raise ProtocolError(
                    f"unexpected content type {int(record.content_type)}",
                    alert="unexpected_message",
                )
        except abort.HOSTILE_INPUT as exc:
            events.append(
                abort.fail(self, exc, *(partial(_send_alert, plane) for plane in self._planes))
            )
        return events

    def _forward_alert(self, record: Record, outbound: RecordPlane, events: list) -> None:
        payload = record.payload
        encoded = payload if isinstance(payload, bytes) else bytes(payload)
        outbound.queue_encoded(
            Record(content_type=ContentType.ALERT, payload=encoded)
        )
        # Hop-by-hop propagation: a fatal alert tears our own state down too.
        ended = abort.passed_through(self, Alert.decode(encoded))
        if ended is not None:
            events.append(ended)

    def _forward_handshake(
        self, side: int, record: Record, outbound: RecordPlane, events: list
    ) -> None:
        payload = record.payload
        encoded = payload if isinstance(payload, bytes) else bytes(payload)
        # Verbatim forwarding first: the endpoints' transcript must see the
        # exact bytes the other endpoint produced.
        outbound.queue_encoded(
            Record(content_type=ContentType.HANDSHAKE, payload=encoded)
        )
        buffer = self._handshakes[side]
        buffer.feed(encoded)
        for message in buffer.pop_messages():
            self._shadow_handshake(side, message, outbound)

    def _shadow_handshake(
        self, side: int, message: Handshake, outbound: RecordPlane
    ) -> None:
        kind = message.msg_type
        if kind == HandshakeType.MDTLS_PROXY_SIGNATURE:
            return  # not part of the signed transcript
        if self.established:
            raise ProtocolError(
                "handshake message after establishment",
                alert="unexpected_message",
            )
        self._transcript += message.encode()
        if kind == HandshakeType.CLIENT_HELLO:
            if side != 0:
                raise ProtocolError(
                    "ClientHello from the server side", alert="unexpected_message"
                )
            self._process_client_hello(ClientHello.decode_body(message.body))
            return
        if kind == HandshakeType.SERVER_HELLO:
            if side != 1:
                raise ProtocolError(
                    "ServerHello from the client side", alert="unexpected_message"
                )
            self._process_server_hello(ServerHello.decode_body(message.body))
            return
        if kind == HandshakeType.MDTLS_KEY_DELIVERY:
            delivery = HopKeyDelivery.decode_body(message.body)
            if delivery.middlebox == self.name:
                self._accept_delivery(delivery)
            return
        if kind == HandshakeType.FINISHED:
            direction = 0 if side == 0 else 1
            if direction == 0:
                self._client_finished_seen = True
            signature = self._credential.private_key.sign(
                ProxySignature.signed_payload(direction, self._transcript_hash())
            )
            framed = Handshake(
                msg_type=HandshakeType.MDTLS_PROXY_SIGNATURE,
                body=ProxySignature(
                    middlebox=self.name, direction=direction, signature=signature
                ).encode_body(),
            )
            outbound.queue_record(ContentType.HANDSHAKE, framed.encode())
            if direction == 1:
                if not self._client_finished_seen:
                    raise ProtocolError(
                        "server Finished before client Finished",
                        alert="unexpected_message",
                    )
                self._install_hop_states()
            return
        # Certificate / ServerKeyExchange / ServerHelloDone /
        # ClientKeyExchange: transcript-shadowed above, otherwise opaque to
        # the middlebox.

    def _process_client_hello(self, hello: ClientHello) -> None:
        self._verify_own_warrant(hello, delegated_by="client")
        self._client_warrant_seen = True
        self._client_random = hello.random

    def _process_server_hello(self, hello: ServerHello) -> None:
        if not self._client_warrant_seen:
            raise ProtocolError(
                "ServerHello before ClientHello", alert="unexpected_message"
            )
        self._verify_own_warrant(hello, delegated_by="server")
        self._server_warrant_seen = True
        self._server_random = hello.random
        self._suite = suite_by_code(hello.cipher_suite)

    def _verify_own_warrant(
        self, hello: ClientHello | ServerHello, delegated_by: str
    ) -> None:
        own_key = self._credential.private_key.public_key
        for warrant in _warrants(hello, delegated_by):
            if warrant.middlebox == self.name:
                warrant.verify(
                    self._trust,
                    now=self._now,
                    middlebox=self.name,
                    middlebox_key=own_key,
                )
                return
        raise ProtocolError(
            f"no {delegated_by}-issued warrant for middlebox {self.name!r}",
            alert="access_denied",
        )

    def _accept_delivery(self, delivery: HopKeyDelivery) -> None:
        try:
            secrets = self._credential.private_key.decrypt(
                delivery.encrypted_secrets
            )
        except CryptoError as exc:
            raise ProtocolError(
                "hop-key delivery does not decrypt under our key",
                alert="decrypt_error",
            ) from exc
        if len(secrets) != 64:
            raise ProtocolError(
                "hop-key delivery has the wrong secret length",
                alert="decrypt_error",
            )
        self._hop_secrets = (secrets[:32], secrets[32:])

    def _install_hop_states(self) -> None:
        if self._hop_secrets is None:
            raise ProtocolError(
                "handshake finished without a hop-key delivery for us",
                alert="handshake_failure",
            )
        if self._suite is None:
            raise ProtocolError(
                "handshake finished before suite negotiation",
                alert="unexpected_message",
            )
        client_side, server_side = self._hop_secrets
        down_c2s, down_s2c = hop_states(
            client_side, self._suite, self._client_random, self._server_random
        )
        up_c2s, up_s2c = hop_states(
            server_side, self._suite, self._client_random, self._server_random
        )
        # Down plane: read what the client wrote, write toward the client.
        self._planes[0].replace_states(down_c2s, down_s2c)
        # Up plane: read what the server wrote, write toward the server.
        self._planes[1].replace_states(up_s2c, up_c2s)
        self.established = True
