"""TLS 1.2 handshake message codecs, plus the SGXAttestation message.

Each message class carries ``encode_body``/``decode_body``; the
:class:`Handshake` wrapper adds the 4-byte type+length header, and
:class:`HandshakeBuffer` reassembles messages that span or share records.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from repro.errors import DecodeError
from repro.wire.codec import Reader, Writer
from repro.wire.extensions import Extension, decode_extensions, encode_extensions
from repro.wire.records import TLS12_VERSION

__all__ = [
    "HandshakeType",
    "Handshake",
    "HandshakeBuffer",
    "MAX_HANDSHAKE_MESSAGE",
    "ClientHello",
    "ServerHello",
    "Certificate",
    "ServerKeyExchange",
    "ServerHelloDone",
    "ClientKeyExchange",
    "Finished",
    "SGXAttestation",
    "NewSessionTicket",
    "KexAlgorithm",
]


class HandshakeType(IntEnum):
    HELLO_REQUEST = 0
    CLIENT_HELLO = 1
    SERVER_HELLO = 2
    NEW_SESSION_TICKET = 4
    CERTIFICATE = 11
    SERVER_KEY_EXCHANGE = 12
    CERTIFICATE_REQUEST = 13
    SERVER_HELLO_DONE = 14
    CERTIFICATE_VERIFY = 15
    CLIENT_KEY_EXCHANGE = 16
    SGX_ATTESTATION = 17  # mbTLS Appendix A.2
    FINISHED = 20
    # mdTLS (arXiv 2306.03573) proxy-signature handshake plane. Private-use
    # codes; bodies live in repro.wire.mdtls.
    MDTLS_PROXY_SIGNATURE = 24
    MDTLS_KEY_DELIVERY = 25


class KexAlgorithm(IntEnum):
    """Key-exchange algorithms carried in ServerKeyExchange."""

    ECDHE_X25519 = 1
    DHE = 2


@dataclass(frozen=True)
class Handshake:
    """A framed handshake message: type, 24-bit length, body."""

    msg_type: HandshakeType
    body: bytes

    def encode(self) -> bytes:
        return (
            Writer()
            .write_u8(int(self.msg_type))
            .write_vector(self.body, 3)
            .getvalue()
        )


#: The largest handshake message a peer may declare. The largest any
#: scenario here sends (an mdTLS hello carrying a warrant per middlebox) is
#: a few KiB; the 24-bit length field allows 16 MiB.
MAX_HANDSHAKE_MESSAGE = 1 << 16


class HandshakeBuffer:
    """Reassembles handshake messages from record payloads.

    Handshake messages may be coalesced into one record or fragmented
    across several; this buffer handles both. The type and declared length
    are checked as soon as a message's 4-byte header is buffered, so a
    forged header fails at once instead of starving the parser.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, payload: bytes) -> None:
        self._buffer += payload

    def pop_messages(self) -> list[Handshake]:
        messages = []
        while len(self._buffer) >= 4:
            raw_type = self._buffer[0]
            try:
                msg_type = HandshakeType(raw_type)
            except ValueError as exc:
                raise DecodeError(f"unknown handshake type {raw_type}") from exc
            length = int.from_bytes(self._buffer[1:4], "big")
            if length > MAX_HANDSHAKE_MESSAGE:
                raise DecodeError(
                    f"handshake message of {length} bytes exceeds {MAX_HANDSHAKE_MESSAGE}"
                )
            total = 4 + length
            if len(self._buffer) < total:
                break
            body = bytes(self._buffer[4:total])
            del self._buffer[:total]
            messages.append(Handshake(msg_type=msg_type, body=body))
        return messages

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)


@dataclass(frozen=True)
class ClientHello:
    """TLS 1.2 ClientHello."""

    random: bytes
    session_id: bytes = b""
    cipher_suites: tuple[int, ...] = ()
    extensions: tuple[Extension, ...] = ()
    version: int = TLS12_VERSION

    msg_type = HandshakeType.CLIENT_HELLO

    def encode_body(self) -> bytes:
        writer = Writer()
        writer.write_u16(self.version)
        writer.write_bytes(self.random)
        writer.write_vector(self.session_id, 1)
        suites = Writer()
        for suite in self.cipher_suites:
            suites.write_u16(suite)
        writer.write_vector(suites.getvalue(), 2)
        writer.write_vector(b"\x00", 1)  # null compression only
        writer.write_bytes(encode_extensions(list(self.extensions)))
        return writer.getvalue()

    @classmethod
    def decode_body(cls, body: bytes) -> "ClientHello":
        reader = Reader(body)
        version = reader.read_u16()
        random = reader.read_bytes(32)
        session_id = reader.read_vector(1)
        suite_bytes = Reader(reader.read_vector(2))
        suites = []
        while suite_bytes.remaining:
            suites.append(suite_bytes.read_u16())
        compression = reader.read_vector(1)
        if b"\x00" not in compression:
            raise DecodeError("peer does not offer null compression")
        extensions = tuple(decode_extensions(reader))
        reader.expect_end()
        return cls(
            random=random,
            session_id=session_id,
            cipher_suites=tuple(suites),
            extensions=extensions,
            version=version,
        )

    def find_extension(self, extension_type: int) -> Extension | None:
        for extension in self.extensions:
            if extension.extension_type == extension_type:
                return extension
        return None


@dataclass(frozen=True)
class ServerHello:
    """TLS 1.2 ServerHello."""

    random: bytes
    cipher_suite: int
    session_id: bytes = b""
    extensions: tuple[Extension, ...] = ()
    version: int = TLS12_VERSION

    msg_type = HandshakeType.SERVER_HELLO

    def encode_body(self) -> bytes:
        writer = Writer()
        writer.write_u16(self.version)
        writer.write_bytes(self.random)
        writer.write_vector(self.session_id, 1)
        writer.write_u16(self.cipher_suite)
        writer.write_u8(0)  # null compression
        writer.write_bytes(encode_extensions(list(self.extensions)))
        return writer.getvalue()

    @classmethod
    def decode_body(cls, body: bytes) -> "ServerHello":
        reader = Reader(body)
        version = reader.read_u16()
        random = reader.read_bytes(32)
        session_id = reader.read_vector(1)
        cipher_suite = reader.read_u16()
        if reader.read_u8() != 0:
            raise DecodeError("server selected non-null compression")
        extensions = tuple(decode_extensions(reader))
        reader.expect_end()
        return cls(
            random=random,
            cipher_suite=cipher_suite,
            session_id=session_id,
            extensions=extensions,
            version=version,
        )

    def find_extension(self, extension_type: int) -> Extension | None:
        for extension in self.extensions:
            if extension.extension_type == extension_type:
                return extension
        return None


@dataclass(frozen=True)
class Certificate:
    """A certificate chain: leaf first, opaque per-certificate encodings."""

    chain: tuple[bytes, ...]

    msg_type = HandshakeType.CERTIFICATE

    def encode_body(self) -> bytes:
        entries = Writer()
        for cert in self.chain:
            entries.write_vector(cert, 3)
        return Writer().write_vector(entries.getvalue(), 3).getvalue()

    @classmethod
    def decode_body(cls, body: bytes) -> "Certificate":
        reader = Reader(body)
        entries = Reader(reader.read_vector(3))
        reader.expect_end()
        chain = []
        while entries.remaining:
            chain.append(entries.read_vector(3))
        return cls(chain=tuple(chain))


@dataclass(frozen=True)
class ServerKeyExchange:
    """Ephemeral key-exchange parameters, signed by the server's key.

    ``params`` is the encoded kex parameters (see :meth:`encode_params`);
    the signature covers client_random || server_random || params.
    """

    algorithm: KexAlgorithm
    params: bytes
    signature: bytes

    msg_type = HandshakeType.SERVER_KEY_EXCHANGE

    @staticmethod
    def encode_ecdhe_params(public: bytes) -> bytes:
        return (
            Writer()
            .write_u8(int(KexAlgorithm.ECDHE_X25519))
            .write_vector(public, 1)
            .getvalue()
        )

    @staticmethod
    def encode_dhe_params(p: int, g: int, public: int) -> bytes:
        p_bytes = p.to_bytes((p.bit_length() + 7) // 8, "big")
        g_bytes = g.to_bytes((g.bit_length() + 7) // 8, "big")
        y_bytes = public.to_bytes((public.bit_length() + 7) // 8, "big")
        return (
            Writer()
            .write_u8(int(KexAlgorithm.DHE))
            .write_vector(p_bytes, 2)
            .write_vector(g_bytes, 2)
            .write_vector(y_bytes, 2)
            .getvalue()
        )

    def encode_body(self) -> bytes:
        return Writer().write_bytes(self.params).write_vector(self.signature, 2).getvalue()

    @classmethod
    def decode_body(cls, body: bytes) -> "ServerKeyExchange":
        reader = Reader(body)
        algorithm_byte = reader.read_u8()
        try:
            algorithm = KexAlgorithm(algorithm_byte)
        except ValueError as exc:
            raise DecodeError(f"unknown key exchange {algorithm_byte}") from exc
        if algorithm == KexAlgorithm.ECDHE_X25519:
            public = reader.read_vector(1)
            params = ServerKeyExchange.encode_ecdhe_params(public)
        else:
            p = int.from_bytes(reader.read_vector(2), "big")
            g = int.from_bytes(reader.read_vector(2), "big")
            y = int.from_bytes(reader.read_vector(2), "big")
            params = ServerKeyExchange.encode_dhe_params(p, g, y)
        signature = reader.read_vector(2)
        reader.expect_end()
        return cls(algorithm=algorithm, params=params, signature=signature)

    def parse_ecdhe_public(self) -> bytes:
        reader = Reader(self.params)
        if reader.read_u8() != int(KexAlgorithm.ECDHE_X25519):
            raise DecodeError("not ECDHE params")
        public = reader.read_vector(1)
        reader.expect_end()
        return public

    def parse_dhe_params(self) -> tuple[int, int, int]:
        reader = Reader(self.params)
        if reader.read_u8() != int(KexAlgorithm.DHE):
            raise DecodeError("not DHE params")
        p = int.from_bytes(reader.read_vector(2), "big")
        g = int.from_bytes(reader.read_vector(2), "big")
        y = int.from_bytes(reader.read_vector(2), "big")
        reader.expect_end()
        return p, g, y


@dataclass(frozen=True)
class ServerHelloDone:
    """Empty ServerHelloDone marker."""

    msg_type = HandshakeType.SERVER_HELLO_DONE

    def encode_body(self) -> bytes:
        return b""

    @classmethod
    def decode_body(cls, body: bytes) -> "ServerHelloDone":
        if body:
            raise DecodeError("ServerHelloDone must be empty")
        return cls()


@dataclass(frozen=True)
class ClientKeyExchange:
    """Client's ephemeral public value (or RSA-encrypted premaster)."""

    exchange_data: bytes

    msg_type = HandshakeType.CLIENT_KEY_EXCHANGE

    def encode_body(self) -> bytes:
        return Writer().write_vector(self.exchange_data, 2).getvalue()

    @classmethod
    def decode_body(cls, body: bytes) -> "ClientKeyExchange":
        reader = Reader(body)
        data = reader.read_vector(2)
        reader.expect_end()
        return cls(exchange_data=data)


@dataclass(frozen=True)
class Finished:
    """Finished message: 12 bytes of PRF output over the transcript."""

    verify_data: bytes

    msg_type = HandshakeType.FINISHED

    def encode_body(self) -> bytes:
        return self.verify_data

    @classmethod
    def decode_body(cls, body: bytes) -> "Finished":
        if len(body) != 12:
            raise DecodeError("Finished verify_data must be 12 bytes")
        return cls(verify_data=body)


@dataclass(frozen=True)
class SGXAttestation:
    """SGX attestation quote carried in the handshake (Appendix A.2)."""

    quote: bytes

    msg_type = HandshakeType.SGX_ATTESTATION

    def encode_body(self) -> bytes:
        return Writer().write_vector(self.quote, 2).getvalue()

    @classmethod
    def decode_body(cls, body: bytes) -> "SGXAttestation":
        reader = Reader(body)
        quote = reader.read_vector(2)
        reader.expect_end()
        return cls(quote=quote)


@dataclass(frozen=True)
class NewSessionTicket:
    """RFC 5077 NewSessionTicket."""

    lifetime_seconds: int
    ticket: bytes

    msg_type = HandshakeType.NEW_SESSION_TICKET

    def encode_body(self) -> bytes:
        return (
            Writer()
            .write_u32(self.lifetime_seconds)
            .write_vector(self.ticket, 2)
            .getvalue()
        )

    @classmethod
    def decode_body(cls, body: bytes) -> "NewSessionTicket":
        reader = Reader(body)
        lifetime = reader.read_u32()
        ticket = reader.read_vector(2)
        reader.expect_end()
        return cls(lifetime_seconds=lifetime, ticket=ticket)
