"""Handshake message codecs and the HandshakeBuffer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DecodeError
from repro.wire.extensions import Extension, ServerNameExtension
from repro.wire.handshake import (
    Certificate,
    ClientHello,
    ClientKeyExchange,
    Finished,
    Handshake,
    HandshakeBuffer,
    HandshakeType,
    KexAlgorithm,
    MAX_HANDSHAKE_MESSAGE,
    NewSessionTicket,
    ServerHello,
    ServerHelloDone,
    ServerKeyExchange,
    SGXAttestation,
)


class TestClientHello:
    def test_roundtrip(self):
        hello = ClientHello(
            random=b"\x01" * 32,
            session_id=b"\x02" * 16,
            cipher_suites=(0xC030, 0x009F),
            extensions=(ServerNameExtension("example.com").to_extension(),),
        )
        decoded = ClientHello.decode_body(hello.encode_body())
        assert decoded == hello

    def test_no_extensions(self):
        hello = ClientHello(random=b"\x00" * 32, cipher_suites=(1,))
        assert ClientHello.decode_body(hello.encode_body()).extensions == ()

    def test_find_extension(self):
        extension = ServerNameExtension("a.example").to_extension()
        hello = ClientHello(random=b"\x00" * 32, extensions=(extension,))
        assert hello.find_extension(0) == extension
        assert hello.find_extension(9999) is None

    def test_unknown_extension_preserved(self):
        mystery = Extension(extension_type=0xABCD, data=b"future-stuff")
        hello = ClientHello(random=b"\x00" * 32, extensions=(mystery,))
        decoded = ClientHello.decode_body(hello.encode_body())
        assert decoded.extensions == (mystery,)

    def test_rejects_missing_null_compression(self):
        body = bytearray(ClientHello(random=b"\x00" * 32).encode_body())
        # compression vector is right after the (empty) cipher suite vector:
        # version(2) + random(32) + sid_len(1) + suites_len(2) -> comp at 37
        assert body[37] == 1 and body[38] == 0
        body[38] = 1  # replace null with a bogus method
        with pytest.raises(DecodeError):
            ClientHello.decode_body(bytes(body))


class TestServerHello:
    def test_roundtrip(self):
        hello = ServerHello(
            random=b"\x05" * 32, cipher_suite=0xC030, session_id=b"\x06" * 32
        )
        assert ServerHello.decode_body(hello.encode_body()) == hello


class TestCertificateMessage:
    def test_roundtrip(self):
        message = Certificate(chain=(b"leaf-bytes", b"intermediate", b"root"))
        assert Certificate.decode_body(message.encode_body()) == message

    def test_empty_chain(self):
        assert Certificate.decode_body(Certificate(chain=()).encode_body()).chain == ()


class TestServerKeyExchange:
    def test_ecdhe_roundtrip(self):
        params = ServerKeyExchange.encode_ecdhe_params(b"\x07" * 32)
        ske = ServerKeyExchange(
            algorithm=KexAlgorithm.ECDHE_X25519, params=params, signature=b"sig"
        )
        decoded = ServerKeyExchange.decode_body(ske.encode_body())
        assert decoded == ske
        assert decoded.parse_ecdhe_public() == b"\x07" * 32

    def test_dhe_roundtrip(self):
        params = ServerKeyExchange.encode_dhe_params(23, 5, 8)
        ske = ServerKeyExchange(
            algorithm=KexAlgorithm.DHE, params=params, signature=b"sig"
        )
        decoded = ServerKeyExchange.decode_body(ske.encode_body())
        assert decoded.parse_dhe_params() == (23, 5, 8)

    def test_parse_wrong_algorithm_rejected(self):
        params = ServerKeyExchange.encode_dhe_params(23, 5, 8)
        ske = ServerKeyExchange(
            algorithm=KexAlgorithm.DHE, params=params, signature=b""
        )
        with pytest.raises(DecodeError):
            ske.parse_ecdhe_public()

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(DecodeError):
            ServerKeyExchange.decode_body(b"\x63" + b"\x00" * 8)


class TestSmallMessages:
    def test_server_hello_done(self):
        assert ServerHelloDone.decode_body(b"") == ServerHelloDone()
        with pytest.raises(DecodeError):
            ServerHelloDone.decode_body(b"x")

    def test_client_key_exchange_roundtrip(self):
        cke = ClientKeyExchange(exchange_data=b"\x08" * 32)
        assert ClientKeyExchange.decode_body(cke.encode_body()) == cke

    def test_finished_length_enforced(self):
        assert Finished.decode_body(b"\x00" * 12).verify_data == b"\x00" * 12
        with pytest.raises(DecodeError):
            Finished.decode_body(b"\x00" * 11)

    def test_sgx_attestation_roundtrip(self):
        message = SGXAttestation(quote=b"quote-bytes" * 10)
        assert SGXAttestation.decode_body(message.encode_body()) == message

    def test_new_session_ticket_roundtrip(self):
        message = NewSessionTicket(lifetime_seconds=3600, ticket=b"opaque")
        assert NewSessionTicket.decode_body(message.encode_body()) == message


class TestHandshakeBuffer:
    def _framed(self, msg_type: HandshakeType, body: bytes) -> bytes:
        return Handshake(msg_type=msg_type, body=body).encode()

    def test_coalesced_messages(self):
        buffer = HandshakeBuffer()
        buffer.feed(
            self._framed(HandshakeType.SERVER_HELLO_DONE, b"")
            + self._framed(HandshakeType.FINISHED, b"\x00" * 12)
        )
        messages = buffer.pop_messages()
        assert [message.msg_type for message in messages] == [
            HandshakeType.SERVER_HELLO_DONE,
            HandshakeType.FINISHED,
        ]

    def test_fragmented_message(self):
        framed = self._framed(HandshakeType.FINISHED, b"\x00" * 12)
        buffer = HandshakeBuffer()
        buffer.feed(framed[:5])
        assert buffer.pop_messages() == []
        buffer.feed(framed[5:])
        assert len(buffer.pop_messages()) == 1

    def test_unknown_type_rejected(self):
        buffer = HandshakeBuffer()
        buffer.feed(b"\x63\x00\x00\x00")
        with pytest.raises(DecodeError):
            buffer.pop_messages()

    def test_unknown_type_rejected_at_the_header(self):
        buffer = HandshakeBuffer()
        buffer.feed(b"\x63\x00\x10\x00")  # body not yet arrived
        with pytest.raises(DecodeError):
            buffer.pop_messages()

    def test_declared_length_bounded_at_the_header(self):
        buffer = HandshakeBuffer()
        buffer.feed(bytes([HandshakeType.CERTIFICATE]) + b"\xff\xff\xff")
        with pytest.raises(DecodeError):
            buffer.pop_messages()

    def test_largest_allowed_message_reassembles(self):
        body = b"\x00" * MAX_HANDSHAKE_MESSAGE
        buffer = HandshakeBuffer()
        buffer.feed(self._framed(HandshakeType.CERTIFICATE, body))
        assert [message.body for message in buffer.pop_messages()] == [body]
        buffer.feed((MAX_HANDSHAKE_MESSAGE + 1).to_bytes(4, "big"))
        with pytest.raises(DecodeError):
            buffer.pop_messages()

    @settings(max_examples=50, deadline=None)
    @given(bodies=st.lists(st.binary(max_size=64), min_size=1, max_size=8))
    def test_chunked_reassembly_property(self, bodies):
        stream = b"".join(
            self._framed(HandshakeType.CLIENT_KEY_EXCHANGE, body) for body in bodies
        )
        buffer = HandshakeBuffer()
        received = []
        for index in range(0, len(stream), 7):
            buffer.feed(stream[index : index + 7])
            received += buffer.pop_messages()
        assert [message.body for message in received] == bodies
