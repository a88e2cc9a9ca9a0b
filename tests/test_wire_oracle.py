"""An independent oracle for the mdTLS wire (arXiv 2306.03573).

The goldens in ``test_connection_contract.py`` hash our own output, so a
bug the encoder and the decoder share (a PRF label, the key-block order,
the nonce or the AAD layout) would pass them. This test replays the same
``golden-mdtls`` run and checks every cryptographic value on its wire
without ``repro.crypto``:

* the premaster secret is recomputed with ``cryptography``'s X25519 from
  the two scalars the run drew;
* the master secret, both Finished ``verify_data`` values and every hop's
  secrets and keys come from a stdlib-``hmac`` TLS 1.2 PRF (RFC 5246 §5);
* the ServerKeyExchange signature and both ProxySignatures verify, and the
  HopKeyDelivery decrypts, with ``cryptography``'s RSA PKCS#1 v1.5;
* every application-data record on both hops opens with ``cryptography``'s
  AES-GCM under the RFC 5288 nonce and RFC 5246 AAD.

``repro.wire`` still splits messages into their fields: the oracle checks
the values, not the codec.
"""

from __future__ import annotations

import hashlib
import hmac
import importlib

import pytest
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import padding, rsa
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from repro.baselines.mdtls import MdTLSDeployment
from repro.bench.scenarios import Pki
from repro.crypto.drbg import HmacDrbg
from repro.wire.handshake import (
    ClientHello,
    ClientKeyExchange,
    HandshakeType,
    ServerHello,
    ServerKeyExchange,
)
from repro.wire.mdtls import HopKeyDelivery, ProxySignature

# ``repro.crypto`` re-exports the function under the module's name.
x25519_module = importlib.import_module("repro.crypto.x25519")
_BASE_POINT = (9).to_bytes(32, "little")
_PROXY_CONTEXT = b"mdtls proxy signature\x00"
_GOLDEN_WIRE = "270422efa68c48c3253846fc7095321e2da9b1564fbca0b6ce51c33bd63d51eb"
# TLS_ECDHE_RSA_WITH_AES_256_GCM_SHA384: 32-byte keys, 4-byte fixed IVs.
_SUITE, _KEY_LEN, _IV_LEN = 0xC030, 32, 4


def _prf(secret: bytes, label: bytes, seed: bytes, length: int) -> bytes:
    """The TLS 1.2 PRF, P_SHA256 (RFC 5246 §5), on stdlib hmac."""
    seed = label + seed
    out, a = b"", seed
    while len(out) < length:
        a = hmac.new(secret, a, hashlib.sha256).digest()
        out += hmac.new(secret, a + seed, hashlib.sha256).digest()
    return out[:length]


def _records(wire: bytes) -> list[tuple[int, bytes]]:
    """(content type, payload) of every record in ``wire``."""
    records, offset = [], 0
    while offset < len(wire):
        length = int.from_bytes(wire[offset + 3 : offset + 5], "big")
        records.append((wire[offset], wire[offset + 5 : offset + 5 + length]))
        offset += 5 + length
    assert offset == len(wire)
    return records


def _messages(records) -> list[tuple[int, bytes]]:
    """(type, framed message) of every handshake message in ``records``."""
    stream = b"".join(payload for kind, payload in records if kind == 22)
    messages, offset = [], 0
    while offset < len(stream):
        length = int.from_bytes(stream[offset + 1 : offset + 4], "big")
        messages.append((stream[offset], stream[offset : offset + 4 + length]))
        offset += 4 + length
    return messages


def _rsa_public(key) -> rsa.RSAPublicKey:
    return rsa.RSAPublicNumbers(key.e, key.n).public_key()


def _rsa_private(key) -> rsa.RSAPrivateKey:
    return rsa.RSAPrivateNumbers(
        p=key.p,
        q=key.q,
        d=key.d,
        dmp1=key.d % (key.p - 1),
        dmq1=key.d % (key.q - 1),
        iqmp=pow(key.q, -1, key.p),
        public_numbers=rsa.RSAPublicNumbers(key.e, key.n),
    ).private_key()


@pytest.fixture(scope="module")
def golden():
    """The ``golden-mdtls`` run: every link's wire, the scalars it drew
    and the credentials it used."""
    scalars: list[bytes] = []
    original = x25519_module.x25519

    def capture(private_key: bytes, public_value: bytes) -> bytes:
        if public_value == _BASE_POINT:
            scalars.append(private_key)
        return original(private_key, public_value)

    monkeypatch = pytest.MonkeyPatch()
    monkeypatch.setattr(x25519_module, "x25519", capture)
    try:
        rng = HmacDrbg(b"golden-mdtls")
        pki = Pki(rng=rng.fork(b"pki"))
        deployment = MdTLSDeployment(
            rng=rng.fork(b"deploy"),
            trust_store=pki.trust,
            client_credential=pki.credential("client"),
            server_credential=pki.credential("server"),
            middleboxes=[("mbox", pki.credential("mbox"))],
        )
        client = deployment.build_client()
        middlebox = deployment.build_middlebox(0)
        server = deployment.build_server()
        for party in (client, middlebox, server):
            party.start()
        wire = hashlib.sha256()
        links = {"C": b"", "MU": b"", "S": b"", "MD": b""}
        hops = (
            ("C", client.data_to_send, middlebox.receive_down),
            ("MU", middlebox.data_to_send_up, server.receive_bytes),
            ("S", server.data_to_send, middlebox.receive_up),
            ("MD", middlebox.data_to_send_down, client.receive_bytes),
        )
        for _ in range(12):
            progressed = False
            for tag, drain, deliver in hops:
                data = drain()
                if data:
                    wire.update(tag.encode() + data)
                    links[tag] += data
                    deliver(data)
                    progressed = True
            if not progressed:
                break
        client.send_application_data(b"GOLDEN-MDTLS")
        for tag, drain, deliver in hops[:2]:
            data = drain()
            wire.update(tag.encode() + data)
            links[tag] += data
            deliver(data)
    finally:
        monkeypatch.undo()
    assert wire.hexdigest() == _GOLDEN_WIRE  # the pinned run, not a look-alike
    return {
        "links": links,
        "scalars": scalars,
        "server_key": pki.credential("server").private_key,
        "mbox_key": pki.credential("mbox").private_key,
    }


@pytest.fixture(scope="module")
def handshake(golden):
    """The handshake as the client sent it and the server answered it."""
    c2s = _messages(_records(golden["links"]["C"]))
    s2c = _messages(_records(golden["links"]["S"]))
    # The middlebox forwards the endpoints' messages verbatim and appends
    # its own proxy signatures.
    assert _messages(_records(golden["links"]["MU"]))[: len(c2s)] == c2s
    assert _messages(_records(golden["links"]["MD"]))[: len(s2c)] == s2c
    # Wire order: ClientHello; the server's hello flight; the client's
    # key-exchange flight; the server Finished.
    transcript = [framed for _, framed in c2s[:1] + s2c[:4] + c2s[1:] + s2c[4:]]
    by_type = {kind: framed for kind, framed in c2s + s2c}
    client_hello = ClientHello.decode_body(by_type[HandshakeType.CLIENT_HELLO][4:])
    server_hello = ServerHello.decode_body(by_type[HandshakeType.SERVER_HELLO][4:])
    assert server_hello.cipher_suite == _SUITE
    return {
        "transcript": transcript,
        "by_type": by_type,
        "finished": {
            "client": [f for kind, f in c2s if kind == HandshakeType.FINISHED],
            "server": [f for kind, f in s2c if kind == HandshakeType.FINISHED],
        },
        "client_random": client_hello.random,
        "server_random": server_hello.random,
    }


def _transcript_hash(handshake, framed: bytes, *, including: bool) -> bytes:
    """SHA-256 over the transcript up to ``framed``, with or without it."""
    end = handshake["transcript"].index(framed) + including
    return hashlib.sha256(b"".join(handshake["transcript"][:end])).digest()


@pytest.fixture(scope="module")
def master_secret(golden, handshake):
    by_type = handshake["by_type"]
    ske = ServerKeyExchange.decode_body(by_type[HandshakeType.SERVER_KEY_EXCHANGE][4:])
    server_public = ske.params[2:]
    client_public = ClientKeyExchange.decode_body(
        by_type[HandshakeType.CLIENT_KEY_EXCHANGE][4:]
    ).exchange_data
    owners = {
        X25519PrivateKey.from_private_bytes(k).public_key().public_bytes_raw(): k
        for k in golden["scalars"]
    }
    assert {server_public, client_public} <= set(owners)
    premaster = X25519PrivateKey.from_private_bytes(owners[client_public]).exchange(
        X25519PublicKey.from_public_bytes(server_public)
    )
    assert premaster == X25519PrivateKey.from_private_bytes(
        owners[server_public]
    ).exchange(X25519PublicKey.from_public_bytes(client_public))
    return _prf(
        premaster,
        b"master secret",
        handshake["client_random"] + handshake["server_random"],
        48,
    )


def _hop_secret(master_secret, handshake, hop: int) -> bytes:
    return _prf(
        master_secret,
        b"mdtls hop secret",
        handshake["client_random"] + handshake["server_random"] + bytes([hop]),
        32,
    )


def test_server_key_exchange_signature_verifies(golden, handshake):
    ske = ServerKeyExchange.decode_body(
        handshake["by_type"][HandshakeType.SERVER_KEY_EXCHANGE][4:]
    )
    _rsa_public(golden["server_key"].public_key).verify(
        ske.signature,
        handshake["client_random"] + handshake["server_random"] + ske.params,
        padding.PKCS1v15(),
        hashes.SHA256(),
    )


@pytest.mark.parametrize("sender", ("client", "server"))
def test_finished_verify_data_matches_the_prf(master_secret, handshake, sender):
    (framed,) = handshake["finished"][sender]
    expected = _prf(
        master_secret,
        f"{sender} finished".encode(),
        _transcript_hash(handshake, framed, including=False),
        12,
    )
    assert framed[4:] == expected


def test_hop_key_delivery_carries_both_hop_secrets(golden, master_secret, handshake):
    delivery = HopKeyDelivery.decode_body(
        handshake["by_type"][HandshakeType.MDTLS_KEY_DELIVERY][4:]
    )
    assert delivery.middlebox == "mbox"
    secrets = _rsa_private(golden["mbox_key"]).decrypt(
        delivery.encrypted_secrets, padding.PKCS1v15()
    )
    assert secrets == _hop_secret(master_secret, handshake, 0) + _hop_secret(
        master_secret, handshake, 1
    )


@pytest.mark.parametrize("direction", (0, 1), ids=("c2s", "s2c"))
def test_proxy_signatures_cover_the_transcript(golden, handshake, direction):
    link = golden["links"]["MU" if direction == 0 else "MD"]
    signatures = [
        ProxySignature.decode_body(framed[4:])
        for kind, framed in _messages(_records(link))
        if kind == HandshakeType.MDTLS_PROXY_SIGNATURE
    ]
    assert [(s.middlebox, s.direction) for s in signatures] == [("mbox", direction)]
    # Each middlebox signs the transcript through the Finished it follows.
    (finished,) = handshake["finished"]["client" if direction == 0 else "server"]
    transcript_hash = _transcript_hash(handshake, finished, including=True)
    _rsa_public(golden["mbox_key"].public_key).verify(
        signatures[0].signature,
        _PROXY_CONTEXT + bytes([direction]) + transcript_hash,
        padding.PKCS1v15(),
        hashes.SHA256(),
    )


@pytest.mark.parametrize("hop, link", ((0, "C"), (1, "MU")))
def test_every_application_record_opens_on_both_hops(
    golden, master_secret, handshake, hop, link
):
    block = _prf(
        _hop_secret(master_secret, handshake, hop),
        b"mdtls key expansion",
        handshake["server_random"] + handshake["client_random"],
        2 * _KEY_LEN + 2 * _IV_LEN,
    )
    client_key, client_iv = block[:_KEY_LEN], block[2 * _KEY_LEN : 2 * _KEY_LEN + _IV_LEN]
    sealed = [p for kind, p in _records(golden["links"][link]) if kind == 23]
    assert len(sealed) == 1
    opened = []
    for sequence, payload in enumerate(sealed):
        explicit, ciphertext = payload[:8], payload[8:]
        assert explicit == sequence.to_bytes(8, "big")
        aad = (
            sequence.to_bytes(8, "big")
            + bytes([23, 3, 3])
            + (len(ciphertext) - 16).to_bytes(2, "big")
        )
        opened.append(AESGCM(client_key).decrypt(client_iv + explicit, ciphertext, aad))
    assert opened == [b"GOLDEN-MDTLS"]
