"""Simplified Multi-Context TLS (mcTLS, SIGCOMM '15) — §2.2's access-control
point in the design space.

mcTLS encrypts different parts of the data stream ("contexts") under
different keys and gives each middlebox only the keys for the contexts it
may access; read and write are separated by layering MACs:

* a *read* key lets a party decrypt a context;
* *endpoint MAC* keys are held only by the endpoints (and writers), so a
  read-only middlebox can observe but any modification it makes is detected.

We reproduce the record-layer access-control mechanism and the contributory
key derivation (both endpoints contribute to every context key, so a
middlebox joins only if *both* approve — the property that also makes mcTLS
incompatible with legacy endpoints). The full mcTLS handshake is out of
scope; DESIGN.md records this simplification.
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass
from enum import Enum

from repro.crypto.gcm import AESGCM
from repro.crypto.kdf import prf
from repro.errors import IntegrityError, PolicyError, ProtocolError
from repro.io.framing import FramedConnection, FramedDuplex, frame

__all__ = [
    "ContextPermission",
    "ContextKeys",
    "McTLSContext",
    "McTLSSession",
    "McTLSParty",
    "McTLSRecordConnection",
    "McTLSMiddleboxConnection",
]


class ContextPermission(Enum):
    NONE = "none"
    READ = "read"
    WRITE = "write"  # implies read


@dataclass(frozen=True)
class ContextKeys:
    """Key material for one context, possibly truncated by permission."""

    read_key: bytes | None
    writer_mac_key: bytes | None
    endpoint_mac_key: bytes | None


class McTLSContext:
    """One mcTLS context: an encrypted, access-controlled slice of the stream."""

    def __init__(self, context_id: int, keys: ContextKeys) -> None:
        self.context_id = context_id
        self.keys = keys
        self._sequence = 0

    def seal(self, plaintext: bytes, is_endpoint: bool) -> bytes:
        """Encrypt + MAC a record for this context.

        Writers add a writer MAC; endpoints additionally add the endpoint
        MAC that read-only parties cannot forge.
        """
        if self.keys.read_key is None or self.keys.writer_mac_key is None:
            raise PolicyError("no write access to this context")
        aead = AESGCM(self.keys.read_key)
        nonce = self._sequence.to_bytes(12, "big")
        header = self.context_id.to_bytes(1, "big") + self._sequence.to_bytes(8, "big")
        ciphertext = aead.encrypt(nonce, plaintext, header)
        writer_mac = hmac.new(self.keys.writer_mac_key, header + ciphertext, "sha256").digest()
        if is_endpoint:
            if self.keys.endpoint_mac_key is None:
                raise PolicyError("endpoint MAC key missing")
            endpoint_mac = hmac.new(
                self.keys.endpoint_mac_key, header + ciphertext, "sha256"
            ).digest()
        else:
            endpoint_mac = b"\x00" * 32  # a non-endpoint cannot produce it
        self._sequence += 1
        return header + ciphertext + writer_mac + endpoint_mac

    def open(self, record: bytes, verify_endpoint_mac: bool) -> bytes:
        """Decrypt a record; optionally verify it was written by an endpoint.

        Raises:
            PolicyError: if this party lacks read access.
            IntegrityError: if any MAC check fails.
        """
        if self.keys.read_key is None:
            raise PolicyError("no read access to this context")
        header, rest = record[:9], record[9:]
        ciphertext, writer_mac, endpoint_mac = rest[:-64], rest[-64:-32], rest[-32:]
        if self.keys.writer_mac_key is not None:
            expected = hmac.new(
                self.keys.writer_mac_key, header + ciphertext, "sha256"
            ).digest()
            if not hmac.compare_digest(writer_mac, expected):
                raise IntegrityError("mcTLS writer MAC check failed")
        if verify_endpoint_mac:
            if self.keys.endpoint_mac_key is None:
                raise PolicyError("cannot verify endpoint MAC without the key")
            expected = hmac.new(
                self.keys.endpoint_mac_key, header + ciphertext, "sha256"
            ).digest()
            if not hmac.compare_digest(endpoint_mac, expected):
                raise IntegrityError("record was modified by a non-endpoint")
        sequence = int.from_bytes(header[1:9], "big")
        aead = AESGCM(self.keys.read_key)
        return aead.decrypt(sequence.to_bytes(12, "big"), ciphertext, header)


class McTLSSession:
    """Derives context keys contributorily from both endpoints' secrets.

    Each context key is ``PRF(client_contribution || server_contribution)``:
    a middlebox can only obtain it if *both* endpoints hand over their half,
    which is mcTLS's "both endpoints must authorize" property.
    """

    def __init__(self, client_rng, server_rng, context_ids: list[int]) -> None:
        self._contributions = {
            context_id: (client_rng.random_bytes(32), server_rng.random_bytes(32))
            for context_id in context_ids
        }
        self.context_ids = list(context_ids)

    def _derive(self, context_id: int, label: bytes) -> bytes:
        client_half, server_half = self._contributions[context_id]
        return prf(client_half + server_half, label, context_id.to_bytes(1, "big"), 32)

    def keys_for(self, context_id: int, permission: ContextPermission) -> ContextKeys:
        """Key material a party with ``permission`` receives for a context."""
        if permission == ContextPermission.NONE:
            return ContextKeys(read_key=None, writer_mac_key=None, endpoint_mac_key=None)
        read_key = self._derive(context_id, b"mctls read")
        writer_mac = self._derive(context_id, b"mctls writer mac")
        if permission == ContextPermission.READ:
            return ContextKeys(read_key=read_key, writer_mac_key=writer_mac,
                               endpoint_mac_key=None)
        return ContextKeys(
            read_key=read_key,
            writer_mac_key=writer_mac,
            endpoint_mac_key=self._derive(context_id, b"mctls endpoint mac"),
        )

    def endpoint_party(self) -> "McTLSParty":
        """A full-access endpoint party."""
        grants = {
            context_id: self.keys_for(context_id, ContextPermission.WRITE)
            for context_id in self.context_ids
        }
        return McTLSParty(grants, is_endpoint=True)

    def middlebox_party(self, permissions: dict[int, ContextPermission]) -> "McTLSParty":
        """A middlebox with per-context permissions (both endpoints agreed)."""
        grants = {
            context_id: self.keys_for(
                context_id, permissions.get(context_id, ContextPermission.NONE)
            )
            for context_id in self.context_ids
        }
        return McTLSParty(grants, is_endpoint=False)


class McTLSParty:
    """One participant's view: its per-context keys."""

    def __init__(self, grants: dict[int, ContextKeys], is_endpoint: bool) -> None:
        self.is_endpoint = is_endpoint
        self.contexts = {
            context_id: McTLSContext(context_id, keys)
            for context_id, keys in grants.items()
        }

    def seal(self, context_id: int, plaintext: bytes) -> bytes:
        return self.contexts[context_id].seal(plaintext, is_endpoint=self.is_endpoint)

    def open(self, context_id: int, record: bytes, verify_endpoint_mac: bool = False) -> bytes:
        return self.contexts[context_id].open(record, verify_endpoint_mac)

    def can_read(self, context_id: int) -> bool:
        return self.contexts[context_id].keys.read_key is not None


class McTLSRecordConnection(FramedConnection):
    """Sans-IO stream endpoint speaking length-framed mcTLS records.

    mcTLS proper has no record framing of its own in this reproduction (the
    mechanism under study is the per-context access control), so this adapter
    supplies a minimal stream layer — :class:`repro.io.framing.FramedConnection`,
    a u32 length prefix per sealed record with a zero-length frame as the
    close marker — and implements the shared :class:`repro.io.Connection`
    contract.
    """

    origin_label = "mctls-endpoint"

    def __init__(
        self,
        party: McTLSParty,
        default_context: int,
        verify_endpoint_mac: bool = False,
    ) -> None:
        super().__init__()
        self.party = party
        self.default_context = default_context
        self.verify_endpoint_mac = verify_endpoint_mac

    def send_application_data(self, data: bytes, context_id: int | None = None) -> None:
        if self.closed:
            raise ProtocolError("cannot send application data on a closed connection")
        context = self.default_context if context_id is None else context_id
        self._out.queue_raw(frame(self.party.seal(context, data)))

    def _open(self, payload: bytes) -> bytes:
        # A forged, truncated or unknown-context record raises; the framed
        # loop answers with a fatal alert and closes.
        return self.party.open(
            payload[0], payload, verify_endpoint_mac=self.verify_endpoint_mac
        )


class McTLSMiddleboxConnection(FramedDuplex):
    """Sans-IO duplex mcTLS middlebox: inspects readable contexts in transit.

    Frames are forwarded verbatim — a read-only party cannot re-seal with
    the endpoint MAC, and forwarding unmodified bytes is exactly what keeps
    the endpoint MAC valid end to end. A record this hop can read but not
    verify aborts the session toward both segments.
    """

    origin_label = "mctls-middlebox"

    def __init__(self, party: McTLSParty) -> None:
        super().__init__()
        self.party = party
        self.records_seen = 0
        self.plaintext_seen: list[bytes] = []

    def _inspect(self, side: int, payload: bytes) -> None:
        self.records_seen += 1
        context_id = payload[0]
        if self.party.can_read(context_id):
            self.plaintext_seen.append(self.party.open(context_id, payload))
