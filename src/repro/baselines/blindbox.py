"""Simplified BlindBox (SIGCOMM '15) — §2.2's functional-crypto point in the
design space.

BlindBox lets a pattern-matching middlebox (an IDS) inspect traffic
*without* learning the plaintext: alongside the regular TLS stream, the
sender emits deterministic encryptions of sliding-window tokens; the
middlebox holds the same deterministic encryptions of its *rule* patterns
(obtained through an oblivious protocol at setup) and matches ciphertext
against ciphertext.

We reproduce the data-path mechanism — tokenization, salted-deterministic
token encryption, equality matching — which is what the design-space
comparison in §2.2 turns on:

* [Data access: func. crypto] the middlebox learns only which rules
  matched, never the stream contents;
* [Computation: limited] it fundamentally cannot transform data — there is
  no mbTLS-style compression proxy or cache in this model;
* [Legacy: both endpoints upgraded] both ends must produce the token
  stream.

The oblivious rule-encryption setup (garbled circuits in the paper) is
abstracted: a :class:`RuleAuthority` plays the trusted setup that hands the
middlebox encrypted rules without revealing the token key. DESIGN.md
records the simplification.
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass

from repro.errors import PolicyError, ProtocolError
from repro.io.framing import FramedConnection, FramedDuplex, frame

__all__ = [
    "TokenStream",
    "EncryptedRule",
    "RuleAuthority",
    "BlindBoxDetector",
    "BlindBoxStreamConnection",
    "BlindBoxInspectorConnection",
]

DEFAULT_WINDOW = 8  # sliding-window token size, like BlindBox's 8-byte tokens


def _encrypt_token(key: bytes, token: bytes) -> bytes:
    """Deterministic token encryption (PRF under the session token key)."""
    return hmac.new(key, b"blindbox-token" + token, "sha256").digest()[:16]


class TokenStream:
    """Endpoint-side tokenizer: plaintext -> encrypted token sequence.

    Tokens are every ``window``-byte sliding substring, so any rule of at
    least ``window`` bytes appearing in the stream is detectable. Carryover
    between chunks keeps matches that straddle chunk boundaries.
    """

    def __init__(self, token_key: bytes, window: int = DEFAULT_WINDOW) -> None:
        if len(token_key) < 16:
            raise PolicyError("token key too short")
        self._key = token_key
        self.window = window
        self._carry = b""

    def tokenize(self, plaintext: bytes) -> list[bytes]:
        data = self._carry + plaintext
        tokens = [
            _encrypt_token(self._key, data[i : i + self.window])
            for i in range(0, len(data) - self.window + 1)
        ]
        self._carry = data[-(self.window - 1):] if self.window > 1 else b""
        return tokens


@dataclass(frozen=True)
class EncryptedRule:
    """A rule as the middlebox sees it: name + encrypted pattern tokens."""

    name: str
    encrypted_tokens: tuple[bytes, ...]


class RuleAuthority:
    """Stands in for BlindBox's oblivious rule-encryption setup.

    Holds the session token key; encrypts the IDS's rule patterns under it
    without ever giving the IDS the key itself (in the paper this is a
    garbled-circuit protocol between the endpoints and the middlebox).
    """

    def __init__(self, token_key: bytes, window: int = DEFAULT_WINDOW) -> None:
        self._key = token_key
        self.window = window

    def encrypt_rule(self, name: str, pattern: bytes) -> EncryptedRule:
        if len(pattern) < self.window:
            raise PolicyError(
                f"pattern shorter than the {self.window}-byte token window"
            )
        tokens = tuple(
            _encrypt_token(self._key, pattern[i : i + self.window])
            for i in range(len(pattern) - self.window + 1)
        )
        return EncryptedRule(name=name, encrypted_tokens=tokens)


@dataclass
class Match:
    rule: str
    token_index: int


class BlindBoxDetector:
    """The middlebox: matches encrypted tokens against encrypted rules.

    It never holds the token key — only the encrypted rules — so a matching
    token reveals *that* a rule pattern occurred, nothing else.
    """

    def __init__(self, rules: list[EncryptedRule]) -> None:
        self._first_token_index: dict[bytes, list[EncryptedRule]] = {}
        for rule in rules:
            self._first_token_index.setdefault(rule.encrypted_tokens[0], []).append(rule)
        self.matches: list[Match] = []
        self._window: list[bytes] = []
        self._seen = 0
        self._reported: set[tuple[str, int]] = set()

    def inspect(self, encrypted_tokens: list[bytes]) -> list[Match]:
        """Consume a chunk of the token stream; returns fresh matches."""
        fresh: list[Match] = []
        self._window.extend(encrypted_tokens)
        for offset, token in enumerate(self._window):
            for rule in self._first_token_index.get(token, []):
                needed = len(rule.encrypted_tokens)
                candidate = self._window[offset : offset + needed]
                key = (rule.name, self._seen + offset)
                if (
                    len(candidate) == needed
                    and tuple(candidate) == rule.encrypted_tokens
                    and key not in self._reported
                ):
                    self._reported.add(key)
                    fresh.append(Match(rule=rule.name, token_index=key[1]))
        # Keep a tail big enough for the longest rule to match across chunks.
        longest = max(
            (len(rule.encrypted_tokens) for rules in self._first_token_index.values()
             for rule in rules),
            default=1,
        )
        if len(self._window) > longest:
            dropped = len(self._window) - longest
            self._seen += dropped
            del self._window[:dropped]
            self._reported = {
                entry for entry in self._reported if entry[1] >= self._seen
            }
        self.matches.extend(fresh)
        return fresh


_TOKEN_LEN = 16


def _encode_payload(tokens: list[bytes], data: bytes) -> bytes:
    return frame(len(tokens).to_bytes(2, "big") + b"".join(tokens) + data)


def _decode_payload(payload: bytes) -> tuple[list[bytes], bytes]:
    count = int.from_bytes(payload[:2], "big")
    end = 2 + count * _TOKEN_LEN
    tokens = [payload[i : i + _TOKEN_LEN] for i in range(2, end, _TOKEN_LEN)]
    return tokens, payload[end:]


class BlindBoxStreamConnection(FramedConnection):
    """Sans-IO BlindBox endpoint: data chunks travel with their token stream.

    Each outbound chunk is framed as ``u32 len | u16 n_tokens | tokens | data``
    so the on-path detector can strip the encrypted tokens without touching the
    data bytes (which in a full deployment are the regular TLS ciphertext; the
    simplification is recorded in the module docstring). Implements the shared
    :class:`repro.io.Connection` contract.
    """

    origin_label = "blindbox-endpoint"

    def __init__(self, token_stream: TokenStream) -> None:
        super().__init__()
        self.tokens = token_stream

    def send_application_data(self, data: bytes) -> None:
        if self.closed:
            raise ProtocolError("cannot send application data on a closed connection")
        self._out.queue_raw(_encode_payload(self.tokens.tokenize(data), data))

    def _open(self, payload: bytes) -> bytes:
        _tokens, chunk = _decode_payload(payload)
        return chunk


class BlindBoxInspectorConnection(FramedDuplex):
    """Sans-IO duplex BlindBox middlebox: matches tokens, relays frames.

    The detector sees only the encrypted token stream — frames are forwarded
    byte-for-byte, because the inspector fundamentally cannot transform the
    data (the [Computation: limited] cell of the §2.2 design space).
    """

    origin_label = "blindbox-inspector"

    def __init__(
        self,
        detector: BlindBoxDetector,
        detector_up: BlindBoxDetector | None = None,
    ) -> None:
        super().__init__()
        self.detector_down = detector
        self.detector_up = detector_up if detector_up is not None else detector
        self.frames_inspected = 0

    def _inspect(self, side: int, payload: bytes) -> None:
        tokens, _chunk = _decode_payload(payload)
        (self.detector_up if side else self.detector_down).inspect(tokens)
        self.frames_inspected += 1
