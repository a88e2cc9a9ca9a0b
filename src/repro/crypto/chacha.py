"""ChaCha20 stream cipher and ChaCha20-Poly1305 AEAD (RFC 8439), pure Python.

Two speed tiers share the same wire format:

* **Scalar** — the reference implementation: one 64-byte block per pass
  through the 20 rounds, plus the per-block Poly1305 loop. This is the
  path below the cutovers and the oracle the equivalence tests compare
  against.
* **Vectorized** — the ``crypto/bitsliced.py`` treatment applied to
  ChaCha20: each of the 16 state words becomes one big int holding every
  block's copy of that word in a 64-bit lane (value in bits [0, 32), a
  guard region in [32, 64) that absorbs cross-lane spill from the
  rotate shifts and is masked off). Add/xor/rotl become masked big-int
  ops, so one pass through the 20 rounds computes the keystream for up
  to :data:`_MAX_LANES` blocks at once — spanning *several records* of a
  flight in one run, including each record's Poly1305 one-time-key block
  (counter 0 is contiguous with the data blocks at counter 1+).
  Poly1305 itself runs Horner over 4-block chunks with precomputed
  ``r^2..r^4`` — one lazy fold per chunk instead of per block. (A
  Kronecker-packed variant — one big multiply per 16-block chunk — was
  measured and rejected: CPython's large-int multiply costs more than
  the 16 small modmuls it replaces.)

Both tiers produce byte-identical output; the cutovers are plain module
constants so the bench harness can force the scalar tier.
"""

from __future__ import annotations

import hmac as _hmac
import struct as _struct

from repro.errors import CryptoError, IntegrityError

__all__ = ["chacha20_block", "chacha20_xor", "poly1305_mac", "ChaCha20Poly1305"]

_MASK32 = 0xFFFFFFFF
_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)  # "expand 32-byte k"

# Total 64-byte blocks at or above which a keystream request takes the
# lane engine; below it the per-block scalar loop is cheaper than lane
# setup. The bench's scalar context manager raises this to force the
# pre-fast-path code.
_VECTOR_THRESHOLD = 4
# Cap on lanes per vector run: big-int op cost is linear in lane count
# but loses cache locality past ~256 lanes (measured ~3.9us/block at 256
# lanes vs ~5.5us/block at 1024), so longer batches run in slices.
_MAX_LANES = 256

# Poly1305 messages at least this long take the unrolled 4-block Horner
# chunks; the bench's scalar context manager raises it.
_POLY_CHUNK_BYTES = 64


def _check_counter_span(counter: int, nblocks: int) -> None:
    """Reject keystream spans that would overflow the 32-bit block counter.

    RFC 8439 leaves counter wraparound undefined; wrapping silently (as
    ``counter & _MASK32`` used to) *reuses keystream*, which is fatal, so
    any span touching a counter past 2**32 - 1 is an error.
    """
    if counter < 0 or counter + nblocks - 1 > _MASK32:
        raise CryptoError("ChaCha20 block counter overflow")


def _quarter_round(state: list[int], a: int, b: int, c: int, d: int) -> None:
    state[a] = (state[a] + state[b]) & _MASK32
    state[d] ^= state[a]
    state[d] = ((state[d] << 16) | (state[d] >> 16)) & _MASK32
    state[c] = (state[c] + state[d]) & _MASK32
    state[b] ^= state[c]
    state[b] = ((state[b] << 12) | (state[b] >> 20)) & _MASK32
    state[a] = (state[a] + state[b]) & _MASK32
    state[d] ^= state[a]
    state[d] = ((state[d] << 8) | (state[d] >> 24)) & _MASK32
    state[c] = (state[c] + state[d]) & _MASK32
    state[b] ^= state[c]
    state[b] = ((state[b] << 7) | (state[b] >> 25)) & _MASK32


def chacha20_block(key: bytes, counter: int, nonce: bytes) -> bytes:
    """Produce one 64-byte ChaCha20 keystream block."""
    if len(key) != 32:
        raise CryptoError("ChaCha20 key must be 32 bytes")
    if len(nonce) != 12:
        raise CryptoError("ChaCha20 nonce must be 12 bytes")
    _check_counter_span(counter, 1)
    state = list(_CONSTANTS)
    state += [int.from_bytes(key[i : i + 4], "little") for i in range(0, 32, 4)]
    state.append(counter)
    state += [int.from_bytes(nonce[i : i + 4], "little") for i in range(0, 12, 4)]

    working = state.copy()
    for _ in range(10):
        _quarter_round(working, 0, 4, 8, 12)
        _quarter_round(working, 1, 5, 9, 13)
        _quarter_round(working, 2, 6, 10, 14)
        _quarter_round(working, 3, 7, 11, 15)
        _quarter_round(working, 0, 5, 10, 15)
        _quarter_round(working, 1, 6, 11, 12)
        _quarter_round(working, 2, 7, 8, 13)
        _quarter_round(working, 3, 4, 9, 14)
    return b"".join(
        ((working[i] + state[i]) & _MASK32).to_bytes(4, "little") for i in range(16)
    )


_PACK16 = _struct.Struct("<16I").pack


def _keystream(key: bytes, counter: int, nonce: bytes, nblocks: int) -> bytes:
    """Scalar ChaCha20 keystream, double rounds unrolled over 16 locals."""
    _check_counter_span(counter, nblocks)
    s = list(_CONSTANTS)
    s += [int.from_bytes(key[i : i + 4], "little") for i in range(0, 32, 4)]
    s.append(0)
    s += [int.from_bytes(nonce[i : i + 4], "little") for i in range(0, 12, 4)]
    s0, s1, s2, s3, s4, s5, s6, s7 = s[:8]
    s8, s9, s10, s11, _, s13, s14, s15 = s[8:]
    M = _MASK32
    parts = []
    for i in range(nblocks):
        s12 = counter + i
        x0, x1, x2, x3, x4, x5, x6, x7 = s0, s1, s2, s3, s4, s5, s6, s7
        x8, x9, x10, x11, x12, x13, x14, x15 = s8, s9, s10, s11, s12, s13, s14, s15
        for _ in range(10):
            x0 = (x0 + x4) & M; x12 ^= x0; x12 = (x12 << 16 | x12 >> 16) & M
            x8 = (x8 + x12) & M; x4 ^= x8; x4 = (x4 << 12 | x4 >> 20) & M
            x0 = (x0 + x4) & M; x12 ^= x0; x12 = (x12 << 8 | x12 >> 24) & M
            x8 = (x8 + x12) & M; x4 ^= x8; x4 = (x4 << 7 | x4 >> 25) & M
            x1 = (x1 + x5) & M; x13 ^= x1; x13 = (x13 << 16 | x13 >> 16) & M
            x9 = (x9 + x13) & M; x5 ^= x9; x5 = (x5 << 12 | x5 >> 20) & M
            x1 = (x1 + x5) & M; x13 ^= x1; x13 = (x13 << 8 | x13 >> 24) & M
            x9 = (x9 + x13) & M; x5 ^= x9; x5 = (x5 << 7 | x5 >> 25) & M
            x2 = (x2 + x6) & M; x14 ^= x2; x14 = (x14 << 16 | x14 >> 16) & M
            x10 = (x10 + x14) & M; x6 ^= x10; x6 = (x6 << 12 | x6 >> 20) & M
            x2 = (x2 + x6) & M; x14 ^= x2; x14 = (x14 << 8 | x14 >> 24) & M
            x10 = (x10 + x14) & M; x6 ^= x10; x6 = (x6 << 7 | x6 >> 25) & M
            x3 = (x3 + x7) & M; x15 ^= x3; x15 = (x15 << 16 | x15 >> 16) & M
            x11 = (x11 + x15) & M; x7 ^= x11; x7 = (x7 << 12 | x7 >> 20) & M
            x3 = (x3 + x7) & M; x15 ^= x3; x15 = (x15 << 8 | x15 >> 24) & M
            x11 = (x11 + x15) & M; x7 ^= x11; x7 = (x7 << 7 | x7 >> 25) & M
            x0 = (x0 + x5) & M; x15 ^= x0; x15 = (x15 << 16 | x15 >> 16) & M
            x10 = (x10 + x15) & M; x5 ^= x10; x5 = (x5 << 12 | x5 >> 20) & M
            x0 = (x0 + x5) & M; x15 ^= x0; x15 = (x15 << 8 | x15 >> 24) & M
            x10 = (x10 + x15) & M; x5 ^= x10; x5 = (x5 << 7 | x5 >> 25) & M
            x1 = (x1 + x6) & M; x12 ^= x1; x12 = (x12 << 16 | x12 >> 16) & M
            x11 = (x11 + x12) & M; x6 ^= x11; x6 = (x6 << 12 | x6 >> 20) & M
            x1 = (x1 + x6) & M; x12 ^= x1; x12 = (x12 << 8 | x12 >> 24) & M
            x11 = (x11 + x12) & M; x6 ^= x11; x6 = (x6 << 7 | x6 >> 25) & M
            x2 = (x2 + x7) & M; x13 ^= x2; x13 = (x13 << 16 | x13 >> 16) & M
            x8 = (x8 + x13) & M; x7 ^= x8; x7 = (x7 << 12 | x7 >> 20) & M
            x2 = (x2 + x7) & M; x13 ^= x2; x13 = (x13 << 8 | x13 >> 24) & M
            x8 = (x8 + x13) & M; x7 ^= x8; x7 = (x7 << 7 | x7 >> 25) & M
            x3 = (x3 + x4) & M; x14 ^= x3; x14 = (x14 << 16 | x14 >> 16) & M
            x9 = (x9 + x14) & M; x4 ^= x9; x4 = (x4 << 12 | x4 >> 20) & M
            x3 = (x3 + x4) & M; x14 ^= x3; x14 = (x14 << 8 | x14 >> 24) & M
            x9 = (x9 + x14) & M; x4 ^= x9; x4 = (x4 << 7 | x4 >> 25) & M
        parts.append(_PACK16(
            (x0 + s0) & M, (x1 + s1) & M, (x2 + s2) & M, (x3 + s3) & M,
            (x4 + s4) & M, (x5 + s5) & M, (x6 + s6) & M, (x7 + s7) & M,
            (x8 + s8) & M, (x9 + s9) & M, (x10 + s10) & M, (x11 + s11) & M,
            (x12 + s12) & M, (x13 + s13) & M, (x14 + s14) & M, (x15 + s15) & M,
        ))
    return b"".join(parts)


# ----------------------------------------------------------- vectorized tier


class _Lanes:
    """Per-lane-count constants for the big-int lane layout.

    With ``n`` lanes of 64 bits each: ``rep`` replicates a 32-bit word
    into every lane (``word * rep``), ``mask`` keeps each lane's low 32
    bits (the value region — bits [32, 64) are the spill guard), and
    ``ramp`` is ``0, 1, ..., n-1`` across the lanes, so a contiguous
    counter run is just ``c0 * rep + ramp``. The widest rotate shift in
    the rounds is ``<< 16`` (reaching bit 47 < 64) and the deepest
    right-shift spill from ``>> 25`` lands at bit 39 of the lane below —
    inside that lane's guard region — so one mask after each op restores
    the invariant.
    """

    _cache: dict[int, "_Lanes"] = {}
    __slots__ = ("n", "rep", "mask", "ramp", "consts")

    def __new__(cls, n: int) -> "_Lanes":
        cached = cls._cache.get(n)
        if cached is not None:
            return cached
        if len(cls._cache) > 32:
            cls._cache.clear()
        self = object.__new__(cls)
        self.n = n
        self.rep = ((1 << (64 * n)) - 1) // 0xFFFFFFFFFFFFFFFF
        self.mask = _MASK32 * self.rep
        ramp = 0
        for i in range(1, n):
            ramp |= i << (64 * i)
        self.ramp = ramp
        self.consts = tuple(c * self.rep for c in _CONSTANTS)
        cls._cache[n] = self
        return self


#: Cached per-key lane replications, keyed ``(key, lane_count)``.
_KEY_LANES: dict[tuple[bytes, int], tuple[int, ...]] = {}


def _key_lanes(key: bytes, lanes: _Lanes) -> tuple[int, ...]:
    cache_key = (key, lanes.n)
    cached = _KEY_LANES.get(cache_key)
    if cached is None:
        if len(_KEY_LANES) > 128:
            _KEY_LANES.clear()
        rep = lanes.rep
        cached = tuple(
            int.from_bytes(key[i : i + 4], "little") * rep for i in range(0, 32, 4)
        )
        _KEY_LANES[cache_key] = cached
    return cached


def _vector_run(key: bytes, segments: list[tuple[bytes, int, int]]) -> bytes:
    """One lane-engine pass over ``(nonce, counter, nblocks)`` segments.

    Segment lanes are laid out left to right in submission order; lane
    counts are padded to a multiple of 8 (zero nonce/counter — their
    keystream is discarded) so the layout cache stays small.
    """
    total = 0
    for _, _, nblocks in segments:
        total += nblocks
    n = total + (-total % 8)
    lanes = _Lanes(n)
    M = lanes.mask

    w12 = w13 = w14 = w15 = 0
    offset = 0
    for nonce, counter, nblocks in segments:
        sub = _Lanes(nblocks)
        shift = 64 * offset
        w12 |= (counter * sub.rep + sub.ramp) << shift
        w13 |= (int.from_bytes(nonce[0:4], "little") * sub.rep) << shift
        w14 |= (int.from_bytes(nonce[4:8], "little") * sub.rep) << shift
        w15 |= (int.from_bytes(nonce[8:12], "little") * sub.rep) << shift
        offset += nblocks

    s0, s1, s2, s3 = lanes.consts
    s4, s5, s6, s7, s8, s9, s10, s11 = _key_lanes(key, lanes)
    x0, x1, x2, x3, x4, x5, x6, x7 = s0, s1, s2, s3, s4, s5, s6, s7
    x8, x9, x10, x11, x12, x13, x14, x15 = s8, s9, s10, s11, w12, w13, w14, w15
    for _ in range(10):
        x0 = (x0 + x4) & M; x12 ^= x0; x12 = (x12 << 16 | x12 >> 16) & M
        x8 = (x8 + x12) & M; x4 ^= x8; x4 = (x4 << 12 | x4 >> 20) & M
        x0 = (x0 + x4) & M; x12 ^= x0; x12 = (x12 << 8 | x12 >> 24) & M
        x8 = (x8 + x12) & M; x4 ^= x8; x4 = (x4 << 7 | x4 >> 25) & M
        x1 = (x1 + x5) & M; x13 ^= x1; x13 = (x13 << 16 | x13 >> 16) & M
        x9 = (x9 + x13) & M; x5 ^= x9; x5 = (x5 << 12 | x5 >> 20) & M
        x1 = (x1 + x5) & M; x13 ^= x1; x13 = (x13 << 8 | x13 >> 24) & M
        x9 = (x9 + x13) & M; x5 ^= x9; x5 = (x5 << 7 | x5 >> 25) & M
        x2 = (x2 + x6) & M; x14 ^= x2; x14 = (x14 << 16 | x14 >> 16) & M
        x10 = (x10 + x14) & M; x6 ^= x10; x6 = (x6 << 12 | x6 >> 20) & M
        x2 = (x2 + x6) & M; x14 ^= x2; x14 = (x14 << 8 | x14 >> 24) & M
        x10 = (x10 + x14) & M; x6 ^= x10; x6 = (x6 << 7 | x6 >> 25) & M
        x3 = (x3 + x7) & M; x15 ^= x3; x15 = (x15 << 16 | x15 >> 16) & M
        x11 = (x11 + x15) & M; x7 ^= x11; x7 = (x7 << 12 | x7 >> 20) & M
        x3 = (x3 + x7) & M; x15 ^= x3; x15 = (x15 << 8 | x15 >> 24) & M
        x11 = (x11 + x15) & M; x7 ^= x11; x7 = (x7 << 7 | x7 >> 25) & M
        x0 = (x0 + x5) & M; x15 ^= x0; x15 = (x15 << 16 | x15 >> 16) & M
        x10 = (x10 + x15) & M; x5 ^= x10; x5 = (x5 << 12 | x5 >> 20) & M
        x0 = (x0 + x5) & M; x15 ^= x0; x15 = (x15 << 8 | x15 >> 24) & M
        x10 = (x10 + x15) & M; x5 ^= x10; x5 = (x5 << 7 | x5 >> 25) & M
        x1 = (x1 + x6) & M; x12 ^= x1; x12 = (x12 << 16 | x12 >> 16) & M
        x11 = (x11 + x12) & M; x6 ^= x11; x6 = (x6 << 12 | x6 >> 20) & M
        x1 = (x1 + x6) & M; x12 ^= x1; x12 = (x12 << 8 | x12 >> 24) & M
        x11 = (x11 + x12) & M; x6 ^= x11; x6 = (x6 << 7 | x6 >> 25) & M
        x2 = (x2 + x7) & M; x13 ^= x2; x13 = (x13 << 16 | x13 >> 16) & M
        x8 = (x8 + x13) & M; x7 ^= x8; x7 = (x7 << 12 | x7 >> 20) & M
        x2 = (x2 + x7) & M; x13 ^= x2; x13 = (x13 << 8 | x13 >> 24) & M
        x8 = (x8 + x13) & M; x7 ^= x8; x7 = (x7 << 7 | x7 >> 25) & M
        x3 = (x3 + x4) & M; x14 ^= x3; x14 = (x14 << 16 | x14 >> 16) & M
        x9 = (x9 + x14) & M; x4 ^= x9; x4 = (x4 << 12 | x4 >> 20) & M
        x3 = (x3 + x4) & M; x14 ^= x3; x14 = (x14 << 8 | x14 >> 24) & M
        x9 = (x9 + x14) & M; x4 ^= x9; x4 = (x4 << 7 | x4 >> 25) & M

    final = (
        x0 + s0, x1 + s1, x2 + s2, x3 + s3, x4 + s4, x5 + s5, x6 + s6, x7 + s7,
        x8 + s8, x9 + s9, x10 + s10, x11 + s11,
        x12 + w12, x13 + w13, x14 + w14, x15 + w15,
    )
    # Transpose lanes back to the serial block layout with strided slice
    # assignments: word i's byte k of every block at out[4*i+k::64].
    out = bytearray(64 * n)
    width = 8 * n
    for i in range(16):
        raw = (final[i] & M).to_bytes(width, "little")
        base = 4 * i
        out[base::64] = raw[0::8]
        out[base + 1 :: 64] = raw[1::8]
        out[base + 2 :: 64] = raw[2::8]
        out[base + 3 :: 64] = raw[3::8]
    return bytes(memoryview(out)[: 64 * total])


def _vector_keystream(key: bytes, segments: list[tuple[bytes, int, int]]) -> bytes:
    """Keystream for several ``(nonce, counter, nblocks)`` segments.

    Splits the work into vector runs of at most :data:`_MAX_LANES` blocks
    (a segment longer than the cap continues in the next run at the
    advanced counter).  Callers validate nonce lengths and counter spans.
    """
    parts: list[bytes] = []
    run: list[tuple[bytes, int, int]] = []
    run_blocks = 0
    for nonce, counter, nblocks in segments:
        while nblocks:
            if run_blocks == _MAX_LANES:
                parts.append(_vector_run(key, run))
                run = []
                run_blocks = 0
            take = min(nblocks, _MAX_LANES - run_blocks)
            run.append((nonce, counter, take))
            counter += take
            nblocks -= take
            run_blocks += take
    if run:
        parts.append(_vector_run(key, run))
    return b"".join(parts)


def chacha20_xor(key: bytes, counter: int, nonce: bytes, data) -> bytes:
    """Encrypt/decrypt ``data`` with the ChaCha20 keystream."""
    n = len(data)
    if n == 0:
        return b""
    if len(key) != 32:
        raise CryptoError("ChaCha20 key must be 32 bytes")
    if len(nonce) != 12:
        raise CryptoError("ChaCha20 nonce must be 12 bytes")
    nblocks = (n + 63) // 64
    _check_counter_span(counter, nblocks)
    if nblocks >= _VECTOR_THRESHOLD:
        keystream = _vector_keystream(key, [(nonce, counter, nblocks)])
    else:
        keystream = _keystream(key, counter, nonce, nblocks)
    if n % 64:
        keystream = keystream[:n]
    return (
        int.from_bytes(data, "little") ^ int.from_bytes(keystream, "little")
    ).to_bytes(n, "little")


_P1305 = (1 << 130) - 5


def poly1305_mac(key: bytes, message) -> bytes:
    """Compute the 16-byte Poly1305 tag of ``message`` under a 32-byte key.

    Long messages run Horner over 4-block chunks with precomputed
    ``r^2..r^4``: the chunk contributes
    ``(acc + c0)*r^4 + c1*r^3 + c2*r^2 + c3*r`` in one expression, so the
    lazy 2^130 = 5 fold (and the loop overhead) is paid once per 64 bytes
    instead of once per 16.  Identical result to the per-block loop.
    """
    if len(key) != 32:
        raise CryptoError("Poly1305 key must be 32 bytes")
    r = int.from_bytes(key[:16], "little") & 0x0FFFFFFC0FFFFFFC0FFFFFFC0FFFFFFF
    s = int.from_bytes(key[16:], "little")
    accumulator = 0
    length = len(message)
    full = length - length % 16
    from_bytes = int.from_bytes
    pad = 1 << 128
    mask130 = (1 << 130) - 1
    offset = 0
    if full >= _POLY_CHUNK_BYTES:
        r2 = r * r % _P1305
        r3 = r2 * r % _P1305
        r4 = r3 * r % _P1305
        stop = full - full % 64
        while offset < stop:
            accumulator = (
                (accumulator
                 + from_bytes(message[offset : offset + 16], "little") + pad) * r4
                + (from_bytes(message[offset + 16 : offset + 32], "little")
                   + pad) * r3
                + (from_bytes(message[offset + 32 : offset + 48], "little")
                   + pad) * r2
                + (from_bytes(message[offset + 48 : offset + 64], "little")
                   + pad) * r
            )
            # Two folds: the four-term sum reaches ~2^263, one fold lands
            # near 2^136, the second brings it back under 2^131.
            accumulator = (accumulator & mask130) + 5 * (accumulator >> 130)
            accumulator = (accumulator & mask130) + 5 * (accumulator >> 130)
            offset += 64
    # Lazy reduction: fold 2^130 = 5 (mod p) each block and defer the
    # exact modulus to the end; the accumulator stays below 2^132.
    while offset < full:
        accumulator = (
            accumulator + from_bytes(message[offset : offset + 16], "little")
            + pad
        ) * r
        accumulator = (accumulator & mask130) + 5 * (accumulator >> 130)
        offset += 16
    if full < length:
        chunk = message[full:]
        n = from_bytes(chunk, "little") + (1 << (8 * len(chunk)))
        accumulator = (accumulator + n) * r
    accumulator %= _P1305
    return ((accumulator + s) & ((1 << 128) - 1)).to_bytes(16, "little")


def _poly_tag(otk: bytes, aad, ciphertext) -> bytes:
    """The AEAD tag: Poly1305 over padded AAD, padded ciphertext, lengths.

    Assembles the MAC input into one buffer with slice writes instead of
    concatenation, so ``aad``/``ciphertext`` may be memoryviews (the
    zero-copy receive path hands ciphertext views straight in).
    """
    la = len(aad)
    lc = len(ciphertext)
    pa = la + (-la % 16)
    mac = bytearray(pa + lc + (-lc % 16) + 16)
    mac[:la] = aad
    mac[pa : pa + lc] = ciphertext
    mac[-16:-8] = la.to_bytes(8, "little")
    mac[-8:] = lc.to_bytes(8, "little")
    return poly1305_mac(otk, mac)


class ChaCha20Poly1305:
    """ChaCha20-Poly1305 AEAD per RFC 8439 with 96-bit nonces."""

    tag_length = 16
    nonce_length = 12

    def __init__(self, key: bytes) -> None:
        if len(key) != 32:
            raise CryptoError("ChaCha20-Poly1305 key must be 32 bytes")
        self._key = key

    def _keystreams(self, requests: list[tuple[bytes, int]]) -> list[tuple[bytes, bytes]]:
        """Per-record ``(poly_key, data_keystream)`` for ``(nonce, nbytes)``.

        Each record is one contiguous counter segment starting at 0:
        block 0 is the Poly1305 one-time key, blocks 1+ are the data
        keystream — so a whole flight's keystream (tags included) comes
        out of shared vector runs.
        """
        segments: list[tuple[bytes, int, int]] = []
        total = 0
        for nonce, nbytes in requests:
            if len(nonce) != 12:
                raise CryptoError("ChaCha20 nonce must be 12 bytes")
            nblocks = 1 + (nbytes + 63) // 64
            _check_counter_span(0, nblocks)
            segments.append((nonce, 0, nblocks))
            total += nblocks
        if total >= _VECTOR_THRESHOLD:
            stream = _vector_keystream(self._key, segments)
        else:
            stream = b"".join(
                _keystream(self._key, 0, nonce, nblocks)
                for nonce, _, nblocks in segments
            )
        view = memoryview(stream)
        out = []
        offset = 0
        for (nonce, _, nblocks), (_, nbytes) in zip(segments, requests):
            out.append((
                bytes(view[offset : offset + 32]),
                view[offset + 64 : offset + 64 + nbytes],
            ))
            offset += 64 * nblocks
        return out

    @staticmethod
    def _xor(data, keystream) -> bytes:
        n = len(data)
        if n == 0:
            return b""
        return (
            int.from_bytes(data, "little") ^ int.from_bytes(keystream, "little")
        ).to_bytes(n, "little")

    def encrypt(self, nonce: bytes, plaintext, aad=b"") -> bytes:
        """Encrypt and authenticate; returns ciphertext || 16-byte tag."""
        [(otk, keystream)] = self._keystreams([(nonce, len(plaintext))])
        ciphertext = self._xor(plaintext, keystream)
        return ciphertext + _poly_tag(otk, aad, ciphertext)

    def decrypt(self, nonce: bytes, data, aad=b"") -> bytes:
        """Verify the tag and decrypt; raises IntegrityError on failure."""
        if len(data) < self.tag_length:
            raise IntegrityError("ciphertext shorter than Poly1305 tag")
        ciphertext = data[: -self.tag_length]
        tag = data[-self.tag_length :]
        [(otk, keystream)] = self._keystreams([(nonce, len(ciphertext))])
        if not _hmac.compare_digest(bytes(tag), _poly_tag(otk, aad, ciphertext)):
            raise IntegrityError("Poly1305 tag mismatch")
        return self._xor(ciphertext, keystream)

    def seal_many(
        self, items: list[tuple[bytes, bytes, bytes]]
    ) -> list[bytes]:
        """Encrypt a batch of ``(nonce, plaintext, aad)`` records.

        One shared keystream computation covers the whole flight (data
        blocks and Poly1305 one-time keys); output is byte-identical to
        sequential :meth:`encrypt` calls.
        """
        streams = self._keystreams([(nonce, len(pt)) for nonce, pt, _ in items])
        out = []
        for (nonce, plaintext, aad), (otk, keystream) in zip(items, streams):
            ciphertext = self._xor(plaintext, keystream)
            out.append(ciphertext + _poly_tag(otk, aad, ciphertext))
        return out

    def open_many(
        self, items: list[tuple[bytes, bytes, bytes]]
    ) -> list[bytes]:
        """Decrypt a batch of ``(nonce, ciphertext||tag, aad)`` records.

        Tags verify in submission order (the first failure raises, as a
        sequential loop would); keystreams are shared across the batch.
        """
        tag_length = self.tag_length
        for nonce, data, aad in items:
            if len(data) < tag_length:
                raise IntegrityError("ciphertext shorter than Poly1305 tag")
        streams = self._keystreams(
            [(nonce, len(data) - tag_length) for nonce, data, _ in items]
        )
        out = []
        for (nonce, data, aad), (otk, keystream) in zip(items, streams):
            ciphertext = data[:-tag_length]
            tag = data[-tag_length:]
            if not _hmac.compare_digest(bytes(tag), _poly_tag(otk, aad, ciphertext)):
                raise IntegrityError("Poly1305 tag mismatch")
            out.append(self._xor(ciphertext, keystream))
        return out
