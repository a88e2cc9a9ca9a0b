"""Speed-normalised CPU time, steady on a shared host.

On a shared virtual machine the speed of a core moves by a factor of two
or more within seconds, as neighbours come and go; a fixed loop timed
twice a second on the 2-core Xeon VM the bounds were set on read
anywhere from 15 to 51 ms.  CPU time alone does not help, because the
slowdown is in the core, not in the scheduler.  What does help is that
the speed holds for a few milliseconds: two slices of the same work a
few milliseconds apart take nearly the same time.

So every timed lap of work is followed by short *reference timings* of
fixed code that is not part of ``repro``, and reported as the CPU time
the lap would have taken at the reference speed.  Two classes of work
slow down differently on that host, so each has its own reference:

* modular exponentiation (the builtin three-argument ``pow``, where RSA,
  DH and X25519 spend their time): the reference is one 1024-bit
  ``pow``, taken after each lap that used ``pow``, and ``pow`` calls are
  timed by a thin wrapper around the builtin (see ``install``);
* everything else, interpreted code: the reference is a fixed
  pure-Python loop of attribute, method, short-lived object, dict, heap,
  bytes and integer work, timed on both sides of every lap and averaged.

A lap of ``t`` CPU seconds, ``m`` of them in ``pow``, reports

    (t - m) x INTERP_S / interp_reference + m x MODEXP_S / modexp_reference

The nominal times ``INTERP_S`` and ``MODEXP_S`` are what the references
take on an unloaded core of that VM, so the numbers read as CPU time
there.  A change to the program moves the lap and not the references,
so it moves the metric in full.  Laps should be a few tens of
milliseconds or less; the longer a lap, the more the speed drifts within
it.  The reference timings fall between laps and are not counted.
"""

from __future__ import annotations

import builtins
import gc
import heapq
import time

#: Passes of the interpreted reference loop per timing, and the time
#: they take on the reference core.
INTERP_PASSES = 500
INTERP_S = 0.00052
#: The modexp reference: a 128-bit exponent modulo a 1024-bit odd number,
#: the size of one RSA-2048 CRT half; and its time on the reference core.
_MODULUS = (1 << 1023) + 1155
_BASE = (1 << 1000) + 77
_EXPONENT = (1 << 128) - 3
MODEXP_S = 0.0005
_KEYS = [f"key{position}" for position in range(64)]
_BLOB = bytes(range(256)) * 8
_pow = builtins.pow
#: CPU seconds spent in ``pow`` since ``install``.
_modexp_s = 0.0


def _timed_pow(base, exp, mod=None):
    global _modexp_s
    started = time.process_time()
    try:
        return _pow(base, exp, mod)
    finally:
        _modexp_s += time.process_time() - started


def install() -> None:
    """Time every call of the builtin ``pow`` from now on.

    ``repro`` looks ``pow`` up in builtins at each call, so every call
    reaches the wrapper, whenever the module was imported.
    """
    builtins.pow = _timed_pow


class _Slot:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def weight(self) -> int:
        return self.value & 0xFFFF


_SLOTS = [_Slot(position) for position in range(64)]
_HEAP: list[int] = []
_CHUNKS: list[bytes] = []
_TABLE: dict[str, int] = {}
_KEPT: list[dict] = []


def _interp_loop(passes: int) -> int:
    """Attribute access, method calls, short-lived small objects, dict
    and heap churn, bytes slicing and joining, 512-bit integers: the
    kinds of work ``repro`` does."""
    heap, chunks, table, kept = _HEAP, _CHUNKS, _TABLE, _KEPT
    heap.clear()
    chunks.clear()
    table.clear()
    kept.clear()
    acc = (1 << 255) | 12345
    for position in range(passes):
        slot = _SLOTS[position & 63]
        slot.value = acc & 0xFFFFFFFF
        key = _KEYS[position & 63]
        table[key] = slot.weight()
        kept.append({"key": key, "pair": (position, slot.value), "list": [position]})
        if len(kept) > 48:
            kept.clear()
        heapq.heappush(heap, slot.weight() ^ position)
        if len(heap) > 32:
            heapq.heappop(heap)
        offset = position & 0x3FF
        chunks.append(_BLOB[offset:offset + 24])
        if len(chunks) > 8:
            word = int.from_bytes(b"".join(chunks), "big")
            chunks.clear()
            acc = ((acc << 3) ^ word ^ (acc >> 5)) & ((1 << 512) - 1)
        if position & 7 == 0:
            del table[key]
    kept.clear()
    return acc


def interp_reference_s() -> float:
    """The interpreted reference's CPU time now.  The garbage collector
    is paused for it, so no collection of the program's heap lands in
    the timing; the loop frees what it makes, so none is owed after."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.process_time()
        _interp_loop(INTERP_PASSES)
        return time.process_time() - started
    finally:
        if enabled:
            gc.enable()


def modexp_reference_s() -> float:
    started = time.process_time()
    _pow(_BASE, _EXPONENT, _MODULUS)
    return time.process_time() - started


class Meter:
    """Times consecutive laps of work in reference seconds.

    ``lap()`` returns the scaled CPU time since the previous lap, or
    ``skip()``, or since the meter was made; ``total_s`` sums the laps.
    ``Meter(from_process_start=True)`` makes the first lap run from the
    start of the process, interpreter start-up included.
    """

    def __init__(self, from_process_start: bool = False) -> None:
        self.total_s = 0.0
        if from_process_start:
            # The interpreter specialises the loop's bytecode as it runs,
            # so the first timing in a process reads slow: take two.  The
            # lap runs from CPU time 0 and leaves both out.
            warm_up = interp_reference_s()
            self._interp = interp_reference_s()
            self._mark, self._modexp_mark = warm_up + self._interp, 0.0
        else:
            self.skip()

    def lap(self) -> float:
        raw = time.process_time() - self._mark
        modexp = _modexp_s - self._modexp_mark
        after = interp_reference_s()
        scaled = (raw - modexp) * INTERP_S * 2 / (self._interp + after)
        if modexp > 0:
            scaled += modexp * MODEXP_S / modexp_reference_s()
        self._interp = after
        self.total_s += scaled
        self._mark, self._modexp_mark = time.process_time(), _modexp_s
        return scaled

    def skip(self) -> None:
        """Start the next lap now; the time since the last is not counted."""
        self._interp = interp_reference_s()
        self._mark, self._modexp_mark = time.process_time(), _modexp_s
