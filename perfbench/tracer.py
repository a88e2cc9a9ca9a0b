"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public functions and methods of each layer of
``repro`` where callers look them up: methods on their class (every
instance and subclass sees the wrapper), module functions in *every*
loaded ``repro`` module that holds them, so a name imported by value
(``from repro.tls.record_layer import aead_for``) is wrapped too.
Nothing under ``src/`` changes.

Each wrapped call is a span.  Spans nest on one stack, and a span's
*self time* is its duration minus the time of the spans it caused, so
``tls.record_s`` is record-layer time without the AEAD inside it.
Spans are folded into per-name totals as they close rather than kept,
because a fleet unit makes millions of them.  Counts are taken at the
same boundaries.  Spans and counts only accumulate between
:meth:`Tracer.start` and :meth:`Tracer.stop`, so set-up is not traced.

:meth:`Tracer.layer_metrics` turns the totals, the workload's sample and
the program's own observability counters into the named per-layer
metrics in ``LAYER_METRICS``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

#: Every per-layer metric, with its unit, in report order.  A layer the
#: workload does not exercise reports 0.
LAYER_METRICS = {
    "crypto.aead_key_setups": "count",
    "crypto.aead_key_setup_s": "s",
    "crypto.aead_cache_hit_ratio": "ratio",
    "crypto.aead_calls": "count",
    "crypto.aead_records_sealed": "count",
    "crypto.aead_records_opened": "count",
    "crypto.aead_bytes": "bytes",
    "crypto.aead_seal_s": "s",
    "crypto.aead_open_s": "s",
    "crypto.aes_scalar_blocks": "count",
    "crypto.aes_scalar_blocks_per_record": "blocks/record",
    "crypto.ctr_bitsliced_frac": "ratio",
    "crypto.asym_ops": "count",
    "crypto.asym_s": "s",
    "crypto.kdf_s": "s",
    "tls.record_s": "s",
    "tls.engine_s": "s",
    "tls.keyschedule_s": "s",
    "wire.handshake_msgs": "count",
    "wire.codec_s": "s",
    "wire.records_parsed": "count",
    "wire.framing_s": "s",
    "io.records_sealed": "count",
    "io.records_opened": "count",
    "io.seal_flushes": "count",
    "io.records_per_flush": "records/flush",
    "io.plane_s": "s",
    "core.engine_s": "s",
    "core.orchestrator_s": "s",
    "core.admission_deferred": "count",
    "core.resumption_hit_ratio": "ratio",
    "core.mb_store_hit_ratio": "ratio",
    "netsim.events": "count",
    "netsim.timers_scheduled": "count",
    "netsim.timers_cancelled": "count",
    "netsim.timer_fire_ratio": "ratio",
    "netsim.chunks_delivered": "count",
    "netsim.sim_s": "s",
    "obs.lookups": "count",
    "obs.s": "s",
    "obs.spans_held": "count",
    "pki.validations": "count",
    "pki.validate_s": "s",
    "baselines.engine_s": "s",
    "trace_overhead_frac": "ratio",
}

_AEAD_SEAL = "crypto.aead_seal"
_AEAD_OPEN = "crypto.aead_open"
_AEAD_SPANS = (_AEAD_SEAL, _AEAD_OPEN)

#: Classes whose public methods are one span each: (module, classes, span).
_CLASS_SPANS = (
    ("repro.tls.record_layer", ("ConnectionState",), "tls.record"),
    ("repro.tls.engine", ("TLSEngine", "TLSClientEngine", "TLSServerEngine"), "tls.engine"),
    ("repro.io.record_plane", ("RecordPlane",), "io.plane"),
    ("repro.core.client", ("MbTLSClientEngine",), "core.engine"),
    ("repro.core.server", ("MbTLSServerEngine",), "core.engine"),
    ("repro.core.middlebox", ("MbTLSMiddlebox",), "core.engine"),
    ("repro.core.orchestrator", ("SessionOrchestrator", "Shard"), "core.orchestrator"),
    ("repro.core.drivers", ("SessionSupervisor", "MiddleboxService"), "core.orchestrator"),
    (
        "repro.baselines.mdtls",
        ("_MdTLSEndpoint", "MdTLSClientConnection", "MdTLSServerConnection",
         "MdTLSMiddleboxConnection"),
        "baselines.engine",
    ),
    ("repro.baselines.split_tls", ("SplitTLSMiddlebox",), "baselines.engine"),
)

#: Individual methods: (module, "Class.method", span).
_METHOD_SPANS = (
    ("repro.crypto.gcm", "AESGCM.__init__", "crypto.aead_setup"),
    ("repro.crypto.chacha", "ChaCha20Poly1305.__init__", "crypto.aead_setup"),
    ("repro.crypto.gcm", "AESGCM.encrypt", _AEAD_SEAL),
    ("repro.crypto.gcm", "AESGCM.seal_many", _AEAD_SEAL),
    ("repro.crypto.gcm", "AESGCM.decrypt", _AEAD_OPEN),
    ("repro.crypto.gcm", "AESGCM.open_many", _AEAD_OPEN),
    ("repro.crypto.chacha", "ChaCha20Poly1305.encrypt", _AEAD_SEAL),
    ("repro.crypto.chacha", "ChaCha20Poly1305.seal_many", _AEAD_SEAL),
    ("repro.crypto.chacha", "ChaCha20Poly1305.decrypt", _AEAD_OPEN),
    ("repro.crypto.chacha", "ChaCha20Poly1305.open_many", _AEAD_OPEN),
    ("repro.crypto.rsa", "RSAPublicKey.verify", "crypto.asym"),
    ("repro.crypto.rsa", "RSAPublicKey.encrypt", "crypto.asym"),
    ("repro.crypto.rsa", "RSAPrivateKey.sign", "crypto.asym"),
    ("repro.crypto.rsa", "RSAPrivateKey.decrypt", "crypto.asym"),
    ("repro.crypto.dh", "DHPrivateKey.__init__", "crypto.asym"),
    ("repro.crypto.dh", "DHPrivateKey.exchange", "crypto.asym"),
    ("repro.wire.handshake", "Handshake.encode", "wire.codec"),
    ("repro.wire.handshake", "HandshakeBuffer.pop_messages", "wire.codec"),
    ("repro.wire.records", "Record.encode", "wire.framing"),
    ("repro.wire.records", "Record.decode_prefix", "wire.framing"),
    ("repro.wire.records", "RecordBuffer.pop_record_views", "wire.framing"),
    ("repro.pki.store", "TrustStore.validate_chain", "pki"),
    ("repro.netsim.sim", "Simulator.run", "netsim.sim"),
    ("repro.obs.metrics", "MetricsRegistry.counter", "obs"),
    ("repro.obs.metrics", "MetricsRegistry.gauge", "obs"),
    ("repro.obs.metrics", "MetricsRegistry.histogram", "obs"),
)

#: Module functions: (module, function, span).
_FUNCTION_SPANS = (
    ("repro.tls.record_layer", "aead_for", "crypto.aead_for"),
    ("repro.crypto.x25519", "x25519", "crypto.asym"),
    ("repro.crypto.x25519", "x25519_base", "crypto.asym"),
    ("repro.crypto.kdf", "p_hash", "crypto.kdf"),
    ("repro.crypto.kdf", "prf", "crypto.kdf"),
    ("repro.crypto.kdf", "hkdf_extract", "crypto.kdf"),
    ("repro.crypto.kdf", "hkdf_expand", "crypto.kdf"),
    ("repro.crypto.kdf", "hkdf", "crypto.kdf"),
    ("repro.tls.keyschedule", "derive_master_secret", "tls.keyschedule"),
    ("repro.tls.keyschedule", "derive_key_block", "tls.keyschedule"),
    ("repro.tls.keyschedule", "finished_verify_data", "tls.keyschedule"),
)

#: The program's own counters the report reads, as deltas over the
#: traced phase.
_OBS_COUNTERS = (
    "records_sealed",
    "records_opened",
    "seal_flushes",
    "fleet.admission_deferred",
    "net_chunks_delivered",
)

#: Modules whose message classes' encode_body/decode_body are codec spans.
_CODEC_MODULES = ("repro.wire.handshake", "repro.wire.mbtls", "repro.wire.mdtls")


class _Frame:
    __slots__ = ("name", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.children = 0.0


class Tracer:
    """Span and count collection around the layers of ``repro``."""

    def __init__(self) -> None:
        self.active = False
        self._stack: list[_Frame] = []
        self._patched: list[tuple[object, str, object]] = []
        self.obs_counts: dict[str, int] = {}
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()

    # ----------------------------------------------------------- collection

    def reset(self) -> None:
        # Cleared in place: the wrappers hold these objects.
        for totals in (self.self_s, self.total_s, self.calls, self.counts):
            totals.clear()

    def start(self) -> None:
        """Clear the totals and collect until :meth:`stop`.

        The observability plane current at this moment is the one the
        traced phase reports to; its counters are read now and at
        :meth:`stop`.
        """
        from repro import obs

        self.reset()
        self._stack.clear()
        self._plane = obs.plane()
        self._obs_start = self._obs_totals()
        self.active = True

    def stop(self) -> None:
        self.active = False
        end = self._obs_totals()
        self.obs_counts = {name: end[name] - self._obs_start[name] for name in end}
        tracer = self._plane.tracer
        self.obs_counts["spans_held"] = len(tracer.spans) + len(tracer.marks)

    def _obs_totals(self) -> dict[str, int]:
        metrics = self._plane.metrics
        return {
            name: sum(value for _labels, value in metrics.iter_counters(name))
            for name in _OBS_COUNTERS
        }

    def _span(self, name: str, fn, after=None):
        """``fn`` wrapped as a span; ``after(args, result, parent)`` counts."""
        tracer = self
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = _Frame(name)
            stack.append(frame)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                tracer.self_s[name] += elapsed - frame.children
                tracer.total_s[name] += elapsed
                tracer.calls[name] += 1
                if stack:
                    stack[-1].children += elapsed
            if after is not None:
                after(args, result, stack[-1].name if stack else None)
            return result

        return wrapper

    def _count(self, fn, count):
        """``fn`` wrapped to call ``count(args, result)``; no span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.active:
                count(args, result)
            return result

        return wrapper

    # ------------------------------------------------------------- counters

    def _after_aead(self, name: str):
        counts = self.counts
        records = "aead_records_sealed" if name == _AEAD_SEAL else "aead_records_opened"

        def after(args, result, parent):
            # A batch call that loops over the single-record call is one
            # call from the record layer: count at the outermost AEAD span.
            if parent in _AEAD_SPANS:
                return
            counts["aead_calls"] += 1
            if len(args) == 2:  # seal_many / open_many(items)
                counts[records] += len(args[1])
                counts["aead_bytes"] += sum(len(item[1]) for item in args[1])
            else:
                counts[records] += 1
                counts["aead_bytes"] += len(args[2])

        return after

    def _after_aead_setup(self, args, result, parent) -> None:
        self.counts["aead_key_setups"] += 1
        if parent == "crypto.aead_for":
            self.counts["aead_for_misses"] += 1

    def _after_records(self, args, result, parent) -> None:
        self.counts["records_parsed"] += len(result)

    def _after_decode_prefix(self, args, result, parent) -> None:
        self.counts["records_parsed"] += 1

    def _after_pop_messages(self, args, result, parent) -> None:
        self.counts["handshake_msgs"] += len(result)

    def _after_one(self, key: str):
        counts = self.counts

        def after(args, result, parent):
            counts[key] += 1

        return after

    # --------------------------------------------------------------- wiring

    def _hook_for(self, name: str, span: str):
        """The counting hook of one wrapped name, or None."""
        if span in _AEAD_SPANS:
            return self._after_aead(span)
        if span == "crypto.asym":
            return self._after_one("asym_ops")
        return {
            "AESGCM.__init__": self._after_aead_setup,
            "ChaCha20Poly1305.__init__": self._after_aead_setup,
            "Record.decode_prefix": self._after_decode_prefix,
            "RecordBuffer.pop_record_views": self._after_records,
            "HandshakeBuffer.pop_messages": self._after_pop_messages,
            "Handshake.encode": self._after_one("handshake_msgs"),
        }.get(name)

    def install(self) -> None:
        """Wrap every traced name; :meth:`uninstall` puts them back."""
        for module_name, classes, span in _CLASS_SPANS:
            module = importlib.import_module(module_name)
            for class_name in classes:
                cls = getattr(module, class_name)
                for attr, value in list(vars(cls).items()):
                    if not attr.startswith("_") and inspect.isfunction(value):
                        self._patch(cls, attr, self._span(span, value))
        for module_name, dotted, span in _METHOD_SPANS:
            class_name, attr = dotted.split(".")
            cls = getattr(importlib.import_module(module_name), class_name)
            self._wrap_method(cls, attr, span, self._hook_for(dotted, span))
        for module_name in _CODEC_MODULES:
            module = importlib.import_module(module_name)
            for cls in vars(module).values():
                if inspect.isclass(cls) and cls.__module__ == module_name:
                    for attr in ("encode_body", "decode_body"):
                        if attr in vars(cls):
                            self._wrap_method(cls, attr, "wire.codec", None)
        for module_name, function_name, span in _FUNCTION_SPANS:
            original = getattr(importlib.import_module(module_name), function_name)
            self._patch_everywhere(
                original, self._span(span, original, self._hook_for(function_name, span))
            )
        self._install_counters()

    def _install_counters(self) -> None:
        from repro.core.resumption import MiddleboxSessionStore
        from repro.crypto.aes import AES
        from repro.netsim.sim import ScheduledEvent, Simulator

        counts = self.counts
        tracer = self

        def scalar_block(args, result):
            counts["aes_scalar_blocks"] += 1

        def keystream(args, result):
            counts["ctr_calls"] += 1
            if args[3] >= args[0]._BITSLICE_THRESHOLD:
                counts["ctr_bitsliced"] += 1

        def store_lookup(args, result):
            counts["mb_store_lookups"] += 1
            counts["mb_store_hits"] += bool(result)

        def cancelled(args, result):
            counts["timers_cancelled"] += 1

        self._patch(AES, "encrypt_block", self._count(AES.encrypt_block, scalar_block))
        self._patch(AES, "ctr_keystream", self._count(AES.ctr_keystream, keystream))
        self._patch(
            MiddleboxSessionStore, "lookup",
            self._count(MiddleboxSessionStore.lookup, store_lookup),
        )
        self._patch(ScheduledEvent, "cancel", self._count(ScheduledEvent.cancel, cancelled))
        schedule = Simulator.schedule

        @functools.wraps(schedule)
        def counted_schedule(sim, delay, callback):
            if not tracer.active:
                return schedule(sim, delay, callback)
            counts["timers_scheduled"] += 1

            def fire():
                if tracer.active:
                    counts["events"] += 1
                callback()

            return schedule(sim, delay, fire)

        self._patch(Simulator, "schedule", counted_schedule)

    def _wrap_method(self, cls, attr: str, span: str, after) -> None:
        raw = vars(cls)[attr]
        if isinstance(raw, classmethod):
            self._patch(cls, attr, classmethod(self._span(span, raw.__func__, after)))
        else:
            self._patch(cls, attr, self._span(span, raw, after))

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _patch_everywhere(self, original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # --------------------------------------------------------------- report

    def layer_metrics(self, sample: dict) -> dict[str, float]:
        """Every metric in LAYER_METRICS but ``trace_overhead_frac``."""
        counts, self_s, counter = self.counts, self.self_s, self.obs_counts.__getitem__

        def ratio(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        aead_records = counts["aead_records_sealed"] + counts["aead_records_opened"]
        sealed = counter("records_sealed")
        flushes = counter("seal_flushes")
        return {
            "crypto.aead_key_setups": counts["aead_key_setups"],
            "crypto.aead_key_setup_s": self.total_s["crypto.aead_setup"],
            "crypto.aead_cache_hit_ratio": ratio(
                self.calls["crypto.aead_for"] - counts["aead_for_misses"],
                self.calls["crypto.aead_for"],
            ),
            "crypto.aead_calls": counts["aead_calls"],
            "crypto.aead_records_sealed": counts["aead_records_sealed"],
            "crypto.aead_records_opened": counts["aead_records_opened"],
            "crypto.aead_bytes": counts["aead_bytes"],
            "crypto.aead_seal_s": self_s[_AEAD_SEAL],
            "crypto.aead_open_s": self_s[_AEAD_OPEN],
            "crypto.aes_scalar_blocks": counts["aes_scalar_blocks"],
            "crypto.aes_scalar_blocks_per_record": ratio(
                counts["aes_scalar_blocks"], aead_records
            ),
            "crypto.ctr_bitsliced_frac": ratio(counts["ctr_bitsliced"], counts["ctr_calls"]),
            "crypto.asym_ops": counts["asym_ops"],
            "crypto.asym_s": self_s["crypto.asym"],
            "crypto.kdf_s": self_s["crypto.kdf"],
            "tls.record_s": self_s["tls.record"],
            "tls.engine_s": self_s["tls.engine"],
            "tls.keyschedule_s": self_s["tls.keyschedule"],
            "wire.handshake_msgs": counts["handshake_msgs"],
            "wire.codec_s": self_s["wire.codec"],
            "wire.records_parsed": counts["records_parsed"],
            "wire.framing_s": self_s["wire.framing"],
            "io.records_sealed": sealed,
            "io.records_opened": counter("records_opened"),
            "io.seal_flushes": flushes,
            "io.records_per_flush": ratio(sealed, flushes),
            "io.plane_s": self_s["io.plane"],
            "core.engine_s": self_s["core.engine"],
            "core.orchestrator_s": self_s["core.orchestrator"],
            "core.admission_deferred": counter("fleet.admission_deferred"),
            "core.resumption_hit_ratio": sample.get("resumption_hit_rate") or 0.0,
            "core.mb_store_hit_ratio": ratio(
                counts["mb_store_hits"], counts["mb_store_lookups"]
            ),
            "netsim.events": counts["events"],
            "netsim.timers_scheduled": counts["timers_scheduled"],
            "netsim.timers_cancelled": counts["timers_cancelled"],
            "netsim.timer_fire_ratio": ratio(counts["events"], counts["timers_scheduled"]),
            "netsim.chunks_delivered": counter("net_chunks_delivered"),
            "netsim.sim_s": self_s["netsim.sim"],
            "obs.lookups": self.calls["obs"],
            "obs.s": self_s["obs"],
            "obs.spans_held": counter("spans_held"),
            "pki.validations": self.calls["pki"],
            "pki.validate_s": self_s["pki"],
            "baselines.engine_s": self_s["baselines.engine"],
        }
