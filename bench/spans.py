"""Span tracing of the seqrot layers, from outside the library.

The tracer swaps module attributes of each layer for wrappers that record a
span (id, parent id, name, start, end) around every call, plus exact counts
of the work the call was given. Nothing inside the library changes: a
function that one module imported from another is replaced in every
``seqrot`` module that holds it, so cross-module and same-module calls are
both seen. ``uninstall`` puts every original back.

A layer's self time is its spans' duration minus the time covered by their
direct child spans; calls to untraced helpers stay in the caller's self time.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _group_evals(args, kwargs, result):
    grouped = _arg(args, kwargs, 0, "grouped")
    grid = _arg(args, kwargs, 2, "grid")
    return {"quant.clip_search.group_evals":
            grouped.shape[0] * grouped.shape[1] * len(set(grid))}


def _dense_bytes(args, kwargs, result):
    return {"transforms.dense.bytes": result.nbytes}


def _apply_flops(args, kwargs, result):
    """Dense rotate and rotate-back products, plus GPTQ's Hessian rotation."""
    corpus = _arg(args, kwargs, 0, "corpus")
    variants = _arg(args, kwargs, 1, "variants")
    quantizer = _arg(args, kwargs, 3, "quantizer", "rtn")
    cols = corpus[0].shape[1]
    rotated = sum(1 for v in variants if v != "identity")
    flops = rotated * sum(2 * 2 * t.shape[0] * cols * cols for t in corpus)
    if quantizer == "gptq":
        flops += rotated * 2 * 2 * cols ** 3
    return {"harness.run_comparison.apply_flops": flops}


def _file_bytes(counter):
    def count(args, kwargs, result):
        return {counter: os.path.getsize(_arg(args, kwargs, 0, "path"))}
    return count


def _quant_error_name(args, kwargs):
    return "quant.quant_error." + _arg(args, kwargs, 2, "metric", "mse")


# (module, attribute, span name or callable naming the span, extra counter)
LAYERS = (
    ("seqrot.transforms", "hadamard_sylvester", "transforms.hadamard_sylvester", None),
    ("seqrot.transforms", "walsh_from_hadamard", "transforms.walsh_from_hadamard", None),
    ("seqrot.transforms", "randomize_signs", "transforms.randomize_signs", None),
    ("seqrot.transforms", "gsr", "transforms.gsr", None),
    ("seqrot.transforms", "OrthoMatrix.dense", "transforms.dense", _dense_bytes),
    ("seqrot.harness", "run_comparison", "harness.run_comparison", _apply_flops),
    ("seqrot.harness", "r4_ablation", "harness.r4_ablation", None),
    ("seqrot.quant", "_search_ratios", "quant.clip_search", _group_evals),
    ("seqrot.quant", "gptq_quantize", "quant.gptq_quantize", None),
    ("seqrot.quant", "rtn_quantize", "quant.rtn_quantize", None),
    ("seqrot.quant", "dequantize", "quant.dequantize", None),
    ("seqrot.quant", "hessian_from_calibration", "quant.hessian_from_calibration", None),
    ("seqrot.quant", "quant_error", _quant_error_name, None),
    ("seqrot.rotation", "resolve_variant", "rotation.resolve_variant", None),
    ("seqrot.rotation", "build_toy_block", "rotation.build_toy_block", None),
    ("seqrot.rotation", "fuse_rotations", "rotation.fuse_rotations", None),
    ("seqrot.rotation", "rotate_weight", "rotation.rotate_weight", None),
    ("seqrot.rotation", "forward", "rotation.forward", None),
    ("seqrot.rotation", "invariance_max_diff", "rotation.invariance_max_diff", None),
    ("seqrot.corpus", "gen_corpus", "corpus.gen_corpus", None),
    ("seqrot.corpus", "corpus_hash", "corpus.corpus_hash", None),
    ("seqrot.tensorfile", "write_report", "tensorfile.write_report",
     _file_bytes("tensorfile.bytes_written")),
    ("seqrot.tensorfile", "save_rotation", "tensorfile.save_rotation",
     _file_bytes("tensorfile.bytes_written")),
    ("seqrot.tensorfile", "load_rotation", "tensorfile.load_rotation",
     _file_bytes("tensorfile.bytes_read")),
)

QUANT_ERROR_SPANS = tuple(f"quant.quant_error.{m}" for m in ("mse", "max_abs", "proxy"))
SELF_TIME_SPANS = tuple(name for _, _, span, _ in LAYERS
                        for name in ((span,) if isinstance(span, str) else QUANT_ERROR_SPANS))
CALL_COUNTS = (
    "quant.clip_search", "rotation.resolve_variant", "rotation.build_toy_block",
    "rotation.fuse_rotations", "rotation.rotate_weight", "rotation.forward",
)
COUNTERS = (
    ("transforms.dense.bytes", "bytes"),
    ("harness.run_comparison.apply_flops", "flop"),
    ("quant.clip_search.group_evals", "count"),
    ("tensorfile.bytes_written", "bytes"),
    ("tensorfile.bytes_read", "bytes"),
)
TRACE_METRICS = (
    ("trace.wall_s", "s"),          # time the wrappers were installed
    ("trace.remainder_s", "s"),     # part of trace.wall_s outside every span
    ("trace.overhead_frac", "frac"),  # traced / untraced round time - 1
)

# every per-layer metric the traced run reports, with its unit
PER_LAYER_METRICS = (
    tuple((f"{name}.self_s", "s") for name in SELF_TIME_SPANS)
    + tuple((f"{name}.calls", "count") for name in CALL_COUNTS)
    + COUNTERS + TRACE_METRICS
)


class Tracer:
    """Records spans of the ``LAYERS`` calls while installed."""

    def __init__(self):
        self.spans = []           # [id, parent id or None, name, start, end]
        self.counts = Counter()   # "<span>.calls" and the extra counters
        self.wall_s = 0.0
        self._stack = []
        self._saved = []          # (namespace, key, original) to restore
        self._installed_at = None

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            span = [len(self.spans), self._stack[-1] if self._stack else None,
                    span_name, perf_counter(), None]
            self.spans.append(span)
            self._stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                self._stack.pop()
            self.counts[span_name + ".calls"] += 1
            if count is not None:
                self.counts.update(count(args, kwargs, result))
            return result
        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "seqrot" or key.startswith("seqrot.")]
        for module_name, attr, name, count in LAYERS:
            owner = sys.modules[module_name]
            if "." in attr:       # a method: patch the class attribute
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, count))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, original))
                        setattr(module, key, wrapper)
        self._installed_at = perf_counter()

    def uninstall(self) -> None:
        self.wall_s += perf_counter() - self._installed_at
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def self_times(self) -> dict:
        child = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for sid, _, name, start, end in self.spans:
            out[name] += (end - start) - child[sid]
        return dict(out)

    def root_time(self) -> float:
        return sum(end - start for _, parent, _, start, end in self.spans
                   if parent is None)

    def metrics(self, overhead_frac: float) -> dict:
        """Every metric of ``PER_LAYER_METRICS``; layers never called read 0."""
        self_s = self.self_times()
        values = {f"{name}.self_s": self_s.get(name, 0.0) for name in SELF_TIME_SPANS}
        values.update({f"{name}.calls": self.counts[f"{name}.calls"]
                       for name in CALL_COUNTS})
        values.update({name: self.counts[name] for name, _ in COUNTERS})
        values["trace.wall_s"] = self.wall_s
        values["trace.remainder_s"] = self.wall_s - self.root_time()
        values["trace.overhead_frac"] = overhead_frac
        return {name: {"value": values[name], "unit": unit}
                for name, unit in PER_LAYER_METRICS}
