"""Spans around the calls into each tfnorms layer, and the metrics they give.

The recorder wraps every public function of the package's layer modules
(plus ``numpy.fft.fft``/``ifft``) and rebinds the wrapper in every
``tfnorms.*`` namespace that holds the original, including module-level
registries such as ``cli.EXPERIMENTS``.  Modules import functions by name
(``from .grid import fourier_forward``), so patching only the defining module
would miss those calls.  Spans stay in memory until the pass ends.

A span is ``[name, layer, start, end, parent, pass, attrs]``; ``parent`` is
the index of the enclosing span or -1.  Counts that need more than the call
itself (blocks scanned, FFT lengths, report bytes) come from the arguments
and the return value and go into ``attrs``.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from pathlib import Path

LAYERS = (
    "grid", "stft", "partition", "norms", "measures", "windows",
    "compose", "corpus", "experiments", "reporting", "cli",
)

# Functions that belong to another layer than the module defining them.
LAYER_OF = {"partition_for": "partition"}

# The 15 runs of `tfnorms all`, by output-directory name.
ENTRIES = (
    "stft", "moyal", "norm", "bupu-check", "rudin-shapiro", "plateau",
    "translation-bound", "compose", "reciprocal", "approx-unit",
    "embedding-sweep", "algebra-sweep", "counterexample-flat-p1",
    "counterexample-flat-p1_5", "counterexample-l2",
)

NAME, LAYER, START, END, PARENT, PASS, ATTRS = range(7)


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _norm_attrs(fn, args, kwargs, result) -> dict:
    blocks = [c for _, c in result.block_contributions]
    return {
        "p": float(_bound(fn, args, kwargs)["p"]),
        "scanned": len(blocks),
        "nonzero": sum(1 for c in blocks if c != 0.0),
    }


def _rs_attrs(fn, args, kwargs, result) -> dict:
    arguments = _bound(fn, args, kwargs)
    xis = arguments["xis"]
    return {"evals": int(arguments["m"]) * int(getattr(xis, "size", 1))}


def _algebra_attrs(fn, args, kwargs, result) -> dict:
    return {"key": repr(sorted(_bound(fn, args, kwargs).items()))}


def _stft_attrs(fn, args, kwargs, result) -> dict:
    return {"bytes": int(result.values.nbytes)}


def _report_attrs(fn, args, kwargs, result) -> dict:
    path = Path(result)
    return {"bytes": sum(p.stat().st_size for p in (path, path.with_suffix(".csv")) if p.exists())}


def _fft_attrs(fn, args, kwargs, result) -> dict:
    arguments = _bound(fn, args, kwargs)
    a = arguments["a"]
    length = int(result.shape[arguments["axis"]])
    count = result.size // length if length else 0
    return {
        "points": int(result.size),
        "flop": 5.0 * length * math.log2(length) * count if length > 1 else 0.0,
        "bytes": int(getattr(a, "nbytes", 0)) + int(result.nbytes),
    }


# Functions whose calls carry counts beyond the span itself, by name.  A name
# no longer found in the package is reported as absent.
HOOKS = {
    "modulation_norm": _norm_attrs,
    "rudin_shapiro_transforms": _rs_attrs,
    "measured_algebra_constant": _algebra_attrs,
    "stft": _stft_attrs,
    "write_report": _report_attrs,
}
COUNTED = (
    "build_frequency_partition", "partition_for", "frequency_block",
    "rudin_shapiro", "local_compose", "dilation_difference_norm",
    "resample_progression",
)


class Recorder:
    """Collects spans for one pass; ``install`` patches, ``uninstall`` restores."""

    def __init__(self, pass_id: int = 0):
        self.pass_id = pass_id
        self.spans: list = []
        self.absent: list = []
        self._stack: list = []
        self._undo: list = []

    def wrap(self, fn, name: str, layer: str, hook=None):
        spans, stack, pass_id = self.spans, self._stack, self.pass_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, pass_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span[END] = time.perf_counter()
                span[ATTRS] = {"error": type(err).__name__}
                raise
            finally:
                stack.pop()
            span[END] = time.perf_counter()
            if hook is not None:
                try:
                    span[ATTRS] = hook(fn, args, kwargs, result)
                except Exception as err:  # a changed signature or result type
                    span[ATTRS] = {"hook_error": f"{type(err).__name__}: {err}"}
            return result

        return traced

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        """Run fn under a span of the benchmark's own."""
        return self.wrap(fn, name, layer)(*args, **kwargs)

    def install(self) -> None:
        import numpy.fft

        wrappers = {}
        for layer in LAYERS:
            module = sys.modules.get(f"tfnorms.{layer}")
            if module is None:
                self.absent.append(f"tfnorms.{layer}")
                continue
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                wrappers[id(obj)] = (obj, self.wrap(
                    obj, f"{layer}.{attr}", LAYER_OF.get(attr, layer), HOOKS.get(attr)))
        found = {obj.__name__ for obj, _ in wrappers.values()}
        self.absent += [name for name in (*HOOKS, *COUNTED) if name not in found]

        for name in ("fft", "ifft"):
            self._set(numpy.fft, name, self.wrap(getattr(numpy.fft, name), name, "fft", _fft_attrs))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "tfnorms" and not mod_name.startswith("tfnorms."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._set(module, attr, wrappers[id(obj)][1])
                elif isinstance(obj, dict):
                    self._patch_registry(obj, wrappers)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((setattr, owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_registry(self, registry: dict, wrappers: dict) -> None:
        """Swap wrapped functions held as dict values or inside tuple values."""

        def swap(obj):
            hit = wrappers.get(id(obj))
            return hit[1] if hit is not None and hit[0] is obj else obj

        for key, value in list(registry.items()):
            if isinstance(value, tuple):
                new = tuple(swap(v) for v in value)
                changed = any(a is not b for a, b in zip(new, value))
            else:
                new = swap(value)
                changed = new is not value
            if changed:
                self._undo.append((dict.__setitem__, registry, key, value))
                registry[key] = new

    def uninstall(self) -> None:
        while self._undo:
            restore, owner, key, value = self._undo.pop()
            restore(owner, key, value)


# ----------------------------------------------------------------------
# Analysis of recorded spans


def self_times(spans: list) -> list:
    """Duration of each span minus the part of it that its children cover."""
    children: dict = {}
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, reach = 0.0, start
        for lo, hi in sorted((spans[c][START], spans[c][END]) for c in children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of one traced pass, in the order BENCHMARK.json lists them."""
    selfs = self_times(spans)
    self_s = {layer: 0.0 for layer in (*LAYERS, "fft")}
    calls = {layer: 0 for layer in self_s}
    by_fn: dict = {}
    entry_s = {}
    for span, own in zip(spans, selfs):
        layer = span[LAYER]
        if layer == "entry":
            entry_s[span[NAME]] = span[END] - span[START]
            continue
        if layer in self_s:
            self_s[layer] += own
            calls[layer] += 1
        by_fn.setdefault(span[NAME].rsplit(".", 1)[-1], []).append(span)

    def spans_of(fn_name):
        return by_fn.get(fn_name, [])

    def count(*names):
        return sum(len(spans_of(n)) for n in names)

    def attr_sum(spans_, key):
        return sum((span[ATTRS] or {}).get(key, 0) for span in spans_)

    def total_s(spans_):
        return sum(s[END] - s[START] for s in spans_)

    ffts = spans_of("fft") + spans_of("ifft")
    norm_spans = [s for s in spans_of("modulation_norm") if s[ATTRS] and "p" in s[ATTRS]]
    scanned = attr_sum(norm_spans, "scanned")
    nonzero = attr_sum(norm_spans, "nonzero")
    local_ok = sum(1 for s in spans_of("local_compose") if not (s[ATTRS] or {}).get("error"))
    dilations = count("dilation_difference_norm")
    algebra = spans_of("measured_algebra_constant")

    m = {
        "grid.calls": calls["grid"],
        "grid.self_s": self_s["grid"],
        "fft.calls": calls["fft"],
        "fft.points": attr_sum(ffts, "points"),
        "fft.gflop_computed": attr_sum(ffts, "flop") / 1e9,
        "fft.gb_computed": attr_sum(ffts, "bytes") / 1e9,
        "fft.self_s": self_s["fft"],
        "stft.calls": calls["stft"],
        "stft.self_s": self_s["stft"],
        "stft.matrix_gb_computed": attr_sum(spans_of("stft"), "bytes") / 1e9,
        "partition.builds": count("build_frequency_partition"),
        "partition.lookups": count("partition_for"),
        "partition.block_calls": count("frequency_block"),
        "partition.self_s": self_s["partition"],
        "norms.modulation_calls": count("modulation_norm"),
        "norms.modulation_p2_s": total_s(s for s in norm_spans if s[ATTRS]["p"] == 2.0),
        "norms.modulation_lp_s": total_s(s for s in norm_spans if s[ATTRS]["p"] != 2.0),
        "norms.self_s": self_s["norms"],
        "norms.blocks_scanned": scanned,
        "norms.blocks_nonzero": nonzero,
        "norms.block_yield": _ratio(nonzero, scanned),
        "measures.rs_calls": count("rudin_shapiro", "rudin_shapiro_transforms"),
        "measures.rs_phase_evals": attr_sum(spans_of("rudin_shapiro_transforms"), "evals"),
        "measures.self_s": self_s["measures"],
        "windows.calls": calls["windows"],
        "windows.self_s": self_s["windows"],
        "compose.local_calls": count("local_compose"),
        "compose.dilation_calls": dilations,
        "compose.dilation_yield": _ratio(local_ok, dilations),
        "compose.czt_calls": count("resample_progression"),
        "compose.self_s": self_s["compose"],
        "corpus.calls": calls["corpus"],
        "corpus.self_s": self_s["corpus"],
        "experiments.algebra_constant_calls": len(algebra),
        "experiments.algebra_constant_distinct": len(
            {s[ATTRS]["key"] for s in algebra if s[ATTRS] and "key" in s[ATTRS]}),
        "experiments.algebra_constant_s": total_s(algebra),
        "experiments.self_s": self_s["experiments"],
    }
    for entry in ENTRIES:
        m[f"experiments.{entry}.s"] = entry_s.get(entry, 0.0)
    m["reporting.write_s"] = total_s(spans_of("write_report"))
    m["reporting.bytes"] = attr_sum(spans_of("write_report"), "bytes")
    m["cli.self_s"] = self_s["cli"]
    return m
