"""Span tracing installed from outside the library, for the traced run.

``install`` replaces every wrapped public function of ``fgl`` with a timing
wrapper, in its defining namespace and in every other ``fgl`` module that
imported the same object (``morava.fgl_from_log``, ``ptypical.zlocal_kernel``
and so on); otherwise internal calls would escape the trace.

A span's self time is its duration minus the time covered by its wrapped
children.  Spans of the hot layers (``mpoly``, ``pseries``) are aggregated
per (function, parent) so memory stays bounded; all others are also kept
one by one as (name, start, end, parent, task id).  Counter bookkeeping is
timed separately and kept out of every self time.
"""

from __future__ import annotations

import functools
import gc
import sys
from collections import defaultdict
from time import perf_counter

HOT_LAYERS = ("mpoly", "pseries")

# (module, attribute path, span name)
WRAPPED = [
    ("mpoly", "Poly.__mul__", "mpoly.mul"),
    ("mpoly", "Poly.__add__", "mpoly.add"),
    ("mpoly", "Poly.__radd__", "mpoly.add"),
    ("mpoly", "Poly.__sub__", "mpoly.add"),
    ("mpoly", "Poly.__neg__", "mpoly.add"),
    ("mpoly", "Poly.__pow__", "mpoly.pow"),
    ("mpoly", "Poly.scale", "mpoly.scale"),
    ("mpoly", "Poly.substitute", "mpoly.substitute"),
    ("mpoly", "Poly.__str__", "mpoly.render"),
    ("mpoly", "Poly.to_json_obj", "mpoly.render"),
    ("pseries", "Series1.mul", "pseries.Series1.mul"),
    ("pseries", "Series2.mul", "pseries.Series2.mul"),
    ("pseries", "series_compose", "pseries.series_compose"),
    ("pseries", "comp_inverse", "pseries.comp_inverse"),
    ("pseries", "comp_inverse_iterative", "pseries.comp_inverse_iterative"),
    ("pseries", "fgl_from_log", "pseries.fgl_from_log"),
    ("pseries", "eval_series1_on_series2", "pseries.eval_series1_on_series2"),
    ("pseries", "log_from_fgl", "pseries.log_from_fgl"),
    ("pseries", "check_fgl_axioms", "pseries.check_fgl_axioms"),
    ("ratint", "kernel_basis", "ratint.kernel_basis"),
    ("ratint", "zlocal_kernel", "ratint.zlocal_kernel"),
    ("ratint", "solve_unique", "ratint.solve_unique"),
    ("morava", "ravenel_fgl_modp", "morava.ravenel_fgl_modp"),
    ("morava", "ravenel_weights", "morava.ravenel_weights"),
    ("morava", "witt_symmetric", "morava.witt_symmetric"),
    ("morava", "morava_from_rational", "morava.morava_from_rational"),
    ("morava", "gs_fgl_coeff", "morava.gs_fgl_coeff"),
    ("morava", "verify_wp_approx", "morava.verify_wp_approx"),
    ("morava", "verify_bv_approx", "morava.verify_bv_approx"),
    ("abel", "abel_coeffs_assoc", "abel.abel_coeffs_assoc"),
    ("abel", "abel_coeffs_closed", "abel.abel_coeffs_closed"),
    ("abel", "AbelContext.__init__", "abel.AbelContext.__init__"),
    ("abel", "abel_log_integral", "abel.abel_log_integral"),
    ("abel", "abel_log_product", "abel.abel_log_product"),
    ("abel", "abel_log_uv", "abel.abel_log_uv"),
    ("abel", "exp_abel_uv", "abel.exp_abel_uv"),
    ("bp", "bp_log_recursive", "bp.bp_log_recursive"),
    ("bp", "bp_log_closed", "bp.bp_log_closed"),
    ("bp", "bp_fgl_coeff", "bp.bp_fgl_coeff"),
    ("bp", "express_v_in_alphas", "bp.express_v_in_alphas"),
    ("ptypical", "classify_v_images", "ptypical.classify_v_images"),
    ("ptypical", "kernel_relations", "ptypical.kernel_relations"),
    ("ptypical", "mod2_presentation", "ptypical.mod2_presentation"),
    ("ptypical", "conjecture_check", "ptypical.conjecture_check"),
    ("ptypical", "genfun_closed", "ptypical.genfun_closed"),
    ("ptypical", "genfun_parts", "ptypical.genfun_parts"),
    ("fixtures", "reproduce", "fixtures.reproduce"),
    ("cli", "main", "cli.main"),
]

SPAN_NAMES = sorted({name for _, _, name in WRAPPED})

COUNTERS = {
    "mpoly.mul.term_pairs": "count",
    "mpoly.coeff_bits_max": "bits",
    "ratint.kernel_basis.cells": "count",
    "ratint.kernel_basis.entry_bits_max": "bits",
    "ratint.kernel_dim": "count",
    "cli.output_bytes": "bytes",
}


def _coeff_bits(poly) -> int:
    # Fraction and int both carry numerator/denominator
    return max(
        (c.numerator.bit_length() + c.denominator.bit_length() for c in poly.terms.values()),
        default=0,
    )


def _count_mul(tracer, args, result):
    a, b = args
    if hasattr(b, "terms"):
        tracer.counters["mpoly.mul.term_pairs"] += len(a.terms) * len(b.terms)
    tracer.maximum("mpoly.coeff_bits_max", _coeff_bits(result))


def _count_scale(tracer, args, result):
    tracer.maximum("mpoly.coeff_bits_max", _coeff_bits(result))


def _count_kernel_basis(tracer, args, result):
    (m,) = args
    tracer.counters["ratint.kernel_basis.cells"] += m.rows * m.cols
    tracer.maximum(
        "ratint.kernel_basis.entry_bits_max",
        max((abs(x).bit_length() for x in m.entries), default=0),
    )


def _count_zlocal_kernel(tracer, args, result):
    tracer.counters["ratint.kernel_dim"] += len(result)


POST = {
    "mpoly.mul": _count_mul,
    "mpoly.scale": _count_scale,
    "ratint.kernel_basis": _count_kernel_basis,
    "ratint.zlocal_kernel": _count_zlocal_kernel,
}


class Tracer:
    """In-memory spans and counters of one worker round."""

    def __init__(self):
        self.task = None  # spans are recorded only while a task runs
        self.stack: list[list] = []  # frames [name, child seconds]
        self.agg: dict[tuple[str, str], list] = {}  # (name, parent) -> [calls, total_s, self_s]
        self.spans: list[tuple] = []  # (name, start, end, parent, task) outside the hot layers
        self.counters: dict[str, int] = defaultdict(int)
        self.bookkeeping_s = 0.0
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_start = 0.0

    def maximum(self, name: str, value: int) -> None:
        if value > self.counters[name]:
            self.counters[name] = value

    def begin_task(self, task_id: int) -> None:
        self.task = task_id
        self.stack = [["task", 0.0]]

    def end_task(self, seconds: float) -> None:
        """Close the task's root span; its self time is harness glue and
        library code outside every wrapped function."""
        (root,) = self.stack
        self._record("task", "-", seconds, seconds - root[1], None)
        self.task = None

    def _record(self, name, parent, dur, self_s, interval):
        entry = self.agg.get((name, parent))
        if entry is None:
            entry = self.agg[(name, parent)] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += dur
        entry[2] += self_s
        if interval is not None:
            self.spans.append((name, interval[0], interval[1], parent, self.task))

    def wrap(self, name: str, fn):
        post = POST.get(name)
        keep = name.split(".")[0] not in HOT_LAYERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.task is None:
                return fn(*args, **kwargs)
            stack = self.stack
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                parent = stack[-1]
                self._record(name, parent[0], t1 - t0, t1 - t0 - frame[1], (t0, t1) if keep else None)
            if post is not None:
                post(self, args, result)
            t2 = perf_counter()
            parent[1] += t2 - t0
            self.bookkeeping_s += t2 - t1
            return result

        return wrapper

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.gc_s += perf_counter() - self._gc_start
            self.gc_collections += 1

    def install(self) -> None:
        """Patch every namespace binding a wrapped name; start gc timing."""
        fgl_modules = [m for n, m in sys.modules.items() if n == "fgl" or n.startswith("fgl.")]
        for module_name, path, name in WRAPPED:
            owner = sys.modules[f"fgl.{module_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self.wrap(name, original)
            setattr(owner, attr, wrapper)
            if not outer:
                for module in fgl_modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
        gc.callbacks.append(self._on_gc)

    def summary(self) -> dict:
        """Per-layer calls and self time, counters, and the kept spans."""
        calls, self_s = defaultdict(int), defaultdict(float)
        for (name, _parent), (n, _total, own) in self.agg.items():
            calls[name] += n
            self_s[name] += own
        unwrapped = self_s.pop("task", 0.0)
        calls.pop("task", None)
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "unwrapped_s": unwrapped,
            "counters": dict(self.counters),
            "by_parent": [[name, parent, *v] for (name, parent), v in sorted(self.agg.items())],
            "spans": self.spans,
            "bookkeeping_s": self.bookkeeping_s,
            "gc_s": self.gc_s,
            "gc_collections": self.gc_collections,
        }


def merge(summaries: list[dict]) -> dict:
    """Sum the summaries of the rounds of one pass."""
    out = {"calls": defaultdict(int), "self_s": defaultdict(float), "counters": {},
           "by_parent": [], "spans": [], "unwrapped_s": 0.0, "bookkeeping_s": 0.0,
           "gc_s": 0.0, "gc_collections": 0}
    for rnd, s in enumerate(summaries):
        for name, n in s["calls"].items():
            out["calls"][name] += n
        for name, t in s["self_s"].items():
            out["self_s"][name] += t
        for name, v in s["counters"].items():
            if COUNTERS[name] == "bits":
                out["counters"][name] = max(out["counters"].get(name, 0), v)
            else:
                out["counters"][name] = out["counters"].get(name, 0) + v
        out["by_parent"] += [[rnd, *row] for row in s["by_parent"]]
        out["spans"] += [[rnd, *span] for span in s["spans"]]
        for key in ("unwrapped_s", "bookkeeping_s", "gc_s", "gc_collections"):
            out[key] += s[key]
    return out
