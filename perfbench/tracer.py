"""Span tracing of the xorlab modules from outside the package.

:func:`install` wraps every public function of each traced module and
rebinds the wrapper wherever the original is bound: in the defining
module, in every xorlab module that imported it by name, and in
module-level dispatch dicts.  Two methods that are the public entry
points of their layer (``SparseMatrix.from_rows`` and the
``TannerGraph`` constructor) are wrapped on their classes.

A span's self time is its duration minus the time covered by its child
spans.  Per-node predicates called ~10^5 times per trial stay unwrapped
so that tracing costs little; their time stays in their caller's span.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from collections import Counter, defaultdict
from time import perf_counter

# module -> layer; the bit-sliced engine is the back end of sparsemat
LAYER_OF_MODULE = {
    "cli": "cli",
    "harness": "harness",
    "ensemble": "ensemble",
    "peel": "peel",
    "sparsemat": "sparsemat",
    "_bitslice": "sparsemat",
    "wp": "wp",
    "theory": "theory",
    "field": "field",
}
PUBLIC_FUNCTIONS_OF_PRIVATE_MODULES = {"_bitslice": ("eliminate",)}
CLASS_METHODS = {"sparsemat": (("SparseMatrix", "from_rows"),),
                 "wp": (("TannerGraph", "__init__"),)}
UNTRACED = {"theory.in_variable_class", "theory.in_check_class"}


def _percentile_tail(durations: list[float]) -> dict:
    """Median, the highest of p90/p99/p99.9 with >= 10 samples beyond it, count.

    With fewer than 100 samples no tail percentile qualifies.
    """
    n = len(durations)
    out = {"n": n, "median_s": statistics.median(durations) if n else 0.0,
           "tail": None, "tail_s": None}
    ordered = sorted(durations)
    for pct in (99.9, 99.0, 90.0):
        if n * (100.0 - pct) / 100.0 >= 10:
            out["tail"] = f"p{pct:g}"
            out["tail_s"] = ordered[min(n - 1, int(round(pct / 100.0 * (n - 1))))]
            break
    return out


class Tracer:
    """In-memory span aggregates; spans of one process share one stack."""

    def __init__(self):
        self._stack: list[float] = []  # time covered by children, per open span
        self._open = Counter()  # open spans per span name
        self._open_layer = Counter()
        self.calls = Counter()
        self.incl_s = Counter()  # outermost spans of each name
        self.self_s = Counter()
        self.layer_incl_s = Counter()  # outermost spans of each layer
        self.layer_self_s = Counter()
        self.durations = defaultdict(list)  # per-call samples by timer name
        self.counts = Counter()  # work counters and tagged times

    def wrap(self, name: str, layer: str, fn):
        stack, open_, open_layer = self._stack, self._open, self._open_layer
        record = self._record

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            open_[name] += 1
            open_layer[layer] += 1
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = perf_counter() - t0
                child_s = stack.pop()
                open_[name] -= 1
                open_layer[layer] -= 1
                if stack:
                    stack[-1] += dur
                record(name, layer, dur, child_s, args, result)

        return traced

    def _record(self, name, layer, dur, child_s, args, result):
        self.calls[name] += 1
        self.self_s[name] += dur - child_s
        self.layer_self_s[layer] += dur - child_s
        if not self._open[name]:
            self.incl_s[name] += dur
            self.durations[name].append(dur)
        outer_in_layer = not self._open_layer[layer]
        if outer_in_layer:
            self.layer_incl_s[layer] += dur
            self.durations[layer].append(dur)
        hook = _HOOKS.get(name)
        if hook is not None and result is not None:
            hook(self, args, result, dur)
        if layer == "ensemble" and outer_in_layer:
            kind = getattr(getattr(args[0] if args else None, "scheme", None), "kind", None)
            if kind is not None:
                self.counts[f"ensemble.gen_s.{kind}"] += dur
                self.durations[f"ensemble.gen.{kind}"].append(dur)

    def per_call(self) -> dict:
        return {name: _percentile_tail(ds) for name, ds in sorted(self.durations.items())}


def _rank(t: Tracer, args, result, dur):
    q = args[0].field.q
    t.counts[f"sparsemat.rank_s.q{q}"] += dur
    t.durations[f"sparsemat.rank.q{q}"].append(dur)
    if t._open["peel.has_full_row_rank"]:
        t.counts["peel.eliminated"] += 1


def _eliminate(t: Tracer, args, result, dur):
    t.counts["sparsemat.elim_cells"] += args[2] * args[3]  # n_rows * n_cols
    if t._open["wp.standard_messages"]:
        t.counts["wp.standard_messages.elims"] += 1


def _two_core(t: Tracer, args, result, dur):
    t.counts["peel.rows_in"] += args[0].n_rows
    t.counts["peel.core_rows"] += result.core_rows


def _gen_base(t: Tracer, args, result, dur):
    t.counts["ensemble.rows"] += result.n_rows


def _wp_iterate(t: Tracer, args, result, dur):
    t.counts["wp.rounds"] += result[2]


_HOOKS = {
    "sparsemat.rank": _rank,
    "_bitslice.eliminate": _eliminate,
    "peel.two_core": _two_core,
    "ensemble.gen_base": _gen_base,
    "wp.wp_iterate": _wp_iterate,
}


def install(tracer: Tracer) -> None:
    """Wrap the traced functions of every xorlab module."""
    modules = {short: importlib.import_module(f"xorlab.{short}") for short in LAYER_OF_MODULE}
    namespaces = [vars(m) for m in modules.values()]
    namespaces.append(vars(importlib.import_module("xorlab")))
    namespaces += [v for ns in list(namespaces) for v in ns.values() if isinstance(v, dict)]
    for short, mod in modules.items():
        layer = LAYER_OF_MODULE[short]
        names = PUBLIC_FUNCTIONS_OF_PRIVATE_MODULES.get(short) or [
            n for n, obj in vars(mod).items()
            if not n.startswith("_") and callable(obj) and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == mod.__name__
        ]
        for fname in names:
            span = f"{short}.{fname}"
            if span in UNTRACED:
                continue
            original = getattr(mod, fname)
            traced = tracer.wrap(span, layer, original)
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is original:
                        ns[key] = traced
        for cls_name, meth in CLASS_METHODS.get(short, ()):
            cls = getattr(mod, cls_name)
            raw = vars(cls)[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(
                    tracer.wrap(f"{short}.{cls_name}.{meth}", layer, raw.__func__)))
            else:
                setattr(cls, meth, tracer.wrap(f"{short}.{cls_name}", layer, raw))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Tracer, passes: int) -> dict[str, float]:
    """The per-layer metrics of ``run.py``'s table, per traced pass."""
    c, calls, incl = t.counts, t.calls, t.incl_s
    checks = calls["peel.has_full_row_rank"]
    per_pass = {
        "ensemble.gen_s": t.layer_incl_s["ensemble"],
        "ensemble.gen_s.all_ones": c["ensemble.gen_s.all_ones"],
        "ensemble.gen_s.seeded_nonzero": c["ensemble.gen_s.seeded_nonzero"],
        "ensemble.rows": c["ensemble.rows"],
        "sparsemat.from_rows_s": incl["sparsemat.SparseMatrix.from_rows"],
        "sparsemat.minor_s": incl["sparsemat.minor"],
        "sparsemat.rank_s.q2": c["sparsemat.rank_s.q2"],
        "sparsemat.rank_s.q3": c["sparsemat.rank_s.q3"],
        "sparsemat.rank_s.q4": c["sparsemat.rank_s.q4"],
        "sparsemat.elim_calls": calls["_bitslice.eliminate"],
        "sparsemat.elim_cells": c["sparsemat.elim_cells"],
        "sparsemat.frozen_set_s": incl["sparsemat.frozen_set"],
        "sparsemat.kernel_basis.calls": calls["sparsemat.kernel_basis"],
        "peel.two_core_s": incl["peel.two_core"],
        "peel.calls": calls["peel.two_core"],
        "wp.tanner_s": incl["wp.TannerGraph"],
        "wp.iterate_s": incl["wp.wp_iterate"],
        "wp.rounds": c["wp.rounds"],
        "wp.stats_s": incl["wp.stats"],
        "wp.stats.calls": calls["wp.stats"],
        "wp.standard_messages_s": incl["wp.standard_messages"],
        "wp.standard_messages.elims": c["wp.standard_messages.elims"],
        "theory.s": t.layer_incl_s["theory"],
        "harness.self_s": t.layer_self_s["harness"],
        "harness.write_s": incl["harness.write_result"],
    }
    out = {name: value / passes for name, value in per_pass.items()}
    out["ensemble.rows_per_s"] = _ratio(c["ensemble.rows"], t.layer_incl_s["ensemble"])
    out["sparsemat.elim_cells_per_s"] = _ratio(c["sparsemat.elim_cells"],
                                               incl["_bitslice.eliminate"])
    out["peel.core_row_frac"] = _ratio(c["peel.core_rows"], c["peel.rows_in"])
    out["peel.shortcut_frac"] = _ratio(checks - c["peel.eliminated"], checks)
    return out
