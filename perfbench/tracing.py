"""Tracing from outside the package, and the per-layer metrics derived from it.

:class:`Tracer` replaces module-level names of quiverdt (every binding of the
same function object, so ``census.kac_polynomial`` and
``dtseries.kac_polynomial`` get one wrapper) and a few methods with wrappers
that record spans ``(id, parent, name, start, end, thread, refused, counts)``
in per-thread lists.  A span opened on a census worker thread with nothing
open on that thread takes as parent the span open on the main thread, which
is the census call that started the worker pool.  Nothing is written until
:func:`layer_metrics` reduces the spans after the traced pass.

Busy time is the sum of span durations.  Census spans run on the worker
threads, so a layer's busy time can exceed the wall time of the pass.  Self
time of a span is its duration minus the union of its children's intervals;
a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict

import quiverdt
from quiverdt import census, dtseries, exactalg, modp, quiver

MODULES = (quiverdt, census, dtseries, exactalg, modp, quiver)


def _batch(args) -> int:
    a = args[0]
    return a.shape[0] if a.ndim == 3 else 1


def _rref_counts(args, out):
    a = args[0]
    B, R, C = a.shape
    # Computed bytes moved: each of the C elimination steps reads and
    # writes the whole (B, R, C) batch once.
    return {"modp.rref_mod.mats": B, "modp.rref_mod.bytes_moved": 2 * C * a.nbytes}


def _filter_counts(args, out):
    return {"census.points_covered": int(out.shape[0]), "census.points_kept": int(out.sum())}


# (module, attribute, span name, counts(args, result) or None)
FUNCTIONS = (
    (modp, "rref_mod", "modp.rref_mod", _rref_counts),
    (modp, "det_mod", "modp.det_mod", lambda a, o: {"modp.det_mod.mats": _batch(a)}),
    (modp, "mat_mul_mod", "modp.mat_mul_mod", lambda a, o: {"modp.mat_mul_mod.mats": _batch(a)}),
    (modp, "mat_pow_mod", "modp.mat_pow_mod", None),
    (modp, "nullspace_by_pattern", "modp.nullspace_by_pattern",
     lambda a, o: {"modp.nullspace_by_pattern.groups": len(o)}),
    (modp, "index_to_digits", "modp.index_to_digits", None),
    (census, "_filter_mask", "census.filter_mask", _filter_counts),
    (census, "_end_counts", "census.end_counts", None),
    (census, "point_count", "census.point_count", None),
    (census, "stack_count", "census.stack_count", None),
    (census, "count_abs_indecomposable", "census.count_abs_indecomposable", None),
    (census, "kac_polynomial", "census.kac_polynomial", None),
    (census, "semistable_point_count", "census.semistable_point_count", None),
    (exactalg, "pleth_exp", "exactalg.pleth_exp", None),
    (exactalg, "pleth_log", "exactalg.pleth_log", None),
    (dtseries, "build_kac_table", "dtseries.build_kac_table", None),
    (dtseries, "stack_series_from_kac", "dtseries.stack_series_from_kac", None),
    (dtseries, "kac_from_stack_series", "dtseries.kac_from_stack_series", None),
    (dtseries, "wallcross_check", "dtseries.wallcross_check", None),
    (dtseries, "hilb3_series", "dtseries.hilb3_series", None),
    (dtseries, "char_stack_series", "dtseries.char_stack_series", None),
    (dtseries, "hn_semistable_series", "dtseries.hn_semistable_series", None),
    (quiver, "hn_types", "quiver.hn_types", None),
)

# (class, method, span name)
METHODS = (
    (exactalg.TruncSeries, "__mul__", "exactalg.series_mul"),
    (exactalg.TruncSeries, "invert", "exactalg.series_invert"),
)

DTSERIES_SPANS = (
    "build_kac_table",
    "stack_series_from_kac",
    "kac_from_stack_series",
    "wallcross_check",
    "hilb3_series",
    "char_stack_series",
)

# Every per-layer metric with its unit, in report order.
PER_LAYER = {
    "modp.rref_mod.mats": "count",
    "modp.rref_mod.busy_s": "s",
    "modp.rref_mod.mats_per_s": "1/s",
    "modp.rref_mod.bytes_moved": "B",
    "modp.det_mod.mats": "count",
    "modp.det_mod.busy_s": "s",
    "modp.mat_mul_mod.mats": "count",
    "modp.mat_mul_mod.busy_s": "s",
    "modp.mat_pow_mod.busy_s": "s",
    "modp.nullspace_by_pattern.groups": "count",
    "modp.nullspace_by_pattern.busy_s": "s",
    "modp.index_to_digits.busy_s": "s",
    "modp.self_s": "s",
    "census.points_covered": "count",
    "census.points_kept": "count",
    "census.kept_ratio": "share",
    "census.points_before_refusal": "count",
    "census.points_per_s": "1/s",
    "census.count_abs_indecomposable.calls": "count",
    "census.count_abs_indecomposable.busy_s": "s",
    "census.count_abs_indecomposable.self_s": "s",
    "census.point_count.busy_s": "s",
    "census.semistable_point_count.busy_s": "s",
    "census.self_s": "s",
    "exactalg.pleth_exp.busy_s": "s",
    "exactalg.pleth_log.busy_s": "s",
    "exactalg.series_mul.calls": "count",
    "exactalg.series_mul.busy_s": "s",
    "exactalg.series_invert.busy_s": "s",
    "exactalg.rf_new.calls": "count",
    "exactalg.rf_laurent_share": "share",
    "exactalg.self_s": "s",
    **{f"dtseries.{n}.{k}": "s" for n in DTSERIES_SPANS for k in ("busy_s", "self_s")},
    "dtseries.self_s": "s",
    "quiver.hn_types.busy_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.census_modp_cover": "share",
    "trace.exactalg_dtseries_cover": "share",
    "failed_ops": "share",
}


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: list[int] | None = None


class Tracer:
    """Install with ``with Tracer() as tr:``; spans are kept in memory."""

    def __init__(self) -> None:
        self._tls = _ThreadState()
        self._ids = itertools.count(1)
        self._main_stack: list[int] = []
        self._spans: list[list[tuple]] = []  # one list per thread
        self._counts: list[dict] = []  # one dict per thread
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _state(self):
        tls = self._tls
        if tls.stack is None:
            tls.stack = self._main_stack if threading.current_thread() is threading.main_thread() else []
            tls.spans, tls.counts = [], defaultdict(int)
            self._spans.append(tls.spans)
            self._counts.append(tls.counts)
        return tls

    def _wrap(self, fn, name: str, counts=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            parent = stack[-1] if stack else (tracer._main_stack[-1] if tracer._main_stack else 0)
            sid = next(tracer._ids)
            stack.append(sid)
            refused = False
            out = None
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            except census.CapExceeded:
                refused = True
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                extra = counts(args, out) if counts is not None and not refused else None
                st.spans.append((sid, parent, name, t0, t1, threading.get_ident(), refused, extra))

        return wrapper

    def _wrap_rf_init(self, init):
        tracer = self

        @functools.wraps(init)
        def wrapper(rf, num, den):
            init(rf, num, den)
            c = tracer._state().counts
            c["exactalg.rf_new.calls"] += 1
            if den.is_one():
                c["exactalg.rf_laurent"] += 1

        return wrapper

    # -- installation ------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def __enter__(self) -> "Tracer":
        self._state()
        for module, attr, name, counts in FUNCTIONS:
            fn = getattr(module, attr)
            wrapper = self._wrap(fn, name, counts)
            for mod in MODULES:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._replace(mod, key, wrapper)
        for cls, attr, name in METHODS:
            self._replace(cls, attr, self._wrap(getattr(cls, attr), name))
        rf = exactalg.RationalFunction
        self._replace(rf, "__init__", self._wrap_rf_init(rf.__init__))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def spans(self) -> list[tuple]:
        return sorted(itertools.chain.from_iterable(self._spans))

    def counts(self) -> dict[str, int]:
        total: dict[str, int] = defaultdict(int)
        for c in self._counts:
            for k, v in c.items():
                total[k] += v
        return total


def _union(intervals: list[tuple[float, float]]) -> float:
    covered, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        covered += b - max(a, end)
        end = b
    return covered


def layer_metrics(
    tracer: Tracer,
    pass_windows: list[tuple[float, float]],
    untraced_wall: float,
    points: int,
    failed_share: float,
) -> dict[str, float]:
    """Every PER_LAYER metric from the spans of one traced pass.

    ``pass_windows`` are the (start, end) of the traced pass's op calls;
    ``untraced_wall`` is the median untraced pass wall time, from which
    ``census.points_per_s`` and the tracing overhead are taken.
    """
    spans = tracer.spans()
    children: dict[int, list[tuple]] = defaultdict(list)
    for s in spans:
        children[s[1]].append(s)
    busy: dict[str, float] = defaultdict(float)
    self_t: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    layer_self: dict[str, float] = defaultdict(float)
    totals: dict[str, int] = defaultdict(int)
    for sid, _parent, name, t0, t1, _tid, _refused, extra in spans:
        kids = [(max(k[3], t0), min(k[4], t1)) for k in children[sid]]
        own = (t1 - t0) - _union([iv for iv in kids if iv[1] > iv[0]])
        busy[name] += t1 - t0
        self_t[name] += own
        calls[name] += 1
        layer_self[name.split(".")[0]] += own
        for k, v in (extra or {}).items():
            totals[k] += v

    def covered(sid: int) -> int:
        """Census points covered by the descendants of span sid."""
        todo, n = [sid], 0
        while todo:
            for k in children[todo.pop()]:
                n += (k[7] or {}).get("census.points_covered", 0)
                todo.append(k[0])
        return n

    by_id = {s[0]: s for s in spans}
    refused_points = sum(
        covered(s[0])
        for s in spans
        if s[6] and s[2].startswith("census.") and not (s[1] in by_id and by_id[s[1]][6])
    )

    traced_wall = sum(b - a for a, b in pass_windows)

    def cover(layers: tuple[str, ...]) -> float:
        """Share of the traced pass's op-call time under a span of layers."""
        return _union([(s[3], s[4]) for s in spans if s[2].split(".")[0] in layers]) / traced_wall

    counts = tracer.counts()
    rf_calls = counts.get("exactalg.rf_new.calls", 0)
    rref_busy = busy["modp.rref_mod"]
    m = {
        "modp.rref_mod.mats": totals["modp.rref_mod.mats"],
        "modp.rref_mod.busy_s": rref_busy,
        "modp.rref_mod.mats_per_s": totals["modp.rref_mod.mats"] / rref_busy if rref_busy else 0.0,
        "modp.rref_mod.bytes_moved": totals["modp.rref_mod.bytes_moved"],
        "modp.det_mod.mats": totals["modp.det_mod.mats"],
        "modp.det_mod.busy_s": busy["modp.det_mod"],
        "modp.mat_mul_mod.mats": totals["modp.mat_mul_mod.mats"],
        "modp.mat_mul_mod.busy_s": busy["modp.mat_mul_mod"],
        "modp.mat_pow_mod.busy_s": busy["modp.mat_pow_mod"],
        "modp.nullspace_by_pattern.groups": totals["modp.nullspace_by_pattern.groups"],
        "modp.nullspace_by_pattern.busy_s": busy["modp.nullspace_by_pattern"],
        "modp.index_to_digits.busy_s": busy["modp.index_to_digits"],
        "modp.self_s": layer_self["modp"],
        "census.points_covered": totals["census.points_covered"],
        "census.points_kept": totals["census.points_kept"],
        "census.kept_ratio": (
            totals["census.points_kept"] / totals["census.points_covered"]
            if totals["census.points_covered"] else 0.0
        ),
        "census.points_before_refusal": refused_points,
        "census.points_per_s": points / untraced_wall,
        "census.count_abs_indecomposable.calls": calls["census.count_abs_indecomposable"],
        "census.count_abs_indecomposable.busy_s": busy["census.count_abs_indecomposable"],
        "census.count_abs_indecomposable.self_s": self_t["census.count_abs_indecomposable"],
        "census.point_count.busy_s": busy["census.point_count"],
        "census.semistable_point_count.busy_s": busy["census.semistable_point_count"],
        "census.self_s": layer_self["census"],
        "exactalg.pleth_exp.busy_s": busy["exactalg.pleth_exp"],
        "exactalg.pleth_log.busy_s": busy["exactalg.pleth_log"],
        "exactalg.series_mul.calls": calls["exactalg.series_mul"],
        "exactalg.series_mul.busy_s": busy["exactalg.series_mul"],
        "exactalg.series_invert.busy_s": busy["exactalg.series_invert"],
        "exactalg.rf_new.calls": rf_calls,
        "exactalg.rf_laurent_share": counts.get("exactalg.rf_laurent", 0) / rf_calls if rf_calls else 0.0,
        "exactalg.self_s": layer_self["exactalg"],
        "dtseries.self_s": layer_self["dtseries"],
        "quiver.hn_types.busy_s": busy["quiver.hn_types"],
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.census_modp_cover": cover(("census", "modp")),
        "trace.exactalg_dtseries_cover": cover(("exactalg", "dtseries")),
        "failed_ops": failed_share,
    }
    for n in DTSERIES_SPANS:
        m[f"dtseries.{n}.busy_s"] = busy[f"dtseries.{n}"]
        m[f"dtseries.{n}.self_s"] = self_t[f"dtseries.{n}"]
    return {k: m[k] for k in PER_LAYER}
