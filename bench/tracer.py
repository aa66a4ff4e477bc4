"""Bench-owned tracing: wrappers installed over ordcone's public functions.

The package is not edited.  ``Tracer.install`` replaces each traced
function wherever an ``ordcone`` module binds it (``ordcone.cone.rank`` and
``ordcone.oracle.rank`` are separate bindings of ``exactnum.rank``), so
calls made inside the package, such as ``dominates`` calling
``weakly_dominates``, go through the wrapper too.  A counted function only
increments its call counter; a spanned function also records a span
``(id, name, start, end, parent id, operation id)`` in memory.  Spans are
written out once, when the run ends.

The wrappers add measurable time, which is why end-to-end metrics come
from untraced runs only.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Callable

# (defining module, function, "span" or "count", caller modules or None
# for every binding in the package).  vec_add and dot are counted only
# where the per-layer metric defines them: label extensions in pathsolve
# and facet-row evaluations in dominance.
TRACED: tuple[tuple[str, str, str, tuple[str, ...] | None], ...] = (
    ("exactnum", "vec_add", "count", ("pathsolve",)),
    ("exactnum", "dot", "count", ("dominance",)),
    ("exactnum", "rank", "span", None),
    ("exactnum", "mat_vec", "count", None),
    ("cone", "facet_matrix", "span", None),
    ("cone", "mark_extreme_rays", "span", None),
    ("cone", "merge_degenerate", "span", None),
    ("dominance", "filter_nondominated", "span", None),
    ("dominance", "dominates", "count", None),
    ("dominance", "weakly_dominates", "count", None),
    ("pathsolve", "efficient_paths", "span", None),
    ("pathsolve", "weight_sweep", "span", None),
    ("oracle", "double_description", "span", None),
    ("oracle", "ray_membership", "span", None),
    ("oracle", "enumerate_simple_paths", "span", None),
)


def _facet_rows(result, args, kwargs, counts: Counter) -> None:
    counts["cone.facet_matrix.rows"] += len(result.rows)


def _filter_sizes(result, args, kwargs, counts: Counter) -> None:
    points = args[1] if len(args) > 1 else kwargs["points"]
    counts["dominance.filter_nondominated.kept"] += len(result.points)
    counts["dominance.filter_nondominated.input"] += len(points.points)


def _route_sizes(result, args, kwargs, counts: Counter) -> None:
    counts["pathsolve.efficient_paths.paths"] += len(result)
    counts["pathsolve.efficient_paths.vectors"] += len({vector for _, vector in result})


def _enumerated(result, args, kwargs, counts: Counter) -> None:
    counts["oracle.enumerate_simple_paths.paths"] += len(result)


RESULT_COUNTERS: dict[str, Callable] = {
    "cone.facet_matrix": _facet_rows,
    "dominance.filter_nondominated": _filter_sizes,
    "pathsolve.efficient_paths": _route_sizes,
    "oracle.enumerate_simple_paths": _enumerated,
}


class Tracer:
    """Call counters and spans for one process.

    ``counts`` maps "<module>.<function>.calls" (and the result counters
    above) to totals since the last ``take_counts``.  ``spans`` holds
    ``(id, name, start, end, parent, op)`` tuples in start order; ``op`` is
    whatever ``op_id`` was when the span opened.
    """

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.spans: list = []
        self.op_id: object = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def take_counts(self) -> Counter:
        taken = Counter(self.counts)
        self.counts.clear()
        return taken

    def open_span(self, name: str) -> int:
        """Start a span under the innermost open one; returns its id."""
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((span_id, name, time.perf_counter(), None, parent, self.op_id))
        self._stack.append(span_id)
        return span_id

    def close_span(self, span_id: int) -> None:
        end = time.perf_counter()
        self._stack.pop()
        sid, name, start, _, parent, op = self.spans[span_id]
        self.spans[span_id] = (sid, name, start, end, parent, op)

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        key = f"{name}.calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanned(self, name: str, fn: Callable) -> Callable:
        on_result = RESULT_COUNTERS.get(name)
        key = f"{name}.calls"

        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            span_id = self.open_span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close_span(span_id)
            if on_result is not None:
                on_result(result, args, kwargs, self.counts)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced function in every loaded ``ordcone`` module."""
        loaded = {
            name.split(".", 1)[1] if "." in name else "": module
            for name, module in sys.modules.items()
            if name == "ordcone" or name.startswith("ordcone.")
        }
        for home, func, kind, callers in TRACED:
            if home not in loaded:
                continue
            original = getattr(loaded[home], func)
            name = f"{home}.{func}"
            wrapper = (self._spanned if kind == "span" else self._counted)(name, original)
            for short, module in loaded.items():
                if callers is not None and short not in callers:
                    continue
                if getattr(module, func, None) is original:
                    self._patched.append((module, func, original))
                    setattr(module, func, wrapper)

    def uninstall(self) -> None:
        for module, func, original in reversed(self._patched):
            setattr(module, func, original)
        self._patched.clear()


def span_totals(spans: list) -> dict[str, dict[str, float]]:
    """Busy and self seconds per span name.

    Self time is a span's duration minus the time covered by its direct
    child spans; one thread runs them, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: dict[str, dict[str, float]] = {}
    for span_id, name, start, end, _, _ in spans:
        entry = totals.setdefault(name, {"busy_s": 0.0, "self_s": 0.0})
        entry["busy_s"] += end - start
        entry["self_s"] += end - start - child_time[span_id]
    return totals
