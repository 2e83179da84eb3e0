"""Spans around the calls worstvote's layers make into each other.

The wrappers are installed from this file by replacing the names a module
calls (`feasibility.solve`, `maximality.solve`, `maximality.is_feasible`, ...);
worstvote itself is not changed.  A span records its key, the query it
belongs to, its start and end, and the span that caused it.  A layer's self
time is its span minus the spans of its children.

Forked scan workers inherit the wrappers but do not return their spans, so a
traced scan runs at jobs=1.
"""

from __future__ import annotations

import time
from collections import defaultdict

# Keys of the spans, by layer.
SOLVE_KEYS = ("lp.scan", "lp.master", "lp.cut")
ENGINE = "feasibility.is_feasible"
ANCHORS = "feasibility.verified_anchors"
MAXIMAL = "maximality.is_maximal"
EVALUATE = "protocols.worst_case_guarantee"
VERIFY = "protocols.verify_safe_strategy"
SCENARIOS = "protocols.scenarios"


class Tracer:
    """Spans in memory, plus plain call counters for per-scenario calls."""

    def __init__(self) -> None:
        # [key, query, start, end, parent, info]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.query = -1
        self.counts: dict[tuple[str, int], int] = defaultdict(int)

    def call(self, key, fn, args=(), kwargs=None, info=None):
        """Run fn(*args, **kwargs) inside a span; `info(args, result)` adds
        details of the call to the span."""
        parent = self._stack[-1] if self._stack else -1
        span = [key, self.query, time.perf_counter(), 0.0, parent, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()
        if info is not None:
            span[5] = info(args, result)
        return result

    def wrap(self, key, fn, info=None):
        def wrapper(*args, **kwargs):
            k = key(args) if callable(key) else key
            return self.call(k, fn, args, kwargs, info)

        return wrapper

    def counter(self, key, fn):
        def wrapper(*args, **kwargs):
            self.counts[(key, self.query)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap the names worstvote's modules call across layer boundaries."""
        from worstvote import feasibility, maximality, protocols
        from worstvote.lp import INFEASIBLE

        def solve_info(args, result):
            return {"rows": len(args[0].constraints), "infeasible": result.status == INFEASIBLE}

        def master_or_cut(args):
            return "lp.master" if any(args[0].objective) else "lp.cut"

        feasibility.solve = self.wrap("lp.scan", feasibility.solve, solve_info)
        maximality.solve = self.wrap(master_or_cut, maximality.solve, solve_info)
        maximality.is_feasible = self.wrap(ENGINE, maximality.is_feasible, engine_info)
        feasibility.verified_anchors = self.wrap(ANCHORS, feasibility.verified_anchors)
        maximality.verified_anchors = self.wrap(ANCHORS, maximality.verified_anchors)
        protocols.rank_rearrange = self.counter(SCENARIOS, protocols.rank_rearrange)

    def summary(self) -> dict:
        """Per query and key: calls, seconds, self seconds and details."""
        child_s = [0.0] * len(self.spans)
        for key, query, start, end, parent, info in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        per_query: dict[int, dict] = defaultdict(dict)
        for idx, (key, query, start, end, parent, info) in enumerate(self.spans):
            agg = per_query[query].setdefault(
                key, {"calls": 0, "s": 0.0, "self_s": 0.0, "infeasible": 0, "rows": [],
                      "systems": 0, "methods": {}}
            )
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - child_s[idx]
            if info:
                if "rows" in info:
                    agg["rows"].append(info["rows"])
                    agg["infeasible"] += info["infeasible"]
                if "systems" in info:
                    agg["systems"] += info["systems"]
                    agg["methods"][info["method"]] = agg["methods"].get(info["method"], 0) + 1
        for (key, query), calls in self.counts.items():
            per_query[query][key] = {"calls": calls}
        return {str(q): v for q, v in per_query.items()}


def engine_info(args, report) -> dict:
    """What a feasibility report says about the work behind it."""
    return {"systems": report.profiles_checked, "method": method_family(report.method)}


def method_family(method: str) -> str:
    """`cut:<kind>:k=<k>` and `scan-too-large:<n>-chains` name one family each."""
    return method.split(":", 1)[0]
