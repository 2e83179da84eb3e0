"""One benchmark process: set up, then send one workload's queries back to back.

Started by run.py as `python -m perfbench.worker` from the checkout root with
the checkout's `src` on PYTHONPATH.  It prints `READY` when set-up is done
(import, input generation and, for maximality, anchor certification), then
one JSON line with a record per query.  With --setup-only it stops at READY.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import worstvote
from worstvote import (
    feasibility,
    is_feasible,
    is_maximal,
    verify_safe_strategy,
    worst_case_guarantee,
)

from perfbench import inputs, refkernel, tracing

ROOT = Path(__file__).resolve().parent.parent


def _cpu() -> tuple[float, float]:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime


def _run(query, jobs, call):
    """The one public API call a query makes."""
    if query.kind == "feasible":
        return call(tracing.ENGINE, is_feasible, (query.lam, query.n),
                    {"jobs": jobs, "use_hull": False}, tracing.engine_info)
    if query.kind == "maximal":
        return call(tracing.MAXIMAL, is_maximal, (query.lam, query.n), {"jobs": jobs})
    if query.kind == "evaluate":
        return call(tracing.EVALUATE, worst_case_guarantee, (query.spec, query.n, query.p))
    return call(tracing.VERIFY, verify_safe_strategy, (query.spec, query.lam, query.n, query.p))


def _details(query, result) -> dict:
    """Counters the reports carry, read after the query's timer stopped."""
    if result is None:
        return {}
    if query.kind == "feasible":
        return {"checked": result.profiles_checked, "method": result.method}
    if query.kind == "maximal":
        return {"iterations": result.iterations, "working_set": result.profiles_in_working_set}
    if query.kind == "evaluate":
        return {"scenarios": result.scenario_count}
    return {"secured": result}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--jobs", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    source = Path(worstvote.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"worstvote imported from {source}, not from this checkout", file=sys.stderr)
        return 3
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    queries = inputs.BUILDERS[args.workload](args.seed, args.seconds)
    systems = [inputs.systems(q) for q in queries]
    anchors_s = 0.0
    if args.workload == "maximality":
        started = time.perf_counter()
        for n, p in sorted({(q.n, q.p) for q in queries}):
            feasibility.verified_anchors(n, p, jobs=args.jobs)
        anchors_s = time.perf_counter() - started
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if tracer is not None:
        call = tracer.call
    else:
        def call(key, fn, fargs, kwargs=None, info=None):
            return fn(*fargs, **(kwargs or {}))

    records = []
    kernel_before = refkernel.timed_kernel()
    for i, query in enumerate(queries):
        if tracer is not None:
            tracer.query = i
        cpu0 = _cpu()
        started = time.perf_counter()
        error = None
        try:
            result = _run(query, args.jobs, call)
        except Exception:  # a failing query is counted, and the run goes on
            result = None
            error = traceback.format_exc(limit=4)
        elapsed = time.perf_counter() - started
        cpu1 = _cpu()
        if tracer is not None:
            tracer.query = -1
        ok = error is None and inputs.check(query, result)
        kernel_after = refkernel.timed_kernel()
        record = {
            "stratum": query.stratum,
            "kind": query.kind,
            "n": query.n,
            "p": query.p,
            "systems": systems[i],
            "s": elapsed,
            "kernel_before_s": kernel_before,
            "kernel_after_s": kernel_after,
            "cpu_self_s": cpu1[0] - cpu0[0],
            "cpu_children_s": cpu1[1] - cpu0[1],
            "ok": ok,
            **_details(query, result),
        }
        if not ok:
            record["error"] = error or f"unexpected result {result!r}"
        records.append(record)
        kernel_before = kernel_after

    out = {
        "records": records,
        "anchors_s": anchors_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": args.jobs,
        "pid": os.getpid(),
    }
    if tracer is not None:
        out["trace"] = tracer.summary()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
