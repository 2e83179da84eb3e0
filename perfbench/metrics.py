"""End-to-end and per-layer metrics from worker outputs."""

from __future__ import annotations

from collections import Counter

from perfbench import tracing
from perfbench.stats import median, ratio, tail, to_ref

# `is_feasible` scans serially below this many tail systems and in the
# process pool from it on.
POOL_SWITCH = 20_000
METHODS = ("scan", "mixture-dominates", "uniform-dominates", "library-profile", "cut", "other")


def refs(records: list[dict]) -> list[float]:
    return [to_ref(r["s"], r["kernel_before_s"], r["kernel_after_s"]) for r in records]


def end_to_end(
    out: dict, setups: list[tuple[float, float, float]], kernel_s: float
) -> tuple[dict, dict]:
    """The six end-to-end metrics of one timed run, and audit fields.

    `setups` holds (seconds, kernel reading before, kernel reading after) per
    set-up; set-up time is their median in ref units times `kernel_s`."""
    records = out["records"]
    ref = refs(records)
    failed = sum(not r["ok"] for r in records)
    tail_ref, tail_pct = tail(ref)
    metrics = {
        "work_ref": (sum(ref), "ref"),
        "query_p50_ref": (median(ref), "ref"),
        "query_tail_ref": (tail_ref, "ref"),
        "setup_s": (median([to_ref(*setup) for setup in setups]) * kernel_s, "s"),
        "peak_rss_mb": (out["peak_rss_mb"], "MB"),
        "correct_share": (1 - failed / len(records), "share"),
    }
    kernels = [r["kernel_before_s"] for r in records] + [records[-1]["kernel_after_s"]]
    audit = {
        "queries": len(records),
        "failed_share": failed / len(records),
        "tail_percentile": tail_pct,
        "work_s": sum(r["s"] for r in records),
        "query_s": [round(r["s"], 6) for r in records],
        "query_ref": [round(x, 4) for x in ref],
        "query_stratum": [r["stratum"] for r in records],
        "kernel_s": {"median": median(kernels), "min": min(kernels), "max": max(kernels)},
        "setups_raw_s": [setup[0] for setup in setups],
        "anchors_s": out["anchors_s"],
        "mix": dict(Counter(f"({r['n']},{r['p']})" for r in records)),
        "system_bands": _bands(records),
        "failures": [r for r in records if not r["ok"]],
    }
    return metrics, audit


def _bands(records: list[dict]) -> dict:
    """Queries per tail-system band (scan and maximality inputs)."""
    bands = Counter()
    for r in records:
        if not r["systems"]:
            continue
        if r["systems"] < POOL_SWITCH:
            bands["<20k"] += 1
        else:
            bands["20k-100k" if r["systems"] < 100_000 else ">=100k"] += 1
    return dict(bands)


def per_layer(traced: dict, untraced: dict, own_jobs: dict) -> dict:
    """Per-layer metrics of a traced run.

    `traced` and `untraced` ran the same queries at the same jobs, with and
    without the wrappers; `own_jobs` ran them untraced at the workload's own
    jobs (for scan, the process pool), which only it can show.
    """
    records = traced["records"]
    ref_s = [(r["kernel_before_s"] + r["kernel_after_s"]) / 2 for r in records]
    query_s = sum(r["s"] for r in records)
    per_query = traced["trace"]

    def agg(key: str) -> dict:
        """Totals of one span key over the queries, with seconds in ref units."""
        total = {"calls": 0, "s": 0.0, "self_s": 0.0, "ref": 0.0,
                 "infeasible": 0, "rows": [], "systems": 0, "methods": Counter()}
        for q, keys in per_query.items():
            if int(q) < 0 or key not in keys:
                continue
            a = keys[key]
            total["calls"] += a["calls"]
            if "s" not in a:
                continue
            total["s"] += a["s"]
            total["self_s"] += a["self_s"]
            total["ref"] += a["s"] / ref_s[int(q)]
            total["infeasible"] += a["infeasible"]
            total["rows"] += a["rows"]
            total["systems"] += a["systems"]
            total["methods"].update(a["methods"])
        return total

    m: dict[str, tuple[float, str]] = {}
    solves = {key: agg(key) for key in tracing.SOLVE_KEYS}
    all_solves = {
        "calls": sum(a["calls"] for a in solves.values()),
        "infeasible": sum(a["infeasible"] for a in solves.values()),
        "s": sum(a["s"] for a in solves.values()),
        "ref": sum(a["ref"] for a in solves.values()),
        "rows": [x for a in solves.values() for x in a["rows"]],
    }
    for prefix, a in [("lp", all_solves)] + [(key, solves[key]) for key in tracing.SOLVE_KEYS]:
        m[f"{prefix}.solves"] = (a["calls"], "count")
        m[f"{prefix}.infeasible"] = (a["infeasible"], "count")
        m[f"{prefix}.share"] = (ratio(a["s"], query_s), "share")
        m[f"{prefix}.ref_per_solve"] = (ratio(a["ref"], a["calls"]), "ref")
        m[f"{prefix}.rows_p50"] = (median(a["rows"]), "count")

    engine = agg(tracing.ENGINE)
    msystems = engine["systems"] / 1e6
    scan_lps = solves["lp.scan"]["calls"]
    m["feasibility.systems"] = (engine["systems"], "count")
    m["feasibility.self_share"] = (ratio(engine["self_s"], query_s), "share")
    m["feasibility.msystems_per_kref"] = (ratio(msystems, engine["ref"] / 1000), "Msys/kref")
    m["feasibility.lps_per_msystem"] = (ratio(scan_lps, msystems), "1/Msys")
    hit_rate = 1 - ratio(scan_lps, engine["systems"]) if engine["systems"] else 0.0
    m["feasibility.pool_hit_rate"] = (hit_rate, "share")
    own = own_jobs["records"]
    child_cpu = sum(r["cpu_children_s"] for r in own)
    self_cpu = sum(r["cpu_self_s"] for r in own)
    m["feasibility.child_cpu_share"] = (ratio(child_cpu, child_cpu + self_cpu), "share")
    methods = Counter()
    for name, count in engine["methods"].items():
        methods[name if name in METHODS else "other"] += count
    for name in METHODS:
        m[f"feasibility.method.{name}"] = (methods[name], "count")
    scans = [(r, x) for r, x in zip(own, refs(own)) if r["kind"] == "feasible"]
    for band, large in (("small", False), ("large", True)):
        chosen = [(r, x) for r, x in scans if (r["systems"] >= POOL_SWITCH) == large]
        chosen_ref = sum(x for _, x in chosen)
        chosen_msystems = sum(r["systems"] for r, _ in chosen) / 1e6
        m[f"feasibility.{band}.ref_per_msystem"] = (ratio(chosen_ref, chosen_msystems), "ref/Msys")
    m["feasibility.anchors_s"] = (traced["anchors_s"], "s")

    maximal = agg(tracing.MAXIMAL)
    iterations = [r["iterations"] for r in records if "iterations" in r]
    m["maximality.iterations"] = (sum(iterations), "count")
    m["maximality.iterations_p50"] = (median(iterations), "count")
    working_sets = [r["working_set"] for r in records if "working_set" in r]
    m["maximality.working_set_p50"] = (median(working_sets), "count")
    m["maximality.engine_calls"] = (engine["calls"] if maximal["calls"] else 0, "count")
    engine_share = ratio(engine["s"], query_s) if maximal["calls"] else 0.0
    m["maximality.engine_share"] = (engine_share, "share")
    m["maximality.self_share"] = (ratio(maximal["self_s"], query_s), "share")

    evaluate, verify = agg(tracing.EVALUATE), agg(tracing.VERIFY)
    scenarios = agg(tracing.SCENARIOS)["calls"]
    protocol_ref = evaluate["ref"] + verify["ref"]
    m["protocols.scenarios"] = (scenarios, "count")
    m["protocols.scenarios_per_ref"] = (ratio(scenarios, protocol_ref), "1/ref")
    m["protocols.eval_share"] = (ratio(evaluate["s"], query_s), "share")
    m["protocols.verify_share"] = (ratio(verify["s"], query_s), "share")
    m["protocols.verify_early_exits"] = (sum(r.get("secured") is False for r in records), "count")

    traced_work = sum(refs(records))
    untraced_work = sum(refs(untraced["records"]))
    m["trace.overhead_ref"] = (traced_work - untraced_work, "ref")
    m["trace.overhead_share"] = (ratio(traced_work - untraced_work, untraced_work), "share")
    return m
