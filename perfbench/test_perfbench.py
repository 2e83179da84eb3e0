"""Tests of the benchmark itself: `python3 -m pytest perfbench` from the repo root."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from worstvote import is_feasible, is_maximal, worst_case_guarantee  # noqa: E402
from worstvote.lottery import parse_lottery  # noqa: E402

from perfbench import inputs, metrics, refkernel, stats, tracing  # noqa: E402


def test_tail_has_ten_values_beyond_it():
    value, pct = stats.tail([float(x) for x in range(1, 12)])
    assert value == 1.0 and pct == pytest.approx(100 / 11)
    values = [float(x) for x in range(40, 0, -1)]
    value, pct = stats.tail(values)
    assert sum(v > value for v in values) == 10
    assert value == 30.0 and pct == 75.0


def test_tail_needs_more_than_ten_values():
    with pytest.raises(ValueError):
        stats.tail([1.0] * 10)


def test_ref_divides_by_the_mean_kernel_time():
    assert stats.to_ref(2.0, 0.5, 1.5) == 2.0
    assert stats.to_ref(0.3, 0.02, 0.02) == pytest.approx(15.0)
    with pytest.raises(ValueError):
        stats.to_ref(1.0, 0.0, 0.1)


def test_reference_kernel_is_fixed_work():
    assert refkernel.kernel() == refkernel.CHECKSUM
    assert refkernel.timed_kernel() > 0


@pytest.mark.parametrize("workload", sorted(inputs.BUILDERS))
def test_inputs_follow_the_seed_and_never_repeat(workload):
    build = inputs.BUILDERS[workload]
    first, again, other = build(7, 15), build(7, 15), build(8, 15)
    assert [q.key for q in first] == [q.key for q in again]
    assert [q.key for q in first] != [q.key for q in other]
    assert [q.stratum for q in sorted(first, key=lambda q: q.stratum)] == [
        q.stratum for q in sorted(other, key=lambda q: q.stratum)
    ]
    assert len({q.key for q in first}) == len(first)


def test_known_answers_pass_and_a_wrong_one_is_flagged():
    scan = next(q for q in inputs.scan_queries(0, 3) if q.stratum == "3-6:below-VT")
    report = is_feasible(scan.lam, scan.n, use_hull=False)
    assert inputs.check(scan, report)
    assert not inputs.check(dataclasses.replace(scan, expected="infeasible"), report)

    point = next(q for q in inputs.maximality_queries(0, 3) if q.stratum == "3-5:U-vt")
    report = is_maximal(point.lam, point.n)
    assert inputs.check(point, report)
    assert not inputs.check(dataclasses.replace(point, expected="dominated"), report)

    evaluate = next(q for q in inputs.protocol_queries(0, 15)
                    if q.kind == "evaluate" and q.stratum == "3-6:rd(pad)")
    report = worst_case_guarantee(evaluate.spec, evaluate.n, evaluate.p)
    assert inputs.check(evaluate, report)
    wrong = ("equals", parse_lottery("2/3,0,0,0,0,1/3"))
    assert not inputs.check(dataclasses.replace(evaluate, expected=wrong), report)


def _record(ok: bool, seconds: float) -> dict:
    return {"stratum": "s", "kind": "feasible", "n": 3, "p": 6, "systems": 7260, "s": seconds,
            "kernel_before_s": 0.02, "kernel_after_s": 0.02, "cpu_self_s": seconds,
            "cpu_children_s": 0.0, "ok": ok}


def test_a_wrong_answer_makes_failed_share_nonzero():
    records = [_record(True, 0.1 * (i + 1)) for i in range(12)]
    out = {"records": records, "peak_rss_mb": 20.0, "anchors_s": 0.0}
    setups = [(0.2, 0.01, 0.01), (0.6, 0.02, 0.02), (0.25, 0.01, 0.01)]
    values, audit = metrics.end_to_end(out, setups, 0.01)
    assert audit["failed_share"] == 0 and values["correct_share"][0] == 1
    assert values["work_ref"][0] == pytest.approx(sum(0.1 * (i + 1) for i in range(12)) / 0.02)
    assert values["setup_s"][0] == pytest.approx(0.25)  # median 25 ref at 0.01 s per ref
    records[3]["ok"] = False
    values, audit = metrics.end_to_end(out, setups, 0.01)
    assert audit["failed_share"] == pytest.approx(1 / 12)
    assert values["correct_share"][0] == pytest.approx(11 / 12)


def test_self_time_is_span_minus_children():
    tracer = tracing.Tracer()

    def leaf():
        time.sleep(0.02)

    def parent():
        time.sleep(0.01)
        tracer.call("child", leaf)
        tracer.call("child", leaf)

    tracer.query = 0
    tracer.call("parent", parent)
    summary = tracer.summary()["0"]
    assert summary["child"]["calls"] == 2
    assert summary["parent"]["s"] >= summary["child"]["s"] >= 0.04
    parent, child = summary["parent"], summary["child"]
    assert parent["self_s"] == pytest.approx(parent["s"] - child["s"])


def _traced_counts() -> dict:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", "maximality", "--seed", "3",
           "--seconds", "1", "--jobs", "1", "--trace", "1"]
    out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
                         check=True)
    traced = json.loads(out.stdout.splitlines()[-1])
    layer = metrics.per_layer(traced, traced, traced)
    return {k: layer[k][0] for k in ("lp.solves", "feasibility.systems", "maximality.iterations",
                                     "protocols.scenarios")}


def test_traced_counts_repeat():
    first = _traced_counts()
    assert first["lp.solves"] > 0 and first["maximality.iterations"] > 0
    assert first["protocols.scenarios"] == 0
    assert _traced_counts() == first
