"""The whole differential sweep of the tail-system scan's skip rule, of its
pool covers against per-tail sums and of the greedy fills that find its
implementing points, and the checked counts of two large scans; the
scan against the anchors that the word protocols prove at (3,10) and (4,9);
and the cuts alone deciding every lottery over twelfths at n >= p.

`tests/test_feasibility.py` runs a slice of each part with the Tier-1
tests.  This file does not match pytest's `test_*.py` pattern, so it runs
only when named:

    PYTHONPATH=src python -m pytest -q tests/scan_sweep.py
"""

import functools
import random

import pytest

import worstvote.feasibility as feas
from worstvote.compose import canonical_word, enumerate_canonical
from worstvote.lottery import dominates, uniform

from tests.orbits import enumerate_profiles
from tests.test_feasibility import (
    _SCAN_CORPUS,
    _SKIP_KEYS,
    _check_against_no_witnesses,
    _check_against_profiles,
    _check_covers_against_tail_sums,
    _check_greedy_against_lp,
    _check_skip_rule,
    _check_uniform_theorem,
    sparse_lottery,
)


@pytest.mark.parametrize("p, ks, n", _SKIP_KEYS, ids=str)
def test_each_class_keeps_its_least_system(monkeypatch, p, ks, n):
    _check_skip_rule(monkeypatch, p, ks, n)


@pytest.mark.parametrize("jobs", [1, 2])
def test_reports_match_a_scan_without_witnesses(monkeypatch, jobs):
    _check_against_no_witnesses(monkeypatch, _SCAN_CORPUS, jobs)


def test_pool_covers_sum_the_tails(monkeypatch):
    adds, distinct = _check_covers_against_tail_sums(monkeypatch, _SCAN_CORPUS)
    assert distinct > 1, (adds, distinct)


@functools.cache
def _profiles(n, p):
    return tuple(enumerate_profiles(n, p))


@pytest.mark.parametrize("n, p", [(3, 5), (4, 5), (3, 6)])
def test_scans_agree_with_every_profile(monkeypatch, n, p):
    # Seeded lotteries that reach the scan, decided by it alone (the
    # library profiles are off), each checked against the implementation LP
    # at every canonical profile: 3 feasible and 3 infeasible per context.
    monkeypatch.setattr(feas, "hard_profiles", lambda n, p: [])
    rng = random.Random(n * 10 + p)
    decided = {"feasible": 0, "infeasible": 0}
    while min(decided.values()) < 3:
        lam = sparse_lottery(p, rng)
        if dominates(uniform(p), lam) or feas.necessary_cuts(lam, n):
            continue
        report = _check_against_profiles(lam, n, _profiles(n, p))
        assert report.method == "scan"
        decided[report.verdict] += 1


def test_greedy_points_agree_with_the_lp(monkeypatch):
    counts = _check_greedy_against_lp(monkeypatch, 1)
    assert min(counts[kind] for kind in ("first", "second", "missed", "infeasible")) > 0, counts


def test_each_fill_answers_its_pinned_share(monkeypatch):
    # Every 13th system: of the 66,502 feasible ones the first fill answers
    # 59,126 and the worst-first fill 2,214 more, so 5,162 reach the LP.
    counts = _check_greedy_against_lp(monkeypatch, 13)
    assert counts == {"first": 59_126, "second": 2_214, "missed": 5_162, "infeasible": 52_996}


@pytest.mark.parametrize(
    "word, n, p, checked",
    [("RD,VT,RD", 3, 10, 11_430_795_635), ("VT,RD", 4, 9, 72_042_115_339)],
    ids=str,
)
def test_large_scan_count_is_pinned(word, n, p, checked):
    # 151,200 and 7,560 layouts, so a layout's bit lies in one of 18,900
    # or 945 bytes of each pool lottery's copy.  Library profiles included.
    report = feas.is_feasible(canonical_word(word, n, p), n, jobs=1, use_hull=False)
    assert (report.verdict, report.method, report.profiles_checked) == ("feasible", "scan", checked)


@pytest.mark.parametrize("n, p, least", [(3, 10, 9), (4, 9, 4)], ids=str)
def test_scans_agree_with_the_protocol_anchors(n, p, least):
    # Every canonical word the scan decides within 20 s is feasible and is
    # one of the anchors its protocol proves.  Measured at jobs=1: 9 of 14
    # words at (3,10), the other 5 refused at once by `_MAX_CHAINS`, and 4
    # of 6 at (4,9), the slowest in 4.5 s; `VT` and `RD,RD` run out of time.
    anchors = feas.verified_anchors(n, p)
    decided = 0
    for word, lam in enumerate_canonical(n, p):
        report = feas.is_feasible(lam, n, use_hull=False, time_budget=20)
        if report.verdict != "undecided":
            assert report.verdict == "feasible" and lam in anchors, word
            decided += 1
    assert decided >= least


def test_the_cuts_decide_every_input_at_n_at_least_p(monkeypatch):
    # All 81,393 inputs of the grid, p = 2..7 and n = p..p+2.
    decided = _check_uniform_theorem(monkeypatch, 1)
    assert sum(decided.values()) == 81_393, decided
