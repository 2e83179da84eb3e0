import hashlib
import itertools
import random
from concurrent.futures import Future
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest

import worstvote.feasibility as feas
from worstvote.compose import enumerate_canonical
from worstvote.feasibility import (
    active_ranks,
    balanced_family,
    implement_program,
    is_feasible,
    necessary_cuts,
    system_count,
)
from worstvote.lottery import (
    RankLottery,
    convex_combination,
    dominates,
    dual,
    lottery,
    parse_lottery,
    rd,
    uniform,
    vt,
)
from worstvote.lp import _scaled, feasibility_program, solve, verify_infeasibility
from worstvote.profiles import OutcomeLottery, Preference, Profile, rank_rearrange

from .fraction_lp import Constraint, LinearProgram as FractionProgram, fraction_program, row
from .orbits import enumerate_profiles
from .test_lottery import rand_lottery
from .test_profiles import profile

F = Fraction

# The named covers' guarantees that `verified_anchors` appends after the
# words, in mode order: top-pair, bottom-pair, then block where it differs.
_COVER_ANCHORS = {
    (3, 5): ("1/2,0,0,1/2,0", "1/3,0,1/3,1/3,0"),
    (4, 7): ("1/2,0,0,0,1/2,0,0", "1/5,1/5,0,1/5,1/5,1/5,0", "1/3,1/3,0,0,0,1/3,0"),
}

LEFT_SHOWCASE = profile([(1, 2, 4, 5, 6, 3), (2, 3, 5, 6, 4, 1), (3, 1, 6, 4, 5, 2)])
RIGHT_SHOWCASE = profile([(1, 4, 5, 6, 2, 3), (2, 5, 6, 4, 3, 1), (3, 6, 4, 5, 1, 2)])


def _implement_at(lam, prof):
    """An outcome lottery implementing `lam` at `prof`, or None if none
    exists: the point of `_implementing_point` on the tail system."""
    point, _ = feas._implementing_point(lam.p, *feas._tail_caps(lam), [pref.order for pref in prof.prefs])
    return None if point is None else OutcomeLottery(tuple(F(v, point[1]) for v in point[0]))


class TestImplementAt:
    def test_uniform_always_works(self):
        rng = random.Random(0)
        from .test_profiles import random_profile

        for _ in range(10):
            prof = random_profile(3, 5, rng)
            ell = _implement_at(uniform(5), prof)
            assert ell is not None
            for pref in prof.prefs:
                assert dominates(rank_rearrange(ell, pref), uniform(5))

    def test_dictator_forced_at_left_showcase(self):
        ell = _implement_at(rd(3, 6), LEFT_SHOWCASE)
        assert ell is not None
        assert ell.text() == "1/3,1/3,1/3,0,0,0"

    def test_veto_forced_at_right_showcase(self):
        ell = _implement_at(vt(3, 6), RIGHT_SHOWCASE)
        assert ell is not None
        assert ell.text() == "0,0,0,1/3,1/3,1/3"

    def test_returned_lottery_dominates_for_everyone(self):
        rng = random.Random(1)
        from .test_profiles import random_profile

        for _ in range(30):
            lam = rand_lottery(5, rng)
            prof = random_profile(3, 5, rng)
            ell = _implement_at(lam, prof)
            if ell is None:
                continue
            for pref in prof.prefs:
                assert dominates(rank_rearrange(ell, pref), lam)


class TestActiveRanks:
    def test_only_increasing_cumulative_counts(self):
        assert active_ranks(vt(3, 6)) == (1, 2, 3)
        assert active_ranks(rd(3, 6)) == (1, 5)
        assert active_ranks(lottery([1, 0, 0])) == ()

    def test_reduction_is_sound(self):
        # brute force over every (2-agent) profile at p=4: the reduced
        # constraint set decides exactly like the full definition
        import itertools

        from worstvote.lp import EQ, LE
        from worstvote.profiles import Preference, Profile

        rng = random.Random(2)
        perms = list(itertools.permutations(range(1, 5)))
        for _ in range(12):
            lam = rand_lottery(4, rng, grain=8)
            cum = lam.cumulative()
            for combo in itertools.product(perms, repeat=2):
                prof = Profile(tuple(Preference(o) for o in combo))
                reduced = _implement_at(lam, prof) is not None
                rows = [row([1] * 4, EQ, 1)]
                for pref in prof.prefs:
                    for k in range(1, 4):
                        coeffs = [0] * 4
                        for a in pref.order[:k]:
                            coeffs[a - 1] = 1
                        rows.append(row(coeffs, LE, cum[k - 1]))
                full = solve(feasibility_program(4, rows)).status == "optimal"
                assert reduced == full

    def test_uniform_meets_the_active_caps_only_where_it_dominates(self):
        # One agent's tail rows over the active ranks alone carry the
        # dominance order: k / p <= cum_k at every active rank k holds at
        # every rank, since a rank that is not active has the cumulative of
        # the next active one, or 1.  So `is_feasible`'s uniform shortcut
        # and the tail rows agree.  Every lottery over twelfths at p = 2..7.
        import itertools

        import worstvote.feasibility as feas
        from worstvote.lp import _meets

        checked = 0
        for p in range(2, 8):
            identity, flat = [tuple(range(1, p + 1))], uniform(p)
            for cuts in itertools.combinations(range(12 + p - 1), p - 1):
                parts = [b - a - 1 for a, b in zip((-1, *cuts), (*cuts, 12 + p - 1))]
                lam = lottery([F(x, 12) for x in parts])
                meets = _meets(feas._tail_rows(p, *feas._tail_caps(lam), identity), [1] * p, p)
                assert meets == dominates(flat, lam), lam.text()
                checked += 1
        assert checked == 27_131


class InlinePool:
    """A stand-in for `ProcessPoolExecutor` that runs each chunk inline and
    starts no process; every pool made is kept in `made`."""

    made: list = []

    def __init__(self, max_workers):
        self.workers, self.chunks = max_workers, 0
        self.made.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, payload):
        self.chunks += 1
        future = Future()
        future.set_result(fn(payload))
        return future


def _check_parallel_scan(monkeypatch):
    """Three scans at jobs 1 and 2, the pool forced: one feasible, one
    infeasible and one stopped by its limit in the pool's third chunk."""
    import worstvote.feasibility as feas

    monkeypatch.setattr(feas, "_POOL_SWITCH", 0)
    monkeypatch.setattr(feas, "hard_profiles", lambda n, p: [])  # the scan refutes
    feasible = parse_lottery("1/4,1/4,0,0,1/4,1/4,0")  # 88,410 systems
    cases = [
        (feasible, None, "feasible"),
        (parse_lottery("1/3,1/12,1/4,0,0,1/3"), None, "infeasible"),
        # the pooled scan's first two chunks hold 38,955 systems, so the
        # budget runs out in the third one
        (feasible, 50_000, "undecided"),
    ]
    for lam, limit, verdict in cases:
        serial, parallel = (
            is_feasible(lam, 3, jobs=jobs, use_hull=False, limit_profiles=limit) for jobs in (1, 2)
        )
        assert serial.verdict == parallel.verdict == verdict
        assert serial.method == parallel.method
        assert serial.profiles_checked == parallel.profiles_checked
        assert serial.witness_profile == parallel.witness_profile
        assert serial.witness_certificate == parallel.witness_certificate
    assert serial.profiles_checked == 50_000
    assert serial.method == "profile-limit"


class TestIsFeasible:
    def test_named_guarantees(self):
        assert is_feasible(vt(3, 6), 3).feasible
        assert is_feasible(rd(3, 6), 3).feasible
        assert is_feasible(uniform(7), 5).feasible

    def test_middle_point_mass_blocked(self):
        report = is_feasible(lottery([0, 0, 1, 0, 0]), 3)
        assert report.verdict == "infeasible"
        assert report.witness_profile is not None

    def test_witness_certificates_reverify(self):
        rng = random.Random(3)
        found = 0
        while found < 10:
            lam = rand_lottery(rng.choice((5, 6)), rng)
            report = is_feasible(lam, 3)
            if report.verdict != "infeasible":
                continue
            found += 1
            program = implement_program(lam, report.witness_profile)
            assert verify_infeasibility(program, report.witness_certificate)

    def test_undecided_on_limit(self):
        lam = parse_lottery("1/12,1/12,1/6,1/6,1/4,1/4")
        report = is_feasible(lam, 3, limit_profiles=5, use_hull=False)
        assert report.verdict in ("undecided", "infeasible")

    def test_undecided_on_time_budget(self):
        lam = parse_lottery("1/3,0,0,1/3,1/3,0,0")
        report = is_feasible(lam, 3, time_budget=0.0, use_hull=False)
        assert report.verdict == "undecided"
        assert report.method == "time-limit"

    def test_feasibility_downward_closed(self):
        # anything dominated by a feasible guarantee is feasible
        rng = random.Random(4)
        for _ in range(40):
            mu = rand_lottery(5, rng)
            lam = rand_lottery(5, rng)
            if not dominates(mu, lam):
                continue
            if is_feasible(mu, 3).feasible:
                assert is_feasible(lam, 3).feasible

    def test_two_agent_matches_brute_force(self):
        rng = random.Random(5)
        verdicts = set()
        for p in (4, 5):
            profiles = list(enumerate_profiles(2, p))
            for _ in range(25):
                lam = rand_lottery(p, rng)
                implementable = all(_implement_at(lam, prof) is not None for prof in profiles)
                assert is_feasible(lam, 2).feasible == implementable
                verdicts.add(implementable)
        assert verdicts == {True, False}

    def test_single_agent_everything_feasible(self):
        rng = random.Random(6)
        for _ in range(10):
            assert is_feasible(rand_lottery(5, rng), 1).feasible

    def test_limit_counts_library_profiles(self):
        lam = parse_lottery("1/4,1/4,0,0,1/4,1/4,0")  # 17 library profiles at (3,7)
        report = is_feasible(lam, 3, limit_profiles=5, use_hull=False)
        assert (report.verdict, report.method, report.profiles_checked) == (
            "undecided",
            "profile-limit",
            5,
        )
        report = is_feasible(lam, 3, limit_profiles=17 + 100, use_hull=False)
        assert (report.verdict, report.profiles_checked) == ("undecided", 117)

    def test_scan_too_large_is_undecided_before_any_layout(self, monkeypatch):
        import worstvote.feasibility as feas

        def no_layouts(*args):
            raise AssertionError("layouts built for a refused scan")

        monkeypatch.setattr(feas, "_MAX_CHAINS", 100)
        monkeypatch.setattr(feas, "_chain_layouts", no_layouts)
        monkeypatch.setattr(feas, "_scan_layouts", no_layouts)
        report = is_feasible(vt(3, 6), 3, use_hull=False)
        assert (report.verdict, report.method, report.profiles_checked) == (
            "undecided",
            "scan-too-large:120-chains",
            13,
        )

    @pytest.mark.parametrize("n, p", [(3, 5), (4, 7), (5, 9), (4, 9), (3, 10)], ids=str)
    def test_anchors_are_proved_by_protocols_without_a_scan(self, monkeypatch, n, p):
        # The uniform, every canonical guarantee, each far past what the old
        # 5,000,000 system cap let the anchors scan, then the named covers'
        # guarantees in mode order (top-pair, bottom-pair, block), with no
        # scan, LP or engine call.  At (3,5) the block cover is the top-pair
        # cover, so it adds nothing; the (5,9) block cover's 36 ** 4 =
        # 1,679,616 report tuples exceed `_MAX_CHAINS`, so it is not evaluated.
        import worstvote.feasibility as feas
        import worstvote.lp as lp
        import worstvote.protocols as protocols

        def forbidden(*args, **kwargs):
            raise AssertionError("the anchors ran the engine")

        evaluated = []

        def counted(spec, *args):
            evaluated.append(spec)
            return evaluate(spec, *args)

        evaluate = protocols.worst_case_guarantee
        monkeypatch.setattr(feas, "_anchor_cache", {})
        monkeypatch.setattr(protocols, "worst_case_guarantee", counted)
        for module, name in ((feas, "_scan"), (feas, "is_feasible"), (feas, "solve"), (lp, "solve")):
            monkeypatch.setattr(module, name, forbidden)
        canonical = [lam for _, lam in enumerate_canonical(n, p)]
        assert len(canonical) == {(3, 5): 2, (4, 7): 2, (5, 9): 2, (4, 9): 6, (3, 10): 14}[(n, p)]
        covers = [parse_lottery(text) for text in _COVER_ANCHORS.get((n, p), ())]
        assert feas.verified_anchors(n, p) == (uniform(p), *canonical, *covers)
        assert len(evaluated) == len(canonical) + {(3, 5): 3, (4, 7): 3}.get((n, p), 0)

    @pytest.mark.parametrize("n, p", [(3, 5), (4, 7)], ids=str)
    def test_cover_anchors_and_their_duals_scan_feasible(self, n, p):
        # A cover anchor is never its own proof: the scan, with no hull,
        # proves each feasible, and each one's dual: top-pair and
        # bottom-pair are each other's duals, and the (4,7) block's dual
        # is 1/4,0,1/4,1/4,1/4,0,0.
        covers = [parse_lottery(text) for text in _COVER_ANCHORS[(n, p)]]
        duals = [dual(lam) for lam in covers]
        assert duals[:2] == covers[1::-1]
        assert [mu.text() for mu in duals[2:]] == {(3, 5): [], (4, 7): ["1/4,0,1/4,1/4,1/4,0,0"]}[(n, p)]
        for mu in dict.fromkeys(covers + duals):
            report = is_feasible(mu, n, use_hull=False)
            assert (report.verdict, report.method) == ("feasible", "scan"), mu.text()

    def test_anchors_past_the_bound_are_the_uniform_alone(self, monkeypatch):
        # C(25, 8) = 1,081,575 aggregates exceed `_MAX_CHAINS` at the first
        # word, so no word is evaluated.
        import worstvote.feasibility as feas
        import worstvote.protocols as protocols

        def forbidden(*args, **kwargs):
            raise AssertionError("a word was evaluated")

        monkeypatch.setattr(feas, "_anchor_cache", {})
        monkeypatch.setattr(protocols, "worst_case_guarantee", forbidden)
        assert feas.verified_anchors(8, 25) == (uniform(25),)

    @pytest.mark.parametrize("n, p, stop", [(3, 7, 3), (4, 7, 4)], ids=str)
    def test_anchors_stopped_by_the_deadline_are_not_kept(self, monkeypatch, n, p, stop):
        # The deadline is checked before each word and each cover: at (3,7)
        # it stops the third word, at (4,7) the second cover, after both
        # words and the top-pair cover.
        import worstvote.feasibility as feas

        calls = []

        def expired(deadline):
            calls.append(deadline)
            return len(calls) == stop

        monkeypatch.setattr(feas, "_anchor_cache", {})
        monkeypatch.setattr(feas, "_expired", expired)
        whole = (uniform(p), *[lam for _, lam in enumerate_canonical(n, p)])
        whole += tuple(parse_lottery(text) for text in _COVER_ANCHORS.get((n, p), ()))
        assert feas.verified_anchors(n, p, deadline=0.0) == whole[:stop]
        assert (n, p) not in feas._anchor_cache
        assert feas.verified_anchors(n, p) == whole
        assert feas._anchor_cache[(n, p)] == whole

    def test_hull_verdict_is_not_served_to_a_scan_call(self, monkeypatch):
        import worstvote.feasibility as feas

        monkeypatch.setattr(feas, "_anchor_cache", {})
        lam = parse_lottery("1/12,1/4,1/4,1/4,1/12,1/12")
        feas.verified_anchors(3, 6)
        assert is_feasible(lam, 3).method == "mixture-dominates"
        assert is_feasible(lam, 3, use_hull=False).method == "scan"
        assert is_feasible(lam, 3).feasible

    def test_reports_do_not_depend_on_the_anchor_memo(self, monkeypatch):
        # The route is chosen by the input alone: every report, with no
        # limit and with a limit of 3, is the same whether the anchors'
        # memo was emptied before the call or warmed, apart from its runtime.
        import worstvote.feasibility as feas

        moved, methods = [], set()
        for lam, n in _memo_corpus():
            for limit in (None, 3):
                monkeypatch.setattr(feas, "_anchor_cache", {})
                cold = is_feasible(lam, n, limit_profiles=limit)
                feas.verified_anchors(n, lam.p)
                warm = is_feasible(lam, n, limit_profiles=limit)
                if replace(cold, runtime_ms=0) != replace(warm, runtime_ms=0):
                    moved.append((lam.text(), n, limit, cold.method, warm.method))
                methods.add((cold.verdict, cold.method.split(":")[0]))
        assert not moved, moved
        assert {("feasible", "uniform-dominates"), ("feasible", "mixture-dominates"), ("feasible", "scan"),
                ("infeasible", "cut"), ("infeasible", "library-profile"), ("infeasible", "scan"),
                ("undecided", "profile-limit")} <= methods

    def test_parallel_scan_matches_serial(self, monkeypatch):
        # Forced onto the process pool, a scan visits the same systems in
        # the same order as the serial one: the same verdict, count and
        # witness, and under a limit the same first systems.
        _check_parallel_scan(monkeypatch)

    @pytest.mark.parametrize("method", ["forkserver", "spawn"])
    def test_parallel_scan_matches_serial_when_workers_build_the_layouts(self, monkeypatch, method):
        # Workers that are not forked start without the parent's layout
        # memo and build the layouts in `_scan_chunk`; Python 3.14 makes
        # forkserver the default start method on Linux.
        import functools
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        import worstvote.feasibility as feas

        pool = functools.partial(ProcessPoolExecutor, mp_context=multiprocessing.get_context(method))
        monkeypatch.setattr(feas, "ProcessPoolExecutor", pool)
        _check_parallel_scan(monkeypatch)

    def test_pool_workers_are_capped_at_the_cores(self, monkeypatch):
        # However many jobs are asked for, the scan asks the pool for no more
        # workers than there are cores and splits into 4 chunks per worker;
        # with one core it scans in process.  The stand-in pool runs each
        # chunk inline and starts no process, and the core count is set, so
        # the test runs alike on any machine.
        import worstvote.feasibility as feas

        pools = InlinePool.made
        pools.clear()
        monkeypatch.setattr(feas, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(feas, "_POOL_SWITCH", 0)
        monkeypatch.setattr(feas, "hard_profiles", lambda n, p: [])
        for cores in (1, 2):
            monkeypatch.setattr(feas.os, "cpu_count", lambda: cores)
            for text in ("0,1/3,1/3,1/3,0,0", "1/3,1/12,1/4,0,0,1/3"):
                reports = []
                for jobs in (1, 5000):
                    pools.clear()
                    reports.append(is_feasible(parse_lottery(text), 3, jobs=jobs, use_hull=False))
                    sizes = [(pool.workers, pool.chunks) for pool in pools]
                    pooled = cores > 1 and jobs > 1
                    assert len(sizes) == pooled, (cores, jobs, sizes)
                    assert all(1 <= workers <= cores and chunks <= 4 * cores for workers, chunks in sizes), sizes
                serial, split = reports
                assert (serial.verdict, serial.profiles_checked, serial.witness_profile, serial.witness_certificate) == (
                    split.verdict, split.profiles_checked, split.witness_profile, split.witness_certificate)

    def test_time_limit_is_named_alike_serial_and_pooled(self, monkeypatch):
        import worstvote.feasibility as feas

        monkeypatch.setattr(feas, "_POOL_SWITCH", 0)
        monkeypatch.setattr(feas, "hard_profiles", lambda n, p: [])
        lam = parse_lottery("1/4,1/4,0,0,1/4,1/4,0")
        for jobs in (1, 2):
            report = is_feasible(lam, 3, jobs=jobs, use_hull=False, time_budget=0.0)
            assert (report.verdict, report.method, report.profiles_checked) == ("undecided", "time-limit", 0)

    def test_library_profiles_stop_at_the_deadline(self):
        lam = parse_lottery("1/3,0,0,1/3,1/3,0,0")  # 17 library profiles at (3,7)
        for jobs in (1, 2):
            report = is_feasible(lam, 3, jobs=jobs, use_hull=False, time_budget=0.0)
            assert (report.verdict, report.method, report.profiles_checked) == ("undecided", "time-limit", 0)


class TestLayoutMemo:
    def test_keys_over_the_bound_evict_the_least_recently_used(self, monkeypatch):
        import worstvote.feasibility as feas

        monkeypatch.setattr(feas, "_layout_memo", {})
        # Each key below has witnesses, so each layout holds three entries.
        monkeypatch.setattr(feas, "_MAX_CHAINS", 300)
        keys = [(5, (1, 2)), (5, (1, 4)), (6, (1, 5)), (6, (1, 2))]  # 20, 20, 30 and 30 layouts
        built = [feas._scan_layouts(*key) for key in keys]
        assert feas._scan_layouts(*keys[0]) is built[0]  # a hit; the oldest key is now the newest
        assert list(feas._layout_memo) == [*keys[1:], keys[0]]
        feas._scan_layouts(5, (2,))  # 10 more layouts: the least recently used key goes
        assert list(feas._layout_memo) == [*keys[2:], keys[0], (5, (2,))]
        big = feas._scan_layouts(6, (1, 2, 3))  # 120 layouts, over the bound alone
        assert list(feas._layout_memo) == [(6, (1, 2, 3))]
        assert feas._scan_layouts(6, (1, 2, 3)) is big

    # The (p, active ranks) keys that the scan workload of `perfbench` scans,
    # 1,620 layouts in all.
    BENCH_KEYS = [(6, (1, 2)), (6, (1, 2, 3)), (6, (1, 2, 3, 4, 5)), (6, (1, 2, 5)), (7, (1, 2, 4)), (7, (1, 2, 6))]

    def test_the_bench_keys_stay(self, monkeypatch):
        import worstvote.feasibility as feas

        # Each repeat must be a hit.
        monkeypatch.setattr(feas, "_layout_memo", {})
        built = [feas._scan_layouts(*key) for key in self.BENCH_KEYS]
        assert all(feas._scan_layouts(*key) is layouts for key, layouts in zip(self.BENCH_KEYS, built))

    @pytest.mark.parametrize("p, ks", BENCH_KEYS + [(5, (2,)), (8, (2, 5)), (9, (2, 5))], ids=str)
    def test_layouts_come_by_overlap_then_as_tuples_with_the_identity_last(self, p, ks):
        import worstvote.feasibility as feas

        # The skip rule of `_witness_tables` and the self-check of
        # `_scan_chunk`, which reads the identity layout as the last index,
        # rely on this order.
        layouts = feas._chain_layouts(p, ks, None)
        chain = [set(range(1, k + 1)) for k in ks]

        def overlap(layout):
            return sum(len(tail & set(layout[:k])) for k, tail in zip(ks, chain))

        assert len(set(layouts)) == len(layouts) == feas.chain_count(p, ks)
        assert layouts == sorted(layouts, key=lambda layout: (overlap(layout), layout))
        assert layouts[-1] == tuple(range(1, p + 1))
        assert overlap(layouts[-2]) < overlap(layouts[-1])

    @pytest.mark.parametrize("p, ks", BENCH_KEYS + [(8, (1, 2, 3, 4))], ids=str)
    def test_tail_masks_are_sums_of_layout_bits(self, monkeypatch, p, ks):
        import worstvote.feasibility as feas

        # Each holding mask, of rank k and outcome a, is the sum of 1 << i
        # over the layouts i whose k-tail holds a; (8, (1, 2, 3, 4)) is the
        # key of vt(4,8).
        monkeypatch.setattr(feas, "_layout_memo", {})
        layouts, holding, _ = feas._scan_layouts(p, ks)
        assert len(holding) == len(ks)
        for k, held in zip(ks, holding):
            expected = [0] * p
            for i, layout in enumerate(layouts):
                for a in layout[:k]:
                    expected[a - 1] += 1 << i
            assert list(held) == expected

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_deadline_stops_a_build_and_keeps_no_part(self, monkeypatch, jobs):
        import time

        import worstvote.feasibility as feas

        # The clock stands still until the layouts start to build, then
        # moves one second at each reading; the build stops at the first
        # reading that reaches the deadline.
        clock = {"now": 0, "moving": False}

        def monotonic():
            clock["now"] += clock["moving"]
            return clock["now"]

        chain_layouts = feas._chain_layouts

        def building(*args):
            clock["moving"] = True
            return chain_layouts(*args)

        monkeypatch.setattr(feas, "time", SimpleNamespace(monotonic=monotonic, perf_counter=time.perf_counter))
        monkeypatch.setattr(feas, "_chain_layouts", building)
        monkeypatch.setattr(feas, "_layout_memo", {})
        monkeypatch.setattr(feas, "_POOL_SWITCH", 0)
        monkeypatch.setattr(feas, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(feas.os, "cpu_count", lambda: 2)
        InlinePool.made.clear()
        lam = parse_lottery("1/4,1/4,0,0,1/4,1/4,0")  # 420 chain layouts
        report = is_feasible(lam, 3, jobs=jobs, use_hull=False, time_budget=50)
        assert (report.verdict, report.method) == ("undecided", "time-limit")
        assert clock["now"] == 50
        assert feas._layout_memo == {} and InlinePool.made == []

    def test_deadline_at_each_check_of_the_build(self, monkeypatch):
        # `_expired` fires at its k-th call with a deadline, for the k of the
        # first call from each deadline check in the three build functions.
        import sys

        import worstvote.feasibility as feas

        lam = vt(3, 6)
        key = (6, active_ranks(lam))
        sites = []  # (function, line) of each check made with a deadline
        fire_at = [0]

        def expired(deadline):
            if deadline is None:
                return False
            caller = sys._getframe(1)
            sites.append((caller.f_code.co_name, caller.f_lineno))
            return len(sites) == fire_at[0]

        monkeypatch.setattr(feas, "_expired", expired)
        monkeypatch.setattr(feas, "_layout_memo", {})
        expected = replace(is_feasible(lam, 3, use_hull=False), runtime_ms=0)
        assert (expected.verdict, expected.method, expected.profiles_checked) == ("feasible", "scan", 7273)
        monkeypatch.setattr(feas, "_layout_memo", {})
        assert replace(is_feasible(lam, 3, use_hull=False, time_budget=3600), runtime_ms=0) == expected
        builders = {"_chain_layouts", "_witness_tables", "_scan_layouts"}
        first_at = {}
        for k, site in enumerate(sites, 1):
            if site[0] in builders:
                first_at.setdefault(site, k)
        assert {name for name, _ in first_at} == builders and len(first_at) == 4, first_at
        for site, k in first_at.items():
            feas._layout_memo.clear()
            sites.clear()
            fire_at[0] = k
            report = is_feasible(lam, 3, use_hull=False, time_budget=3600)
            assert (report.verdict, report.method) == ("undecided", "time-limit"), site
            assert sites[-1] == site and report.profiles_checked == 13
            assert key not in feas._layout_memo
            assert replace(is_feasible(lam, 3, use_hull=False), runtime_ms=0) == expected

    def test_a_chunk_builds_its_layouts_under_its_deadline(self, monkeypatch):
        # A pool worker started by spawn or forkserver has an empty memo and
        # builds the layouts itself; a deadline that has passed stops it at
        # the first check.
        import time

        import worstvote.feasibility as feas

        built = []
        chain_layouts = feas._chain_layouts

        def recording(*args):
            built.append(chain_layouts(*args))
            return built[-1]

        monkeypatch.setattr(feas, "_chain_layouts", recording)
        monkeypatch.setattr(feas, "_layout_memo", {})
        lam = parse_lottery("1/4,1/4,0,0,1/4,1/4,0")  # 420 chain layouts
        ks, caps, cap_den = feas._tail_caps(lam)
        payload = (7, 3, ks, caps, cap_den, 0, 420, None, time.monotonic() - 1)
        assert feas._scan_chunk(payload) == {"status": "time-limit", "checked": 0}
        assert built == [None] and feas._layout_memo == {}


class TestSystemScan:
    def test_system_count_full_support(self):
        # all ranks active at p=4, three agents: sorted pairs over 4! chains
        lam = uniform(4)
        assert system_count(lam, 3) == 300  # C(24 + 1, 2)

    def test_scan_agrees_with_canonical_enumeration_at_3_5(self):
        from worstvote.lottery import convex_combination

        profiles = list(enumerate_profiles(3, 5))
        rng = random.Random(3)

        def brute(lam):
            return all(_implement_at(lam, prof) is not None for prof in profiles)

        checked = 0
        for _ in range(400):
            raw = rand_lottery(5, rng, grain=10)
            lam = convex_combination([(F(3, 5), uniform(5)), (F(2, 5), raw)])
            report = is_feasible(lam, 3, use_hull=False)
            if report.method != "scan":
                continue
            checked += 1
            assert report.feasible == brute(lam)
            if checked >= 3:
                break
        assert checked >= 3

        # push a maximal boundary guarantee upward: infeasible, and only a
        # concrete profile (not a closed-form cut) can show it
        for text in ("1/2,0,0,9/20,1/20", "1/3,4/15,0,0,2/5"):
            lam = parse_lottery(text)
            report = is_feasible(lam, 3, use_hull=False)
            assert report.verdict == "infeasible"
            assert report.method in ("scan", "library-profile")
            assert not brute(lam)
            program = implement_program(lam, report.witness_profile)
            assert verify_infeasibility(program, report.witness_certificate)

    def test_scan_chunk_leaves_no_reference_cycles(self):
        # A cycle would keep the chunk's layout list alive until the
        # cyclic collector happens to run.
        import gc

        import worstvote.feasibility as feas

        lam = vt(3, 5)
        ks, caps, cap_den = feas._tail_caps(lam)
        payload = (5, 3, ks, caps, cap_den, 0, feas.chain_count(5, ks), None, None)
        gc.collect()
        gc.disable()
        try:
            outcome = feas._scan_chunk(payload)
            assert outcome["status"] == "feasible"
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("role", ["canonical", "head", "miss"])
    def test_a_pool_lottery_that_misses_its_system_raises(self, monkeypatch, role):
        # The first point's lottery meets every layout but certifies only
        # layout 0, so the second system gets a point too; that point's byte
        # row misses one layout of its own system: the canonical chain, the
        # head's or the last one.
        import worstvote.feasibility as feas

        lam = vt(3, 5)
        ks, caps, cap_den = feas._tail_caps(lam)
        layouts = feas._scan_layouts(5, ks)[0]
        count = len(layouts)
        systems = []

        def implementing_point(p, ks, caps, cap_den, orders):
            systems.append([layouts.index(order) for order in orders[1:]])
            return ([1] * p, p), None

        def add_to_pool(covers, rows, *args):
            row = (1 << count) - 1
            if systems[1:]:
                head, miss = systems[-1]
                row &= ~(1 << {"canonical": count - 1, "head": head, "miss": miss}[role])
            covers.append(1)
            rows.append(row.to_bytes(-(-count // 8), "little"))

        monkeypatch.setattr(feas, "_implementing_point", implementing_point)
        monkeypatch.setattr(feas, "_add_to_pool", add_to_pool)
        with pytest.raises(AssertionError, match="misses layout") as raised:
            feas._scan_chunk((5, 3, ks, caps, cap_den, 0, count, None, None))
        assert len(systems) == 2 and len({count - 1, *systems[1]}) == 3, systems
        head, miss = systems[1]
        layout = {"canonical": count - 1, "head": head, "miss": miss}[role]
        assert f"misses layout {layout} of its system" in str(raised.value)

    def test_scan_agrees_with_profile_bruteforce(self):
        import itertools

        from worstvote.profiles import Preference, Profile

        rng = random.Random(7)
        perms = list(itertools.permutations(range(1, 5)))
        for _ in range(8):
            lam = rand_lottery(4, rng, grain=6)
            report = is_feasible(lam, 3, use_hull=False)
            brute = True
            for combo in itertools.product(perms, repeat=3):
                prof = Profile(tuple(Preference(o) for o in combo))
                if _implement_at(lam, prof) is None:
                    brute = False
                    break
            assert report.feasible == brute


class TestScanOrder:
    # The first infeasible tail system in enumeration order: witness
    # profile, Farkas certificate and systems checked, recorded with the
    # earlier reuse-pool scan.  The library profiles are switched off so
    # that the scan itself refutes each input.  The first certificate was
    # re-recorded, doubled, when every LP came to be solved by the dual
    # simplex from its slack basis.
    PINNED = [
        (
            3,
            "1/3,1/12,1/4,0,0,1/3",
            27,
            "1 2 3 4 5 6 / 3 4 1 2 6 5 / 5 6 1 2 3 4",
            ("-2", "0", "0", "1", "0", "0", "1", "0", "1", "0"),
        ),
        (
            3,
            "0,1/2,1/3,0,1/6,0",
            10,
            "1 2 3 4 5 6 / 3 4 5 6 1 2 / 4 5 2 6 1 3",
            ("-1", "1", "0", "0", "1", "0", "0", "0", "0", "1"),
        ),
        (
            4,
            "1/12,1/4,1/4,1/4,1/12,1/12",
            8587,
            "1 2 3 4 5 6 / 4 5 6 1 2 3 / 5 4 6 1 2 3 / 6 4 5 1 2 3",
            ("-1", "0", "0", "1", "0", "0", "1", "0", "0", "0", "0")
            + ("1", "0", "0", "0", "0", "1", "0", "0", "0", "0"),
        ),
    ]

    @pytest.mark.parametrize(
        "n, text, checked, witness, certificate", PINNED, ids=[f"{c[0]}:{c[1]}" for c in PINNED]
    )
    def test_first_infeasible_system_is_pinned(
        self, monkeypatch, n, text, checked, witness, certificate
    ):
        import worstvote.feasibility as feas

        monkeypatch.setattr(feas, "hard_profiles", lambda n, p: [])
        lam = parse_lottery(text)
        report = is_feasible(lam, n, use_hull=False)
        assert (report.verdict, report.method) == ("infeasible", "scan")
        assert report.profiles_checked == checked
        assert report.witness_profile.text() == witness
        assert report.witness_certificate == tuple(F(x) for x in certificate)
        program = implement_program(lam, report.witness_profile)
        assert verify_infeasibility(program, report.witness_certificate)


def report_corpus():
    """(lam, n, limit) inputs whose reports `TestReportDigest` pins: seeded
    mixtures of the uniform and a random lottery at five small contexts,
    the `TestScanOrder` inputs (the library refutes them), two inputs the
    scan refutes past the library, and two profile-limited scans."""
    rng = random.Random(15)
    corpus = []
    for n, p in ((3, 5), (3, 6), (4, 5), (4, 6), (3, 7)):
        for _ in range(40):
            raw = rand_lottery(p, rng, grain=rng.choice((10, 12, 20)))
            w = F(rng.randint(1, 9), 10)
            corpus.append((convex_combination([(w, uniform(p)), (1 - w, raw)]), n, None))
    corpus += [(parse_lottery(text), n, None) for n, text, *_ in TestScanOrder.PINNED]
    corpus += [
        (parse_lottery("21/100,37/200,43/200,39/200,39/200"), 3, None),
        (parse_lottery("36/175,22/175,3/35,36/175,3/35,29/175,22/175"), 3, None),
        (parse_lottery("1/4,1/4,0,0,1/4,1/4,0"), 3, 5),
        (parse_lottery("1/4,1/4,0,0,1/4,1/4,0"), 3, 17 + 100),
    ]
    return corpus


def _memo_corpus():
    """(lam, n) inputs of the test that reports do not depend on the anchors'
    memo: at each of (3,5), (3,6), (3,7), (4,6) and (4,7), the canonical
    guarantees and the seeded random lotteries, dense and on 2 to 4 ranks,
    whose scan would visit at most 100,000 systems; then the two inputs of
    `report_corpus` that the scan refutes past the library and one that the
    scan proves feasible."""
    rng = random.Random(32)
    corpus = []
    for n, p in ((3, 5), (3, 6), (3, 7), (4, 6), (4, 7)):
        corpus += [(lam, n) for _, lam in enumerate_canonical(n, p)]
        for _ in range(12):
            for lam in (rand_lottery(p, rng, grain=rng.choice((4, 6, 10))), sparse_lottery(p, rng)):
                if system_count(lam, n) <= 100_000:
                    corpus.append((lam, n))
    texts = ("21/100,37/200,43/200,39/200,39/200", "36/175,22/175,3/35,36/175,3/35,29/175,22/175",
             "1/4,1/4,0,0,1/4,1/4,0")
    return corpus + [(parse_lottery(text), 3) for text in texts]


def _report_facts(report):
    """What a report states, as strings and ints, apart from its runtime:
    the pin then holds whatever fields or `repr` the dataclasses have."""
    prof = report.witness_profile
    return (
        report.verdict,
        report.method,
        None if prof is None else prof.text(),
        None if report.witness_certificate is None else tuple(map(str, report.witness_certificate)),
        report.profiles_checked,
        tuple((str(w), lam.text()) for w, lam in report.mixture or ()),
    )


class TestReportDigest:
    # sha256 of the `repr` of `_report_facts` of every report of
    # `report_corpus()`, in corpus order, from `is_feasible(lam, n,
    # use_hull=False, limit_profiles=limit)`.  The scan's pool and its
    # reuse of layouts skip only feasible LPs, so no fact may move with
    # them.  Re-recorded when every LP came to be solved by the dual simplex
    # from its slack basis: 42 of the 210 reports changed certificate, and
    # nothing else.  Re-recorded when reports stopped listing the cuts they
    # tried: every other fact of the 207 reports stayed as it was.
    DIGEST = "5c8e66147b8b7edf5088bb22c235f198f715f8d3485856497cd47fb87314c857"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_reports_are_pinned(self, monkeypatch, jobs):
        import worstvote.feasibility as feas

        # At two jobs every scan splits into chunks, run by the inline pool.
        monkeypatch.setattr(feas, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(feas, "_POOL_SWITCH", 0)
        monkeypatch.setattr(feas.os, "cpu_count", lambda: 2)
        InlinePool.made.clear()
        digest = hashlib.sha256()
        methods = set()
        for lam, n, limit in report_corpus():
            report = is_feasible(lam, n, jobs=jobs, use_hull=False, limit_profiles=limit)
            digest.update(repr(_report_facts(report)).encode())
            methods.add((report.verdict, report.method.split(":")[0]))
        assert {("infeasible", "cut"), ("infeasible", "library-profile"), ("infeasible", "scan"),
                ("feasible", "scan"), ("undecided", "profile-limit")} <= methods
        assert bool(InlinePool.made) == (jobs > 1)
        assert digest.hexdigest() == self.DIGEST


def _skip_keys():
    """(p, ks, n) for every set of active ranks at p = 3..6 whose blocks
    admit a relabeling, at n = 3 and 4: 104 cases."""
    import itertools

    keys = []
    for p in range(3, 7):
        for size in range(1, p):
            for ks in itertools.combinations(range(1, p), size):
                if any(hi - lo > 1 for lo, hi in zip((0, *ks), (*ks, p))):
                    keys += [(p, ks, n) for n in (3, 4)]
    return keys


_SKIP_KEYS = _skip_keys()


def _layout_group(p, ks, layouts):
    """Every relabeling that maps each block of the canonical chain onto
    itself, as the permutation of layout indices it induces: the image of a
    layout is the chain of its relabeled tails, sorted within each block."""
    import itertools

    index = {layout: i for i, layout in enumerate(layouts)}
    bounds = list(zip((0, *ks), (*ks, p)))
    group = []
    for images in itertools.product(*(itertools.permutations(range(lo + 1, hi + 1)) for lo, hi in bounds)):
        relabel = dict(zip(range(1, p + 1), itertools.chain(*images)))
        group.append(tuple(
            index[tuple(b for lo, hi in bounds for b in sorted(relabel[a] for a in layout[lo:hi]))]
            for layout in layouts
        ))
    return group


def _fixed_multisets(perm, size):
    """The multisets of `size` indices that the permutation `perm` maps onto
    themselves: the coefficient of x**size in the product, over its cycles,
    of 1 / (1 - x**length)."""
    seen = [False] * len(perm)
    ways = [1] + [0] * size
    for start in range(len(perm)):
        length, i = 0, start
        while not seen[i]:
            seen[i], i, length = True, perm[i], length + 1
        for total in range(length, size + 1) if length else ():
            ways[total] += ways[total - length]
    return ways[size]


def _check_skip_rule(monkeypatch, p, ks, n):
    """Brute force over the systems of `ks` at n agents against the whole
    relabeling group.  `_scan_chunk` runs with a pool that certifies
    nothing (a stubbed `_add_to_pool`), so every system it scans
    needs a point from the (stubbed) `_implementing_point`: it must
    scan them in order, count every system, and scan the least member of
    every class.  So every skipped system has an earlier member of its
    class, and every class keeps a scanned one.  The classes are counted by
    Burnside's lemma, so the skipped systems are counted but never
    listed."""
    import math

    import worstvote.feasibility as feas

    layouts = feas._scan_layouts(p, ks)[0]
    index = {layout: i for i, layout in enumerate(layouts)}
    group = _layout_group(p, ks, layouts)
    assert len(group) > 1
    scanned = []

    def implementing_point(p, ks, caps, cap_den, orders):
        scanned.append(orders)
        return ([0] * p, 1), None

    count = len(layouts)

    def certify_nothing(covers, rows, *args):
        # One pool lottery stands for every point: a pool of one lottery per
        # scanned system would cost each run's fold a byte test per system
        # scanned since its layouts were last read.  Its byte row meets every
        # layout, as the chunk checks of each new point, but its cover, from
        # which the chunk certifies, meets none.
        if not covers:
            covers.append(0)
            rows.append(bytes([255]) * -(-count // 8))

    monkeypatch.setattr(feas, "_add_to_pool", certify_nothing)
    monkeypatch.setattr(feas, "_implementing_point", implementing_point)
    # The caps reach only the stubs, which ignore them.
    outcome = feas._scan_chunk((p, n, ks, [0] * len(ks), 1, 0, count, None, None))
    assert outcome == {"status": "feasible", "checked": math.comb(count + n - 2, n - 1)}
    systems = [[index[order] for order in orders[1:]] for orders in scanned]
    assert all(a < b for a, b in zip(systems, systems[1:]))
    moves = [perm.__getitem__ for perm in group if perm != tuple(range(count))]
    least = sum(all(sorted(map(move, system)) >= system for move in moves) for system in systems)
    classes, rest = divmod(sum(_fixed_multisets(perm, n - 1) for perm in group), len(group))
    assert rest == 0
    assert least == classes


def sparse_lottery(p, rng):
    """A random lottery on 2 to 4 ranks (at most p - 1): few active ranks,
    so the blocks of the canonical chain admit relabelings."""
    support = rng.sample(range(p), rng.randint(2, min(4, p - 1)))
    weights = [rng.randint(1, rng.choice((10, 12, 20))) for _ in support]
    probs = [F(0)] * p
    for k, x in zip(support, weights):
        probs[k] = F(x, sum(weights))
    return lottery(probs)


def _scan_corpus():
    """(lam, n, library) inputs of the differential test against a scan
    without witnesses: at each of (3,5), (3,6), (3,7), (4,5) and (4,6),
    8 seeded lotteries on 2 to 4 ranks that reach the library profiles
    (no cut refutes them and the uniform does not dominate them) in at most
    400,000 systems, then the `TestScanOrder` inputs; each with the library
    profiles on and off, so that the scan itself refutes the infeasible
    ones."""
    rng = random.Random(19)
    inputs = []
    for n, p in ((3, 5), (3, 6), (3, 7), (4, 5), (4, 6)):
        found = 0
        while found < 8:
            lam = sparse_lottery(p, rng)
            if dominates(uniform(p), lam) or necessary_cuts(lam, n) or system_count(lam, n) > 400_000:
                continue
            found += 1
            inputs.append((lam, n))
    inputs += [(parse_lottery(text), n) for n, text, *_ in TestScanOrder.PINNED]
    return [(lam, n, library) for lam, n in inputs for library in (True, False)]


_SCAN_CORPUS = _scan_corpus()


def _check_against_no_witnesses(monkeypatch, corpus, jobs):
    """Whole reports, `runtime_ms` aside, with and without the witness
    tables (the test seam: `_witness_tables` returning empty tables), for
    each input of `corpus` scanned in full, under a limit that ends in the
    middle of the scan, and under a fake clock that runs out at the third
    library profile or at the scan's first reading.  A deadline that
    passes inside the scan stops the two at different systems, since they
    read the clock once per run scanned or block skipped; so does a real
    clock two runs of one program.  At two jobs every scan splits into
    chunks, run by the inline pool."""
    import time

    import worstvote.feasibility as feas

    monkeypatch.setattr(feas, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(feas, "_POOL_SWITCH", 0)
    monkeypatch.setattr(feas.os, "cpu_count", lambda: 2)
    library = feas.hard_profiles
    clock = {"now": 0.0, "step": 1.0}

    def monotonic():
        clock["now"] += clock["step"]
        return clock["now"]

    scan = feas._scan

    def scan_on_a_moving_clock(*args):
        clock["step"] = 1.0
        return scan(*args)

    requests = []  # the systems that needed an implementing point
    implementing_point = feas._implementing_point

    def counted(*args):
        requests.append(args)
        return implementing_point(*args)

    monkeypatch.setattr(feas, "_implementing_point", counted)

    def reports():
        out = []
        InlinePool.made.clear()
        for lam, n, with_library in corpus:
            monkeypatch.setattr(feas, "hard_profiles", library if with_library else lambda n, p: [])
            libraries = len(library(n, p=lam.p)) if with_library else 0
            runs = [{}, {"limit_profiles": libraries + system_count(lam, n) // 2}]
            for kwargs in runs:
                out.append(is_feasible(lam, n, jobs=jobs, use_hull=False, **kwargs))
            with monkeypatch.context() as fake:
                fake.setattr(feas, "time", SimpleNamespace(monotonic=monotonic, perf_counter=time.perf_counter))
                if with_library:  # the third library profile reads the clock past the deadline
                    clock["step"] = 1.0
                    out.append(is_feasible(lam, n, jobs=jobs, use_hull=False, time_budget=2.5))
                    assert out[-1].profiles_checked <= 2  # no scan system was counted
                clock["step"] = 0.0  # until the scan starts
                fake.setattr(feas, "_scan", scan_on_a_moving_clock)
                out.append(is_feasible(lam, n, jobs=jobs, use_hull=False, time_budget=0.5))
        assert bool(InlinePool.made) == (jobs > 1)
        return [replace(report, runtime_ms=0) for report in out]

    monkeypatch.setattr(feas, "_layout_memo", {})
    quotient = reports()
    quotient_requests = len(requests)
    requests.clear()
    monkeypatch.setattr(feas, "_witness_tables", lambda *args: ((), (), ()))
    monkeypatch.setattr(feas, "_layout_memo", {})
    assert reports() == quotient
    assert quotient_requests < len(requests)
    return quotient


def _check_against_profiles(lam, n, profiles):
    """The scan's verdict, with the library profiles off, against the
    implementation LP at every canonical profile; each profile is tried
    first against the lotteries found so far, by the exact check of
    `lp._meets` on the rows of `implement_program`, the last one to meet
    a profile's rows first."""
    import worstvote.feasibility as feas
    from worstvote.lp import _meets

    caps = feas._tail_caps(lam)
    found = []
    brute = True
    for prof in profiles:
        rows = feas._tail_rows(lam.p, *caps, [pref.order for pref in prof.prefs])
        hit = next((i for i, (x, scale) in enumerate(found) if _meets(rows, x, scale)), None)
        if hit is not None:
            found.insert(0, found.pop(hit))
            continue
        point = solve(feasibility_program(lam.p, rows)).point
        if point is None:
            brute = False
            break
        found.append(point)
    report = is_feasible(lam, n, use_hull=False)
    assert report.verdict == ("feasible" if brute else "infeasible")
    return report


# The distinct (lam, n) of `_SCAN_CORPUS` at (3,5), (3,6), (4,5) and (4,6),
# within the corpus's bound of 400,000 systems: all but the pinned (4,6)
# input, whose key (1, 2, 3, 4, 5) has 62,128,680.
_GREEDY_INPUTS = list(dict.fromkeys(
    (lam, n) for lam, n, _ in _SCAN_CORPUS
    if (n, lam.p) in ((3, 5), (3, 6), (4, 5), (4, 6)) and system_count(lam, n) <= 400_000
))


def _check_greedy_against_lp(monkeypatch, stride):
    """The greedy fills of `_implementing_point` against `lp.solve`
    on every `stride`-th tail system of each of `_GREEDY_INPUTS`, enumerated
    as `_scan_chunk` does with nothing skipped: agent 1 on the canonical
    chain, the others on each sorted tuple of layouts.  With the LP stubbed
    out of `feasibility`, `_implementing_point` returns a greedy point or
    None.  Each greedy point meets its rows under `lp._meets`, an exact
    check that proves its LP feasible, and is in lowest terms.  The LP is
    solved only where both fills returned None, to tell the feasible
    systems they missed from the infeasible ones, where no fill can answer.
    Returns the counts of systems the first fill answered, of those only
    the second answered, of feasible ones both missed and of infeasible
    ones."""
    import itertools
    from collections import Counter
    from math import gcd

    import worstvote.feasibility as feas
    from worstvote.lp import _meets

    monkeypatch.setattr(feas, "solve", lambda program: SimpleNamespace(point=None, certificate=None))
    fills = []  # per fill of the current system, its point or None
    fill = feas._fill
    monkeypatch.setattr(feas, "_fill", lambda *args: fills.append(fill(*args)) or fills[-1])
    counts = Counter()
    for lam, n in _GREEDY_INPUTS:
        p = lam.p
        ks = active_ranks(lam)
        caps, cap_den = _scaled([lam.cumulative()[k - 1] for k in ks])
        identity = tuple(range(1, p + 1))
        systems = itertools.combinations_with_replacement(feas._scan_layouts(p, ks)[0], n - 1)
        for others in itertools.islice(systems, 0, None, stride):
            orders = [identity, *others]
            fills.clear()
            point, _ = feas._implementing_point(p, ks, caps, cap_den, orders)
            rows = feas._tail_rows(p, ks, caps, cap_den, orders)
            if point is None:
                assert fills == [None, None], (lam.text(), orders)
                counts["missed" if solve(feasibility_program(p, rows)).point else "infeasible"] += 1
                continue
            x, scale = point
            assert _meets(rows, x, scale) and gcd(scale, *x) == 1, (lam.text(), orders, point)
            assert fills[-1] == point and fills[:-1] in ([], [None]), (lam.text(), orders)
            counts["first" if len(fills) == 1 else "second"] += 1
    return counts


def _check_fold_against_eager(monkeypatch, corpus):
    """Each input of `corpus` scanned in full at one job, with the library
    profiles on or off, against the scan on eagerly built masks in
    `tests/eager_pool.py`: the same report, the same number of implementing
    point requests and the same number of pool lotteries added.  A fold
    that missed a lottery's bit would certify fewer systems from the pool
    and so request more points.  Returns the summed counts."""
    from collections import Counter

    import worstvote.feasibility as feas

    from . import eager_pool

    tally = Counter()

    def counting(key, fn):
        def counted(*args):
            tally[key] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(feas, "_implementing_point", counting("requests", feas._implementing_point))
    monkeypatch.setattr(feas, "_add_to_pool", counting("adds", feas._add_to_pool))
    monkeypatch.setattr(eager_pool, "add_to_pool", counting("adds", eager_pool.add_to_pool))
    library = feas.hard_profiles
    lazy = feas._scan_chunk
    totals = Counter()
    for lam, n, with_library in corpus:
        monkeypatch.setattr(feas, "hard_profiles", library if with_library else lambda n, p: [])
        sides = []
        for chunk in (lazy, eager_pool.scan_chunk):
            monkeypatch.setattr(feas, "_scan_chunk", chunk)
            tally.clear()
            report = replace(is_feasible(lam, n, use_hull=False), runtime_ms=0)
            sides.append((report, tally["requests"], tally["adds"]))
        assert sides[0] == sides[1], (lam.text(), n, with_library)
        totals.update(requests=sides[0][1], adds=sides[0][2], **{sides[0][0].verdict: 1})
    return totals


def _check_covers_against_tail_sums(monkeypatch, corpus):
    """Each input of `corpus` scanned in full at one job, with the library
    profiles on or off, every pool lottery its scan adds checked against
    `tests/eager_pool.py`'s `tail_sum_cover`, which sums the lottery over
    each tail of each layout: `_add_to_pool`'s cover, from the holding
    masks, must be the same bitmask.  Returns the number of lotteries
    checked and of the distinct covers among them."""
    import worstvote.feasibility as feas

    from .eager_pool import tail_sum_cover

    add_to_pool = feas._add_to_pool
    seen = []

    def checked(covers, rows, mass, scale, caps, cap_den, holding, count):
        add_to_pool(covers, rows, mass, scale, caps, cap_den, holding, count)
        (p, ks), (layouts, *_) = next((key, built) for key, built in feas._layout_memo.items() if built[1] is holding)
        assert covers[-1] == tail_sum_cover(layouts, ks, mass, scale, caps, cap_den), (p, ks, mass, scale, caps)
        seen.append(covers[-1])

    monkeypatch.setattr(feas, "_add_to_pool", checked)
    library = feas.hard_profiles
    for lam, n, with_library in corpus:
        monkeypatch.setattr(feas, "hard_profiles", library if with_library else lambda n, p: [])
        is_feasible(lam, n, use_hull=False)
    return len(seen), len(set(seen))


class TestSkipRule:
    @pytest.mark.parametrize("p, ks, n", [key for key in _SKIP_KEYS if key[0] <= 5], ids=str)
    def test_each_class_keeps_its_least_system(self, monkeypatch, p, ks, n):
        # The 44 cases at p <= 5, in under a second; `tests/scan_sweep.py`
        # runs all 104, in about three minutes, most of it n = 4 at p = 6.
        _check_skip_rule(monkeypatch, p, ks, n)

    def test_the_bench_keys_have_witnesses(self):
        import worstvote.feasibility as feas

        # (3,7)'s key (1, 2, 4) has blocks {3, 4} and {5, 6, 7}: witnesses
        # (3 4), (5 6) and (6 7) generate its 12 relabelings.  A key of one-
        # outcome blocks has no witness, and no table is built.
        layouts, _, (fixes, lowers_at, lowered) = feas._scan_layouts(7, (1, 2, 4))
        assert len(lowered) == 3 and len(fixes) == len(lowers_at) == len(layouts) == 420
        assert len(_layout_group(7, (1, 2, 4), layouts)) == 12
        assert feas._scan_layouts(6, (1, 2, 3, 4, 5))[2] == ((), (), ())

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_reports_match_a_scan_without_witnesses(self, monkeypatch, jobs):
        # Every fifth input of the corpus; `tests/scan_sweep.py` runs all.
        reports = _check_against_no_witnesses(monkeypatch, _SCAN_CORPUS[::5], jobs)
        assert {"scan", "profile-limit", "time-limit"} <= {report.method for report in reports}
        assert "infeasible" in {report.verdict for report in reports}


class TestGreedyFill:
    def test_greedy_points_agree_with_the_lp(self, monkeypatch):
        # Every 499th system; `tests/scan_sweep.py` runs them all.
        counts = _check_greedy_against_lp(monkeypatch, 499)
        assert min(counts[kind] for kind in ("first", "second", "missed", "infeasible")) > 0, counts

    def test_the_worst_first_fill_answers_where_the_first_stalls(self, monkeypatch):
        import worstvote.feasibility as feas

        def unreachable(program):
            raise AssertionError("the second fill should have answered")

        monkeypatch.setattr(feas, "solve", unreachable)
        fills = []
        fill = feas._fill
        monkeypatch.setattr(feas, "_fill", lambda *args: fills.append(fill(*args)) or fills[-1])
        # (3,6), caps 51, 200, 349, 498 and 549 over 600 at ranks 1-5.  The
        # first fill visits 3, 2, 6, 5, 1, 4 and stalls.  The second visits
        # by lowest position, 4, 1 (the worst of someone), 5, 2, 6, 3: the
        # two worst outcomes take 51 each, the 1-tail caps, then 5, 2 and 6
        # take 149 each and 3 the last 51.
        orders = [(1, 2, 3, 4, 5, 6), (4, 5, 6, 1, 2, 3), (4, 5, 6, 1, 3, 2)]
        point, certificate = feas._implementing_point(6, (1, 2, 3, 4, 5), (51, 200, 349, 498, 549), 600, orders)
        assert (point, certificate) == (([51, 149, 51, 51, 149, 149], 600), None)
        assert fills == [None, point]

    def test_a_fill_that_reaches_mass_one_solves_no_lp(self, monkeypatch):
        import worstvote.feasibility as feas

        def unreachable(program):
            raise AssertionError("the greedy fill should have answered")

        monkeypatch.setattr(feas, "solve", unreachable)
        # 1-tails capped at 1/2 and 3-tails at 3/4.  Outcome 3 lies in all
        # three 3-tails (summed size 9), the others in two 3-tails and one
        # 1-tail (7), so the fill visits 4, 2, 1, 3: outcome 4 takes 1/2,
        # outcome 2 1/4 and outcome 1 the last 1/4.  Visiting by label alone,
        # 4, 3, 2, 1, would give outcome 3 the 1/4 that fills the 3-tails of
        # agents 2 and 3 and leave 1/4 with nowhere to go.
        orders = [(1, 2, 3, 4), (4, 3, 1, 2), (2, 3, 4, 1)]
        point, certificate = feas._implementing_point(4, (1, 3), (2, 3), 4, orders)
        assert (point, certificate) == (([1, 1, 0, 2], 4), None)


class TestLazyMasks:
    def test_folded_masks_count_as_eager_ones(self, monkeypatch):
        totals = _check_fold_against_eager(monkeypatch, _SCAN_CORPUS)
        assert totals["requests"] > 0 and totals["feasible"] > 0 and totals["infeasible"] > 0, totals

    def test_pool_covers_sum_the_tails(self, monkeypatch):
        # Every fourth input of the corpus; `tests/scan_sweep.py` runs all.
        adds, distinct = _check_covers_against_tail_sums(monkeypatch, _SCAN_CORPUS[::4])
        assert distinct > 1, (adds, distinct)


class TestLargeScans:
    # Feasible scans above the benchmark's sizes, where most runs of systems
    # share their common pool bits with an earlier run.  The counts, library
    # profiles included, were recorded before `_scan_chunk` kept the union
    # of covers per set of common bits.
    @pytest.mark.parametrize("make, n, checked", [(vt, 6, 5_461_527), (rd, 4, 6_378_751)], ids=["vt-6-8", "rd-4-8"])
    def test_scan_count_is_pinned(self, make, n, checked):
        report = is_feasible(make(n, 8), n, jobs=1, use_hull=False)
        assert (report.verdict, report.method, report.profiles_checked) == ("feasible", "scan", checked)


def fraction_tail_program(p, ks, caps, orders):
    """Test oracle: the tail rows of `orders` laid out in `Fraction`s."""
    rows = [Constraint((F(1),) * p, "=", F(1))]
    for order in orders:
        for k, cap in zip(ks, caps):
            rows.append(Constraint(tuple(F(a in order[:k]) for a in range(1, p + 1)), "<=", cap))
    return FractionProgram(p, tuple(rows), (F(0),) * p)


def oracle_rows(program):
    """The rows of a `Fraction` program, in lowest terms."""
    return [row(con.coeffs, con.rel, con.rhs) for con in program.constraints]


class TestIntegerRows:
    def test_rows_match_the_fraction_program(self):
        import worstvote.feasibility as feas

        rng = random.Random(12)
        caps_seen = set()
        statuses = set()
        for _ in range(400):
            n, p = rng.randint(1, 4), rng.randint(2, 7)
            lam = rand_lottery(p, rng, grain=rng.choice((3, 4, 12, 30)))
            prof = Profile(tuple(Preference(tuple(rng.sample(range(1, p + 1), p))) for _ in range(n)))
            orders = [pref.order for pref in prof.prefs]
            cum = lam.cumulative()
            ks = active_ranks(lam)
            oracle = fraction_tail_program(p, ks, [cum[k - 1] for k in ks], orders)
            program = implement_program(lam, prof)
            assert fraction_program(program) == oracle
            assert list(program.constraints) == oracle_rows(oracle)
            # Every rank, as the master lays it out, where caps of 0 and 1 occur.
            every_rank = feas._tail_rows(p, range(1, p), *_scaled(cum[:-1]), orders)
            assert every_rank == oracle_rows(fraction_tail_program(p, range(1, p), cum[:-1], orders))
            caps_seen.update(cum[:-1])
            statuses.add(solve(implement_program(lam, prof)).status)
        assert {0, 1} <= caps_seen
        assert statuses == {"optimal", "infeasible"}

    def test_pool_bound_is_exact(self):
        import worstvote.feasibility as feas

        # One active rank: each layout's tail is one outcome, capped at 1/3.
        ks, caps = (1,), [1]
        layouts, holding, _ = feas._scan_layouts(3, ks)
        spares_first = [layout[0] != 1 for layout in layouts]
        # At 2**60 + 1 units the cap times the scale is an integer that no
        # float holds.
        for unit in (1, 5, 2**60 + 1):
            covers, rows = [], []
            # every tail at its cap, then outcome 1 over it by 1 / scale
            feas._add_to_pool(covers, rows, [unit, unit, unit], 3 * unit, caps, 3, holding, 3)
            feas._add_to_pool(covers, rows, [unit + 1, unit, unit - 1], 3 * unit, caps, 3, holding, 3)
            assert covers == [0b111, sum(1 << i for i, spared in enumerate(spares_first) if spared)]
            # The byte copies hold the same bits, one byte for three layouts.
            assert rows == [bytes([cover]) for cover in covers]

    @pytest.mark.parametrize("p, ks", TestLayoutMemo.BENCH_KEYS + [(8, (1, 2, 3, 4)), (8, (1, 3, 5))], ids=str)
    def test_pool_covers_are_tail_sum_covers(self, monkeypatch, p, ks):
        import worstvote.feasibility as feas

        from .eager_pool import tail_sum_cover

        # Random integer points of every support size, in units of 1 or of
        # 2**60 + 1, over their total, and caps of two kinds: the tail
        # masses of a random layout, moved by -1, 0 or 1, over the total, so
        # that many tails sit at their cap or one unit from it; and random
        # caps over 12, which the total need not divide.
        monkeypatch.setattr(feas, "_layout_memo", {})
        layouts, holding, _ = feas._scan_layouts(p, ks)
        count = len(layouts)
        rng = random.Random(p * 100 + len(ks))
        checked = 0
        for size in range(1, p + 1):
            for unit in (1, 2**60 + 1) * 3:
                mass = [0] * p
                for a in rng.sample(range(p), size):
                    mass[a] = rng.choice((1, 2, 3, rng.randint(1, 50))) * unit
                scale = sum(mass)
                layout = rng.choice(layouts)
                near = [sum(mass[a - 1] for a in layout[:k]) + rng.choice((-1, 0, 1)) for k in ks]
                spread = sorted(rng.randint(0, 12) for _ in ks)
                for caps, cap_den in ((near, scale), (spread, 12)):
                    covers, rows = [], []
                    feas._add_to_pool(covers, rows, mass, scale, caps, cap_den, holding, count)
                    assert covers == [tail_sum_cover(layouts, ks, mass, scale, caps, cap_den)], (mass, caps)
                    assert rows == [covers[0].to_bytes((count + 7) // 8, "little")]
                    checked += covers[0] not in (0, (1 << count) - 1)
        assert checked > 0


def _meets_tail_rows(ell, mu, prof):
    """`lp._meets`, the exact check every implementing point passes, on the
    tail rows of `mu` at `prof`."""
    from worstvote.lp import _meets

    return _meets(implement_program(mu, prof).constraints, *_scaled(ell))


def _implements_by_definition(ell, mu, prof):
    """Oracle: every agent's rank rearrangement of ell dominates mu."""
    from worstvote.profiles import OutcomeLottery

    return all(dominates(rank_rearrange(OutcomeLottery(tuple(ell)), pref), mu) for pref in prof.prefs)


class TestTailRowCheck:
    def test_agrees_with_the_implementation_rows(self):
        from .test_profiles import random_profile

        rng = random.Random(3)
        verdicts = []
        for _ in range(600):
            n, p = rng.randint(1, 4), rng.randint(2, 7)
            mu, prof = rand_lottery(p, rng), random_profile(n, p, rng)
            ell = _implement_at(mu, prof)
            if ell is None or rng.random() < 0.5:
                ell = rand_lottery(p, rng, grain=rng.choice((5, 12, 30))).probs
            else:
                # a vertex, moved by a small step from one outcome to another
                ell = list(ell.mass)
                src, dst = rng.sample(range(p), 2)
                step = min(ell[src], F(1, rng.choice((7, 60))))
                ell[src] -= step
                ell[dst] += step
            verdict = _meets_tail_rows(ell, mu, prof)
            assert verdict == _implements_by_definition(ell, mu, prof), (ell, mu, prof)
            verdicts.append(verdict)
        assert 100 < sum(verdicts) < 500

    def test_tail_at_its_cap_passes_and_one_step_over_fails(self):
        # Only the last agent's worst outcome is binding.  At 1/3 it sits
        # at its cap; at 2/5 it is over it by 1/15, the smallest step
        # between fifths and thirds (2 * 3 == 1 * 5 + 1 cross-multiplied).
        mu, prof = uniform(3), profile([(2, 3, 1), (1, 2, 3)])
        at_cap = (F(1, 3), F(1, 3), F(1, 3))
        over = (F(2, 5), F(1, 5), F(2, 5))
        assert _meets_tail_rows(at_cap, mu, prof) and _implements_by_definition(at_cap, mu, prof)
        assert not _meets_tail_rows(over, mu, prof) and not _implements_by_definition(over, mu, prof)


class TestBalancedFamilies:
    def test_partition_case(self):
        fam = balanced_family(6, 2, 4)
        assert fam is not None
        assert all(w == 1 for w in fam.weights)
        assert fam.is_balanced(6)

    def test_cyclic_interval_case(self):
        fam = balanced_family(5, 2, 4)
        assert fam is not None
        assert [sorted(s) for s in fam.sets] == [[1, 2], [3, 4], [3, 5], [4, 5]]
        assert list(fam.weights) == [F(1), F(1, 2), F(1, 2), F(1, 2)]

    def test_double_odd_case(self):
        fam = balanced_family(12, 5, 6)
        assert fam is not None
        assert len(fam.sets) == 6
        assert all(len(s) == 5 for s in fam.sets)
        assert fam.is_balanced(12)

    def test_double_even_case(self):
        fam = balanced_family(14, 6, 7)
        assert fam is not None
        assert len(fam.sets) <= 7
        assert fam.is_balanced(14)

    @pytest.mark.parametrize("p, k, n", [(6, 2, 4), (5, 2, 4), (12, 5, 6), (14, 6, 7)])
    def test_a_dropped_set_unbalances_the_family(self, p, k, n):
        # Each construction less its first set covers that set's outcomes
        # with weight under one.
        fam = balanced_family(p, k, n)
        assert fam.is_balanced(p)
        assert not replace(fam, sets=fam.sets[1:], weights=fam.weights[1:]).is_balanced(p)

    def test_unsupported_contexts_return_none(self):
        assert balanced_family(7, 3, 4) is None  # p = 2n - 1
        assert balanced_family(8, 3, 4) is None  # excluded doubling
        assert balanced_family(10, 4, 5) is None

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            balanced_family(6, 0, 4)
        with pytest.raises(ValueError):
            balanced_family(6, 4, 5)
        # k = 1 is the p singletons, one agent each.
        assert balanced_family(6, 1, 4) is None
        fam = balanced_family(4, 1, 4)
        assert fam is not None
        assert fam.sets == tuple(frozenset({a}) for a in range(1, 5))
        assert all(w == 1 for w in fam.weights)


def _twelfths_grid(stride):
    """Every `stride`-th input (n, lam) of the n >= p grid: each lottery over
    twelfths at p = 2..7, at n = p..p+2."""
    grid = (
        (n, p, bars)  # the p - 1 bars among p + 11 places that cut 12 twelfths
        for p in range(2, 8)
        for n in range(p, p + 3)
        for bars in itertools.combinations(range(p + 11), p - 1)
    )
    for n, p, bars in itertools.islice(grid, 0, None, stride):
        yield n, RankLottery(tuple(F(hi - lo - 1, 12) for lo, hi in zip((-1, *bars), (*bars, p + 11))))


def _check_uniform_theorem(monkeypatch, stride):
    """Decide every `stride`-th input of `_twelfths_grid` with the mixture,
    the library profiles and the scan patched to raise: feasible exactly
    when the uniform dominates, no profile LP, and every refutation a cut
    whose certificate re-verifies.  Returns the inputs by verdict."""

    def unreachable(*args, **kwargs):
        raise AssertionError("an n >= p input left the cuts")

    for name in ("_hull_mixture", "hard_profiles", "_scan"):
        monkeypatch.setattr(feas, name, unreachable)
    decided = {"feasible": 0, "infeasible": 0}
    for n, lam in _twelfths_grid(stride):
        report = is_feasible(lam, n)
        assert report.feasible == dominates(uniform(lam.p), lam), (n, lam)
        assert report.profiles_checked == 0, (n, lam)
        if not report.feasible:
            assert report.method.startswith("cut:"), (n, lam, report.method)
            program = implement_program(lam, report.witness_profile)
            assert verify_infeasibility(program, report.witness_certificate), (n, lam)
        decided[report.verdict] += 1
    return decided


class TestUniformTheorem:
    def test_the_cuts_decide_every_input_at_n_at_least_p(self, monkeypatch):
        # A slice of the grid; tests/scan_sweep.py runs all 81,393 inputs.
        decided = _check_uniform_theorem(monkeypatch, 20)
        assert min(decided.values()) > 0, decided

    def test_the_last_rank_needs_the_singleton_cut(self):
        # The uniform bounds every cumulative but the last: no cover cut and
        # no balanced cut below rank p - 1 refutes it, the singletons do.
        lam = parse_lottery("1/6,1/6,1/6,1/6,0,1/3")
        report = is_feasible(lam, 6)
        assert report.method == "cut:balanced:k=5"
        assert report.profiles_checked == 0

    def test_the_uniform_passes_every_cut(self):
        # Every cut is tight at the uniform, at n < p as at n >= p.
        for p in range(1, 10):
            for n in range(2, p + 3):
                assert necessary_cuts(uniform(p), n) is None, (n, p)
                report = is_feasible(uniform(p), n)
                assert report.feasible and report.profiles_checked == 0, (n, p)

    def test_each_rank_carries_the_uniform_bound(self):
        # At n >= p, moving 1/(2p) of the uniform from rank k up to rank k + 1
        # puts cum_k just under k/p and is refuted by a cut at rank k; moving
        # it down keeps the guarantee dominated by the uniform.
        for p in range(2, 8):
            for n in range(p, p + 3):
                for k in range(1, p):
                    for shift in (-1, 1):
                        probs = [F(1, p)] * p
                        probs[k - 1] -= shift * F(1, 2 * p)
                        probs[k] += shift * F(1, 2 * p)
                        lam = RankLottery(tuple(probs))
                        report = is_feasible(lam, n)
                        assert report.profiles_checked == 0, (n, lam)
                        if shift < 0:
                            assert report.feasible, (n, lam)
                            continue
                        assert report.verdict == "infeasible", (n, lam)
                        if n > 2:
                            assert report.method in (f"cut:cover:k={k}", f"cut:balanced:k={k}"), (n, lam)
                        program = implement_program(lam, report.witness_profile)
                        assert verify_infeasibility(program, report.witness_certificate), (n, lam)


class TestNecessaryCuts:
    def test_veto_passes_tight(self):
        assert necessary_cuts(vt(3, 6), 3) is None

    def test_cover_violation(self):
        cut = necessary_cuts(lottery([0, 0, 1, 0, 0, 0]), 3)
        assert cut is not None
        assert cut.kind == "cover"
        assert cut.k == 2
        # the witness profile genuinely blocks the lottery
        assert _implement_at(lottery([0, 0, 1, 0, 0, 0]), cut.witness) is None

    def test_two_agent_reversal(self):
        cut = necessary_cuts(lottery([0, 0, 0, 0, 0, 1]), 2)
        assert cut is not None
        assert cut.kind == "two-agent"

    @pytest.mark.parametrize(
        "text, n, method",
        [
            # partition: p = 6, k = 4 > p/2, the 2-sets {1,2}, {3,4}, {5,6} held best
            ("1/6,1/6,1/6,1/12,1/4,1/6", 3, "cut:balanced:k=4"),
            # cyclic: p = 5, k = 2 does not divide it
            ("1/5,1/6,7/30,1/5,1/5", 4, "cut:balanced:k=2"),
            # double: p = 2n = 12, k = n - 1 = 5
            ("1/12,1/12,1/12,1/12,1/24,1/8,1/12,1/12,1/12,1/12,1/12,1/12", 6, "cut:balanced:k=5"),
        ],
    )
    def test_balanced_cut_with_witness(self, text, n, method):
        # Each family construction of `balanced_family` refutes an input that
        # every cover cut passes, below n = p, before any profile is checked.
        lam = parse_lottery(text)
        cut = necessary_cuts(lam, n)
        assert cut is not None and f"cut:{cut.kind}:k={cut.k}" == method
        assert _implement_at(lam, cut.witness) is None
        report = is_feasible(lam, n)
        assert report.method == method and report.profiles_checked == 0
        assert report.witness_profile == cut.witness
        assert verify_infeasibility(implement_program(lam, cut.witness), report.witness_certificate)
