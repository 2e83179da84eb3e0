import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

import worstvote.feasibility as feasibility
import worstvote.lp as lp
import worstvote.maximality as maximality
from worstvote.feasibility import is_feasible, verified_anchors
from worstvote.lottery import (
    convex_combination,
    dominates,
    dual,
    is_symmetric,
    lottery,
    parse_lottery,
    rd,
    uniform,
    vt,
)
from worstvote.maximality import (
    forcing_profile,
    forcing_value,
    is_maximal,
)
from worstvote.lp import _scaled, solve
from worstvote.profiles import identical_profile, reversal_profile

from .fraction_lp import row
from .orbits import enumerate_profiles
from .test_lottery import rand_lottery
from .test_profiles import profile

F = Fraction

LEFT_SHOWCASE = profile([(1, 2, 4, 5, 6, 3), (2, 3, 5, 6, 4, 1), (3, 1, 6, 4, 5, 2)])
RIGHT_SHOWCASE = profile([(1, 4, 5, 6, 2, 3), (2, 5, 6, 4, 3, 1), (3, 6, 4, 5, 1, 2)])


class TestImprove:
    """The search for a feasible guarantee strictly dominating the input."""

    def test_named_guarantees_cannot_improve(self):
        for lam in (uniform(6), vt(3, 6), rd(3, 6)):
            report = is_maximal(lam, 3)
            assert report.improver is None
            assert report.verdict == "maximal"

    def test_single_veto_improved(self):
        report = is_maximal(lottery([0, 1, 0, 0, 0, 0]), 3)
        assert report.verdict == "dominated"
        assert dominates(report.improver, lottery([0, 1, 0, 0, 0, 0]))
        assert is_feasible(report.improver, 3).feasible

    def test_half_mix_improved_by_uniform(self):
        mix = parse_lottery("1/6,1/3,1/6,1/6,0,1/6")
        assert is_maximal(mix, 3).verdict == "dominated"
        assert dominates(uniform(6), mix)

    def test_time_budget_gives_undecided(self):
        report = is_maximal(vt(3, 6), 3, time_budget=0.0)
        assert report.verdict == "undecided"

    def test_time_budget_is_granted_once(self, monkeypatch):
        # The feasibility check uses up the whole budget on a fake clock, so
        # the cutting-plane loop must get no time of its own.
        clock = [0.0]
        real_is_feasible = maximality.is_feasible

        def slow_is_feasible(*args, **kwargs):
            clock[0] += 2.0
            return real_is_feasible(*args, **kwargs)

        monkeypatch.setattr(
            maximality, "time", SimpleNamespace(monotonic=lambda: clock[0], perf_counter=time.perf_counter)
        )
        monkeypatch.setattr(maximality, "is_feasible", slow_is_feasible)
        lam = convex_combination([(F(1, 2), uniform(6)), (F(1, 2), vt(3, 6))])
        report = is_maximal(lam, 3, time_budget=1.0)
        assert (report.verdict, report.iterations) == ("undecided", 0)

    def test_an_undecided_candidate_check_is_undecided(self, monkeypatch):
        # The first call checks the input; every candidate's check after it
        # is undecided, so the loop stops at the first candidate that
        # survives the stored cuts and the working profiles.
        real_is_feasible = maximality.is_feasible
        calls = []

        def undecided_from_the_second(lam, n, **kwargs):
            calls.append(lam)
            if len(calls) == 1:
                return real_is_feasible(lam, n, **kwargs)
            return feasibility.FeasibilityReport("undecided", n, lam.p, method="time-limit")

        monkeypatch.setattr(maximality, "_cut_stores", {})
        monkeypatch.setattr(maximality, "is_feasible", undecided_from_the_second)
        report = is_maximal(parse_lottery("1/3,1/12,1/6,1/4,1/6"), 3)
        assert (report.verdict, report.improver, report.iterations) == ("undecided", None, 10)
        assert report.method == "time-limit"
        assert len(calls) == 2

    def test_one_profile_budget_covers_every_check(self, monkeypatch):
        # From an empty store the input's check scans 647 tail systems, three
        # candidates' 27, 23 and 5,055, and the improver's 88,427: 94,179 in
        # all.  Each check gets what the ones before it left of the limit.
        # At (3,5) the anchors' hull, covers included, proves every feasible
        # lottery in twelfths, thirteenths and twentieths, so no (3,5) input
        # found has two checks that scan.
        real_is_feasible = maximality.is_feasible
        reports = []

        def recorded(*args, **kwargs):
            reports.append(real_is_feasible(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(maximality, "is_feasible", recorded)
        lam = parse_lottery("1/2,0,0,0,1/2,0,0")
        outcomes = {}
        for limit in (648, 94178, 94179):
            monkeypatch.setattr(maximality, "_cut_stores", {})
            reports.clear()
            report = is_maximal(lam, 3, limit_profiles=limit)
            assert sum(r.profiles_checked for r in reports) <= limit
            outcomes[limit] = (report.verdict, report.method)
        assert [(r.method, r.profiles_checked) for r in reports] == [
            ("scan", 647), ("scan", 27), ("scan", 23), ("scan", 5055), ("scan", 88427),
        ]
        assert outcomes == {
            648: ("undecided", "profile-limit"),
            94178: ("undecided", "profile-limit"),
            94179: ("dominated", "candidate-feasible"),
        }

    def test_undecided_verdicts_name_their_cause(self, monkeypatch):
        # A time limit, a profile limit (reached while the input's
        # feasibility is checked), and a candidate check that no limit
        # stopped but that could not decide (a scan too large to run) give
        # three methods, though the rest of their reports can read alike.
        mid = convex_combination([(F(1, 2), uniform(6)), (F(1, 2), vt(3, 6))])
        lam = parse_lottery("1/3,0,0,1/3,1/3,0,0")
        reports = {
            "time-limit": is_maximal(mid, 3, time_budget=0.0),
            "profile-limit": is_maximal(lam, 3, limit_profiles=3),
        }
        real_is_feasible = maximality.is_feasible

        def too_large_from_the_second(mu, n, **kwargs):
            if mu == lam:
                return real_is_feasible(mu, n, **kwargs)
            return feasibility.FeasibilityReport("undecided", n, mu.p, method="scan-too-large:300000-chains")

        monkeypatch.setattr(maximality, "_cut_stores", {})
        monkeypatch.setattr(maximality, "is_feasible", too_large_from_the_second)
        reports["feasibility-undecided"] = is_maximal(lam, 3)
        for method, report in reports.items():
            assert (report.verdict, report.improver, report.method) == ("undecided", None, method)
        # The limits stop before the first iteration: no count tells them apart.
        assert [reports[method].iterations for method in ("time-limit", "profile-limit")] == [0] * 2

    def test_decided_verdicts_name_their_step(self, monkeypatch):
        monkeypatch.setattr(maximality, "_cut_stores", {})
        cases = [
            ("0,1/2,0,0,1/2,0", 2, "maximal", "two-agent"),
            ("1/2,0,0,1/2,0,0", 2, "dominated", "two-agent"),
            ("0,1,0,0,0,0", 3, "dominated", "anchor-dominates"),
            ("0,1/3,1/3,1/3,0,0", 3, "maximal", "master-dual"),
            # The midpoint of vt(3,6) and the uniform, on the face that the
            # master's dual at vt(3,6) supports.
            ("1/12,1/4,1/4,1/4,1/12,1/12", 3, "maximal", "stored-dual"),
            ("1/3,1/12,1/6,1/4,1/6", 3, "dominated", "candidate-feasible"),
        ]
        for text, n, verdict, method in cases:
            report = is_maximal(parse_lottery(text), n)
            assert (report.verdict, report.method) == (verdict, method), text

    def test_improver_is_strict_and_feasible(self):
        rng = random.Random(0)
        checked = 0
        while checked < 6:
            lam = rand_lottery(5, rng)
            if not is_feasible(lam, 3).feasible:
                continue
            checked += 1
            report = is_maximal(lam, 3)
            if report.verdict == "dominated":
                assert report.improver.probs != lam.probs
                assert dominates(report.improver, lam)
                assert is_feasible(report.improver, 3).feasible


def test_proof_checks_survive_optimize():
    # Under -O, `assert` statements are stripped; the cut's and the
    # master's checks must still raise.
    script = """if True:
        import sys
        from fractions import Fraction as F
        from types import SimpleNamespace
        from worstvote import feasibility, lp, maximality
        from worstvote.lottery import parse_lottery
        raised = []

        def attempt(label, call):
            try:
                call()
            except AssertionError:
                raised.append(label)

        attempt("inactive", lambda: maximality._cover_cut((), (F(-1), F(1)), 3))
        attempt("direction", lambda: maximality._cover_cut((1,), (F(0), F(1)), 3))
        # At (3,3) the uniform is the only anchor, and it does not dominate
        # this input, so the call reaches the master.
        lam = parse_lottery("0,1,0")
        maximality.is_feasible = lambda lam, n, **kwargs: feasibility.FeasibilityReport("feasible", n, lam.p)
        maximality.solve = lambda program: SimpleNamespace(status=lp.INFEASIBLE)
        attempt("master", lambda: maximality.is_maximal(lam, 3))
        maximality.solve = lambda program: SimpleNamespace(status=lp.OPTIMAL, point=([1, 0, 0], 1))
        attempt("slack", lambda: maximality.is_maximal(lam, 3))
        print(sys.flags.optimize, *raised)
    """
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(maximality.__file__)))
    run = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True,
                         timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["1", "inactive", "direction", "master", "slack"]


class TestIsMaximal:
    def test_two_agent_symmetric_vertex(self):
        report = is_maximal(parse_lottery("0,1/2,0,0,1/2,0"), 2)
        assert report.verdict == "maximal"

    def test_boundary_pair_at_five_outcomes(self):
        report = is_maximal(parse_lottery("1/2,0,0,1/2,0"), 3)
        assert report.verdict == "maximal"

    def test_uniform_everywhere(self):
        for n, p in ((2, 5), (3, 6), (4, 3), (3, 3)):
            assert is_maximal(uniform(p), n).verdict == "maximal"

    def test_rejects_infeasible_input(self):
        # Maximality is defined inside F(n, p) only, and `is_maximal` is the
        # one public route to a verdict: it refutes each of these before any
        # step that could answer "maximal".
        import worstvote

        assert not hasattr(worstvote, "improve") and not hasattr(maximality, "improve")
        for text in ("0,0,0,0,0,1", "0,0,0,1/2,0,1/2", "0,0,1,0,0,0"):
            assert is_feasible(parse_lottery(text), 3).verdict == "infeasible"
            with pytest.raises(ValueError):
                is_maximal(parse_lottery(text), 3)

    def test_two_agent_agreement_with_symmetry(self):
        rng = random.Random(1)
        seen = 0
        while seen < 25:
            lam = rand_lottery(6, rng)
            if not is_feasible(lam, 2).feasible:
                continue
            seen += 1
            report = is_maximal(lam, 2)
            assert (report.verdict == "maximal") == is_symmetric(lam)

    def test_duality_transport(self):
        cases = [vt(3, 6), rd(3, 6), parse_lottery("1/6,1/3,1/6,1/6,0,1/6")]
        for lam in cases:
            assert is_maximal(lam, 3).verdict == is_maximal(dual(lam), 3).verdict

    def test_radius_closure(self):
        lam = vt(3, 6)
        for alpha in (F(1, 4), F(2, 3)):
            mid = convex_combination([(1 - alpha, uniform(6)), (alpha, lam)])
            assert is_maximal(mid, 3).verdict == "maximal"

    def test_improver_attached_in_report(self):
        report = is_maximal(parse_lottery("2/3,0,0,0,0,1/3"), 3)
        assert report.verdict == "dominated"
        assert dominates(report.improver, parse_lottery("2/3,0,0,0,0,1/3"))

    def test_witness_cache_keeps_no_duplicates(self, monkeypatch):
        # Each cut row joins the store for (3, 5) once, and each profile is
        # held once; a second call finds them there instead of adding
        # them again.
        import worstvote.maximality as maximality

        monkeypatch.setattr(maximality, "_cut_stores", {})
        lam = parse_lottery("37/120,11/60,1/10,4/15,17/120")
        sizes = []
        for _ in range(2):
            assert is_maximal(lam, 3).verdict == "dominated"
            store = maximality._cut_stores[(3, 5)]
            entries = list(store.cuts.values())
            rows = [(tuple(ints), den) for (ints, den, _), _ in entries]
            held = [prof for _, prof in entries]
            assert len(set(rows)) == len(rows) and list(store.cuts) == rows
            assert len({id(prof) for prof in held}) == len(set(held)) == len(store.profiles)
            sizes.append((len(rows), len(store.profiles)))
        assert sizes[0] == sizes[1] and sizes[0][0] >= 1

    def test_mixtures_along_dictator_headed_prefixes(self):
        # mixing the guarantees of nested dictator-headed words stays maximal
        from worstvote.compose import canonical_word

        head = canonical_word("RD", 3, 7)
        deeper = canonical_word("RD,VT", 3, 7)
        for w in (F(1, 3), F(3, 4)):
            mix = convex_combination([(w, head), (1 - w, deeper)])
            assert is_maximal(mix, 3).verdict == "maximal"


def _bench_like_points():
    """Seeded points like the maximality bench's: on the (3,5) segments from
    the uniform to the four boundary guarantees and the (3,6) segments to vt
    and rd, all maximal, and in the dominated interior of the (3,6) triangle
    spanned by the uniform, vt and rd."""
    rng = random.Random(21)
    u5, u6 = uniform(5), uniform(6)
    ends = [vt(3, 5), rd(3, 5), parse_lottery("1/2,0,0,1/2,0"), parse_lottery("1/3,0,1/3,1/3,0"),
            vt(3, 6), rd(3, 6)]
    points = []
    for end in ends:
        w = F(rng.randint(400, 600), 1000)
        points.append((convex_combination([(1 - w, u5 if end.p == 5 else u6), (w, end)]), "maximal"))
    for _ in range(2):
        a, b = F(rng.randint(180, 220), 1200), F(rng.randint(180, 220), 1200)
        points.append((convex_combination([(1 - a - b, u6), (a, vt(3, 6)), (b, rd(3, 6))]), "dominated"))
    return points


def _holds(cut, lam):
    """The cut row ``(ints, den, >=)`` holds at `lam`, checked in integers."""
    ints, _, rel = cut
    x, scale = _scaled(lam.probs)
    assert rel == ">="
    return sum(a * v for a, v in zip(ints, x)) >= ints[-1] * scale


class TestCutStore:
    """The cuts kept per (n, p) hold on all of F(n, p), so the verdicts do
    not depend on what the store holds or in which order it is read."""

    def test_stored_cuts_hold_and_leave_verdicts_alone(self, monkeypatch):
        certified = []
        certify = lp._Tableau.certify
        built = []
        real_solve = maximality.solve

        carried = []  # per master built, whether it carries every stored cut

        def counting_solve(program):
            built.append(program.num_vars)
            store = maximality._cut_stores[3, program.num_vars]
            carried.append(all(cut in program.constraints for cut, _ in store.cuts.values()))
            return real_solve(program)

        def counting_certify(master):
            dual = certify(master)
            certified.append(master)
            return dual

        monkeypatch.setattr(lp._Tableau, "certify", counting_certify)
        monkeypatch.setattr(maximality, "solve", counting_solve)
        monkeypatch.setattr(maximality, "_cut_stores", {})
        points = _bench_like_points()
        expected = [verdict for _, verdict in points]

        # A warm store: each query moves the master of those before it, which
        # already holds every cut they found, to its own caps.
        assert [is_maximal(lam, 3).verdict for lam, _ in points] == expected
        assert len(certified) == expected.count("maximal")
        assert sorted(built) == [5, 6]
        stores = maximality._cut_stores
        assert set(stores) == {(3, 5), (3, 6)} and all(store.cuts for store in stores.values())

        rng = random.Random(7)
        for (n, p), store in stores.items():
            base = [uniform(p), *verified_anchors(n, p)]
            lotteries = list(base)
            for _ in range(30):
                weights = [rng.randint(0, 9) for _ in base]
                weights[rng.randrange(len(weights))] += 1
                total = sum(weights)
                lotteries.append(convex_combination([(F(w, total), lam) for w, lam in zip(weights, base)]))
            for cut, prof in store.cuts.values():
                assert (prof.n, prof.p) == (n, p)
                assert all(_holds(cut, lam) for lam in lotteries), cut

        # The same store read in reverse order, by a fresh master built with
        # every stored cut.
        for key, store in list(stores.items()):
            reverse = maximality._CutStore()
            for cut, prof in reversed(list(store.cuts.values())):
                reverse.add(cut, prof)
            stores[key] = reverse
        built.clear()
        carried.clear()
        assert [is_maximal(lam, 3).verdict for lam, _ in points] == expected
        assert sorted(built) == [5, 6] and carried == [True, True]

        # An empty store for every query.
        cold = []
        for lam, _ in points:
            stores.clear()
            cold.append(is_maximal(lam, 3).verdict)
        assert cold == expected
        assert len(certified) == 3 * expected.count("maximal")


def _anchor_mixtures():
    """25 seeded mixtures each at (3,5), (3,6), (4,6) and (3,7), shuffled:
    of two or three of the uniform and the verified anchors, with random
    weights."""
    rng = random.Random(13)
    points = []
    for n, p in ((3, 5), (3, 6), (4, 6), (3, 7)):
        base = [uniform(p), *verified_anchors(n, p)]
        for _ in range(25):
            chosen = rng.sample(base, rng.choice((2, 2, 3)))
            weights = [rng.randint(1, 9) for _ in chosen]
            total = sum(weights)
            points.append((n, convex_combination([(F(w, total), lam) for w, lam in zip(weights, chosen)])))
    rng.shuffle(points)
    return points


class TestWarmMaster:
    """One master per (n, p), moved to each input's caps, decides as a
    master built for the input alone does."""

    def test_warm_and_cold_masters_agree_and_duals_share_verdicts(self, monkeypatch):
        certified = []
        certify = lp._Tableau.certify
        rechecked = []  # per stored dual tried in full, whether it proved its input maximal
        bounds = maximality._bounds
        built = []
        real_solve = maximality.solve

        def counting_bounds(*args):
            rechecked.append(bounds(*args))
            return rechecked[-1]

        def counting_certify(master):
            dual = certify(master)
            certified.append(master)
            return dual

        def counting_solve(program):
            built.append(program.num_vars)
            return real_solve(program)

        monkeypatch.setattr(lp._Tableau, "certify", counting_certify)
        monkeypatch.setattr(maximality, "_bounds", counting_bounds)
        monkeypatch.setattr(maximality, "solve", counting_solve)
        monkeypatch.setattr(maximality, "_cut_stores", {})
        points = _anchor_mixtures()

        reports = [is_maximal(lam, n) for n, lam in points]
        warm = [report.verdict for report in reports]
        stores = maximality._cut_stores
        assert set(stores) == {(3, 5), (3, 6), (4, 6), (3, 7)}
        assert sorted(built) == sorted(p for _, p in stores) and all(store.master for store in stores.values())
        # Each maximal verdict is proved once: by the dual that `certify`
        # checked on its master, or by a stored dual that `_bounds`
        # re-checked at its caps.
        assert all(rechecked) and [r.method for r in reports].count("stored-dual") == len(rechecked) > 0
        assert len(certified) + len(rechecked) == warm.count("maximal")
        assert sum(len(store.duals) for store in stores.values()) == len(certified)
        assert warm.count("maximal") > 50 and warm.count("dominated") > 10, warm

        # A fresh store, and so a fresh master and no stored dual, for each point.
        proved = len(certified)
        cold = []
        for n, lam in points:
            stores.clear()
            cold.append(is_maximal(lam, n).verdict)
        assert cold == warm
        assert len(certified) - proved == warm.count("maximal")

        # `dual` keeps the verdict (`lottery.dual` states this as observed).
        assert [is_maximal(dual(lam), n).verdict for n, lam in points] == warm

    def test_the_store_never_receives_a_cut_twice(self, monkeypatch):
        # Each cut the loop finds is violated by a candidate that meets
        # every cut in the master, so no cut reaches the store twice, as
        # long as each master holds every stored cut; the store's keyed
        # dict would hide a second add.  The second pass runs on the
        # masters that the first handed over.
        grown = []
        add = maximality._CutStore.add

        def counting_add(store, cut, prof):
            before = len(store.cuts)
            add(store, cut, prof)
            grown.append(len(store.cuts) - before)

        monkeypatch.setattr(maximality._CutStore, "add", counting_add)
        monkeypatch.setattr(maximality, "_cut_stores", {})
        points = _anchor_mixtures()
        for _ in range(2):
            for n, lam in points:
                is_maximal(lam, n)
        assert grown and grown == [1] * len(grown)


class TestStoredDuals:
    """A certified master dual kept in the store proves every later input
    at which its bound equals the input's objective, and no other."""

    def test_segment_duals_leave_the_triangle_interior_dominated(self, monkeypatch):
        monkeypatch.setattr(maximality, "_cut_stores", {})
        rng = random.Random(21)
        u6, vt6, rd6 = uniform(6), vt(3, 6), rd(3, 6)
        methods = []
        for end in (vt6, rd6):
            for _ in range(4):
                w = F(rng.randint(400, 600), 1000)
                report = is_maximal(convex_combination([(1 - w, u6), (w, end)]), 3)
                assert report.verdict == "maximal"
                methods.append(report.method)
        assert set(methods) == {"master-dual", "stored-dual"}
        assert len(maximality._cut_stores[3, 6].duals) == methods.count("master-dual")
        for _ in range(4):
            a, b = F(rng.randint(180, 220), 1200), F(rng.randint(180, 220), 1200)
            lam = convex_combination([(1 - a - b, u6), (a, vt6), (b, rd6)])
            report = is_maximal(lam, 3)
            assert report.verdict == "dominated" and dominates(report.improver, lam)

    def test_a_tampered_stored_dual_raises(self, monkeypatch):
        # The dual's equation still holds at the second point on vt(3,6)'s
        # face, but the dual no longer bounds the master there: the call
        # raises (a `raise`, so also under -O) and leaves the master alone.
        monkeypatch.setattr(maximality, "_cut_stores", {})
        assert is_maximal(vt(3, 6), 3).method == "master-dual"
        store = maximality._cut_stores[3, 6]
        master = store.master
        (z, z_den, m, weights, const), = store.duals
        store.duals[0] = ([z[0] + 1, *z[1:]], z_den, m, weights, const)
        with pytest.raises(AssertionError, match="stored dual"):
            is_maximal(parse_lottery("1/12,1/4,1/4,1/4,1/12,1/12"), 3)
        assert store.master is master


class TestAgainstMonolithicMaster:
    """The iterative improver must answer exactly like the one-shot LP that
    carries an implementing-lottery block for every canonical profile."""

    @staticmethod
    def literal_master_slack(lam, n, profiles):
        from worstvote.lp import EQ, LE, LinearProgram, solve

        p = lam.p
        cum = lam.cumulative()
        m = len(profiles)
        nv = p + m * p
        rows = [row([1] * p + [0] * (m * p), EQ, 1)]
        for k in range(1, p):
            coeffs = [1 if t < k else 0 for t in range(p)] + [0] * (m * p)
            rows.append(row(coeffs, LE, cum[k - 1]))
        for j, prof in enumerate(profiles):
            base = p + j * p
            coeffs = [0] * nv
            for t in range(p):
                coeffs[base + t] = 1
            rows.append(row(coeffs, EQ, 1))
            for pref in prof.prefs:
                for k in range(1, p):
                    coeffs = [0] * nv
                    for a in pref.order[:k]:
                        coeffs[base + a - 1] = 1
                    for t in range(k):
                        coeffs[t] = -1
                    rows.append(row(coeffs, LE, 0))
        obj = [F(p - t) for t in range(1, p + 1)] + [F(0)] * (m * p)
        result = solve(LinearProgram(nv, tuple(rows), tuple(obj))).result
        assert result.status == "optimal"
        return sum(cum[:-1], F(0)) - result.objective_value

    @pytest.mark.parametrize("n,p", [(2, 3), (3, 3)])
    def test_agreement_on_random_feasible_lotteries(self, n, p):
        profiles = list(enumerate_profiles(n, p))
        rng = random.Random(42)
        tested = 0
        while tested < 6:
            lam = rand_lottery(p, rng, grain=8)
            if not is_feasible(lam, n).feasible:
                continue
            tested += 1
            slack = self.literal_master_slack(lam, n, profiles)
            assert (slack == 0) == (is_maximal(lam, n).verdict == "maximal")


class TestForcingProfiles:
    def test_veto_pinned_by_padded_cycle(self):
        lam = vt(3, 6)
        for k in range(1, 6):
            assert forcing_value(lam, RIGHT_SHOWCASE, k) == lam.cumulative()[k - 1]

    def test_dictator_pinned_by_top_padded_cycle(self):
        lam = rd(3, 6)
        for k in range(1, 6):
            assert forcing_value(lam, LEFT_SHOWCASE, k) == lam.cumulative()[k - 1]

    def test_identical_profile_does_not_pin_uniform(self):
        # mass can hide on the shared best outcome, so the common-preference
        # profile enforces nothing
        lam = uniform(6)
        assert forcing_value(lam, identical_profile(3, 6), 3) == 0

    def test_reversal_profile_pins_uniform(self):
        lam = uniform(6)
        prof = reversal_profile(3, 6)
        for k in range(1, 6):
            assert forcing_value(lam, prof, k) == F(k, 6)

    def test_search_finds_witnesses_for_named_guarantees(self):
        for lam in (uniform(6), vt(3, 6), rd(3, 6)):
            for k in (1, 3, 5):
                prof = forcing_profile(lam, 3, k)
                assert prof is not None
                assert forcing_value(lam, prof, k) == lam.cumulative()[k - 1]

    def test_not_implementable_is_none(self):
        # agents 1 and 2 disagree on the best outcome, so no lottery gives
        # both of them their best for sure
        assert forcing_value(parse_lottery("0,0,0,0,0,1"), reversal_profile(3, 6), 1) is None

    def test_witness_search_solves_one_lp_per_profile(self, monkeypatch):
        lam = vt(3, 6)
        candidates = [
            prof
            for prof in maximality._known_profiles(3, 6)
            if (prof.n, prof.p) == (3, 6)
        ]
        calls = []

        def counting_solve(program):
            calls.append(program)
            return solve(program)

        monkeypatch.setattr(maximality, "solve", counting_solve)
        monkeypatch.setattr(feasibility, "solve", counting_solve)
        for k in range(1, 6):
            before = len(calls)
            prof = forcing_profile(lam, 3, k)
            assert prof is not None
            assert len(calls) - before == candidates.index(prof) + 1

    def test_witnesses_attached_to_report(self):
        report = is_maximal(vt(3, 6), 3, witnesses=True)
        assert report.verdict == "maximal"
        assert set(report.witnesses) == {1, 2, 3, 4, 5}
