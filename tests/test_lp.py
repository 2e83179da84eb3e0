import itertools
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

from worstvote.lottery import lottery
from worstvote.lp import (
    _BOUND,
    LinearProgram,
    LPResult,
    _meets,
    _scaled,
    feasibility_program,
    solve,
    verify_infeasibility,
)

from .fraction_lp import fraction_program, fraction_simplex, row

F = Fraction


def brute_force_minimum(lp):
    """Independent oracle: enumerate every basic point of the constraint
    system (including the nonnegativity facets) and take the least feasible
    value.  Only for tiny programs."""
    lp = fraction_program(lp)
    rows = []
    for c in lp.constraints:
        rows.append((list(c.coeffs), c.rel, c.rhs))
    for j in range(lp.num_vars):
        coeffs = [F(0)] * lp.num_vars
        coeffs[j] = F(1)
        rows.append((coeffs, ">=", F(0)))

    def solve_square(system):
        # Gaussian elimination over the rationals; None if singular.
        m = [list(coeffs) + [rhs] for coeffs, rhs in system]
        size = len(m)
        for col in range(size):
            pivot = next((r for r in range(col, size) if m[r][col] != 0), None)
            if pivot is None:
                return None
            m[col], m[pivot] = m[pivot], m[col]
            inv = F(1) / m[col][col]
            m[col] = [v * inv for v in m[col]]
            for r in range(size):
                if r != col and m[r][col] != 0:
                    factor = m[r][col]
                    m[r] = [v - factor * w for v, w in zip(m[r], m[col])]
        return [m[r][-1] for r in range(size)]

    best = None
    for combo in itertools.combinations(range(len(rows)), lp.num_vars):
        system = [(rows[i][0], rows[i][2]) for i in combo]
        x = solve_square(system)
        if x is None:
            continue
        ok = True
        for coeffs, rel, rhs in rows:
            lhs = sum(c * v for c, v in zip(coeffs, x))
            if rel == "<=" and lhs > rhs:
                ok = False
            if rel == ">=" and lhs < rhs:
                ok = False
            if rel == "=" and lhs != rhs:
                ok = False
            if not ok:
                break
        if not ok:
            continue
        value = sum(c * v for c, v in zip(lp.objective, x))
        if best is None or value < best:
            best = value
    return best


def fraction_verify_optimal(lp, result):
    """Test oracle: the re-check of a claimed optimum in `Fraction`
    arithmetic, independent of `lp`'s integer scaling."""
    lp = fraction_program(lp)
    if result.status != "optimal" or result.primal is None:
        return False
    x = result.primal
    if len(x) != lp.num_vars or any(v < 0 for v in x):
        return False
    for row in lp.constraints:
        lhs = sum((c * v for c, v in zip(row.coeffs, x)), F(0))
        if row.rel == "<=" and lhs > row.rhs:
            return False
        if row.rel == ">=" and lhs < row.rhs:
            return False
        if row.rel == "=" and lhs != row.rhs:
            return False
    value = sum((c * v for c, v in zip(lp.objective, x)), F(0))
    return value == result.objective_value


def fraction_verify_infeasibility(lp, certificate):
    """Test oracle: the `Fraction` check of a Farkas certificate."""
    lp = fraction_program(lp)
    if len(certificate) != len(lp.constraints):
        return False
    for y, row in zip(certificate, lp.constraints):
        if row.rel == "<=" and y < 0:
            return False
        if row.rel == ">=" and y > 0:
            return False
    combined = [F(0)] * lp.num_vars
    total = F(0)
    for y, row in zip(certificate, lp.constraints):
        if y == 0:
            continue
        for j, c in enumerate(row.coeffs):
            if c != 0:
                combined[j] += y * c
        total += y * row.rhs
    return all(c >= 0 for c in combined) and total < 0


class TestSolve:
    def test_simple_minimum(self):
        lp = LinearProgram(1, (row([1], ">=", 1), row([1], "<=", 2)), (F(1),))
        result = solve(lp).result
        assert result.status == "optimal"
        assert result.primal == (F(1),)
        assert result.objective_value == 1

    def test_infeasible_with_certificate(self):
        lp = feasibility_program(1, [row([1], "<=", -1)])
        result = solve(lp).result
        assert result.status == "infeasible"
        assert verify_infeasibility(lp, result.certificate)

    def test_unbounded_region_is_bounded_below(self):
        # x1 may grow without bound, but a nonnegative cost is bounded below by 0.
        lp = LinearProgram(2, (row([0, 1], "=", 1),), (F(1), F(0)))
        result = solve(lp).result
        assert (result.status, result.primal, result.objective_value) == ("optimal", (F(0), F(1)), 0)

    def test_equalities_and_ge(self):
        lp = LinearProgram(
            2,
            (row([1, 1], ">=", 2), row([1, -1], "=", 0)),
            (F(2), F(3)),
        )
        result = solve(lp).result
        assert result.primal == (F(1), F(1))
        assert result.objective_value == 5

    def test_degenerate_matches_vertex_scan(self):
        # pairwise-sum floors create massive pivot ties
        lp = LinearProgram(
            3,
            (
                row([1, 1, 0], ">=", 1),
                row([1, 0, 1], ">=", 1),
                row([0, 1, 1], ">=", 1),
                row([1, 1, 1], ">=", 1),
                row([2, 1, 1], ">=", 2),
            ),
            (F(1), F(1), F(1)),
        )
        result = solve(lp).result
        assert result.status == "optimal"
        assert result.objective_value == brute_force_minimum(lp)

    def test_random_small_programs_match_vertex_scan(self):
        rng = random.Random(9)
        statuses = Counter()
        for _ in range(40):
            # bound the feasible region so the oracle comparison is total
            rows = tuple(small_rows(rng)) + (row([1, 1, 1], "<=", 5),)
            lp = LinearProgram(3, rows, tuple(F(rng.randint(0, 3)) for _ in range(3)))
            result = assert_matches_oracle(lp)
            statuses[result.status, result.status == "optimal" and result.objective_value > 0] += 1
        assert statuses["optimal", True] > 10 and statuses["infeasible", False] > 10, statuses

    def test_determinism(self):
        lp = LinearProgram(
            3,
            (
                row([1, 1, 0], ">=", 1),
                row([1, 0, 1], ">=", 1),
                row([0, 1, 1], ">=", 1),
            ),
            (F(1), F(1), F(1)),
        )
        assert solve(lp).result == solve(lp).result


class TestVerification:
    def test_optimal_reverifies(self):
        lp = LinearProgram(
            2,
            (row([2, 1], ">=", 4), row([1, 3], ">=", 6)),
            (F(3), F(5)),
        )
        result = solve(lp).result
        assert fraction_verify_optimal(lp, result) and result.objective_value == F(58, 5)

    def test_certificates_reverify_on_random_infeasible_systems(self):
        rng = random.Random(11)
        found = 0
        while found < 15:
            rows = [
                row([rng.randint(-2, 2) for _ in range(3)], rng.choice(["<=", ">=", "="]), rng.randint(-3, 3))
                for _ in range(4)
            ]
            lp = feasibility_program(3, rows)
            result = solve(lp).result
            if result.status != "infeasible":
                continue
            found += 1
            assert verify_infeasibility(lp, result.certificate)

    def test_tampered_certificate_rejected(self):
        lp = feasibility_program(1, [row([1], "<=", -1)])
        result = solve(lp).result
        bad = tuple(-y for y in result.certificate)
        assert not verify_infeasibility(lp, bad)

    def test_integer_checks_agree_with_fraction_oracle(self):
        # Random programs with mixed relations, negative right-hand sides and
        # coefficients over the coprime denominators 2, 3, 5, 7 and 11; each
        # result as solved and mutated: a primal coordinate moved by
        # +-1/(2D), checked by `_meets` as `solve` checks every optimum, and
        # one certificate entry sign-flipped or zeroed.
        rng = random.Random(17)

        def q():
            return F(rng.randint(-4, 4), rng.choice((1, 2, 3, 5, 7, 11)))

        statuses = Counter()
        rejected = Counter()
        for _ in range(600):
            nv = rng.randint(2, 4)
            rows = [
                row([q() for _ in range(nv)], rng.choice(["<=", "=", ">="]), q())
                for _ in range(rng.randint(1, 5))
            ]
            rows.insert(rng.randint(0, len(rows)), row([1] * nv, "<=", rng.randint(1, 5)))
            lp = LinearProgram(nv, tuple(rows), tuple(abs(q()) for _ in range(nv)))
            result = solve(lp).result
            statuses[result.status] += 1
            if result.status == "optimal":
                scale = math.lcm(*(v.denominator for v in result.primal))
                j = rng.randrange(nv)
                cases = [("as solved", result.primal)]
                for step in (F(1, 2 * scale), F(-1, 2 * scale)):
                    cases.append(("moved", result.primal[:j] + (result.primal[j] + step,) + result.primal[j + 1:]))
                for kind, x in cases:
                    verdict = _meets(lp.constraints, *_scaled(x))
                    claim = LPResult("optimal", x, sum(c * v for c, v in zip(lp.objective, x)))
                    assert verdict == fraction_verify_optimal(lp, claim), (lp, claim)
                    rejected[kind] += not verdict
            else:
                cert = result.certificate
                i = rng.choice([i for i, y in enumerate(cert) if y])
                cases = [
                    ("as solved", cert),
                    ("sign flipped", cert[:i] + (-cert[i],) + cert[i + 1:]),
                    ("zeroed", cert[:i] + (F(0),) + cert[i + 1:]),
                ]
                for kind, claim in cases:
                    verdict = verify_infeasibility(lp, claim)
                    assert verdict == fraction_verify_infeasibility(lp, claim), (lp, claim)
                    rejected[kind] += not verdict
        assert statuses["optimal"] >= 100 and statuses["infeasible"] >= 100, statuses
        assert rejected["as solved"] == 0
        for kind in ("moved", "sign flipped", "zeroed"):
            assert rejected[kind] > 0, rejected

    def test_checks_survive_python_O(self):
        # Under -O `assert` statements are stripped; a result that fails its
        # integer check must still raise, a moved optimum's too, and so must
        # an optimum whose dual fails its check, a cut witness whose implementation LP does not
        # come back infeasible, and a scan's pool lottery that misses its own
        # system.
        import worstvote

        script = """if True:
            import sys
            from types import SimpleNamespace
            from worstvote import feasibility, lp
            from worstvote.lottery import parse_lottery
            raised = []

            def attempt(label, call):
                try:
                    call()
                except AssertionError:
                    raised.append(label)

            master = lp.solve(lp.LinearProgram(1, (([1, 1], 1, "<="),), (lp.ZERO + 1,)))
            lp._bounds = lambda *args: False
            attempt("dual", master.certify)
            lp._meets = lambda *args: False
            attempt("optimal", lambda: lp.solve(lp.feasibility_program(1, [([1, 1], 1, "<=")])))
            attempt("moved", lambda: master.move({0: ([1, 2], 1, "<=")}))
            lp._refutes = lambda *args: False
            attempt("infeasible", lambda: lp.solve(lp.feasibility_program(1, [([1, -1], 1, "<=")])))
            feasibility.solve = lambda program: SimpleNamespace(point=([0] * program.num_vars, 1), certificate=None)
            attempt("cut", lambda: feasibility.is_feasible(parse_lottery("0,0,1,0,0"), 3))
            lam = parse_lottery("0,0,1/3,1/3,1/3")
            ks, caps, cap_den = feasibility._tail_caps(lam)
            # all mass on outcome 1, the worst outcome of the canonical chain
            feasibility._implementing_point = lambda *args: (([1, 0, 0, 0, 0], 1), None)
            payload = (5, 3, ks, caps, cap_den, 0, feasibility.chain_count(5, ks), None, None)
            attempt("pool", lambda: feasibility._scan_chunk(payload))
            print(sys.flags.optimize, *raised)
        """
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=os.path.dirname(os.path.dirname(worstvote.__file__)))
        run = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True,
                             timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["1", "dual", "optimal", "moved", "infeasible", "cut", "pool"]


class TestValidation:
    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            LinearProgram(2, (row([1], "<=", 1),), (F(1), F(0)))
        with pytest.raises(ValueError):
            LinearProgram(1, (), (F(1), F(0)))

    def test_relation_check(self):
        with pytest.raises(ValueError):
            LinearProgram(1, (([1, 1], 1, "<"),), (F(1),))

    @pytest.mark.parametrize("bad", [([1, 1, 1], 1, ">="), ([1, 1], 0, "<="), ([1, 1], -2, "=")],
                             ids=["long", "zero denominator", "negative denominator"])
    def test_row_checks(self, bad):
        with pytest.raises(ValueError):
            LinearProgram(1, (bad,), (F(1),))

    def test_negative_objective_coefficient(self):
        with pytest.raises(ValueError, match="nonnegative"):
            LinearProgram(2, (row([1, 1], "<=", 1),), (F(1), F(-1, 3)))

    @pytest.mark.parametrize("bad", [([1, 1], 1, "="), ([1], 1, "<="), ([1, 1, 1], 1, ">="), ([1, 1], 1, "<"),
                                     ([1, 1], 0, ">=")],
                             ids=["equality", "short", "long", "unknown relation", "zero denominator"])
    def test_added_row_checks(self, bad):
        master = solve(LinearProgram(1, (row([1], "<=", 1),), (F(1),)))
        with pytest.raises(ValueError):
            master.add(bad)
        assert master.raw == [([1, 1], 1, "<=")]


def small_rows(rng):
    """Four random `<=` and `>=` rows of three variables with small integer
    coefficients and right-hand sides of either sign."""
    return [row([rng.randint(-3, 3) for _ in range(3)], rng.choice(["<=", ">="]), rng.randint(-3, 3))
            for _ in range(4)]


def assert_matches_oracle(lp):
    """`solve` agrees with the vertex scan, and proves what it claims."""
    result = solve(lp).result
    best = brute_force_minimum(lp)
    if best is None:
        assert result.status == "infeasible"
        assert verify_infeasibility(lp, result.certificate)
    else:
        assert result.status == "optimal"
        assert fraction_verify_optimal(lp, result)
        assert result.objective_value == best
    return result


def coprime_programs():
    """30 programs of three variables over the coprime denominators 2, 3, 5,
    7 and 11, bounded by ``x1 + x2 + x3 <= 4``."""
    rng = random.Random(5)
    programs = []
    for _ in range(30):
        rows = tuple(
            row(
                [F(rng.randint(-3, 3), rng.choice((2, 3, 5, 7, 11))) for _ in range(3)],
                rng.choice(["<=", ">=", "="]),
                F(rng.randint(-3, 3), rng.choice((2, 3, 5, 7, 11))),
            )
            for _ in range(3)
        ) + (row([1, 1, 1], "<=", 4),)
        objective = tuple(F(rng.randint(0, 3), rng.choice((1, 7, 11))) for _ in range(3))
        programs.append(LinearProgram(3, rows, objective))
    return programs


def large_cap_programs():
    """Rows of 10 implementation programs over 5 outcomes and 4 random
    orders, with the caps of ranks 1 to 4 over the primes 1000003, 1000033,
    1000037 and 1000039."""
    rng = random.Random(1)
    programs = []
    for _ in range(10):
        caps = sorted(F(rng.randint(1, q - 1), q) for q in (1000003, 1000033, 1000037, 1000039))
        rows = [row([1] * 5, "=", 1)]
        for _ in range(4):
            order = rng.sample(range(5), 5)
            rows += [row([int(a in order[:k]) for a in range(5)], "<=", cap) for k, cap in zip(range(1, 5), caps)]
        programs.append(rows)
    return programs


def assert_matches_fraction_tableau(num_vars, rows):
    """`solve` keeps the point of the `Fraction` tableau, in lowest terms,
    or its certificate; returns the status."""
    program = feasibility_program(num_vars, rows)
    solved = solve(program)
    expected = fraction_simplex(program)
    if solved.point is None:
        assert (expected.status, expected.certificate) == ("infeasible", solved.certificate)
    else:
        x, scale = solved.point
        assert expected.status == "optimal" and expected.primal == tuple(F(v, scale) for v in x)
        assert math.gcd(*x, scale) == 1
    return expected.status


class TestIntegerTableau:
    """Paths the integer tableau adds, rows scaled to one denominator, and
    the layouts of `>=` rows, `=` rows and negative right-hand sides."""

    def test_coprime_denominators_across_one_row(self):
        lp = LinearProgram(
            4,
            (
                row(["1/2", "1/3", "1/5", "1/7"], ">=", "1/11"),
                row(["1/11", "-1/7", "1/5", "-1/3"], ">=", "-1/2"),
                row([1, 1, 1, 1], "<=", 1),
            ),
            (F(1, 3), F(1, 5), F(1, 7), F(1, 11)),
        )
        assert assert_matches_oracle(lp).objective_value > 0

    def test_random_programs_with_coprime_denominators(self):
        infeasible = 0
        for lp in coprime_programs():
            result = assert_matches_oracle(lp)
            assert result == fraction_simplex(lp)
            infeasible += result.status == "infeasible"
        assert 0 < infeasible < 30

    def test_rows_past_the_gcd_bound(self, monkeypatch):
        # Caps over primes near 2**20: a few eliminations take a row's
        # denominator past `lp._BOUND`.  After every pivot, a row below the
        # bound may carry a common factor, and a row past it is in lowest
        # terms; the cost row included.
        from worstvote import lp as lp_module

        seen = Counter()
        pivot = lp_module._Tableau.pivot

        def checked_pivot(self, row_idx, col):
            pivot(self, row_idx, col)
            for ints, den in zip([*self.rows, self.cost], [*self.dens, self.cost_den]):
                common = math.gcd(*ints, den) > 1
                if den >= lp_module._BOUND:
                    assert not common
                    seen["past the bound"] += 1
                else:
                    seen["common factor"] += common

        monkeypatch.setattr(lp_module._Tableau, "pivot", checked_pivot)
        statuses = Counter(assert_matches_fraction_tableau(5, rows) for rows in large_cap_programs())
        assert statuses["optimal"] and statuses["infeasible"], statuses
        assert seen["past the bound"] and seen["common factor"], seen

    def test_pivot_rows_past_a_low_gcd_bound(self, monkeypatch):
        # At a bound of 2**6 the pivot element itself reaches it, so `pivot`
        # divides its own row by the row's gcd before eliminating with it,
        # and that row is then in lowest terms.  The rows of the large-cap
        # programs reach it in lowest terms already; a `Row` may also carry
        # a common factor, as ``x + 2y >= 3`` stated over 64 does.  Every
        # point and certificate still matches the `Fraction` tableau.
        from worstvote import lp as lp_module

        monkeypatch.setattr(lp_module, "_BOUND", 2**6)
        seen = Counter()
        pivot = lp_module._Tableau.pivot

        def checked_pivot(self, row_idx, col):
            before = self.rows[row_idx]
            pivot(self, row_idx, col)
            if abs(before[col]) >= lp_module._BOUND:
                assert math.gcd(*self.rows[row_idx]) == 1
                seen["reduced"] += 1
                seen["common factor"] += math.gcd(*before) > 1

        monkeypatch.setattr(lp_module._Tableau, "pivot", checked_pivot)
        statuses = Counter(assert_matches_fraction_tableau(5, rows) for rows in large_cap_programs())
        assert statuses["optimal"] and statuses["infeasible"], statuses
        assert seen["reduced"] and not seen["common factor"], seen
        scaled = LinearProgram(2, (([64, 128, 192], 64, ">="),), (F(1), F(1)))
        assert solve(scaled).result == fraction_simplex(scaled)
        assert seen["common factor"] == 1, seen

    def test_negative_rhs_rows(self):
        rows = (
            row([-1, -1, 0], "<=", -1),  # x1 + x2 >= 1
            row([1, -2, 0], ">=", "-3/2"),
            row([-1, 0, 1], "=", "-1/3"),  # x3 = x1 - 1/3
            row([1, 1, 1], "<=", 3),
        )
        lp = LinearProgram(3, rows, (F(1), F(2), F(1)))
        assert assert_matches_oracle(lp).status == "optimal"
        # x1 + x2 <= 1/2 against x1 + x2 >= 1, both written with rhs < 0
        lp = feasibility_program(2, [row([-1, -1], ">=", "-1/2"), row([-1, -1], "<=", -1)])
        assert assert_matches_oracle(lp).status == "infeasible"

    def test_mixed_equality_and_ge_rows(self):
        lp = LinearProgram(
            3,
            (
                row([1, 1, 1], "=", 1),
                row([2, 1, 0], ">=", 1),
                row([0, 1, 3], ">=", "1/2"),
                row([1, 0, -1], "=", 0),
            ),
            (F(0), F(1), F(1)),
        )
        assert assert_matches_oracle(lp).status == "optimal"
        lp = feasibility_program(
            2, [row([1, 1], "=", 1), row([1, 0], ">=", "2/3"), row([0, 1], ">=", "1/2")]
        )
        assert assert_matches_oracle(lp).status == "infeasible"

    def test_zero_equality_row(self):
        # -x3 = 0, whose only nonzero entry is the -1 under x3.
        lp = LinearProgram(
            3,
            (
                row([0, 1, 0], "=", 2),
                row([0, 0, -1], "=", 0),
                row([1, 2, 0], ">=", 2),
                row([1, 1, 1], "<=", 4),
            ),
            (F(0), F(1), F(0)),
        )
        assert assert_matches_oracle(lp).primal[1] == 2

    def test_redundant_equality_rows(self):
        lp = LinearProgram(
            2,
            (
                row([1, 1], "=", 1),
                row([2, 2], "=", 2),
                row([1, 0], "<=", "2/3"),
            ),
            (F(1), F(3)),
        )
        assert assert_matches_oracle(lp).objective_value == F(5, 3)


def random_weights_lottery(rng, p):
    """A lottery over `p` outcomes with small random weights, the last one
    positive."""
    weights = [rng.choice((0, 0, 1, 2, 3, 5)) for _ in range(p - 1)] + [1]
    return lottery([F(w, sum(weights)) for w in weights])


def master_program(lam):
    """The master LP of `maximality.is_maximal` for `lam`, before any cut."""
    from worstvote.feasibility import _tail_rows

    p = lam.p
    cum = lam.cumulative()
    rows = tuple(_tail_rows(p, range(1, p), *_scaled(cum[:-1]), [tuple(range(1, p + 1))]))
    return LinearProgram(p, rows, tuple(F(p - t) for t in range(1, p + 1)))


def random_cut(rng, kind, lam, x, cuts):
    """A `>=` row for the master of `lam` whose optimum is `x`, or None.

    "cover": weights w_k >= 0 on a few ranks, ``sum_k w_k cum_k(mu) >= 1``,
    met by `lam` (tight or with room).  "tight": the same, tight at `x`.
    "duplicate": an earlier cut again.  "parallel": ``cum_k(mu) >= r`` for
    ``r`` at or below the cap of rank k.  "over": that row above the cap,
    so the master becomes infeasible.
    """
    p = lam.p
    caps = lam.cumulative()

    def tail(k, r):
        return row([1] * k + [0] * (p - k), ">=", r)

    if kind == "duplicate":
        return rng.choice(cuts) if cuts else None
    k = rng.randint(1, p - 1)
    if kind == "parallel":
        r = caps[k - 1] * F(rng.choice((3, 3, 2, 1)), 3)
        return tail(k, r) if r else None
    if kind == "over":
        return tail(k, caps[k - 1] + F(1, 7))
    ranks = rng.sample(range(1, p), rng.randint(1, min(3, p - 1)))
    weights = {k: F(rng.randint(1, 3)) for k in ranks}
    at = list(itertools.accumulate(x)) if kind == "tight" else caps
    total = sum(w * at[k - 1] for k, w in weights.items())
    if not total:
        return None
    scale = total if kind == "tight" else total / rng.choice((F(1), F(1), F(9, 8)))
    coeffs = [F(0)] * p
    for k, w in weights.items():
        for t in range(k):
            coeffs[t] += w / scale
    return row(coeffs, ">=", 1)


def has_other_optima(master):
    """Some nonbasic column other than the slack of an `=` row has reduced
    cost 0, so the optimum need not be unique.  When every one is positive
    the optimal point is unique, and any simplex must return it.  The two
    slacks of an `=` row sum to 0, so neither can leave 0."""
    pinned = {master.nv + i for i, (r, _) in enumerate(master.layout) if master.raw[r][2] == "="}
    basic = set(master.basis)
    return any(master.cost[j] == 0 for j in range(len(master.cost) - 1) if j not in basic and j not in pinned)


def random_program(rng):
    """A program of 2 to 4 variables with 1 to 3 random `=`, `<=` and `>=`
    rows, whose right-hand sides may be negative, bounded by
    ``sum x <= 5``."""
    nv = rng.randint(2, 4)
    rows = tuple(
        row([rng.randint(-2, 3) for _ in range(nv)], rng.choice(["<=", ">=", "="]), rng.randint(-2, 4))
        for _ in range(rng.randint(1, 3))
    ) + (row([1] * nv, "<=", 5),)
    return LinearProgram(nv, rows, tuple(F(rng.randint(0, 3)) for _ in range(nv)))


def with_random_row(rng, program):
    """`program` with a random `<=` or `>=` row added, and that row."""
    nv = program.num_vars
    added = row([rng.randint(-3, 3) for _ in range(nv)], rng.choice(["<=", ">="]), rng.randint(-3, 3))
    return LinearProgram(nv, program.constraints + (added,), program.objective), added


def moved_to(r, rhs):
    """Row `r` with the right-hand side `rhs`, in lowest terms."""
    ints, den, rel = r
    return row([F(v, den) for v in ints[:-1]], rel, rhs)


def assert_move_matches_cold_solve(master, program, moved):
    """Move the solved `program` in `master` by `moved` and check the result
    against a cold `solve` of the moved program: the same status and value,
    a point meeting the rows and a dual proving it optimal, or a Farkas
    certificate.  Returns the moved program and the status."""
    constraints = tuple(moved.get(i, r) for i, r in enumerate(program.constraints))
    program = LinearProgram(program.num_vars, constraints, program.objective)
    master.move(moved)
    assert master.raw == list(constraints)
    warm, cold = master.result, solve(program).result
    assert warm.status == cold.status, (program, warm, cold)
    if warm.status == "infeasible":
        assert verify_infeasibility(program, warm.certificate)
        assert fraction_verify_infeasibility(program, warm.certificate)
    else:
        master.certify()
        assert F(master.cost[-1], master.cost_den) == -warm.objective_value
        assert _meets(constraints, *master.point)
        assert fraction_verify_optimal(program, warm)
        assert warm.objective_value == cold.objective_value
        assert has_other_optima(master) or warm == cold
    return program, warm.status


# sha256 of the `repr` of every warm result in
# `test_warm_master_matches_cold_solve`, which pins the dual simplex's
# choice among optimal vertices where the optimum is not unique.
# Re-recorded when the masters came to minimize what they maximized
# negated: every point and certificate is as it was, and each objective
# value is negated.
WARM_DIGEST = "ea634f21d9c1acd7dbe161431884db7c0d94cfce4c78b9a6a1cff07ce1ec5914"


class TestWarmMaster:
    def test_warm_master_matches_cold_solve(self):
        """After every added cut, the warm master proves the cold optimum: the
        same result where the optimum is unique, the same status and value
        otherwise, and an infeasible row is refuted like `solve` refutes it."""
        import hashlib

        rng = random.Random(11)
        digest = hashlib.sha256()
        seen = Counter()
        kinds = ("cover", "cover", "tight", "duplicate", "parallel")
        for p in (4, 5, 6, 7, 8):
            for _ in range(20):
                lam = random_weights_lottery(rng, p)
                program = master_program(lam)
                master = solve(program)
                assert master.result == solve(program).result
                cuts = []
                for step in range(12):
                    kind = "over" if step == 11 and rng.random() < 0.3 else rng.choice(kinds)
                    cut = random_cut(rng, kind, lam, master.result.primal, cuts)
                    if cut is None:
                        continue
                    cuts.append(cut)
                    full = LinearProgram(p, program.constraints + tuple(cuts), program.objective)
                    master.add(cut)
                    warm, cold = master.result, solve(full).result
                    digest.update(repr(warm).encode())
                    if warm.status == "infeasible":
                        assert cold.status == "infeasible"
                        assert fraction_verify_infeasibility(full, warm.certificate)
                        seen["infeasible"] += 1
                        break
                    master.certify()
                    assert fraction_verify_optimal(full, warm)
                    assert (warm.status, warm.objective_value) == (cold.status, cold.objective_value)
                    if has_other_optima(master):
                        seen["other optima", warm == cold] += 1
                    else:
                        assert warm == cold, (full, warm, cold)
                        seen["unique", kind] += 1
        assert min(seen["unique", kind] for kind in set(kinds)) > 40, seen
        assert seen["infeasible"] > 10 and seen["other optima", True] > 100, seen
        assert digest.hexdigest() == WARM_DIGEST, (seen, digest.hexdigest())

    def test_random_programs_match_cold_solve(self):
        """Programs with `=`, `<=` and `>=` rows, then added `<=` and `>=`
        rows with right-hand sides of either sign."""
        rng = random.Random(3)
        seen = Counter()
        for _ in range(200):
            program = random_program(rng)
            master = solve(program)
            if master.status != "optimal":
                continue
            for _ in range(6):
                program, added = with_random_row(rng, program)
                master.add(added)
                warm, cold = master.result, solve(program).result
                assert warm.status == cold.status
                seen[warm.status] += 1
                if warm.status == "infeasible":
                    assert fraction_verify_infeasibility(program, warm.certificate)
                    break
                master.certify()
                assert warm.objective_value == cold.objective_value
                assert has_other_optima(master) or warm == cold
        assert seen["optimal"] > 300 and seen["infeasible"] > 50, seen

    def test_moved_masters_match_cold_solve(self):
        """The master of one lottery, after its cuts, moved to the caps of
        others at the same p, as `maximality.is_maximal` moves it."""
        from worstvote.feasibility import _tail_rows

        rng = random.Random(17)
        seen = Counter()
        kinds = ("cover", "cover", "tight", "duplicate", "parallel")
        for p in (4, 5, 6, 7):
            for _ in range(12):
                lam = random_weights_lottery(rng, p)
                program = master_program(lam)
                master = solve(program)
                cuts = []
                for _ in range(8):
                    cut = random_cut(rng, rng.choice(kinds), lam, master.result.primal, cuts)
                    if cut is not None:
                        cuts.append(cut)
                        master.add(cut)
                program = LinearProgram(p, program.constraints + tuple(cuts), program.objective)
                for _ in range(6):
                    # Every cut holds at `lam`, so the master stays feasible
                    # at caps no lower than `lam`'s.
                    cum = random_weights_lottery(rng, p).cumulative()
                    if rng.random() < 0.75:
                        cum = [max(a, b) for a, b in zip(cum, lam.cumulative())]
                    caps = _tail_rows(p, range(1, p), *_scaled(cum[:-1]), [tuple(range(1, p + 1))])
                    program, status = assert_move_matches_cold_solve(master, program, dict(enumerate(caps[1:], 1)))
                    seen[status] += 1
                    if status == "infeasible":
                        break
        assert seen["optimal"] > 100 and seen["infeasible"] > 20, seen

    def test_one_master_moved_many_times_stays_bounded(self):
        """One master moved 300 times through random caps, with cuts added
        in between, each move checked against a cold solve.  Every cut holds
        at `lam`, and each cap is a cumulative of some ``(1 - t) * mu + t *
        worst`` with ``mu``'s caps at or above `lam`'s, so each move ends at
        an optimum.  Each ``t`` has a prime denominator of its own, so a
        rebase that never divides a row's gcd out lets the row's
        denominator grow with every move; `move` divides it out once the
        denominator reaches `_BOUND`, so none passes `_BOUND` times the
        move's scale."""
        from worstvote.feasibility import _tail_rows

        rng = random.Random(29)
        primes = [q for q in range(101, 400) if all(q % d for d in range(2, 20))]
        p = 6
        lam = random_weights_lottery(rng, p)
        program = master_program(lam)
        master = solve(program)
        seen = Counter()
        for step in range(300):
            if step % 5 == 4:
                cut = random_cut(rng, rng.choice(("cover", "parallel")), lam, None, [])
                if cut is not None:
                    program = LinearProgram(p, program.constraints + (cut,), program.objective)
                    master.add(cut)
                    seen["added"] += 1
            cum = random_weights_lottery(rng, p).cumulative()
            t = F(rng.randint(1, 9), rng.choice(primes))
            cum = [(1 - t) * max(a, b) + t for a, b in zip(cum, lam.cumulative())]
            caps = _tail_rows(p, range(1, p), *_scaled(cum[:-1]), [tuple(range(1, p + 1))])
            program, status = assert_move_matches_cold_solve(master, program, dict(enumerate(caps[1:], 1)))
            assert status == "optimal"
            scale = math.lcm(*(den for _, den, _ in master.raw))
            assert max(*master.dens, master.cost_den) < _BOUND * scale, step
            seen[has_other_optima(master)] += 1
        assert seen["added"] > 40 and seen[False] > 20, seen

    def test_random_programs_moved_match_cold_solve(self):
        """The random programs and added rows above, then moves of random
        rows, the mass-bound row and the added ones included: right-hand
        sides that turn negative, and `>=` and `=` rows, laid out negated,
        moved to either sign."""
        rng = random.Random(5)
        seen = Counter()
        for _ in range(400):
            program = random_program(rng)
            master = solve(program)
            if master.status != "optimal":
                continue
            for _ in range(3):
                if master.status == "optimal":
                    program, added = with_random_row(rng, program)
                    master.add(added)
            if master.status != "optimal":
                continue
            for _ in range(4):
                moved = {}
                for i in rng.sample(range(len(program.constraints)), rng.randint(1, 2)):
                    before = program.constraints[i]
                    rhs = F(rng.randint(-3, 5), rng.choice((1, 1, 2, 3)))
                    moved[i] = moved_to(before, rhs)
                    seen["negated at layout"] += before[2] != "<="
                    seen["turns negative"] += before[0][-1] >= 0 > rhs
                program, status = assert_move_matches_cold_solve(master, program, moved)
                seen[status] += 1
                if status == "infeasible":
                    break
        assert seen["optimal"] > 150 and seen["infeasible"] > 60, seen
        assert seen["negated at layout"] > 100 and seen["turns negative"] > 60, seen

    def test_moved_rows_keep_coefficients_and_relation(self):
        program = LinearProgram(2, (row([1, 1], "=", 1), row([1, 0], "<=", "1/2"), row([0, 1], ">=", "1/4")),
                                (F(1), F(2)))
        master = solve(program)
        assert master.result.primal == (F(1, 2), F(1, 2))
        for bad in ({1: row([2, 0], "<=", "1/3")}, {1: row([1, 1], "<=", "1/3")}, {2: row([0, 1], "<=", "1/4")},
                    {0: row([1, 1], "<=", 1)}, {1: row([1, 0, 0], "<=", "1/3")}, {1: ([2, 0, 1], 0, "<=")},
                    {1: row([1, 0], "<=", "1/3"), 2: row([0, 2], ">=", "1/4")}):
            with pytest.raises(ValueError):
                master.move(bad)
            assert master.raw == list(program.constraints)
        master.move({1: row([1, 0], "<=", "1/3")})  # the same values, over 3 where they were over 2
        assert master.raw[1] == ([3, 0, 1], 3, "<=") and master.result.primal == (F(1, 3), F(2, 3))
        master.move({1: row([1, 0], "<=", 2), 2: row([0, 1], ">=", "1/2")})
        assert master.result.primal == (F(1, 2), F(1, 2))
        master.certify()

        # A redundant `=` row keeps its laid-out rows, and so moves.
        redundant = solve(LinearProgram(2, (row([1, 1], "=", 1), row([2, 2], "=", 2), row([1, 0], "<=", "2/3")),
                                        (F(1), F(3))))
        redundant.move({2: row([1, 0], "<=", "1/3")})
        assert redundant.result.primal == (F(1, 3), F(2, 3))
        redundant.certify()
        infeasible = solve(LinearProgram(1, (row([1], "<=", 1), row([1], ">=", 2)), (F(1),)))
        with pytest.raises(ValueError):
            infeasible.move({1: row([1], ">=", 0)})

    def test_certify_rejects_a_corrupted_dual(self):
        # Changing the dual of a row with a nonzero right-hand side changes
        # the dual objective, so the check must fail.
        lam = lottery([0, F(1, 2), 0, F(1, 4), F(1, 4)])
        master = solve(master_program(lam))
        before = master.result
        master.add(row([2, 2, 1, 0, 0], ">=", 1))  # cum_2 + cum_3 >= 1
        assert master.result != before
        master.certify()
        corrupted = 0
        for i, (r, _) in enumerate(master.layout):
            if master.raw[r][0][-1]:
                master.cost[master.nv + i] += 1  # the slack of laid-out row i
                with pytest.raises(AssertionError, match="dual check"):
                    master.certify()
                master.cost[master.nv + i] -= 1
                corrupted += 1
        assert corrupted == len(master.layout) - 1  # every laid-out row but the zero cap at rank 1
        master.certify()

    def test_added_rows_are_inequalities_at_an_optimum(self):
        master = solve(LinearProgram(1, (row([1], ">=", "1/4"),), (F(1),)))
        master.add(row([1], ">=", "1/2"))
        assert master.result.objective_value == F(1, 2)
        master.add(row([1], "<=", "1/3"))
        assert master.result.status == "infeasible"
        with pytest.raises(ValueError):
            master.add(row([1], ">=", 0))
        with pytest.raises(ValueError):
            master.certify()


# Master programs (built in `maximality.is_maximal`), cut programs
# (`feasibility.implement_program`) and tail-system programs
# (`feasibility._scan_chunk`) met while deciding maximality and
# feasibility at (3,5) and (3,6), each with the result of the `Fraction`
# tableau that preceded the integer one.  The masters, written with the
# negated objective maximized, now minimize that objective.  When every
# program came to be solved by the dual simplex from its slack basis, the
# optimal points stayed as they were and the four Farkas certificates were
# re-recorded: three are the old ones doubled, and the cut at (3,6) refutes
# with other tail rows.
GOLDEN = [
    (
        "master (3,5) optimal",
        """
        min 4 3 2 1 0
        1 1 1 1 1 = 1
        1 0 0 0 0 <= 7/20
        1 1 0 0 0 <= 9/20
        1 1 1 0 0 <= 11/20
        1 1 1 1 0 <= 9/10
        2 2 2 2 0 >= 1
        2 2 2 1 0 >= 1
        2 2 1 1 0 >= 1
        2 1 1 1 0 >= 1
        2 2 2 0 0 >= 1
        2 2 1 0 0 >= 1
        3/2 3/2 3/2 1/2 0 >= 1
        3 1 1 0 0 >= 1
        2 3/2 3/2 0 0 >= 1
        """,
        "optimal 7/20 1/10 1/10 7/20 1/10 ; 9/4",
    ),
    (
        "master (3,5) optimal",
        """
        min 4 3 2 1 0
        1 1 1 1 1 = 1
        1 0 0 0 0 <= 1/10
        1 1 0 0 0 <= 9/20
        1 1 1 0 0 <= 4/5
        1 1 1 1 0 <= 9/10
        2 2 2 2 0 >= 1
        2 2 2 1 0 >= 1
        2 2 1 1 0 >= 1
        2 1 1 1 0 >= 1
        2 2 2 0 0 >= 1
        2 2 1 0 0 >= 1
        3 1 1 0 0 >= 1
        3 2 0 0 0 >= 1
        """,
        "optimal 1/10 7/20 7/20 1/10 1/10 ; 9/4",
    ),
    (
        "master (3,5) optimal",
        """
        min 4 3 2 1 0
        1 1 1 1 1 = 1
        1 0 0 0 0 <= 1/10
        1 1 0 0 0 <= 9/20
        1 1 1 0 0 <= 4/5
        1 1 1 1 0 <= 9/10
        2 2 2 2 0 >= 1
        2 2 2 1 0 >= 1
        2 2 1 1 0 >= 1
        2 1 1 1 0 >= 1
        """,
        "optimal 1/10 0 0 4/5 1/10 ; 6/5",
    ),
    (
        "master (3,6) optimal",
        """
        min 5 4 3 2 1 0
        1 1 1 1 1 1 = 1
        1 0 0 0 0 0 <= 1/4
        1 1 0 0 0 0 <= 1/2
        1 1 1 0 0 0 <= 7/12
        1 1 1 1 0 0 <= 2/3
        1 1 1 1 1 0 <= 3/4
        2 2 2 2 2 0 >= 1
        2 2 2 2 1 0 >= 1
        2 2 2 1 1 0 >= 1
        2 2 1 1 1 0 >= 1
        2 1 1 1 1 0 >= 1
        2 2 2 2 0 0 >= 1
        2 2 2 1 0 0 >= 1
        2 2 1 1 0 0 >= 1
        2 2 2 0 0 0 >= 1
        3/2 3/2 3/2 3/2 1/2 0 >= 1
        3/2 3/2 3/2 1 1/2 0 >= 1
        3/2 3/2 1 1 1 0 >= 1
        """,
        "optimal 1/4 1/4 1/12 1/12 1/12 1/4 ; 11/4",
    ),
    (
        "master (3,6) optimal",
        """
        min 5 4 3 2 1 0
        1 1 1 1 1 1 = 1
        1 0 0 0 0 0 <= 1/4
        1 1 0 0 0 0 <= 1/2
        1 1 1 0 0 0 <= 7/12
        1 1 1 1 0 0 <= 2/3
        1 1 1 1 1 0 <= 3/4
        2 2 2 2 2 0 >= 1
        2 2 2 2 1 0 >= 1
        2 2 2 1 1 0 >= 1
        2 2 1 1 1 0 >= 1
        2 1 1 1 1 0 >= 1
        2 2 2 2 0 0 >= 1
        2 2 2 1 0 0 >= 1
        2 2 1 1 0 0 >= 1
        """,
        "optimal 1/4 1/12 0 1/3 1/12 1/4 ; 7/3",
    ),
    (
        "master (3,6) optimal",
        """
        min 5 4 3 2 1 0
        1 1 1 1 1 1 = 1
        1 0 0 0 0 0 <= 1/4
        1 1 0 0 0 0 <= 1/2
        1 1 1 0 0 0 <= 7/12
        1 1 1 1 0 0 <= 2/3
        1 1 1 1 1 0 <= 3/4
        """,
        "optimal 0 0 0 0 0 1 ; 0",
    ),
    (
        "cut (3,5) infeasible",
        """
        min 0 0 0 0 0
        1 1 1 1 1 = 1
        0 0 1 0 0 <= 7/25
        0 0 1 1 0 <= 9/25
        1 0 1 1 0 <= 16/25
        1 1 1 1 0 <= 18/25
        0 0 0 1 0 <= 7/25
        0 0 0 1 1 <= 9/25
        0 1 0 1 1 <= 16/25
        1 1 0 1 1 <= 18/25
        0 0 0 0 1 <= 7/25
        0 0 1 0 1 <= 9/25
        1 0 1 0 1 <= 16/25
        1 1 1 0 1 <= 18/25
        """,
        "infeasible -2 0 0 0 1 0 0 0 1 0 1 0 0",
    ),
    (
        "cut (3,5) infeasible",
        """
        min 0 0 0 0 0
        1 1 1 1 1 = 1
        1 0 0 0 0 <= 0
        1 1 1 0 0 <= 1/10
        1 1 1 1 0 <= 9/10
        0 1 0 0 0 <= 0
        0 1 1 1 0 <= 1/10
        0 1 1 1 1 <= 9/10
        1 0 0 0 0 <= 0
        1 1 1 0 0 <= 1/10
        1 1 1 1 0 <= 9/10
        """,
        "infeasible -1 1 0 0 0 0 1 0 0 0",
    ),
    (
        "cut (3,6) infeasible",
        """
        min 0 0 0 0 0 0
        1 1 1 1 1 1 = 1
        0 0 0 1 0 0 <= 1/4
        0 0 0 1 1 0 <= 3/8
        1 0 0 1 1 0 <= 1/2
        1 1 0 1 1 0 <= 5/8
        1 1 1 1 1 0 <= 3/4
        0 0 0 0 1 0 <= 1/4
        0 0 0 0 1 1 <= 3/8
        0 0 1 0 1 1 <= 1/2
        0 1 1 0 1 1 <= 5/8
        1 1 1 0 1 1 <= 3/4
        0 0 0 0 0 1 <= 1/4
        0 0 0 1 0 1 <= 3/8
        1 0 0 1 0 1 <= 1/2
        1 1 0 1 0 1 <= 5/8
        1 1 1 1 0 1 <= 3/4
        """,
        "infeasible -2 0 0 0 0 1 0 0 0 0 1 0 1 0 0 0",
    ),
    (
        "cut (3,6) infeasible",
        """
        min 0 0 0 0 0 0
        1 1 1 1 1 1 = 1
        1 1 1 0 0 0 <= 0
        1 1 1 1 1 0 <= 1/2
        0 1 1 1 0 0 <= 0
        0 1 1 1 1 1 <= 1/2
        1 1 1 0 0 0 <= 0
        1 1 1 1 1 0 <= 1/2
        """,
        "infeasible -1 1 0 0 1 0 0",
    ),
    (
        "cut (3,5) optimal",
        """
        min 0 0 0 0 0
        1 1 1 1 1 = 1
        1 0 0 0 0 <= 9/40
        1 1 0 0 0 <= 9/20
        1 1 1 0 0 <= 11/20
        1 1 1 1 0 <= 9/10
        0 0 1 0 0 <= 9/40
        0 0 1 1 0 <= 9/20
        1 0 1 1 0 <= 11/20
        1 1 1 1 0 <= 9/10
        0 0 0 1 0 <= 9/40
        0 0 0 1 1 <= 9/20
        1 0 0 1 1 <= 11/20
        1 1 0 1 1 <= 9/10
        """,
        "optimal 1/10 9/40 9/40 9/40 9/40 ; 0",
    ),
    (
        "cut (3,5) optimal",
        """
        min 0 0 0 0 0
        1 1 1 1 1 = 1
        1 0 0 0 0 <= 7/25
        1 1 1 0 0 <= 1/2
        1 1 1 1 0 <= 18/25
        0 0 1 0 0 <= 7/25
        1 0 1 1 0 <= 1/2
        1 1 1 1 0 <= 18/25
        0 0 0 1 0 <= 7/25
        1 0 0 1 1 <= 1/2
        1 1 0 1 1 <= 18/25
        """,
        "optimal 0 11/50 7/25 11/50 7/25 ; 0",
    ),
    (
        "cut (3,6) optimal",
        """
        min 0 0 0 0 0 0
        1 1 1 1 1 1 = 1
        1 0 0 0 0 0 <= 1/4
        1 1 0 0 0 0 <= 3/8
        1 1 1 0 0 0 <= 1/2
        1 1 1 1 0 0 <= 5/8
        1 1 1 1 1 0 <= 3/4
        0 0 1 0 0 0 <= 1/4
        0 0 1 1 0 0 <= 3/8
        1 0 1 1 0 0 <= 1/2
        1 1 1 1 0 0 <= 5/8
        1 1 1 1 1 0 <= 3/4
        0 0 0 0 1 0 <= 1/4
        0 0 0 0 1 1 <= 3/8
        1 0 0 0 1 1 <= 1/2
        1 1 0 0 1 1 <= 5/8
        1 1 1 0 1 1 <= 3/4
        """,
        "optimal 1/8 1/8 1/8 1/4 1/8 1/4 ; 0",
    ),
    (
        "cut (3,6) optimal",
        """
        min 0 0 0 0 0 0
        1 1 1 1 1 1 = 1
        1 0 0 0 0 0 <= 1/4
        1 1 1 1 0 0 <= 1/2
        1 1 1 1 1 0 <= 3/4
        0 0 1 0 0 0 <= 1/4
        1 1 1 1 0 0 <= 1/2
        1 1 1 1 1 0 <= 3/4
        0 0 0 0 1 0 <= 1/4
        1 1 0 0 1 1 <= 1/2
        1 1 1 0 1 1 <= 3/4
        """,
        "optimal 0 0 1/4 1/4 1/4 1/4 ; 0",
    ),
    (
        "cut (3,6) optimal",
        """
        min 0 0 0 0 0 0
        1 1 1 1 1 1 = 1
        1 0 0 0 0 0 <= 1/4
        1 1 0 0 0 0 <= 1/3
        1 1 1 0 0 0 <= 7/12
        1 1 1 1 0 0 <= 2/3
        1 1 1 1 1 0 <= 3/4
        0 0 0 1 0 0 <= 1/4
        0 0 0 1 1 0 <= 1/3
        0 0 0 1 1 1 <= 7/12
        1 0 0 1 1 1 <= 2/3
        1 1 0 1 1 1 <= 3/4
        1 0 0 0 0 0 <= 1/4
        1 1 0 0 0 0 <= 1/3
        1 1 1 0 0 0 <= 7/12
        1 1 1 1 0 0 <= 2/3
        1 1 1 1 1 0 <= 3/4
        """,
        "optimal 1/4 1/12 1/4 1/12 1/12 1/4 ; 0",
    ),
    (
        "system (3,5) infeasible",
        """
        min 0 0 0 0 0
        1 1 1 1 1 = 1
        1 0 0 0 0 <= 3/10
        1 1 1 1 0 <= 2/3
        0 1 0 0 0 <= 3/10
        1 1 1 0 1 <= 2/3
        0 1 0 0 0 <= 3/10
        0 1 1 1 1 <= 2/3
        """,
        "infeasible -1 1 0 0 0 0 1",
    ),
    (
        "system (3,5) infeasible",
        """
        min 0 0 0 0 0
        1 1 1 1 1 = 1
        1 0 0 0 0 <= 9/40
        1 1 0 0 0 <= 9/20
        1 1 1 0 0 <= 11/20
        1 1 1 1 0 <= 9/10
        0 0 1 0 0 <= 9/40
        0 0 1 1 0 <= 9/20
        0 0 1 1 1 <= 11/20
        1 0 1 1 1 <= 9/10
        0 0 0 1 0 <= 9/40
        0 0 0 1 1 <= 9/20
        0 1 0 1 1 <= 11/20
        1 1 0 1 1 <= 9/10
        """,
        "infeasible -2 1 0 1 0 0 0 1 0 0 0 1 0",
    ),
    (
        "system (3,5) infeasible",
        """
        min 0 0 0 0 0
        1 1 1 1 1 = 1
        1 0 0 0 0 <= 0
        1 1 0 0 0 <= 13/30
        1 1 1 1 0 <= 14/15
        0 0 1 0 0 <= 0
        0 0 1 1 0 <= 13/30
        1 0 1 1 1 <= 14/15
        0 0 1 0 0 <= 0
        0 0 1 1 0 <= 13/30
        0 1 1 1 1 <= 14/15
        """,
        "infeasible -1 1 0 0 0 0 0 0 0 1",
    ),
    (
        "system (3,6) infeasible",
        """
        min 0 0 0 0 0 0
        1 1 1 1 1 1 = 1
        1 0 0 0 0 0 <= 19/60
        1 1 1 1 0 0 <= 13/20
        1 1 1 1 1 0 <= 2/3
        0 1 0 0 0 0 <= 19/60
        1 1 0 0 1 1 <= 13/20
        1 1 1 0 1 1 <= 2/3
        0 1 0 0 0 0 <= 19/60
        1 1 0 0 1 1 <= 13/20
        1 1 0 1 1 1 <= 2/3
        """,
        "infeasible -2 0 1 0 0 0 1 0 0 1",
    ),
    (
        "system (3,6) infeasible",
        """
        min 0 0 0 0 0 0
        1 1 1 1 1 1 = 1
        1 0 0 0 0 0 <= 0
        1 1 0 0 0 0 <= 19/60
        1 1 1 0 0 0 <= 13/20
        1 1 1 1 1 0 <= 59/60
        0 0 0 1 0 0 <= 0
        0 0 0 1 1 0 <= 19/60
        0 0 0 1 1 1 <= 13/20
        1 1 0 1 1 1 <= 59/60
        0 0 0 1 0 0 <= 0
        0 0 0 1 1 0 <= 19/60
        0 0 0 1 1 1 <= 13/20
        0 1 1 1 1 1 <= 59/60
        """,
        "infeasible -1 1 0 0 0 0 0 0 0 0 0 0 1",
    ),
    (
        "system (3,5) optimal",
        """
        min 0 0 0 0 0
        1 1 1 1 1 = 1
        1 0 0 0 0 <= 7/20
        1 1 0 0 0 <= 9/20
        1 1 1 0 0 <= 11/20
        1 1 1 1 0 <= 9/10
        0 0 0 1 0 <= 7/20
        0 0 0 1 1 <= 9/20
        1 0 0 1 1 <= 11/20
        1 1 0 1 1 <= 9/10
        0 0 0 1 0 <= 7/20
        0 0 0 1 1 <= 9/20
        0 1 0 1 1 <= 11/20
        1 1 0 1 1 <= 9/10
        """,
        "optimal 1/10 1/10 7/20 7/20 1/10 ; 0",
    ),
    (
        "system (3,5) optimal",
        """
        min 0 0 0 0 0
        1 1 1 1 1 = 1
        1 0 0 0 0 <= 1/3
        1 1 1 1 0 <= 2/3
        0 1 0 0 0 <= 1/3
        1 1 1 0 1 <= 2/3
        0 1 0 0 0 <= 1/3
        1 1 0 1 1 <= 2/3
        """,
        "optimal 0 0 1/3 1/3 1/3 ; 0",
    ),
    (
        "system (3,6) optimal",
        """
        min 0 0 0 0 0 0
        1 1 1 1 1 1 = 1
        1 0 0 0 0 0 <= 1/3
        1 1 1 1 1 0 <= 2/3
        0 1 0 0 0 0 <= 1/3
        1 1 1 1 0 1 <= 2/3
        0 1 0 0 0 0 <= 1/3
        1 1 1 0 1 1 <= 2/3
        """,
        "optimal 0 0 0 1/3 1/3 1/3 ; 0",
    ),
    (
        "system (3,6) optimal",
        """
        min 0 0 0 0 0 0
        1 1 1 1 1 1 = 1
        1 0 0 0 0 0 <= 0
        1 1 0 0 0 0 <= 1/3
        1 1 1 0 0 0 <= 2/3
        0 0 0 1 0 0 <= 0
        0 0 0 1 1 0 <= 1/3
        0 0 0 1 1 1 <= 2/3
        0 0 1 0 0 0 <= 0
        0 0 1 1 0 0 <= 1/3
        0 0 1 1 1 0 <= 2/3
        """,
        "optimal 0 1/3 0 0 1/3 1/3 ; 0",
    ),
]


def _parse_program(text):
    head, *rows = (line.split() for line in text.strip().splitlines())
    sense, *objective = head
    constraints = tuple(row(coeffs, rel, rhs) for *coeffs, rel, rhs in rows)
    assert sense == "min"
    return LinearProgram(len(objective), constraints, tuple(map(F, objective)))


def _parse_result(text):
    status, _, rest = text.partition(" ")
    if status == "infeasible":
        return LPResult(status, certificate=tuple(map(F, rest.split())))
    primal, value = rest.split(";")
    return LPResult(status, primal=tuple(map(F, primal.split())), objective_value=F(value))


@pytest.mark.parametrize("label, program, expected", GOLDEN, ids=[f"{i:02d}-{g[0]}" for i, g in enumerate(GOLDEN)])
def test_golden_results(label, program, expected):
    assert solve(_parse_program(program)).result == _parse_result(expected)


def test_feasible_points_are_in_lowest_terms():
    # The golden programs, the coprime and the large-cap programs, and 40
    # random programs drawn as `TestSolve` draws its rows.
    rng = random.Random(9)
    corpus = [list(_parse_program(text).constraints) for _, text, _ in GOLDEN]
    corpus += [list(lp.constraints) for lp in coprime_programs()]
    corpus += large_cap_programs()
    corpus += [small_rows(rng) for _ in range(40)]
    statuses = Counter(assert_matches_fraction_tableau(len(rows[0][0]) - 1, rows) for rows in corpus)
    assert statuses["optimal"] > 50 and statuses["infeasible"] > 10, statuses


# sha256 of the `repr((program, result))` of every LP solved in
# `test_lp_traffic_is_unchanged`, with the program in the `Fraction` form of
# `fraction_lp.LinearProgram` and the result as `LPResult`, except the
# feasible implementation LPs.  Every implementation LP comes from
# `feasibility._implementing_point`, which solves one only where its greedy
# fill misses.  It serves the working-set loop of `maximality.is_maximal` and
# the library-profile and scan passes of `feasibility.is_feasible`, whose
# pool may answer a system without it.  Only feasible systems are answered
# without an LP, so the infeasible calls digested are those of solving every
# system.
# The other LPs `feasibility.solve` is given are those of `_hull_mixture`,
# all digested.  Each step of the warm master counts as the `solve` of the
# master rows, at the caps of its last move, plus the cuts so far, in the
# same order.  Any change to a
# program the engines build, to the order they solve them in, or to a result
# changes it.  Re-recorded with 74 digested calls (90 before) when `improve`
# began to test each candidate against the cuts stored for its (n, p) before
# any working-set LP: a later query at a size that an earlier one has seen
# adds a stored cut its candidate violates without an LP, so that traffic
# changed on purpose.  The left-out bounds were then the counts of the first
# solver each pre-check was added to: 160 feasible LPs in `is_feasible`, 68
# in `improve` (28 at this recording, as at the last).  The greedy fill left the digest as
# it was and cut the feasible calls left out from 58 to 25 in `is_feasible`
# and from 28 to 4 in `improve`.  Deleting the per-call lottery pools of the
# library pass and of `improve`, and the scan's seeds, left it as it was too;
# the feasible calls left out went from 7 to 20 in `is_feasible` and stayed
# at 2 in `improve`.  Re-recorded with 75 digested calls when `is_feasible`
# began to try the mixture of anchors on every input at 3 <= n < p, whatever
# the anchors held before: the feasibility check of the first `is_maximal`
# call is now `mixture-dominates`, one hull LP, where it was `scan` with no
# LP digested.  The feasible calls left out read 10 in `is_feasible` and 2 in
# `improve`, before and after.  Folding `improve` into `is_maximal` left the
# digest and both counts as they were.  Re-recorded with 59 digested calls
# when each (n, p) began to keep one master, moved to each input's caps: the
# five calls build 2 masters, move them twice and add 25 cuts, where they
# built 4 and added 41; the feasible calls left out still read 10 and 2.
# Re-recorded, still with 59 digested calls and 10 and 2 left out, when
# every program came to be solved by the dual simplex from its slack basis:
# the programs are those before, the masters minimizing what they maximized
# negated, up to the 11 refuted implementation LPs whose certificates moved
# (each still refutes), after which one (3,6) call's cuts, and so its
# candidates, differ.
# Re-recorded, still with 59 digested calls, when the named covers' guarantees
# joined the anchors: every (3,5) hull LP has two more columns, and the
# feasibility check of the midpoint to 1/2,0,0,1/2,0 (the top-pair cover's
# guarantee) is `mixture-dominates` where its hull LP failed and it was
# `scan`.  The feasible calls left out went from 10 to 4 in `is_feasible`
# and stayed at 2 in `improve`.
# Each bound below is the count left out at the last recording plus one, so
# a change that leaves out more feasible LPs than it did has to be
# re-measured here.
TRAFFIC_DIGEST = "2bada95de05cb2adba79eb843a557d66747d672a9c644a006bfac509adfc29b2"
SKIPPABLE_AT_RECORDING = {"feasibility": 5, "maximality": 3}


def test_lp_traffic_is_unchanged(monkeypatch):
    import hashlib

    import worstvote.feasibility as feasibility
    import worstvote.maximality as maximality
    from worstvote.compose import canonical_word
    from worstvote.lottery import convex_combination, parse_lottery, rd, uniform, vt

    # Start with no stored cuts, so that the calls made do not depend on
    # which tests ran before.
    monkeypatch.setattr(maximality, "_cut_stores", {})
    digest = hashlib.sha256()
    calls = []

    def digested(program, result):
        digest.update(repr((fraction_program(program), result)).encode())
        calls.append(result.status)

    left_out = {"feasibility": [], "maximality": []}
    caller = ["feasibility"]  # the module of the `_implementing_point` call that runs
    in_hull = [False]

    def leaving_out_feasible(program):
        """`solve` in `feasibility`: a feasible implementation LP is left out."""
        solved = solve(program)
        if solved.status == "optimal" and not in_hull[0]:
            left_out[caller[-1]].append(program)
        else:
            digested(program, solved.result)
        return solved

    def hull(*args):
        in_hull[0] = True
        try:
            return hull_mixture(*args)
        finally:
            in_hull[0] = False

    def from_maximality(*args):
        caller.append("maximality")
        try:
            return feasibility._implementing_point(*args)
        finally:
            caller.pop()

    def traced_master(program):
        """`solve` in `maximality`, digesting each master step as the program
        a cold `solve` would be given: the master rows, at the caps of the
        last move, plus every cut so far."""
        solved = solve(program)
        digested(program, solved.result)
        steps = [program]

        def step(constraints):
            last = steps[-1]
            steps.append(LinearProgram(last.num_vars, constraints, last.objective))
            digested(steps[-1], solved.result)

        def add(added):
            type(solved).add(solved, added)
            step(steps[-1].constraints + (added,))

        def move(moved):
            type(solved).move(solved, moved)
            step(tuple(moved.get(r, row) for r, row in enumerate(steps[-1].constraints)))

        solved.add = add
        solved.move = move
        return solved

    hull_mixture = feasibility._hull_mixture
    monkeypatch.setattr(feasibility, "solve", leaving_out_feasible)
    monkeypatch.setattr(feasibility, "_hull_mixture", hull)
    monkeypatch.setattr(maximality, "solve", traced_master)
    monkeypatch.setattr(maximality, "_implementing_point", from_maximality)
    half = F(1, 2)

    def midpoint(a, b):
        return convex_combination([(half, a), (half, b)])

    u5, u6 = uniform(5), uniform(6)
    maximal = [
        (midpoint(u5, vt(3, 5)), "maximal"),
        (midpoint(u5, parse_lottery("1/2,0,0,1/2,0")), "maximal"),
        (midpoint(u6, rd(3, 6)), "maximal"),
        (midpoint(u6, vt(3, 6)), "maximal"),
        (convex_combination([(F(2, 3), u6), (F(1, 6), vt(3, 6)), (F(1, 6), rd(3, 6))]), "dominated"),
    ]
    for lam, verdict in maximal:
        assert maximality.is_maximal(lam, 3).verdict == verdict
    scans = [
        (convex_combination([(F(9, 20), u6), (F(11, 20), vt(3, 6))]), 3),
        (midpoint(canonical_word("VT", 4, 6), canonical_word("RD", 4, 6)), 4),
    ]
    for lam, n in scans:
        report = feasibility.is_feasible(lam, n, use_hull=False, jobs=1)
        assert (report.verdict, report.method) == ("feasible", "scan")
    assert "infeasible" in calls and "optimal" in calls
    assert digest.hexdigest() == TRAFFIC_DIGEST, (len(calls), digest.hexdigest())
    assert len(calls) == 59
    for module, skippable in SKIPPABLE_AT_RECORDING.items():
        assert len(left_out[module]) < skippable, module


def test_every_tableau_is_built_inside_solve(monkeypatch):
    """Every tableau is built by a call of `feasibility.solve` or
    `maximality.solve`, the names through which the engines solve LPs: in a
    scan whose greedy fill misses, at an infeasible library profile, in an
    `is_maximal` cutting-plane run and in a forcing-profile search."""
    from worstvote import feasibility, maximality
    from worstvote import lp as lp_module
    from worstvote.lottery import parse_lottery, rd, vt

    monkeypatch.setattr(maximality, "_cut_stores", {})
    owners = []  # the module of each `solve` call that runs, innermost last
    step = ["none"]  # the engine step that runs
    built = Counter()
    init = lp_module._Tableau.__init__

    def building(tableau, program):
        built[owners[-1] if owners else None, step[0]] += 1
        init(tableau, program)

    def owned(module):
        real = module.solve

        def solve_in(program):
            owners.append(module.__name__)
            try:
                return real(program)
            finally:
                owners.pop()

        monkeypatch.setattr(module, "solve", solve_in)

    scan_chunk = feasibility._scan_chunk

    def scanning(payload):
        outer, step[0] = step[0], "scan"
        try:
            return scan_chunk(payload)
        finally:
            step[0] = outer

    monkeypatch.setattr(lp_module._Tableau, "__init__", building)
    owned(feasibility)
    owned(maximality)
    monkeypatch.setattr(feasibility, "_scan_chunk", scanning)

    step[0] = "feasible"
    report = feasibility.is_feasible(rd(3, 6), 3, use_hull=False)
    assert (report.verdict, report.method) == ("feasible", "scan")
    step[0] = "library"
    report = feasibility.is_feasible(parse_lottery("1/3,1/12,1/4,0,0,1/3"), 3, use_hull=False)
    assert (report.verdict, report.method) == ("infeasible", "library-profile")
    step[0] = "maximal"
    report = maximality.is_maximal(parse_lottery("1/2,0,0,1/2,0"), 3)
    assert report.verdict == "maximal" and report.iterations > 1
    step[0] = "forcing"
    assert maximality.forcing_profile(vt(3, 6), 3, 3) is not None

    assert all(owner for owner, _ in built), built
    for key in (("worstvote.feasibility", "scan"), ("worstvote.feasibility", "library"),
                ("worstvote.maximality", "maximal"), ("worstvote.maximality", "forcing")):
        assert built[key] > 0, (key, built)
