import itertools
from fractions import Fraction

import pytest

from worstvote.lp import (
    Constraint,
    LinearProgram,
    LPResult,
    constraint,
    feasibility_program,
    solve,
    verify_infeasibility,
    verify_optimal,
)

F = Fraction


def brute_force_maximum(lp):
    """Independent oracle: enumerate every basic point of the constraint
    system (including the nonnegativity facets) and take the best feasible
    one.  Only for tiny programs."""
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
        if best is None or value > best:
            best = value
    return best


class TestSolve:
    def test_simple_maximum(self):
        lp = LinearProgram(1, (constraint([1], "<=", 1),), (F(1),), maximize=True)
        result = solve(lp)
        assert result.status == "optimal"
        assert result.primal == (F(1),)
        assert result.objective_value == 1

    def test_infeasible_with_certificate(self):
        lp = feasibility_program(1, [constraint([1], "<=", -1)])
        result = solve(lp)
        assert result.status == "infeasible"
        assert verify_infeasibility(lp, result.certificate)

    def test_unbounded(self):
        lp = LinearProgram(2, (constraint([0, 1], "=", 1),), (F(1), F(0)), maximize=True)
        assert solve(lp).status == "unbounded"

    def test_equalities_and_ge(self):
        lp = LinearProgram(
            2,
            (constraint([1, 1], ">=", 2), constraint([1, -1], "=", 0)),
            (F(2), F(3)),
            maximize=False,
        )
        result = solve(lp)
        assert result.primal == (F(1), F(1))
        assert result.objective_value == 5

    def test_degenerate_matches_vertex_scan(self):
        # pairwise-sum caps create massive pivot ties
        lp = LinearProgram(
            3,
            (
                constraint([1, 1, 0], "<=", 1),
                constraint([1, 0, 1], "<=", 1),
                constraint([0, 1, 1], "<=", 1),
                constraint([1, 1, 1], "<=", 1),
                constraint([2, 1, 1], "<=", 2),
            ),
            (F(1), F(1), F(1)),
            maximize=True,
        )
        result = solve(lp)
        assert result.status == "optimal"
        assert result.objective_value == brute_force_maximum(lp)

    def test_random_small_programs_match_vertex_scan(self):
        import random

        rng = random.Random(9)
        for _ in range(40):
            rows = tuple(
                constraint([rng.randint(-3, 3) for _ in range(3)], "<=", rng.randint(0, 4))
                for _ in range(4)
            )
            # bound the feasible region so the oracle comparison is total
            rows = rows + (constraint([1, 1, 1], "<=", 5),)
            lp = LinearProgram(
                3, rows, tuple(F(rng.randint(-3, 3)) for _ in range(3)), maximize=True
            )
            result = solve(lp)
            assert result.status == "optimal"
            assert result.objective_value == brute_force_maximum(lp)

    def test_determinism(self):
        lp = LinearProgram(
            3,
            (
                constraint([1, 1, 0], "<=", 1),
                constraint([1, 0, 1], "<=", 1),
                constraint([0, 1, 1], "<=", 1),
            ),
            (F(1), F(1), F(1)),
            maximize=True,
        )
        assert solve(lp) == solve(lp)


class TestVerification:
    def test_optimal_reverifies(self):
        lp = LinearProgram(
            2,
            (constraint([2, 1], "<=", 4), constraint([1, 3], "<=", 6)),
            (F(3), F(5)),
            maximize=True,
        )
        result = solve(lp)
        assert verify_optimal(lp, result)

    def test_certificates_reverify_on_random_infeasible_systems(self):
        import random

        rng = random.Random(11)
        found = 0
        while found < 15:
            rows = [
                constraint([rng.randint(-2, 2) for _ in range(3)], rng.choice(["<=", ">=", "="]), rng.randint(-3, 3))
                for _ in range(4)
            ]
            lp = feasibility_program(3, rows)
            result = solve(lp)
            if result.status != "infeasible":
                continue
            found += 1
            assert verify_infeasibility(lp, result.certificate)

    def test_tampered_certificate_rejected(self):
        lp = feasibility_program(1, [constraint([1], "<=", -1)])
        result = solve(lp)
        bad = tuple(-y for y in result.certificate)
        assert not verify_infeasibility(lp, bad)


class TestValidation:
    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            LinearProgram(2, (constraint([1], "<=", 1),), (F(1), F(0)))
        with pytest.raises(ValueError):
            LinearProgram(1, (), (F(1), F(0)))

    def test_relation_check(self):
        with pytest.raises(ValueError):
            Constraint((F(1),), "<", F(1))


@pytest.fixture
def tableau_log(monkeypatch):
    """Spy on the tableau: the element of each pivot taken outside a simplex
    run (the phase-1 drive-out), and the row count at the start of each run."""
    from worstvote import lp as lp_module

    log = {"drive_out": [], "run_rows": []}
    in_run = [False]
    pivot, run = lp_module._Tableau.pivot, lp_module._Tableau.run

    def spy_pivot(self, row_idx, col):
        if not in_run[0]:
            log["drive_out"].append(self.rows[row_idx][col])
        return pivot(self, row_idx, col)

    def spy_run(self, ncols):
        log["run_rows"].append(len(self.rows))
        in_run[0] = True
        try:
            return run(self, ncols)
        finally:
            in_run[0] = False

    monkeypatch.setattr(lp_module._Tableau, "pivot", spy_pivot)
    monkeypatch.setattr(lp_module._Tableau, "run", spy_run)
    return log


def assert_matches_oracle(lp):
    """`solve` agrees with the vertex scan, and proves what it claims."""
    result = solve(lp)
    best = brute_force_maximum(lp)
    if best is None:
        assert result.status == "infeasible"
        assert verify_infeasibility(lp, result.certificate)
    else:
        assert result.status == "optimal"
        assert verify_optimal(lp, result)
        assert result.objective_value == best
    return result


class TestIntegerTableau:
    """Paths the integer tableau adds: rows scaled to one denominator,
    flipped rows, the phase-1 drive-out and dropped redundant rows."""

    def test_coprime_denominators_across_one_row(self):
        lp = LinearProgram(
            4,
            (
                constraint(["1/2", "1/3", "1/5", "1/7"], "<=", "1/11"),
                constraint(["1/11", "-1/7", "1/5", "-1/3"], ">=", "-1/2"),
                constraint([1, 1, 1, 1], "<=", 1),
            ),
            (F(1, 3), F(1, 5), F(1, 7), F(1, 11)),
            maximize=True,
        )
        assert assert_matches_oracle(lp).objective_value > 0

    def test_random_programs_with_coprime_denominators(self):
        import random

        rng = random.Random(5)
        infeasible = 0
        for _ in range(30):
            rows = tuple(
                constraint(
                    [F(rng.randint(-3, 3), rng.choice((2, 3, 5, 7, 11))) for _ in range(3)],
                    rng.choice(["<=", ">=", "="]),
                    F(rng.randint(-3, 3), rng.choice((2, 3, 5, 7, 11))),
                )
                for _ in range(3)
            ) + (constraint([1, 1, 1], "<=", 4),)
            objective = tuple(F(rng.randint(-3, 3), rng.choice((1, 7, 11))) for _ in range(3))
            result = assert_matches_oracle(LinearProgram(3, rows, objective, maximize=True))
            infeasible += result.status == "infeasible"
        assert 0 < infeasible < 30

    def test_negative_rhs_rows_are_flipped(self):
        rows = (
            constraint([-1, -1, 0], "<=", -1),  # x1 + x2 >= 1
            constraint([1, -2, 0], ">=", "-3/2"),
            constraint([-1, 0, 1], "=", "-1/3"),  # x3 = x1 - 1/3
            constraint([1, 1, 1], "<=", 3),
        )
        lp = LinearProgram(3, rows, (F(-1), F(2), F(1)), maximize=True)
        assert assert_matches_oracle(lp).status == "optimal"
        # x1 + x2 <= 1/2 against x1 + x2 >= 1, both written with rhs < 0
        lp = feasibility_program(2, [constraint([-1, -1], ">=", "-1/2"), constraint([-1, -1], "<=", -1)])
        assert assert_matches_oracle(lp).status == "infeasible"

    def test_mixed_equality_and_ge_rows(self):
        lp = LinearProgram(
            3,
            (
                constraint([1, 1, 1], "=", 1),
                constraint([2, 1, 0], ">=", 1),
                constraint([0, 1, 3], ">=", "1/2"),
                constraint([1, 0, -1], "=", 0),
            ),
            (F(0), F(1), F(-1)),
            maximize=True,
        )
        assert assert_matches_oracle(lp).status == "optimal"
        lp = feasibility_program(
            2, [constraint([1, 1], "=", 1), constraint([1, 0], ">=", "2/3"), constraint([0, 1], ">=", "1/2")]
        )
        assert assert_matches_oracle(lp).status == "infeasible"

    def test_drive_out_pivots_on_a_negative_element(self, tableau_log):
        # -x3 = 0 leaves its artificial basic at zero after phase 1; the only
        # nonzero entry of that row is the -1 under x3.
        lp = LinearProgram(
            3,
            (
                constraint([0, 1, 0], "=", 2),
                constraint([0, 0, -1], "=", 0),
                constraint([1, 2, 0], ">=", 2),
                constraint([1, 1, 1], "<=", 4),
            ),
            (F(0), F(1), F(0)),
            maximize=True,
        )
        assert assert_matches_oracle(lp).primal[1] == 2
        assert any(element < 0 for element in tableau_log["drive_out"])

    def test_redundant_row_is_dropped(self, tableau_log):
        lp = LinearProgram(
            2,
            (
                constraint([1, 1], "=", 1),
                constraint([2, 2], "=", 2),
                constraint([1, 0], "<=", "2/3"),
            ),
            (F(1), F(3)),
            maximize=False,
        )
        # the vertex scan maximizes, so compare on the negated objective
        result = solve(lp)
        flipped = LinearProgram(2, lp.constraints, tuple(-c for c in lp.objective), maximize=True)
        assert result.objective_value == -brute_force_maximum(flipped)
        assert verify_optimal(lp, result)
        assert tableau_log["run_rows"] == [3, 2]


# Master programs (`maximality._master_program`), cut programs
# (`feasibility.implement_program`) and tail-system programs
# (`feasibility._scan_chunk`) met while deciding maximality and
# feasibility at (3,5) and (3,6), each with the result of the `Fraction`
# tableau that preceded the integer one.  The pivot rule is unchanged, so
# the primal point and the certificate must be unchanged too.
GOLDEN = [
    (
        "master (3,5) optimal",
        """
        max -4 -3 -2 -1 0
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
        "optimal 7/20 1/10 1/10 7/20 1/10 ; -9/4",
    ),
    (
        "master (3,5) optimal",
        """
        max -4 -3 -2 -1 0
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
        "optimal 1/10 7/20 7/20 1/10 1/10 ; -9/4",
    ),
    (
        "master (3,5) optimal",
        """
        max -4 -3 -2 -1 0
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
        "optimal 1/10 0 0 4/5 1/10 ; -6/5",
    ),
    (
        "master (3,6) optimal",
        """
        max -5 -4 -3 -2 -1 0
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
        "optimal 1/4 1/4 1/12 1/12 1/12 1/4 ; -11/4",
    ),
    (
        "master (3,6) optimal",
        """
        max -5 -4 -3 -2 -1 0
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
        "optimal 1/4 1/12 0 1/3 1/12 1/4 ; -7/3",
    ),
    (
        "master (3,6) optimal",
        """
        max -5 -4 -3 -2 -1 0
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
        "infeasible -1 0 0 0 1/2 0 0 0 1/2 0 1/2 0 0",
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
        "infeasible -1 0 0 0 0 1/2 0 0 0 1/2 0 0 0 1/2 0 0",
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
        "infeasible -1 1/2 0 1/2 0 0 0 1/2 0 0 0 1/2 0",
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
        "infeasible -1 0 1/2 0 0 0 1/2 0 0 1/2",
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
    constraints = tuple(constraint(coeffs, rel, rhs) for *coeffs, rel, rhs in rows)
    return LinearProgram(len(objective), constraints, tuple(map(F, objective)), maximize=sense == "max")


def _parse_result(text):
    status, _, rest = text.partition(" ")
    if status == "infeasible":
        return LPResult(status, certificate=tuple(map(F, rest.split())))
    primal, value = rest.split(";")
    return LPResult(status, primal=tuple(map(F, primal.split())), objective_value=F(value))


@pytest.mark.parametrize("label, program, expected", GOLDEN, ids=[f"{i:02d}-{g[0]}" for i, g in enumerate(GOLDEN)])
def test_golden_results(label, program, expected):
    assert solve(_parse_program(program)) == _parse_result(expected)
