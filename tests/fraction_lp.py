"""Programs in `Fraction` form, the reference the tests read `lp.Row`s against.

`Constraint` and `LinearProgram` are the dataclasses `worstvote.lp` once
stated its programs in, less the `maximize` flag now that every program
minimizes, kept so that a digest recorded over their `repr` reads the
programs in `Fraction`s.  `fraction_simplex` solves a program on a
tableau of `Fraction` entries, the reference for the integer tableau's
points and certificates.  It imports `worstvote.lp` for its program and
result types and reads the programs that `lp` and its callers build, so
it cannot check how those programs are built: only how they are solved.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from worstvote import lp


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[Fraction, ...]
    rel: str
    rhs: Fraction


@dataclass(frozen=True)
class LinearProgram:
    num_vars: int
    constraints: tuple[Constraint, ...]
    objective: tuple[Fraction, ...]


def row(coeffs, rel, rhs):
    """The `lp.Row` of ``coeffs . x rel rhs`` for rational-like values (ints,
    `Fraction`s or strings such as "1/3"), in lowest terms."""
    values = [Fraction(v) for v in (*coeffs, rhs)]
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den, rel


def constraint(r):
    """`lp.Row` `r` as a `Constraint`."""
    ints, den, rel = r
    return Constraint(tuple(Fraction(v, den) for v in ints[:-1]), rel, Fraction(ints[-1], den))


def fraction_program(program: lp.LinearProgram) -> LinearProgram:
    """`program` with every row as a `Constraint`."""
    return LinearProgram(program.num_vars, tuple(map(constraint, program.constraints)), program.objective)


def fraction_simplex(program: lp.LinearProgram) -> lp.LPResult:
    """`lp.solve` computed on a tableau of `Fraction` entries: the same
    layout of every row as `<=` rows with their own slacks (a `>=` row
    negated, an `=` row as its `<=` row and that row negated), the same
    all-slack start, and the same dual simplex: the leaving row is the one
    of lowest basic column among rows with a negative right-hand side, and
    the entering column has the smallest ratio ``cost_j / -a_j``, ties to
    the lowest column.  The integer tableau claims to make every choice this
    one makes, so the two return the same point and the same certificate."""
    nv, raw = program.num_vars, fraction_program(program).constraints
    layout = [(r, sign) for r, c in enumerate(raw) for sign, skip in ((1, ">="), (-1, "<=")) if c.rel != skip]
    m = len(layout)
    rows = []
    for i, (r, sign) in enumerate(layout):
        rows.append([sign * v for v in raw[r].coeffs] + [Fraction(0)] * m + [sign * raw[r].rhs])
        rows[-1][nv + i] = Fraction(1)
    basis = list(range(nv, nv + m))
    cost = list(program.objective) + [Fraction(0)] * (m + 1)

    def multipliers(slacks):
        y = [Fraction(0)] * len(raw)
        for w, (r, sign) in zip(slacks, layout):
            y[r] += sign * w
        return tuple(y)

    while True:
        negative = [(basis[i], i) for i, r in enumerate(rows) if r[-1] < 0]
        if not negative:
            break
        i = min(negative)[1]
        ratios = [(cost[j] / -a, j) for j, a in enumerate(rows[i][:-1]) if a < 0]
        if not ratios:
            return lp.LPResult(lp.INFEASIBLE, certificate=multipliers(rows[i][nv:nv + m]))
        col = min(ratios)[1]
        rows[i] = [v / rows[i][col] for v in rows[i]]
        for k, r in enumerate(rows):
            if k != i and r[col]:
                rows[k] = [v - r[col] * w for v, w in zip(r, rows[i])]
        cost = [v - cost[col] * w for v, w in zip(cost, rows[i])]
        basis[i] = col
    x = [Fraction(0)] * nv
    for r, b in zip(rows, basis):
        if b < nv:
            x[b] = r[-1]
    return lp.LPResult(lp.OPTIMAL, tuple(x), sum(map(operator.mul, program.objective, x), Fraction(0)))
