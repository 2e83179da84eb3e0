"""Programs in `Fraction` form, the reference the tests read `lp.Row`s against.

`Constraint` and `LinearProgram` are the dataclasses `worstvote.lp` once
stated its programs in, kept so that a digest recorded over their `repr`
still reads the same programs.  `fraction_simplex` solves a program on a
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
    maximize: bool = True


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
    return LinearProgram(program.num_vars, tuple(map(constraint, program.constraints)), program.objective,
                         program.maximize)


def fraction_simplex(program: lp.LinearProgram) -> lp.LPResult:
    """`lp.solve` computed on a tableau of `Fraction` entries: the same
    column layout, the same two phases, Bland's rule with ratio ties broken
    on the basis index, and the same drive-out of artificials.  The integer
    tableau claims to make every choice this one makes, so the two return
    the same point and the same certificate."""
    nv, raw = program.num_vars, fraction_program(program).constraints
    flipped = [c.rhs < 0 for c in raw]
    rels = [{"<=": ">=", ">=": "<="}.get(c.rel, c.rel) if flip else c.rel for c, flip in zip(raw, flipped)]
    n_slack = rels.count("<=")
    art0 = nv + n_slack + rels.count(">=")
    ncols = art0 + len(raw) - n_slack
    rows, basis = [], []
    si, ui, ai = nv, nv + n_slack, art0
    for c, flip, rel in zip(raw, flipped, rels):
        sign = -1 if flip else 1
        r = [sign * v for v in c.coeffs] + [Fraction(0)] * (ncols - nv) + [sign * c.rhs]
        if rel == "<=":
            r[si] = Fraction(1)
            basis.append(si)
            si += 1
        else:
            if rel == ">=":
                r[ui] = Fraction(-1)
                ui += 1
            r[ai] = Fraction(1)
            basis.append(ai)
            ai += 1
        rows.append(r)
    unit_col = basis[:]
    cost = []

    def pivot(i, col):
        nonlocal cost
        rows[i] = [v / rows[i][col] for v in rows[i]]
        for r_idx, r in enumerate(rows):
            if r_idx != i and r[col]:
                rows[r_idx] = [v - r[col] * w for v, w in zip(r, rows[i])]
        cost = [v - cost[col] * w for v, w in zip(cost, rows[i])]
        basis[i] = col

    def set_cost(values):
        nonlocal cost
        cost = list(values)
        for r, b in zip(rows, basis):
            cost = [v - cost[b] * w for v, w in zip(cost, r)]

    def run(limit):
        while True:
            enter = next((j for j in range(limit) if cost[j] < 0), -1)
            if enter < 0:
                return lp.OPTIMAL
            candidates = [(r[-1] / r[enter], basis[i], i) for i, r in enumerate(rows) if r[enter] > 0]
            if not candidates:
                return lp.UNBOUNDED
            pivot(min(candidates)[2], enter)

    set_cost([Fraction(0)] * art0 + [Fraction(1)] * (ncols - art0) + [Fraction(0)])
    run(ncols)
    if cost[-1] < 0:
        y = [cost[col] - (col >= art0) for col in unit_col]
        return lp.LPResult(lp.INFEASIBLE, certificate=tuple(-v if flip else v for v, flip in zip(y, flipped)))
    for i in range(len(rows)):
        if basis[i] >= art0:
            col = next((j for j in range(art0) if rows[i][j]), -1)
            if col >= 0:
                pivot(i, col)
    keep = [i for i, b in enumerate(basis) if b < art0]
    rows[:], basis[:] = [rows[i] for i in keep], [basis[i] for i in keep]
    sense = -1 if program.maximize else 1
    set_cost([sense * v for v in program.objective] + [Fraction(0)] * (ncols - nv + 1))
    if run(art0) == lp.UNBOUNDED:
        return lp.LPResult(lp.UNBOUNDED)
    x = [Fraction(0)] * nv
    for r, b in zip(rows, basis):
        if b < nv:
            x[b] = r[-1]
    return lp.LPResult(lp.OPTIMAL, tuple(x), sum(map(operator.mul, program.objective, x), Fraction(0)))
