"""Exact rational linear programming with verifiable certificates.

A dense two-phase simplex with Bland's pivot rule, so every run terminates
and is deterministic for a given input.  Variables are nonnegative; other
bounds are expressed as explicit constraint rows.

The tableau is integer: each row is a list of ints plus one positive
denominator, kept divided by the gcd of both after every pivot, and the
cost row is stored the same way.  A pivot divides the pivot row by its
pivot element, which cancels that row's denominator, and eliminates the
column from every other row with integer products.  A row's gcd is folded
over its entries and stops as soon as it reaches 1, where `Fraction`
arithmetic takes a gcd on every operation.  `Fraction` values are made only
at the boundary: the primal point and the reduced costs read off for a
certificate.  Every choice the simplex makes is the one a tableau of
`Fraction` entries would make, because each depends only on a sign or on a
comparison of two exact ratios: Bland's rule enters the first column whose
cost numerator is negative, and the ratio test compares ``rhs_i / a_i``
across rows by cross-multiplying integers, in which the row denominators
cancel, with ties broken on the basis index.  The pivot sequence, and so
the primal point and the certificate, are those of a `Fraction` tableau.

Results are treated as proofs downstream, so `solve` re-checks each one in
integers against the program's own rows, scaled by `_scaled` before any sign
flip or added column, and raises `AssertionError` (also under ``python -O``)
if it fails.  An optimal point over one denominator ``D`` must be >= 0 and
meet every row as ``sum_j a_j * X_j`` against ``rhs * D``.  An infeasible
program comes with a Farkas certificate `y`: ``sum_i y_i * row_i`` has
coefficients >= 0 and right-hand side < 0: with ``x >= 0``, ``0 <= negative``.
Signs: ``y_i >= 0`` on ``<=``, ``<= 0`` on ``>=``, free on ``=`` rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Optional, Sequence

from .lottery import RationalLike, as_fraction

ZERO = Fraction(0)

LE = "<="
EQ = "="
GE = ">="
_RELS = (LE, EQ, GE)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[Fraction, ...]
    rel: str
    rhs: Fraction

    def __post_init__(self) -> None:
        if self.rel not in _RELS:
            raise ValueError(f"unknown relation {self.rel!r}")
        if any(not isinstance(c, Fraction) for c in self.coeffs):
            object.__setattr__(self, "coeffs", tuple(as_fraction(c) for c in self.coeffs))
        if not isinstance(self.rhs, Fraction):
            object.__setattr__(self, "rhs", as_fraction(self.rhs))


def constraint(coeffs: Iterable[RationalLike], rel: str, rhs: RationalLike) -> Constraint:
    return Constraint(tuple(as_fraction(c) for c in coeffs), rel, as_fraction(rhs))


@dataclass(frozen=True)
class LinearProgram:
    """min/max of a linear objective over {x >= 0, constraints}."""

    num_vars: int
    constraints: tuple[Constraint, ...]
    objective: tuple[Fraction, ...]
    maximize: bool = True

    def __post_init__(self) -> None:
        if len(self.objective) != self.num_vars:
            raise ValueError("objective length does not match variable count")
        for row in self.constraints:
            if len(row.coeffs) != self.num_vars:
                raise ValueError("constraint length does not match variable count")


@dataclass(frozen=True)
class LPResult:
    status: str
    primal: Optional[tuple[Fraction, ...]] = None
    objective_value: Optional[Fraction] = None
    certificate: Optional[tuple[Fraction, ...]] = None


def feasibility_program(num_vars: int, constraints: Sequence[Constraint]) -> LinearProgram:
    """A zero-objective program; `solve` then acts as a feasibility check."""
    return LinearProgram(num_vars, tuple(constraints), (ZERO,) * num_vars, maximize=False)


def verify_optimal(lp: LinearProgram, result: LPResult) -> bool:
    """Exact re-check of a claimed optimal solution (not of optimality itself)."""
    if result.status != OPTIMAL or result.primal is None or len(result.primal) != lp.num_vars:
        return False
    x, den = _scaled(result.primal)
    obj, obj_den = _scaled(lp.objective)
    value = Fraction(sum(map(mul, obj, x)), obj_den * den)
    return _meets(_raw_rows(lp), x, den) and value == result.objective_value


def verify_infeasibility(lp: LinearProgram, certificate: Sequence[Fraction]) -> bool:
    """Mechanically re-check a Farkas certificate against the raw constraints."""
    return len(certificate) == len(lp.constraints) and _refutes(
        _raw_rows(lp), _scaled(certificate)[0], lp.num_vars)


Row = tuple[list[int], int, str]  # a constraint's ints over one denominator, and its relation


def _raw_rows(lp: LinearProgram) -> list[Row]:
    return [(*_scaled(con.coeffs + (con.rhs,)), con.rel) for con in lp.constraints]


def _meets(rows: Sequence[Row], x: Sequence[int], den: int) -> bool:
    """``x / den`` is nonnegative and satisfies every row."""
    if any(v < 0 for v in x):
        return False
    for ints, _, rel in rows:
        lhs = sum(map(mul, ints, x))  # `map` stops at the end of `x`, before the rhs
        rhs = ints[-1] * den
        if lhs > rhs if rel == LE else lhs < rhs if rel == GE else lhs != rhs:
            return False
    return True


def _refutes(rows: Sequence[Row], y: Sequence[int], nv: int) -> bool:
    """Multipliers ``y / d``, for any one ``d > 0``, are a Farkas certificate for `rows`."""
    scale = 1
    for v, (_, den, rel) in zip(y, rows):
        if v < 0 if rel == LE else v > 0 if rel == GE else False:
            return False
        if v:
            scale = lcm(scale, den)
    combined = [0] * (nv + 1)
    for v, (ints, den, _) in zip(y, rows):
        if v:
            f = v * (scale // den)
            combined = [c + f * a for c, a in zip(combined, ints)]
    *coeffs, total = combined
    return total < 0 and all(c >= 0 for c in coeffs)


def _reduce(row: list[int], den: int) -> tuple[list[int], int]:
    """Divide `row` and its positive denominator `den` by their common gcd."""
    g = den
    for v in row:
        if v:
            g = gcd(g, v)
            if g == 1:
                return row, den
    if g == 1:
        return row, den
    return [v // g for v in row], den // g


def _scaled(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers over one positive common denominator, equal to `values`."""
    den = 1
    for v in values:
        d = v.denominator
        if d != 1:
            den = den // gcd(den, d) * d
    return [v.numerator * (den // v.denominator) for v in values], den


def _eliminate(row: list[int], den: int, prow: list[int], pden: int, col: int) -> tuple[list[int], int]:
    """``row/den - (row[col]/den) * prow/pden``, where ``prow[col] == pden``."""
    g = gcd(row[col], pden)
    a = row[col] // g
    s = pden // g
    return _reduce([s * v - a * pv for v, pv in zip(row, prow)], den * s)


class _Tableau:
    """Dense simplex tableau over the integers.

    Row ``i`` holds the values ``rows[i][j] / dens[i]`` for its columns and,
    last, its right-hand side; the cost row is ``cost[j] / cost_den``.  Every
    denominator is positive and each row is kept divided by its gcd.
    """

    def __init__(self, rows: list[list[int]], dens: list[int], basis: list[int]):
        self.rows = rows
        self.dens = dens
        self.basis = basis
        self.cost: list[int] = []
        self.cost_den = 1

    def set_cost(self, cost: list[int], den: int) -> None:
        """Install the cost row ``cost / den``, priced out against the basis."""
        for row, row_den, b in zip(self.rows, self.dens, self.basis):
            if cost[b]:
                cost, den = _eliminate(cost, den, row, row_den, b)
        self.cost = cost
        self.cost_den = den

    def pivot(self, row_idx: int, col: int) -> None:
        rows = self.rows
        dens = self.dens
        # Dividing the pivot row by its pivot element cancels its denominator.
        prow = rows[row_idx]
        pden = prow[col]
        if pden < 0:
            prow = [-v for v in prow]
            pden = -pden
        prow, pden = _reduce(prow, pden)
        rows[row_idx] = prow
        dens[row_idx] = pden
        for i, row in enumerate(rows):
            if i != row_idx and row[col]:
                rows[i], dens[i] = _eliminate(row, dens[i], prow, pden, col)
        if self.cost[col]:
            self.cost, self.cost_den = _eliminate(self.cost, self.cost_den, prow, pden, col)
        self.basis[row_idx] = col

    def run(self, ncols: int) -> str:
        """Minimize until optimal or unbounded; Bland's rule over the first `ncols` columns."""
        rows = self.rows
        basis = self.basis
        while True:
            cost = self.cost
            enter = -1
            for j in range(ncols):
                if cost[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return OPTIMAL
            # Ratio test: rhs_i / a_i over rows with a_i > 0.  Both values
            # share the row's denominator, so it cancels from the ratio.
            leave = -1
            best_rhs = best_a = 0
            for i, row in enumerate(rows):
                a = row[enter]
                if a > 0:
                    rhs = row[-1]
                    if leave >= 0:
                        lhs_cross = rhs * best_a
                        rhs_cross = best_rhs * a
                        if lhs_cross > rhs_cross or (lhs_cross == rhs_cross and basis[i] > basis[leave]):
                            continue
                    leave = i
                    best_rhs = rhs
                    best_a = a
            if leave < 0:
                return UNBOUNDED
            self.pivot(leave, enter)


def solve(lp: LinearProgram) -> LPResult:
    """Exact optimum or a self-verified Farkas infeasibility certificate."""
    nv = lp.num_vars
    m = len(lp.constraints)

    # Normalize to rhs >= 0, remembering per-row sign flips.
    raw = _raw_rows(lp)
    flipped = [ints[-1] < 0 for ints, _, _ in raw]
    norm_rel = [{LE: GE, GE: LE, EQ: EQ}[rel] if flip else rel for (_, _, rel), flip in zip(raw, flipped)]

    n_slack = norm_rel.count(LE)
    art0 = nv + n_slack + norm_rel.count(GE)
    ncols = art0 + m - n_slack

    rows: list[list[int]] = []
    dens = [den for _, den, _ in raw]
    basis: list[int] = []
    si, ui, ai = nv, nv + n_slack, art0  # next slack, surplus and artificial column
    pad = [0] * (ncols - nv)
    for (ints, den, _), flip, rel in zip(raw, flipped, norm_rel):
        if flip:
            ints = [-v for v in ints]
        row = ints[:nv] + pad + ints[-1:]
        if rel == LE:
            row[si] = den
            basis.append(si)
            si += 1
        else:
            if rel == GE:
                row[ui] = -den
                ui += 1
            row[ai] = den
            basis.append(ai)
            ai += 1
        rows.append(row)
    unit_col = basis[:]  # column whose reduced cost encodes each row's dual

    tab = _Tableau(rows, dens, basis)

    # Phase 1: minimize the sum of artificial variables.
    tab.set_cost([0] * art0 + [1] * (ncols - art0) + [0], 1)
    status = tab.run(ncols)
    assert status == OPTIMAL, "phase 1 cannot be unbounded"

    if tab.cost[-1] < 0:
        # Infeasible; read the dual off the cost row and map back to the
        # original row order and orientations.
        nums = [tab.cost[col] - (tab.cost_den if col >= art0 else 0) for col in unit_col]
        nums = [-y if flip else y for y, flip in zip(nums, flipped)]
        if not _refutes(raw, nums, nv):
            raise AssertionError("bad Farkas certificate")
        return LPResult(status=INFEASIBLE, certificate=tuple([Fraction(y, tab.cost_den) for y in nums]))

    # Drive any zero-valued artificial out of the basis, dropping redundant rows.
    drop: list[int] = []
    for i in range(m):
        if tab.basis[i] >= art0:
            row = tab.rows[i]
            pivot_col = next((j for j in range(art0) if row[j]), -1)
            if pivot_col >= 0:
                tab.pivot(i, pivot_col)
            else:
                drop.append(i)
    for i in reversed(drop):
        del tab.rows[i]
        del tab.dens[i]
        del tab.basis[i]

    # Phase 2 on the original objective (as minimization).
    obj, obj_den = _scaled(lp.objective)
    sense = -1 if lp.maximize else 1
    tab.set_cost([sense * v for v in obj] + [0] * (ncols - nv + 1), obj_den)
    status = tab.run(art0)
    if status == UNBOUNDED:
        return LPResult(status=UNBOUNDED)

    basic = [(b, i) for i, b in enumerate(tab.basis) if b < nv]
    scale = lcm(*(tab.dens[i] for _, i in basic))
    x = [0] * nv
    for b, i in basic:
        x[b] = tab.rows[i][-1] * (scale // tab.dens[i])
    if not _meets(raw, x, scale):
        raise AssertionError("optimal solution failed re-verification")
    value = Fraction(sum(map(mul, obj, x)), obj_den * scale)
    # From a list, `tuple` allocates at the final size (a generator resizes).
    return LPResult(OPTIMAL, tuple([Fraction(v, scale) if v else ZERO for v in x]), value)
