"""Exact rational linear programming with verifiable certificates.

Every program minimizes a nonnegative objective over nonnegative variables;
other bounds are explicit constraint rows.  A program is solved by the dual
simplex alone, from its all-slack basis.  Each row is laid out as ``<=``
rows, each with its own slack column: a ``<=`` row as it is, a ``>=`` row
negated, and an ``=`` row as the pair of its ``<=`` row and that row
negated.  The slacks form the starting basis and the objective is the cost
row.  Its reduced costs, the objective coefficients and zeros, are >= 0, so
the start is dual feasible whatever the signs of the right-hand sides, and
no phase 1 or artificial column is needed (Lemke 1954).  Each step takes
the leaving row, among rows with a negative right-hand side, the one whose
basic column is lowest; the entering column has the smallest ratio
``cost_j / -a_j`` over the entries ``a_j < 0`` of that row, ties going to
the lowest column.  This is Bland's smallest-subscript rule applied to the
dual program (Bland 1977), so no basis repeats and the loop ends: at a
basis whose right-hand sides are all >= 0, an optimum, or at a row whose
entries are all >= 0 and whose right-hand side is < 0, which proves the
program infeasible.  A nonnegative cost is bounded below by 0 on ``x >=
0``, so no program is unbounded.

The tableau is integer: each row is a list of ints plus one positive
denominator, and the cost row is stored the same way.  A pivot divides the
pivot row by its pivot element, which cancels that row's denominator, and
eliminates the column from every other row with integer products, updating
only the columns where the pivot row is nonzero; the multiplier is first
divided by the gcd of the row's entry and the pivot element.  Rows may
carry a common factor between pivots: tableau entries are ratios of
subdeterminants (Edmonds), so exactness does not need lowest terms.  A row
is divided by the gcd of its entries and denominator only once its
denominator reaches 2**60, so its ints stay within that factor of its
lowest terms, and the point an optimum returns is put in lowest terms as a
whole.  Every choice the simplex makes is the one a tableau of `Fraction`
entries would make, because each depends only on a sign or on a comparison
of two exact ratios, compared by cross-multiplying integers, in which the
row denominators cancel.  The pivot sequence, and so the primal point and
the certificate, are those of a `Fraction` tableau (`tests/fraction_lp.py`
holds one as the reference).

Every constraint is stated in one form, the `Row` triple ``(ints, den,
rel)``: a row's coefficients and right-hand side as ints over one positive
denominator.  The engines build rows, a `LinearProgram` holds them, and
the tableau and the integer checks read them as they are.  `solve` is the
one entry point.  It returns the solved program: its `status`, then its
optimum as ints over one scale in `point`, so no `Fraction` is made for a
feasible program, or its Farkas certificate in `certificate`; `result`
reads them as `Fraction`s.  A cutting-plane loop, whose master program
gains one row per iteration, keeps the solved master and calls `add` for
each row.  The added ``<=`` or ``>=`` row is laid out like any other, with
its own slack column, and priced out against the basis.  The reduced
costs stay >= 0, so the basis stays dual feasible, and only the new row's
right-hand side can be negative; the same dual simplex re-optimizes.
Where the optimum is not unique, the warm tableau may end at another
optimal vertex than a `solve` from scratch; the value is the same.

A loop that solves one master for many inputs, which differ only in the
right-hand sides of some rows, calls `move` with those rows.  Their
coefficient values and relations stay the same (anything else is a
`ValueError`), so the reduced costs do too, and the optimal basis stays
dual feasible (post-optimal analysis; Chvatal 1983, ch. 10).  Every
tableau row, and the cost row, is a combination of the laid-out rows, with
weights in their slack columns.  `move` recomputes each right-hand side
in integers, as those weights times the laid-out right-hand sides over
one scale, and multiplies the row only by what the new value's
denominator lacks; a row is divided by its gcd only under the 2**60 rule
of a pivot.  Then the same dual simplex re-optimizes, and its result is
re-checked against the moved rows.

Results are treated as proofs downstream, so every result is re-checked
in integers against the program's own rows, as they were given, and a
failed check raises `AssertionError` (also under ``python -O``).  An
optimal point ``x / D`` must be >= 0 and meet every row as ``sum_j a_j *
x_j`` against ``rhs * D``.  An infeasible program comes with a Farkas
certificate `y`: ``sum_i y_i * row_i`` has coefficients >= 0 and
right-hand side < 0, so ``x >= 0`` would give ``0 <= negative``.  Signs:
``y_i >= 0`` on ``<=``, ``<= 0`` on ``>=``, free on ``=`` rows.  It is
read off the refuting tableau row: the weight of each laid-out row, with
the sign of its layout, summed over the one or two laid-out rows of each
program row.  These checks show that a point is feasible, not that it is
optimal.  `certify` shows that too: it reads the dual off the cost row's
slack entries in the same way and checks that each multiplier has the
sign its row requires, that the dual is feasible for every column ``x_j >=
0``, and that the dual objective equals the primal value, so that weak
duality bounds every feasible point by this one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence

ZERO = Fraction(0)

LE = "<="
EQ = "="
GE = ">="
_RELS = (LE, EQ, GE)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"


Row = tuple[list[int], int, str]  # a constraint's ints over one denominator, and its relation
Point = tuple[list[int], int]  # ints x over one positive scale, for the point x / scale


@dataclass(frozen=True)
class LinearProgram:
    """min of a nonnegative linear objective over {x >= 0, constraints}.

    Each constraint is a `Row` ``(ints, den, rel)``: the coefficients and,
    last, the right-hand side, as ints over the positive denominator `den`.
    A nonnegative objective makes the all-slack basis dual feasible, the
    start `solve` needs.
    """

    num_vars: int
    constraints: tuple[Row, ...]
    objective: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.objective) != self.num_vars:
            raise ValueError("objective length does not match variable count")
        if any(c < 0 for c in self.objective):
            raise ValueError("objective coefficients must be nonnegative")
        for ints, den, rel in self.constraints:
            if len(ints) != self.num_vars + 1:
                raise ValueError("row length does not match variable count")
            if rel not in _RELS:
                raise ValueError(f"unknown relation {rel!r}")
            if den <= 0:
                raise ValueError("row denominator must be positive")


@dataclass(frozen=True)
class LPResult:
    status: str
    primal: Optional[tuple[Fraction, ...]] = None
    objective_value: Optional[Fraction] = None
    certificate: Optional[tuple[Fraction, ...]] = None


def feasibility_program(num_vars: int, rows: Sequence[Row]) -> LinearProgram:
    """A zero-objective program; `solve` then acts as a feasibility check."""
    return LinearProgram(num_vars, tuple(rows), (ZERO,) * num_vars)


def verify_infeasibility(lp: LinearProgram, certificate: Sequence[Fraction]) -> bool:
    """Mechanically re-check a Farkas certificate against the program's rows."""
    return len(certificate) == len(lp.constraints) and _refutes(
        lp.constraints, _scaled(certificate)[0], lp.num_vars)


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


def _combine(rows: Sequence[Row], y: Sequence[int], nv: int) -> Optional[tuple[list[int], int]]:
    """``sum_i y_i * row_i`` as ints over the rows' common scale, and that
    scale; None when a sign does not fit its row: ``y_i >= 0`` on ``<=``,
    ``<= 0`` on ``>=``, free on ``=``."""
    scale = 1
    for v, (_, den, rel) in zip(y, rows):
        if v < 0 if rel == LE else v > 0 if rel == GE else False:
            return None
        if v:
            scale = lcm(scale, den)
    combined = [0] * (nv + 1)
    for v, (ints, den, _) in zip(y, rows):
        if v:
            f = v * (scale // den)
            combined = [c + f * a for c, a in zip(combined, ints)]
    return combined, scale


def _refutes(rows: Sequence[Row], y: Sequence[int], nv: int) -> bool:
    """Multipliers ``y / d``, for any one ``d > 0``, are a Farkas certificate for `rows`."""
    combined = _combine(rows, y, nv)
    if combined is None:
        return False
    *coeffs, total = combined[0]
    return total < 0 and all(c >= 0 for c in coeffs)


def _bounds(rows: Sequence[Row], z: Sequence[int], z_den: int, cost: Sequence[int], cost_den: int,
            value: Fraction) -> bool:
    """Multipliers ``z / z_den``, signed as for `_refutes`, prove that
    ``cost / cost_den`` is at least `value` at every ``x >= 0`` meeting `rows`:
    ``cost + z A >= 0`` column by column and ``-z b == value``, so that
    ``cost x >= -z A x >= -z b`` (weak duality)."""
    combined = _combine(rows, z, len(cost))
    if combined is None:
        return False
    (*coeffs, total), scale = combined
    k = scale * z_den
    return Fraction(-total, k) == value and all(c * k + a * cost_den >= 0 for c, a in zip(cost, coeffs))


_BOUND = 1 << 60  # a row is divided by its gcd once its denominator reaches this


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


def _nonzero(row: list[int]) -> list[int]:
    return [j for j, v in enumerate(row) if v]


def _eliminate(
    row: list[int], den: int, prow: list[int], pden: int, col: int, nz: list[int]
) -> tuple[list[int], int]:
    """``row/den - (row[col]/den) * prow/pden``, where ``prow[col] == pden``
    and `nz` lists the columns where `prow` is nonzero: only those change."""
    g = gcd(row[col], pden)
    a = row[col] // g
    s = pden // g
    out = row[:] if s == 1 else [s * v for v in row]
    for j in nz:
        out[j] -= a * prow[j]
    den *= s
    return _reduce(out, den) if den >= _BOUND else (out, den)


class _Tableau:
    """Dense dual simplex tableau over the integers for one program, built
    from its `Row`s by `solve`.  `status` is the outcome, with the optimum
    in `point` or the Farkas certificate in `certificate`, and stays current
    while `add` appends rows and `move` gives rows new right-hand sides.

    Row ``i`` holds the values ``rows[i][j] / dens[i]`` for its columns and,
    last, its right-hand side; the cost row is ``cost[j] / cost_den``, and
    its last entry is minus the objective value.  Every denominator is
    positive, and a row whose denominator reaches `_BOUND` is divided by its
    gcd.  `layout[i]` is ``(r, sign)``: tableau row ``i`` was laid out as
    `sign` times program row ``r``, as a ``<=`` row.  The columns are the
    variables, then the slack of each laid-out row in layout order, and
    last the right-hand side.  Every tableau row is the combination of the
    laid-out rows whose weights are its entries in the slack columns, and
    the cost row is the costs less such a combination, so duals and Farkas
    certificates are read off there, and `move` recomputes right-hand sides
    from them.
    """

    def __init__(self, lp: LinearProgram):
        nv = self.nv = lp.num_vars
        # `add` appends to `raw`, so the tableau keeps its own list of rows.
        raw = self.raw = list(lp.constraints)
        self.obj, self.obj_den = _scaled(lp.objective)
        layout: list[tuple[int, int]] = []
        for r, (_, _, rel) in enumerate(raw):
            if rel != GE:
                layout.append((r, 1))
            if rel != LE:
                layout.append((r, -1))
        self.layout = layout
        m = len(layout)
        rows: list[list[int]] = []
        for i, (r, sign) in enumerate(layout):
            ints, den, _ = raw[r]
            row = [sign * v for v in ints[:nv]] + [0] * m + [sign * ints[-1]]
            row[nv + i] = den
            rows.append(row)
        self.rows = rows
        self.dens = [raw[r][1] for r, _ in layout]
        self.basis = list(range(nv, nv + m))
        self.cost = self.obj + [0] * (m + 1)
        self.cost_den = self.obj_den
        self.point: Optional[Point] = None
        self.certificate: Optional[tuple[Fraction, ...]] = None
        self.status = self._dual_run()

    def _multipliers(self, weights: Sequence[int]) -> list[int]:
        """Per program row, the summed `weights` of its laid-out rows, each
        with the sign of its layout."""
        y = [0] * len(self.raw)
        for w, (r, sign) in zip(weights, self.layout):
            y[r] += sign * w
        return y

    def _slacks(self, row: list[int]) -> list[int]:
        return row[self.nv:self.nv + len(self.layout)]

    def _infeasible(self, row: list[int], den: int) -> str:
        """Keep the Farkas certificate that the tableau row ``row / den``
        reads, over the program's rows and re-checked."""
        nums = self._multipliers(self._slacks(row))
        if not _refutes(self.raw, nums, self.nv):
            raise AssertionError("bad Farkas certificate")
        self.certificate = tuple([Fraction(y, den) for y in nums])
        return INFEASIBLE

    def _optimum(self) -> str:
        """Keep the basic point ``x / scale`` in lowest terms, re-checked
        against the program's rows."""
        nv = self.nv
        basic = [(b, i) for i, b in enumerate(self.basis) if b < nv]
        scale = lcm(*(self.dens[i] for _, i in basic))
        x = [0] * nv
        for b, i in basic:
            x[b] = self.rows[i][-1] * (scale // self.dens[i])
        x, scale = _reduce(x, scale)
        if not _meets(self.raw, x, scale):
            raise AssertionError("optimal solution failed re-verification")
        self.point = x, scale
        return OPTIMAL

    @property
    def result(self) -> LPResult:
        """The outcome as `Fraction` values, built on each read."""
        if self.status != OPTIMAL:
            return LPResult(self.status, certificate=self.certificate)
        x, scale = self.point
        value = Fraction(sum(map(mul, self.obj, x)), self.obj_den * scale)
        # From a list, `tuple` allocates at the final size (a generator resizes).
        return LPResult(OPTIMAL, tuple([Fraction(v, scale) if v else ZERO for v in x]), value)

    def pivot(self, row_idx: int, col: int) -> None:
        rows = self.rows
        dens = self.dens
        # Dividing the pivot row by its pivot element cancels its denominator.
        prow = rows[row_idx]
        pden = prow[col]
        if pden < 0:
            prow = [-v for v in prow]
            pden = -pden
        if pden >= _BOUND:
            prow, pden = _reduce(prow, pden)
        rows[row_idx] = prow
        dens[row_idx] = pden
        nz = _nonzero(prow)
        for i, row in enumerate(rows):
            if i != row_idx and row[col]:
                rows[i], dens[i] = _eliminate(row, dens[i], prow, pden, col, nz)
        if self.cost[col]:
            self.cost, self.cost_den = _eliminate(self.cost, self.cost_den, prow, pden, col, nz)
        self.basis[row_idx] = col

    def add(self, row: Row) -> None:
        """Append the ``<=`` or ``>=`` row `row` and re-optimize."""
        if self.status != OPTIMAL:
            raise ValueError(f"rows can be added only at an optimum, not when {self.status}")
        ints, den, rel = row
        if rel not in (LE, GE) or len(ints) != self.nv + 1 or den <= 0:
            raise ValueError("an added row must be an inequality over the program's variables")
        self.raw.append(row)
        sign = -1 if rel == GE else 1
        self.layout.append((len(self.raw) - 1, sign))
        col = len(self.cost) - 1
        for tab_row in self.rows:
            tab_row.insert(col, 0)
        self.cost.insert(col, 0)
        # Laid out with its own slack, then priced out against the basis.
        new = [sign * v for v in ints[:-1]] + [0] * (col - self.nv) + [den, sign * ints[-1]]
        for prow, pden, b in zip(self.rows, self.dens, self.basis):
            if new[b]:
                new, den = _eliminate(new, den, prow, pden, b, _nonzero(prow))
        self.rows.append(new)
        self.dens.append(den)
        self.basis.append(col)
        self.status = self._dual_run()

    def move(self, moved: dict[int, Row]) -> None:
        """Give each program row ``r`` of `moved` the right-hand side of
        ``moved[r]``, whose coefficient values and relation must be those of
        row ``r``, and re-optimize.  Each row is rebased in integers and
        divided by its gcd only under the `_BOUND` rule of `_eliminate`, so
        it holds the rationals a full reduction would give."""
        if self.status != OPTIMAL:
            raise ValueError(f"rows can be moved only at an optimum, not when {self.status}")
        raw = self.raw
        for r, (ints, den, rel) in moved.items():
            old, old_den, old_rel = raw[r]
            if rel != old_rel or den <= 0 or len(ints) != len(old) or any(
                    a * old_den != v * den for a, v in zip(ints[:-1], old)):
                raise ValueError("a moved row must keep its coefficient values and relation")
        for r, new in moved.items():
            raw[r] = new
        # The laid-out right-hand sides ``b / scale``, straight from the rows' ints.
        scale = lcm(*(raw[r][1] for r, _ in self.layout))
        b = [sign * raw[r][0][-1] * (scale // raw[r][1]) for r, sign in self.layout]

        def rebased(row: list[int], den: int) -> tuple[list[int], int]:
            # The new right-hand side is ``num / (den * scale)``, so the row
            # is multiplied only by what that value's denominator lacks.
            num = sum(map(mul, self._slacks(row), b))
            g = gcd(num, scale)
            s = scale // g
            out = row[:] if s == 1 else [v * s for v in row]
            out[-1] = num // g
            den *= s
            return _reduce(out, den) if den >= _BOUND else (out, den)

        rows, dens = self.rows, self.dens
        for i, row in enumerate(rows):
            rows[i], dens[i] = rebased(row, dens[i])
        self.cost, self.cost_den = rebased(self.cost, self.cost_den)
        self.status = self._dual_run()

    def _dual_run(self) -> str:
        """Dual simplex from a dual-feasible basis, smallest-subscript rule."""
        rows = self.rows
        basis = self.basis
        while True:
            leave = -1
            for i, row in enumerate(rows):
                if row[-1] < 0 and (leave < 0 or basis[i] < basis[leave]):
                    leave = i
            if leave < 0:
                return self._optimum()
            row = rows[leave]
            cost = self.cost
            # Smallest cost_j / -a_j over a_j < 0: the row's denominator, and
            # the cost row's, cancel from the cross-multiplied comparison.
            enter = -1
            best_cost = best_a = 0
            for j in range(len(cost) - 1):
                a = row[j]
                if a < 0 and (enter < 0 or cost[j] * best_a > best_cost * a):
                    enter = j
                    best_cost = cost[j]
                    best_a = a
            if enter < 0:
                # The row reads: basic variable + (terms >= 0) = negative.
                return self._infeasible(row, self.dens[leave])
            self.pivot(leave, enter)

    def certify(self) -> tuple[list[int], int]:
        """The dual ``z / z_den`` read off the cost row, one multiplier per
        program row and signed as for `_bounds`, once it proves the current
        point optimal; `AssertionError`, also under ``python -O``, when it
        does not."""
        if self.status != OPTIMAL:
            raise ValueError(f"only an optimum can be certified, not {self.status}")
        z = self._multipliers(self._slacks(self.cost))
        if not _bounds(self.raw, z, self.cost_den, self.obj, self.obj_den, self.result.objective_value):
            raise AssertionError("optimum failed its dual check")
        return z, self.cost_den


def solve(lp: LinearProgram) -> _Tableau:
    """`lp` solved: exact optimum or a self-verified Farkas infeasibility
    certificate, kept in a tableau that `add` and `move` re-optimize."""
    return _Tableau(lp)
