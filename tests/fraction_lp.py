"""Programs in `Fraction` form, the reference the tests read `lp.Row`s against.

`Constraint` and `LinearProgram` are the dataclasses `worstvote.lp` once
stated its programs in, kept so that a digest recorded over their `repr`
still reads the same programs.
"""

from __future__ import annotations

import math
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
