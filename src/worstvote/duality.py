"""The involutive duality map on rank lotteries.

Geometrically: draw the ray from the uniform lottery through `lam` until it
exits the simplex; reflect; rescale.  The uniform lottery is the unique
fixed point, the one-veto-round and random-dictator guarantees swap, and
the map preserves feasibility and maximality of guarantees.  Everything is
affine over exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lottery import RankLottery

ONE = Fraction(1)


@dataclass(frozen=True)
class BoundaryDecomposition:
    """Split of a lottery as `delta * uniform + (1 - delta) * boundary`.

    `boundary` lies on the simplex boundary (some coordinate is zero) and
    `delta = 1` exactly when the lottery is uniform (then `boundary` is
    meaningless and set to the input).
    """

    delta: Fraction
    boundary: RankLottery


def boundary_decompose(lam: RankLottery) -> BoundaryDecomposition:
    """Push `lam` away from the uniform lottery onto the simplex boundary."""
    p = lam.p
    lo = lam.min_coordinate()
    share = Fraction(1, p)
    if lo == share:  # only the uniform lottery has min coordinate 1/p
        return BoundaryDecomposition(delta=ONE, boundary=lam)
    alpha = share / (share - lo)
    boundary = RankLottery(tuple(share + alpha * (x - share) for x in lam.probs))
    return BoundaryDecomposition(delta=ONE - ONE / alpha, boundary=boundary)


def _dual_boundary(lam: RankLottery) -> RankLottery:
    top = lam.max_coordinate()
    p = lam.p
    scale = ONE / (p * top - 1)
    reflected = tuple(reversed(lam.probs))
    return RankLottery(tuple(scale * (top - x) for x in reflected))


def dual(lam: RankLottery) -> RankLottery:
    """The dual lottery; an exact involution on the simplex."""
    decomp = boundary_decompose(lam)
    if decomp.delta == 1:
        return lam
    image = _dual_boundary(decomp.boundary)
    share = Fraction(1, lam.p)
    keep = ONE - decomp.delta
    return RankLottery(
        tuple(decomp.delta * share + keep * x for x in image.probs)
    )
