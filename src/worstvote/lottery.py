"""Exact algebra of lotteries over preference ranks.

A rank lottery is a probability vector over the ranks ``1..p`` of a strict
preference order, where rank 1 is the WORST rank and rank ``p`` the best.
Every quantity is an exact rational (`fractions.Fraction`); no operation in
this module introduces rounding of any kind.

A lottery is immutable, so its cumulatives are computed once, on the
first call of `RankLottery.cumulative`, and kept with it; every dominance
test, tail cap and master cap reads them from there.  `uniform` returns
one lottery per p.

The text format for a lottery is a comma-separated list of rationals in
rank order, e.g. ``"0,1/3,1/3,1/3,0,0"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Iterable, Sequence, Union

RationalLike = Union[Fraction, int, str]

ZERO = Fraction(0)
ONE = Fraction(1)


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce ints, strings like ``"1/3"``, and Fractions to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


@dataclass(frozen=True)
class RankLottery:
    """Immutable exact probability vector over ranks 1..p (rank 1 = worst)."""

    probs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.probs) < 1:
            raise ValueError("a rank lottery needs at least one rank")
        if not isinstance(self.probs, tuple) or any(not isinstance(x, Fraction) for x in self.probs):
            object.__setattr__(self, "probs", tuple(as_fraction(x) for x in self.probs))
        if any(x < 0 for x in self.probs):
            raise ValueError(f"negative probability in {self.probs}")
        if sum(self.probs) != 1:
            raise ValueError(f"probabilities sum to {sum(self.probs)}, not 1")

    @property
    def p(self) -> int:
        return len(self.probs)

    @cached_property
    def _cumulative(self) -> tuple[Fraction, ...]:
        # Kept in the instance's __dict__, not as a field, so equality,
        # hashing and repr read `probs` alone.
        return tuple(accumulate(self.probs))

    def cumulative(self) -> tuple[Fraction, ...]:
        """Prefix sums over ranks: entry k is the mass on ranks 1..k+1.
        Computed on the first call and kept, as the lottery is immutable."""
        return self._cumulative

    def reflect(self) -> "RankLottery":
        """Mirror the lottery around the middle rank (best and worst swap)."""
        return RankLottery(tuple(reversed(self.probs)))

    def max_coordinate(self) -> Fraction:
        return max(self.probs)

    def min_coordinate(self) -> Fraction:
        return min(self.probs)

    def is_boundary(self) -> bool:
        """True when some rank has probability exactly zero."""
        return any(x == 0 for x in self.probs)

    def support(self) -> frozenset[int]:
        """Ranks carrying positive mass."""
        return frozenset(k + 1 for k, x in enumerate(self.probs) if x > 0)

    def text(self) -> str:
        """The comma-separated rational format (bit-exact round trip)."""
        return ",".join(str(x) for x in self.probs)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text()


def lottery(values: Iterable[RationalLike]) -> RankLottery:
    """Build a RankLottery, coercing entries to exact rationals."""
    return RankLottery(tuple(as_fraction(v) for v in values))


def parse_lottery(text: str) -> RankLottery:
    """Parse the comma-separated rational format, e.g. ``"0,1/3,1/3,1/3,0,0"``.

    An entry that is not a rational is reported with its offset in `text`.
    """
    values = []
    offset = 0
    for part in text.split(","):
        entry = part.strip()
        try:
            values.append(Fraction(entry))
        except (ValueError, ZeroDivisionError):
            at = offset + part.index(entry) if entry else offset
            raise ValueError(f"bad rational {entry!r} at position {at}") from None
        offset += len(part) + 1
    return RankLottery(tuple(values))


@lru_cache(maxsize=None)
def uniform(p: int) -> RankLottery:
    """The uniform lottery over p ranks, one instance per p."""
    if p < 1:
        raise ValueError("p must be positive")
    share = Fraction(1, p)
    return RankLottery((share,) * p)


def vt(n: int, p: int) -> RankLottery:
    """One-round-of-vetoes guarantee: zero on the worst rank, uniform on the
    next p-n ranks, zero on the top n-1 ranks."""
    if not 1 <= n < p:
        raise ValueError(f"vt requires 1 <= n < p, got n={n}, p={p}")
    share = Fraction(1, p - n)
    return RankLottery((ZERO,) + (share,) * (p - n) + (ZERO,) * (n - 1))


def rd(n: int, p: int) -> RankLottery:
    """Random-dictator guarantee: 1/n on each of the worst n-1 ranks and on
    the best rank, zero in between."""
    if not 1 <= n < p:
        raise ValueError(f"rd requires 1 <= n < p, got n={n}, p={p}")
    share = Fraction(1, n)
    return RankLottery((share,) * (n - 1) + (ZERO,) * (p - n) + (share,))


def dominates(lam: RankLottery, mu: RankLottery) -> bool:
    """Stochastic dominance: every lower cumulative of `lam` is <= that of `mu`.

    Intuitively `lam` shifts mass to better ranks than `mu` does.
    """
    if lam.p != mu.p:
        raise ValueError(f"dimension mismatch: {lam.p} vs {mu.p}")
    return all(a <= b for a, b in zip(lam.cumulative(), mu.cumulative()))


def dual(lam: RankLottery) -> RankLottery:
    """The dual lottery; an exact involution on the simplex.

    Geometrically: draw the ray from the uniform lottery ``u`` through `lam`
    until it exits the simplex, reflect the exit point, and mix back.  With
    m and M the least and largest coordinates of `lam`, the exit point is
    the b of ``lam = p*m * u + (1 - p*m) * b``, so that
    ``b_k = (lam_k - m) / (1 - p*m)`` and some coordinate of b is zero.  A
    boundary point b reflects to ``(M_b - b_{p+1-k}) / (p*M_b - 1)``, and
    with ``M_b = (M - m) / (1 - p*m)`` that is
    ``(M - lam_{p+1-k}) / (p*M - 1)``.  Mixed back with the same weights:

        dual(lam)_k = m + (1 - p*m) * (M - lam_{p+1-k}) / (p*M - 1)

    The uniform lottery, the only one with ``p*M = 1``, is its own dual.
    The one-veto-round and random-dictator guarantees swap,
    ``dual(vt(n, p)) == rd(n, p)``.  That the map preserves feasibility and
    maximality of guarantees is observed, not proved: 400 random lotteries
    each at (3,5), (3,6), (4,6) and (3,7) got the same feasibility verdict
    as their duals, and the duals of 40 maximal points each at (3,6) and
    (3,7) were maximal.  `tests/test_maximality.py` checks, on 25 seeded
    anchor mixtures at each of those sizes, that each dual gets its lottery's
    maximality verdict.  No verdict relies on it.
    """
    p, low, top = lam.p, lam.min_coordinate(), lam.max_coordinate()
    if p * top == 1:
        return lam
    scale = (1 - p * low) / (p * top - 1)
    return RankLottery(tuple(low + scale * (top - x) for x in reversed(lam.probs)))


def is_symmetric(lam: RankLottery) -> bool:
    """True when the lottery equals its own reflection."""
    return lam.probs == tuple(reversed(lam.probs))


def m2_vertices(p: int) -> list[RankLottery]:
    """Extreme symmetric lotteries: 1/2 on ranks t and p+1-t for each
    t <= p/2, plus the point mass on the middle rank when p is odd."""
    if p < 2:
        raise ValueError("p must be at least 2")
    half = Fraction(1, 2)
    out = []
    for t in range(1, p // 2 + 1):
        probs = [ZERO] * p
        probs[t - 1] = half
        probs[p - t] = half
        out.append(RankLottery(tuple(probs)))
    if p % 2 == 1:
        probs = [ZERO] * p
        probs[(p + 1) // 2 - 1] = ONE
        out.append(RankLottery(tuple(probs)))
    return out


def convex_combination(terms: Sequence[tuple[RationalLike, RankLottery]]) -> RankLottery:
    """Exact convex combination; weights must be nonnegative and sum to 1."""
    if not terms:
        raise ValueError("empty combination")
    weights = [as_fraction(w) for w, _ in terms]
    if any(w < 0 for w in weights):
        raise ValueError("negative weight")
    if sum(weights) != 1:
        raise ValueError("weights must sum to exactly 1")
    p = terms[0][1].p
    if any(lam.p != p for _, lam in terms):
        raise ValueError("mixed dimensions in combination")
    probs = [ZERO] * p
    for w, lam in zip(weights, (lam for _, lam in terms)):
        for i, x in enumerate(lam.probs):
            probs[i] += w * x
    return RankLottery(tuple(probs))
