"""Strict preference profiles and rank rearrangement.

Outcomes carry ids ``1..p``.  A preference lists outcome ids from WORST to
best, so ``order[0]`` is the agent's least liked outcome.

Only strict orders are modeled.  This loses no generality for guarantee
checking: refining a tie can only shrink the set of implementing lotteries
(every tail of a refinement is one of the tied order's tails, and the
implementation requirement takes the minimum over tails), so a guarantee
implementable at every strict profile is implementable at profiles with
indifferences as well.

Profile text format: one agent per ``/``-separated block, outcome ids
worst to best, e.g. ``"1 2 3 / 2 3 1 / 3 1 2"``.

Infeasible guarantees and non-maximal candidates are almost always refuted
by a profile with strong combinatorial structure: everyone agreeing, two
agents exactly opposed, cyclic shifts, tails tiling the outcome set, or a
small core profile padded outward one composition round at a time, a veto
pad giving each agent its own worst outcome and a dictator pad its own
best.  `hard_profiles` lists these; searches consult them before falling
back to exhaustive enumeration.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .lottery import RankLottery, as_fraction


@dataclass(frozen=True)
class Preference:
    """A strict order over outcomes 1..p, listed worst to best."""

    order: tuple[int, ...]

    def __post_init__(self) -> None:
        p = len(self.order)
        if p < 1 or sorted(self.order) != list(range(1, p + 1)):
            raise ValueError(f"not a permutation of 1..{p}: {self.order}")

    @property
    def p(self) -> int:
        return len(self.order)


@dataclass(frozen=True)
class OutcomeLottery:
    """Exact probability vector over outcome ids 1..p."""

    mass: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if any(not isinstance(x, Fraction) for x in self.mass):
            object.__setattr__(self, "mass", tuple(as_fraction(x) for x in self.mass))
        if any(x < 0 for x in self.mass):
            raise ValueError("negative mass")
        if sum(self.mass) != 1:
            raise ValueError("mass must sum to exactly 1")

    @property
    def p(self) -> int:
        return len(self.mass)

    def text(self) -> str:
        return ",".join(str(x) for x in self.mass)


@dataclass(frozen=True)
class Profile:
    """An n-tuple of strict preferences over the same p outcomes."""

    prefs: tuple[Preference, ...]

    def __post_init__(self) -> None:
        if not self.prefs:
            raise ValueError("empty profile")
        p = self.prefs[0].p
        if any(pref.p != p for pref in self.prefs):
            raise ValueError("preferences over different outcome sets")

    @property
    def n(self) -> int:
        return len(self.prefs)

    @property
    def p(self) -> int:
        return self.prefs[0].p

    def text(self) -> str:
        return format_profile(self)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text()


def format_profile(prof: Profile) -> str:
    return " / ".join(" ".join(str(a) for a in pref.order) for pref in prof.prefs)


def rank_rearrange(ell: OutcomeLottery, pref: Preference) -> RankLottery:
    """Rearrange an outcome lottery into the agent's rank order (worst first)."""
    if ell.p != pref.p:
        raise ValueError("dimension mismatch")
    return RankLottery(tuple(ell.mass[a - 1] for a in pref.order))


def cyclic_pad_profile(inner: Profile) -> Profile:
    """Grow an (n, p)-profile to (n, p+n) by cyclic padding at the extremes.

    Each agent i gets a dedicated new outcome at their worst rank, the inner
    profile in ranks 2..p+1, and the other new outcomes cyclically at the
    top n-1 ranks.  New outcomes receive ids p+1..p+n.
    """
    n, p = inner.n, inner.p
    extras = [p + 1 + i for i in range(n)]
    prefs = []
    for i, pref in enumerate(inner.prefs):
        tops = tuple(extras[(i + j) % n] for j in range(1, n))
        prefs.append(Preference((extras[i],) + pref.order + tops))
    return Profile(tuple(prefs))


def cyclic_top_pad_profile(inner: Profile) -> Profile:
    """Grow an (n, p)-profile to (n, p+n) with the mirrored padding.

    Agent i places new outcomes cyclically at the worst n-1 ranks, the inner
    profile in the middle, and one dedicated new outcome at the top.
    """
    n, p = inner.n, inner.p
    extras = [p + 1 + i for i in range(n)]
    prefs = []
    for i, pref in enumerate(inner.prefs):
        bottoms = tuple(extras[(i + j) % n] for j in range(n - 1))
        top = extras[(i + n - 1) % n]
        prefs.append(Preference(bottoms + pref.order + (top,)))
    return Profile(tuple(prefs))


# ----------------------------------------------------------------------------
# Structured profiles: the seeds of every witness search.
# ----------------------------------------------------------------------------


def identity_preference(p: int) -> Preference:
    return Preference(tuple(range(1, p + 1)))


def identical_profile(n: int, p: int) -> Profile:
    """All agents share the identity order."""
    return Profile((identity_preference(p),) * n)


def reversal_profile(n: int, p: int) -> Profile:
    """Agent 2 holds the exact reverse of agent 1; others follow agent 1."""
    if n < 2:
        raise ValueError("need at least two agents")
    pref = identity_preference(p)
    return Profile((pref, Preference(pref.order[::-1])) + (pref,) * (n - 2))


def cyclic_profile(n: int, p: int) -> Profile:
    """Agent i's order is the identity rotated by i positions."""
    base = tuple(range(1, p + 1))
    return Profile(tuple(Preference(base[i % p :] + base[: i % p]) for i in range(n)))


def block_profile(n: int, p: int, blocks: Sequence[frozenset[int]], *, top: bool) -> Profile:
    """Agents 1..len(blocks) (at most n) get the given sets as their best
    outcomes (`top`) or their worst, in label order, and the other outcomes
    in label order; the other agents get the identity order."""
    prefs = []
    for block in blocks:
        ordered = sorted(block)
        rest = [a for a in range(1, p + 1) if a not in block]
        prefs.append(Preference(tuple(rest + ordered if top else ordered + rest)))
    prefs += [identity_preference(p)] * (n - len(blocks))
    return Profile(tuple(prefs))


def tiling_profile(n: int, p: int, k: int) -> Profile | None:
    """A profile whose first ceil(p/k) agents have k-tails covering 1..p,
    for 1 <= k < p; None when that takes more than n agents."""
    m = -(-p // k)
    if m > n:
        return None
    starts = [min(i * k, p - k) for i in range(m)]
    return block_profile(n, p, [frozenset(range(lo + 1, lo + k + 1)) for lo in starts], top=False)


@functools.lru_cache(maxsize=32)
def hard_profiles(n: int, p: int) -> tuple[Profile, ...]:
    """Deduplicated seed list for witness searches at (n, p), built once
    per (n, p): every way of padding a structured base profile out to p
    outcomes, then the tilings, each profile at its first occurrence.

    Each padding round adds n outcomes either at the extremes favouring a
    veto round (dedicated worst outcome per agent) or favouring a dictator
    round (dedicated best outcome per agent); the bases are the structured
    profiles on the p - rounds * n outcomes left.  One agent's profiles are
    all relabelings of the identity, so at n = 1 no round is padded.
    """
    candidates = []
    for rounds in range((p - 1) // n + 1 if n > 1 else 1):
        base_p = p - rounds * n
        bases = [identical_profile(n, base_p)]
        if base_p >= 2:
            bases.append(cyclic_profile(n, base_p))
            if n >= 2:
                bases.append(reversal_profile(n, base_p))
        for pads in itertools.product((cyclic_pad_profile, cyclic_top_pad_profile), repeat=rounds):
            for base in bases:
                prof = base
                for pad in reversed(pads):
                    prof = pad(prof)
                candidates.append(prof)
    candidates += [prof for k in range(1, p) if (prof := tiling_profile(n, p, k)) is not None]
    return tuple(dict.fromkeys(candidates))
