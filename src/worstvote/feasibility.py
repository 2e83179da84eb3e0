"""Deciding whether a rank guarantee is implementable at every profile.

A guarantee `lam` is feasible for n agents when every strict profile admits
an outcome lottery whose rank rearrangement dominates `lam` for each agent.
Per profile that is a small exact LP; the quantifier over profiles is the
hard part.  Three reductions keep it tractable:

* Only ranks where the cumulative of `lam` strictly increases constrain
  anything (a tail constraint at rank k is implied by the one at the next
  such rank), so a profile matters only through its tails at those active
  ranks.  Profiles collapse into far fewer "tail systems".
* Tail systems are enumerated up to symmetry: outcome relabeling pins agent
  1's tails to the canonical chain, agent exchange sorts the rest, and a
  system that a relabeling fixing the canonical chain maps onto an earlier
  system is skipped (isomorph rejection by least representatives; the
  proof is in `_scan_chunk`).
* Most systems are certified by an implementing lottery found earlier in
  the scan.  Each pool lottery keeps the bitmask of the chain layouts
  whose tail caps it meets (exact integer tail sums, made once per
  lottery by ANDs and ORs of the holding masks over its support: per
  active rank and outcome, the layouts whose tail holds it), and each
  layout a bitmask of the pool lotteries that meet it, brought up to date
  only when a run reads that layout.  A
  system is certified exactly when the AND of its layouts' masks is
  nonzero.  The other systems get a point from `_implementing_point`: two
  greedy fills in integers, and an LP only where both run out of room.
  The point becomes the next bit.

The active ranks and their caps (`_tail_caps`) are computed once per call
and serve the cut witness's certificate, the library profiles, tested
before the scan, and every scan chunk.  Each chunk's pool starts empty.
Only feasible LPs are skipped, so the first refuting profile or system,
its certificate and the count checked are those of solving every LP.  The chain layouts and their
holding masks are built once per (p, active ranks), with the tables of the
relabelings that skip systems, and kept for later calls, and for the
process pool's forked workers, up to `_MAX_CHAINS` entries in all; the
deadline is checked while they build.

Every implementing point is found by `_implementing_point`, the greedy
fills first, then the implementation LP: the integer rows (`lp.Row`) that
`_tail_rows` lays out once, in the program the public `implement_program`
also builds, solved by `lp.solve` as the hull LP of `_hull_mixture` is.
The point the solved program keeps, ints over one scale in lowest terms,
goes into the pool as it is.

Fast verdicts come first: domination by the uniform lottery or, at
3 <= n < p, by a mixture of anchors proves feasibility outright (any
lottery implementing the dominating guarantee implements `lam`).  The
anchors are the canonical guarantees and those of the named covers, each
proved by its protocol with no scan or LP; their memo changes no report
(`verified_anchors`).
The two-agent case is a closed-form inequality test; cheap covering
arguments refute many infeasible inputs with an explicit witness profile,
and at n >= p every one (`necessary_cuts`).
"""

from __future__ import annotations

import itertools
import math
import os
import time
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .lottery import RankLottery, ZERO, dominates, uniform
from .lp import (
    EQ,
    INFEASIBLE,
    LE,
    OPTIMAL,
    LinearProgram,
    Point,
    Row,
    _reduce,
    _scaled,
    feasibility_program,
    solve,
)
from .profiles import Preference, Profile, block_profile, hard_profiles, reversal_profile, tiling_profile

FEASIBLE = "feasible"
UNDECIDED = "undecided"

# The most chain layouts a scan builds; also the most first-stage reports,
# summed over the words' aggregates and the named covers' report tuples,
# that `verified_anchors` evaluates.
_MAX_CHAINS = 200_000
# Scans of fewer runs (systems sharing all but the last agent's layout,
# before any is skipped) than this stay one in-process chunk even when
# jobs > 1.  Every pool chunk starts with an empty pool and finds again
# the implementing lotteries an earlier chunk found; once the skip rule
# leaves few runs to test, that and the workers' start outweigh the second
# core.  Measured at jobs 1 and 2 with the pool forced, on a 2-core VM
# (medians of 5 runs): the pool won clearly only from 28.6M runs ((4,9)
# VT,RD 3.7 s against 2.7 s).  Below, at 151,200 to 6.4M runs, it won by
# less than the spread of the runs ((3,10) RD,VT,RD 3.1 s against 2.8 s,
# (4,8) VT 0.29 s against 0.21 s, (5,8) VT 0.20 s against 0.15 s); see
# CHANGES.md.
_POOL_SWITCH = 20_000_000

# Per active rank, per outcome (0-based), the bitmask of the chain layouts
# whose tail at that rank holds the outcome.
Holding = tuple[tuple[int, ...], ...]


# ----------------------------------------------------------------------------
# Per-profile implementation LP.
# ----------------------------------------------------------------------------


def active_ranks(lam: RankLottery) -> tuple[int, ...]:
    """Ranks k < p at which the cumulative of `lam` strictly increases at k+1.

    Tail constraints at other ranks are implied by these (tails are nested
    and mass is nonnegative), so feasibility checks may ignore them.
    """
    return tuple(k for k in range(1, lam.p) if lam.probs[k] > 0)


def _tail_rows(
    p: int, ks: Sequence[int], caps: Sequence[int], cap_den: int, layouts: Sequence[tuple[int, ...]]
) -> list[Row]:
    """The rows of the implementation LP over `p` outcomes for orders listed
    worst first, as `lp.Row` triples in lowest terms.

    Row 0 pins total mass to one; then, for each order in turn, one row per
    active rank k in `ks` caps the mass of that order's k-tail at the
    matching entry of `caps` over `cap_den`, written in lowest terms as
    ``c / d``: ``d`` on each outcome of the tail, over the denominator
    ``d``, with right-hand side ``c``.  Row order is deterministic so
    certificates can be re-verified against a rebuilt program.
    """
    terms = [(cap // g, cap_den // g) for cap in caps for g in (math.gcd(cap, cap_den),)]
    rows = [([1] * (p + 1), 1, EQ)]
    for layout in layouts:
        for k, (cap, den) in zip(ks, terms):
            ints = [0] * p + [cap]
            for a in layout[:k]:
                ints[a - 1] = den
            rows.append((ints, den, LE))
    return rows


def _tail_caps(lam: RankLottery) -> tuple[tuple[int, ...], list[int], int]:
    """The active ranks of `lam`, its cumulatives there as ints over one
    scale, and that scale: the caps of every tail system of `lam`."""
    ks = active_ranks(lam)
    cum = lam.cumulative()
    caps, cap_den = _scaled([cum[k - 1] for k in ks])
    return ks, caps, cap_den


def _implementing_point(
    p: int, ks: Sequence[int], caps: Sequence[int], cap_den: int, orders: Sequence[tuple[int, ...]]
) -> tuple[Optional[Point], Optional[tuple[Fraction, ...]]]:
    """``((x, scale), None)`` where ``x / scale``, in lowest terms, puts at
    most ``caps[i] / cap_den`` on the ks[i] worst outcomes of every order in
    `orders`, or ``(None, y)`` with the Farkas certificate `y` of the rows
    `_tail_rows` lays out for them when no lottery does.

    A greedy fill, in integers over `cap_den`, answers first (`_fill`).
    It visits the outcomes least constrained first, by the summed size of
    the tails that hold them, ties to the higher label.  Where that fill
    stalls, a second one visits them worst first, by the lowest position
    any order gives them, ties again to the higher label, so that no
    outcome that many tails share takes their room before the outcomes
    some agent ranks worst.  A fill that reaches mass one meets every
    row, so it implements; for a single chain of caps (a polymatroid) the
    first always does (Edmonds 1970).  Only when both fills run out of
    room does `lp.solve` solve the rows.  No lottery exists for an
    LP-infeasible system, so every infeasible verdict and certificate is
    the LP's.
    """
    width = len(ks)
    holders: list[list[int]] = [[] for _ in range(p)]  # per outcome, its tails' places in `room`
    size = [0] * p  # per outcome, the summed size of its tails
    for i, order in enumerate(orders):
        for j, k in enumerate(ks):
            for a in order[:k]:
                holders[a - 1].append(i * width + j)
                size[a - 1] += k
    # Stable sorts of the labels high to low send ties to the higher label.
    labels = range(p - 1, -1, -1)
    for key in (size.__getitem__, lambda a: min([order.index(a + 1) for order in orders])):
        point = _fill(sorted(labels, key=key), holders, list(caps) * len(orders), cap_den)
        if point is not None:
            return point, None
    solved = solve(feasibility_program(p, _tail_rows(p, ks, caps, cap_den, orders)))
    return solved.point, solved.certificate


def _fill(visit: Sequence[int], holders: Sequence[Sequence[int]], room: list[int], cap_den: int) -> Optional[Point]:
    """Fill the outcomes (0-based) in the order `visit`, each with all the
    mass, over `cap_den`, that every tail holding it (`holders`, places in
    `room`) still has room for: the point in lowest terms once the mass
    reaches one, None when the room runs out first.  `room` is spent."""
    mass = [0] * len(holders)
    left = cap_den
    for a in visit:
        give = min([left, *[room[t] for t in holders[a]]])
        mass[a] = give
        left -= give
        if not left:
            return _reduce(mass, cap_den)
        for t in holders[a]:
            room[t] -= give
    return None


def implement_program(lam: RankLottery, prof: Profile) -> LinearProgram:
    """The exact LP deciding whether some lottery implements `lam` at `prof`."""
    if lam.p != prof.p:
        raise ValueError("dimension mismatch between lottery and profile")
    return feasibility_program(lam.p, _tail_rows(lam.p, *_tail_caps(lam), [pref.order for pref in prof.prefs]))


# ----------------------------------------------------------------------------
# Balanced families and cheap necessary conditions.
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class BalancedFamily:
    """Sets with positive weights whose weighted indicators sum to all-ones."""

    sets: tuple[frozenset[int], ...]
    weights: tuple[Fraction, ...]

    def is_balanced(self, p: int) -> bool:
        for j in range(1, p + 1):
            total = sum((w for s, w in zip(self.sets, self.weights) if j in s), ZERO)
            if total != 1:
                return False
        return True


def balanced_range(n: int, p: int) -> bool:
    """Whether `balanced_family` builds families at (n, p): for every k from
    2 to p/2, and for k = 1 when also p <= n."""
    return p <= 2 * n - 2 or (p == 2 * n and n not in (4, 5))


def balanced_family(p: int, k: int, n: int) -> Optional[BalancedFamily]:
    """A balanced family of k-sets of [p] with at most n members, when the
    supported (n, p) range allows one; None otherwise.  At k = 1 that is the
    p singletons, for p <= n agents."""
    if not 1 <= k <= p // 2:
        raise ValueError(f"need 1 <= k <= p/2, got k={k}, p={p}")
    if not balanced_range(n, p) or k == 1 and p > n:
        return None

    one = Fraction(1)
    if p % k == 0:
        sets = tuple(
            frozenset(range(i * k + 1, (i + 1) * k + 1)) for i in range(p // k)
        )
        fam = BalancedFamily(sets, (one,) * len(sets))
    elif p == 2 * n and k == n - 1:
        fam = _balanced_family_double(n)
    else:
        fam = _balanced_family_cyclic(p, k)
    assert len(fam.sets) <= n, "family exceeds the agent budget"
    assert fam.is_balanced(p), "family fails the balance equations"
    return fam


def _balanced_family_cyclic(p: int, k: int) -> BalancedFamily:
    # p = t*k + r with 0 < r < k: t block sets, then k sets mixing a cyclic
    # window of the last block with the r leftover points.
    t, r = divmod(p, k)
    sets = [frozenset(range(i * k + 1, (i + 1) * k + 1)) for i in range(t)]
    weights = [Fraction(1)] * (t - 1) + [Fraction(r, k)]
    last_block = list(range((t - 1) * k + 1, t * k + 1))
    leftover = frozenset(range(t * k + 1, p + 1))
    for i in range(k):
        window = frozenset(last_block[(i + j) % k] for j in range(k - r))
        sets.append(window | leftover)
        weights.append(Fraction(1, k))
    return BalancedFamily(tuple(sets), tuple(weights))


def _balanced_family_double(n: int) -> BalancedFamily:
    # p = 2n, k = n-1 and k does not divide p; split by parity of k.
    p = 2 * n
    k = n - 1
    block = frozenset(range(1, k + 1))
    rest = list(range(k + 1, p + 1))
    sets = [block]
    weights = [Fraction(1)]
    if k % 2 == 0:
        pairs = [frozenset(rest[2 * i : 2 * i + 2]) for i in range(len(rest) // 2)]
        for i in range(len(pairs)):
            union = frozenset().union(*(pairs[j] for j in range(len(pairs)) if j != i))
            sets.append(union)
            weights.append(Fraction(2, k))
    else:
        triple = frozenset(rest[:3])
        pairs = [frozenset(rest[3 + 2 * i : 5 + 2 * i]) for i in range((len(rest) - 3) // 2)]
        all_pairs = frozenset().union(*pairs) if pairs else frozenset()
        for i in range(len(pairs)):
            union = triple | frozenset().union(
                *(pairs[j] for j in range(len(pairs)) if j != i)
            )
            sets.append(union)
            weights.append(Fraction(2, k))
        for a in sorted(triple):
            sets.append(frozenset({a}) | all_pairs)
            weights.append(Fraction(1, k))
    return BalancedFamily(tuple(sets), tuple(weights))


@dataclass(frozen=True)
class ViolatedCut:
    kind: str
    k: int
    witness: Profile


def necessary_cuts(lam: RankLottery, n: int) -> Optional[ViolatedCut]:
    """The first closed-form inequality that `lam` violates, of those every
    feasible guarantee must satisfy; None when it passes them all.

    Each violation comes with a concrete profile at which the implementation
    LP is infeasible, so a failed cut is a full refutation, not a heuristic.

    A balanced family of sets with weights w_S (each outcome's weights sum
    to one, so sum w_S = p/k for k-sets) held as agents' k worst outcomes
    gives, for any lottery, sum w_S * mass(S) = 1, so some agent's k-tail
    holds at least k/p: the cut reads cum_k >= k/p.  Held as their best
    outcomes instead, the complements are (p - k)-tails with the same
    weights, each outcome's summing to p/k - 1, which gives
    cum_{p-k} >= (p - k)/p.

    At n >= p these cuts are complete: every rank k < p carries the
    uniform's bound cum_k >= k/p, so a guarantee passes them exactly when
    the uniform dominates it, and the uniform lottery then implements it at
    every profile (the paper's first theorem).  The family at each rank:
    - k = 1: the cover cut, p agents each with one outcome worst;
    - 2 <= k <= p - 2: the balanced family of min(k, p - k)-sets, at most
      p <= n of them, worst outcomes for k <= p/2 and best for k > p/2;
    - k = p - 1: the p singletons, each one agent's best outcome, so the
      (p - 1)-tails are the p complements.
    At n < p the balanced cuts stop at rank p - 2.
    """
    p = lam.p
    cum = lam.cumulative()

    if n == 2:
        for k in range(1, p // 2 + 1):
            front = cum[k - 1]
            back = 1 - cum[p - k - 1]
            if front < back:
                return ViolatedCut("two-agent", k, reversal_profile(2, p))

    for k in range(1, p):
        m = -(-p // k)
        if m <= n and m * cum[k - 1] < 1:
            witness = tiling_profile(n, p, k)
            assert witness is not None
            return ViolatedCut("cover", k, witness)

    if balanced_range(n, p):
        for k in range(2, p if p <= n else p - 1):
            if cum[k - 1] < Fraction(k, p):
                fam = balanced_family(p, min(k, p - k), n)
                assert fam is not None
                witness = block_profile(n, p, fam.sets, top=k > p // 2)
                return ViolatedCut("balanced", k, witness)
    return None


# ----------------------------------------------------------------------------
# Tail-system scan.
# ----------------------------------------------------------------------------


def _expired(deadline: Optional[float]) -> bool:
    return deadline is not None and time.monotonic() >= deadline


def _chain_layouts(p: int, ks: tuple[int, ...], deadline: Optional[float]) -> Optional[list[tuple[int, ...]]]:
    """All nested tail chains with the given sizes, encoded as orderings, or
    None when `deadline` passes first.

    A layout is a worst-to-best arrangement whose prefixes of sizes `ks` are
    the chain; blocks between consecutive sizes are sorted, making each
    chain appear exactly once.  Layouts are sorted by their overlap with the
    canonical chain (the labels 1..k each k-tail holds), then as tuples, so
    the most disjoint come first and the identity, the one layout of full
    overlap, comes last.  The skip rule of `_witness_tables` compares images
    in this order, and `_scan_chunk` reads the identity as index count - 1.
    The order also finds refutations early.  On 48 infeasible inputs over
    twelfths at (3,6), (3,7), (4,6) and (4,7) that pass the cuts, scans at
    jobs=1 visited 69,628 systems in 0.03 s, against 1,155,556,917 in
    1.5-2.2 s with the sort removed and the identity first; the seed 1-3
    `scan` bench queries solved 55 implementation LPs, against 161 (2-core
    VM).
    """
    sizes = []
    prev = 0
    for k in ks:
        sizes.append(k - prev)
        prev = k
    sizes.append(p - prev)

    # Extend every partial layout by one block at a time, in lexicographic
    # order; the last block takes whatever remains.  The overlap is summed
    # block by block: the prefix that ends at active rank k holds the labels
    # 1..k that `remaining`, which stays sorted, does not.
    partial: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = [(0, (), tuple(range(1, p + 1)))]
    for k, size in zip(ks, sizes):
        grown = []
        for overlap, acc, remaining in partial:
            if _expired(deadline):
                return None
            for block in itertools.combinations(remaining, size):
                left = tuple(a for a in remaining if a not in block)
                grown.append((overlap + k - bisect_right(left, k), acc + block, left))
        partial = grown

    keyed = []  # (overlap with the canonical chain, layout)
    for overlap, acc, remaining in partial:
        if _expired(deadline):
            return None
        keyed.append((overlap, acc + remaining))
    keyed.sort()
    return [layout for _, layout in keyed]


def chain_count(p: int, ks: tuple[int, ...]) -> int:
    count = math.factorial(p)
    prev = 0
    for k in ks:
        count //= math.factorial(k - prev)
        prev = k
    count //= math.factorial(p - prev)
    return count


def system_count(lam: RankLottery, n: int) -> int:
    """Number of tail systems an exhaustive scan would visit."""
    ks = active_ranks(lam)
    if not ks:
        return 0
    c = chain_count(lam.p, ks)
    return math.comb(c + n - 2, n - 1) if n >= 2 else 1


# Per layout, the witnesses that fix it and those that map it lower; per
# witness, the bitmask of the layouts it maps lower (see `_witness_tables`).
Witnesses = tuple[Sequence[int], Sequence[int], tuple[int, ...]]
Layouts = tuple[tuple[tuple[int, ...], ...], Holding, Witnesses]
# Complete builds of `_scan_layouts` by key, least recently used first.
_layout_memo: dict[tuple[int, tuple[int, ...]], Layouts] = {}


def _witness_tables(
    p: int, ks: tuple[int, ...], holding: Holding, count: int, deadline: Optional[float]
) -> Optional[Witnesses]:
    """The relabelings `_scan_chunk` uses to skip systems, read off the
    holding masks of the `count` layouts, or None when `deadline` passes
    first; three empty tables when there are none.

    Witness b is the transposition of the outcomes a and a + 1 that is the
    b-th pair of adjacent labels inside one block of agent 1's canonical
    chain (the labels between consecutive active ranks, or above the last).
    It maps every chain onto a chain.  It fixes a layout that holds a and
    a + 1 in one block, and otherwise swaps them in place, which keeps every
    block sorted since no label lies between them.  The swap keeps each
    tail's overlap with the canonical chain, by which the layouts are sorted
    first, and then compares as tuples: the image sorts before the layout
    exactly when a + 1 comes first in it, that is when some tail holds a + 1
    and not a.  So the tables need no lookup of images: per layout the
    bitmask of the witnesses that fix it and of those that map it lower,
    and per witness the bitmask of the layouts it maps lower.
    """
    bounds = list(zip((0, *ks), (*ks, p)))
    pairs = [a for lo, hi in bounds for a in range(lo + 1, hi)]
    if not pairs:
        return (), (), ()
    everyone = (1 << count) - 1
    fixes, lowers_at, lowered = [0] * count, [0] * count, []
    for b, a in enumerate(pairs):  # outcomes a and a + 1 are a - 1 and a, 0-based
        if _expired(deadline):
            return None
        apart = lower = 0
        for masks in holding:
            apart |= masks[a - 1] ^ masks[a]
            lower |= masks[a] & ~masks[a - 1]
        for i in _set_bits(everyone & ~apart):
            fixes[i] |= 1 << b
        for i in _set_bits(lower):
            lowers_at[i] |= 1 << b
        lowered.append(lower)
    return fixes, lowers_at, tuple(lowered)


def _scan_layouts(p: int, ks: tuple[int, ...], deadline: Optional[float] = None) -> Optional[Layouts]:
    """The chain layouts of `ks` over `p` outcomes, their holding masks and
    their witness tables, shared, unchanged, by every scan of that key; None
    when `deadline` passes during the build.

    Only complete builds are kept.  The key just used always stays, and
    older keys are dropped, least recently used first, until the memo holds
    at most `_MAX_CHAINS` entries, a layout and each of its two witness
    table entries counting one each, or that key alone.  `_MAX_CHAINS`
    layouts are the most a scan of `is_feasible` uses.
    """
    key = (p, ks)
    built = _layout_memo.pop(key, None)
    if built is None:
        layouts = _chain_layouts(p, ks, deadline)
        if layouts is None:
            return None
        count = len(layouts)
        holding = []
        masks = [0] * p  # per outcome, the layouts whose tail at the rank before holds it
        columns = zip(*layouts)  # per position, the outcome each layout puts there
        for lo, k in zip((0, *ks), ks):
            # Summing 1 << i over the layouts would be quadratic in them.
            bits = [bytearray(count // 8 + 1) for _ in range(p + 1)]  # by outcome label
            for column in itertools.islice(columns, k - lo):
                if _expired(deadline):
                    return None
                for i, a in enumerate(column):
                    bits[a][i >> 3] |= 1 << (i & 7)
            masks = [mask | int.from_bytes(new, "little") for mask, new in zip(masks, bits[1:])]
            holding.append(tuple(masks))
        witnesses = _witness_tables(p, ks, holding, count, deadline)
        if witnesses is None:
            return None
        built = tuple(layouts), tuple(holding), witnesses
    held = _entries(built)
    for old in reversed(list(_layout_memo)):
        held += _entries(_layout_memo[old])
        if held > _MAX_CHAINS:
            del _layout_memo[old]
    _layout_memo[key] = built
    return built


def _entries(built: Layouts) -> int:
    layouts, _, (fixes, lowers_at, _) = built
    return len(layouts) + len(fixes) + len(lowers_at)


def _add_to_pool(
    covers: list[int],
    rows: list[bytes],
    mass: Sequence[int],
    scale: int,
    caps: Sequence[int],
    cap_den: int,
    holding: Holding,
    count: int,
) -> None:
    """Make the lottery ``mass / scale`` pool lottery b = len(covers):
    append to `covers` the bitmask of the `count` layouts whose tail caps
    ``caps / cap_den`` it meets, and to `rows` the same bitmask as bytes,
    little-endian, one bit per layout, where `_scan_chunk` reads one
    layout's bit without shifting the whole mask.

    Exact: a tail's mass ``t / scale`` is at most its cap ``c / cap_den``
    exactly when the integer ``t`` is at most ``c * scale / cap_den``
    rounded down, and a layout meets the caps when all its tails do.  The
    tails over that bound at each rank come from its holding masks (`_over`).
    """
    # Heaviest first, so that `_over`'s bound goes below 0, ending a branch, soonest.
    support = sorted([a for a, m in enumerate(mass) if m], key=mass.__getitem__, reverse=True)
    weights = [mass[a] for a in support]
    left = [*itertools.accumulate(reversed(weights), initial=0)][::-1]  # the mass from each position on
    meets = (1 << count) - 1
    for cap, held in zip(caps, holding):
        meets &= ~_over(cap * scale // cap_den, 0, weights, [held[a] for a in support], left)
    covers.append(meets)
    rows.append(meets.to_bytes((count + 7) // 8, "little"))


def _over(t: int, i: int, weights: Sequence[int], held: Sequence[int], left: Sequence[int]) -> int:
    """The layouts whose tail puts more than `t` on the support positions
    from i on, given per position its mass (`weights`), the layouts whose
    tail holds it (`held`) and the mass from it on (`left`): those over `t`
    without position i, and of those holding it, those over `t` less its
    mass; -1 (all) when `t` < 0, and 0 when `t` is at least ``left[i]``."""
    if t < 0:
        return -1
    if t >= left[i]:
        return 0
    return _over(t, i + 1, weights, held, left) | held[i] & _over(t - weights[i], i + 1, weights, held, left)


def _set_bits(x: int) -> list[int]:
    """Positions of the set bits of `x` >= 0, lowest first."""
    return [i for i, digit in enumerate(bin(x)[:1:-1]) if digit == "1"]


def _heads(
    count: int,
    agents: int,
    lo: int,
    hi: int,
    fixes: Sequence[int],
    lowers_at: Sequence[int],
    prefix: tuple[int, ...] = (),
    kept: int = -1,
):
    """The runs of systems whose first index lies in [lo, hi), in
    enumeration order, under the skip rule of `_scan_chunk`: (head, kept)
    for a run to scan, `head` all but its last layout index (the last runs
    from head[-1]) and `kept` the bitmask of the witnesses that fix every
    index of the head; (prefix, None) for the block of all the systems that
    start with `prefix`, every one of them skipped.

    `prefix` and `kept` carry the recursion: the indices chosen so far and
    the witnesses that fix each of them.  Once none does, nothing more is
    skipped, and the rest of the head comes from
    `combinations_with_replacement`.
    """
    if not lowers_at:
        kept = 0  # no witnesses
    for i in range(prefix[-1], count) if prefix else range(lo, hi):
        head = (*prefix, i)
        if kept and kept & lowers_at[i]:
            yield head, None
            continue
        left = kept and kept & fixes[i]
        if len(head) + 1 == agents:
            yield head, left
        elif left:
            yield from _heads(count, agents, lo, hi, fixes, lowers_at, head, left)
        else:
            for rest in itertools.combinations_with_replacement(range(i, count), agents - 1 - len(head)):
                yield (*head, *rest), 0


def _scan_chunk(payload: tuple) -> dict:
    """Scan one slice of the tail-system space (n >= 3), in enumeration order.

    A system is agent 1 on the canonical chain and a sorted tuple of the
    other agents' layout indices, and systems are enumerated in the
    lexicographic order of those tuples.  The pool holds every implementing
    lottery found so far; `covers[b]` is the bitmask of the layouts whose
    tail caps pool lottery b meets, and bit b of `masks[i]` is set when
    lottery b meets layout i.  Every pool lottery meets the canonical
    chain, so a system is certified exactly when the AND of its other
    agents' masks is nonzero.  Only where it is zero does the system get a
    point from `_implementing_point` (its greedy fills, or the LP where
    both miss); `_add_to_pool` checks the point once against every tail and
    appends its covers, and a point that misses a layout of its own system
    raises.
    The masks are folded lazily: a run reads only its head's masks, and
    each gets, when read, the bits of the lotteries added since it was last
    read, one byte of `rows[b]` tested per lottery, so it equals the mask
    that setting every bit at once would have built.  A run of systems
    sharing a head is tested at once: its certified last layouts are the
    union of the covers of the bits common to the head, kept per set of
    common bits (`covers[b]` never changes once appended).  The pool
    certifies no LP-infeasible system, so the scan stops at the slice's
    first infeasible system.  `limit` caps the systems visited; `deadline`
    is checked once per run scanned or block skipped.  A stop returns the
    status "profile-limit" or "time-limit", naming which one ran out.

    Systems that a relabeling maps onto an earlier system are skipped and
    counted as visited.  A relabeling s of the outcomes that maps each block
    of agent 1's canonical chain onto itself fixes agent 1's tails, so it
    maps the system S onto the system sS (sorted), with the same verdict.
    The witnesses of `_witness_tables` are such relabelings, and S is
    skipped only when one of them gives sS < S:
    - prefix: a witness that fixes the head indices before i_t and maps i_t
      to a lower index skips every system that starts like S up to i_t,
      since its image keeps the members of S below i_t and gains one more,
      so it sorts first;
    - last index: a witness that fixes the whole head skips the last index
      j when it maps j lower, by setting bit j of the run's `covered`.
    So the least system of each class under the group the witnesses
    generate is never skipped, and every skipped system comes after it in
    the enumeration, hence in the same slice or a later one.  Were that
    least system infeasible, the scan would stop there; so every skipped
    system is feasible, only feasible LPs are left out, and the verdict,
    the first infeasible system, its certificate and the count at a stop
    are those of a scan without the skip, at any chunking.

    The pool starts empty.  A worker started without the layouts (by spawn
    or forkserver, not fork) builds them under `deadline`.
    """
    p, n, ks, caps, cap_den, lo, hi, limit, deadline = payload
    built = _scan_layouts(p, ks, deadline)
    if built is None:
        return {"status": "time-limit", "checked": 0}
    layouts, holding, (fixes, lowers_at, lowered) = built
    count = len(layouts)
    identity = tuple(range(1, p + 1))

    masks = [0] * count
    folded = [0] * count  # per layout, the pool lotteries folded into its mask
    covers: list[int] = []
    rows: list[bytes] = []

    unions: dict[int, int] = {}  # common bits -> the union of their covers
    skips: dict[int, int] = {}  # kept witnesses -> the union of the layouts they map lower
    checked = 0
    for head, kept in _heads(count, n - 1, lo, hi, fixes, lowers_at):
        if _expired(deadline):
            return {"status": "time-limit", "checked": checked}
        if kept is None:
            rest = n - 1 - len(head)  # the indices after the prefix, each from head[-1] up
            checked += math.comb(count - head[-1] + rest - 1, rest)
            if limit is not None and checked > limit:
                return {"status": "profile-limit", "checked": limit}
            continue
        common = -1
        for i in head:
            mask = masks[i]
            if folded[i] < len(covers):
                at, bit = i >> 3, 1 << (i & 7)
                for b in range(folded[i], len(covers)):
                    if rows[b][at] & bit:
                        mask |= 1 << b
                masks[i] = mask
                folded[i] = len(covers)
            common &= mask
        covered = unions.get(common)
        if covered is None:
            covered = 0
            for b in _set_bits(common):
                covered |= covers[b]
            unions[common] = covered
        if kept:
            skip = skips.get(kept)
            if skip is None:
                skip = 0
                for b in _set_bits(kept):
                    skip |= lowered[b]
                skips[kept] = skip
            covered |= skip
        j = head[-1]
        stop = count if limit is None else min(count, j + limit - checked)
        while True:
            free = ~covered >> j
            miss = min(stop, j + (free & -free).bit_length() - 1)
            checked += miss - j
            if miss == stop:
                break
            checked += 1
            orders = [identity, *(layouts[i] for i in head), layouts[miss]]
            point, certificate = _implementing_point(p, ks, caps, cap_den, orders)
            if point is None:
                return {"status": "infeasible", "checked": checked, "orders": orders, "certificate": certificate}
            _add_to_pool(covers, rows, *point, caps, cap_den, holding, count)
            # The point must meet every layout of its system: the canonical
            # chain (the identity layout, last), the head's and the miss.
            row = rows[-1]
            for i in (count - 1, *head, miss):
                if not row[i >> 3] >> (i & 7) & 1:
                    raise AssertionError(f"pool lottery {point} misses layout {i} of its system")
            covered |= covers[-1]
            j = miss + 1
        if stop < count:
            return {"status": "profile-limit", "checked": checked}
    return {"status": "feasible", "checked": checked}


def _chunk_ranges(count: int, agents: int, parts: int, lowers_at: Sequence[int]) -> list[tuple[int, int]]:
    """Split the first-index range into contiguous slices holding similar
    numbers of runs (systems sharing all but the last layout), counting
    none for a first index that `_scan_chunk` skips with all its systems."""
    weights = [
        0 if lowers_at and lowers_at[i] else math.comb(count - i + agents - 3, agents - 2) for i in range(count)
    ]
    total = sum(weights)
    target = total / parts
    ranges = []
    lo = 0
    acc = 0
    for i, w in enumerate(weights):
        acc += w
        if acc >= target and len(ranges) < parts - 1:
            ranges.append((lo, i + 1))
            lo = i + 1
            acc = 0
    ranges.append((lo, count))
    return [r for r in ranges if r[0] < r[1]]


def ProcessPoolExecutor(max_workers: int):
    """`concurrent.futures.ProcessPoolExecutor`, imported by the first scan
    that starts a pool (from `_POOL_SWITCH` runs), so that importing the
    package, and every smaller scan, leaves `multiprocessing` unimported.
    Tests replace it with pools of their own."""
    from concurrent.futures import ProcessPoolExecutor as pool

    return pool(max_workers=max_workers)


def _scan(
    p: int, n: int, ks: tuple[int, ...], caps: Sequence[int], cap_den: int,
    jobs: int, limit: Optional[int], deadline: Optional[float],
) -> dict:
    """Scan every tail system of `ks` and its caps: in process, or, from
    `_POOL_SWITCH` runs on, with min(`jobs`, cores) workers, in 4 chunks per
    worker in a process pool of at most one worker per chunk.  The layouts
    are built here, before the pool forks, so that its workers inherit them.

    Chunk outcomes are merged in enumeration order and a limit is spent on
    the chunks in that order, so both ways visit the same first `limit`
    systems and report the same first infeasible system and count.
    """
    built = _scan_layouts(p, ks, deadline)
    if built is None:
        return {"status": "time-limit", "checked": 0}
    layouts, _, (_, lowers_at, _) = built
    count = len(layouts)
    agents = n - 1
    runs = math.comb(count + n - 3, n - 2)  # systems sharing all but the last layout
    workers = min(jobs, os.cpu_count() or 1) if runs >= _POOL_SWITCH else 1
    ranges = [(0, count)] if workers <= 1 else _chunk_ranges(count, agents, workers * 4, lowers_at)
    payloads = []
    for lo, hi in ranges:
        share = None
        if limit is not None:
            size = math.comb(count - lo + agents - 1, agents) - math.comb(
                count - hi + agents - 1, agents
            )
            share = min(size, limit)
            limit -= share
        payloads.append((p, n, ks, caps, cap_den, lo, hi, share, deadline))
    if len(payloads) == 1:
        return _scan_chunk(payloads[0])

    checked = 0
    # Under the fork start method the pool starts every worker at the first submit.
    with ProcessPoolExecutor(max_workers=min(workers, len(payloads))) as executor:
        futures = [executor.submit(_scan_chunk, payload) for payload in payloads]
        try:
            for fut in futures:
                outcome = fut.result()
                checked += outcome["checked"]
                if outcome["status"] != FEASIBLE:
                    return {**outcome, "checked": checked}
        finally:
            for fut in futures:
                fut.cancel()
    return {"status": FEASIBLE, "checked": checked}


# ----------------------------------------------------------------------------
# Reports and the main decision procedure.
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class FeasibilityReport:
    verdict: str
    n: int
    p: int
    witness_profile: Optional[Profile] = None
    witness_certificate: Optional[tuple[Fraction, ...]] = None
    profiles_checked: int = 0
    method: str = ""
    mixture: Optional[tuple[tuple[Fraction, RankLottery], ...]] = None
    runtime_ms: int = 0

    @property
    def feasible(self) -> bool:
        return self.verdict == FEASIBLE


_anchor_cache: dict[tuple[int, int], tuple[RankLottery, ...]] = {}


def _hull_mixture(
    lam: RankLottery, anchors: Sequence[RankLottery]
) -> Optional[tuple[tuple[Fraction, RankLottery], ...]]:
    """Weights making a mixture of anchors dominate `lam`, if any exist."""
    p = lam.p
    cum = lam.cumulative()
    anchor_cums = [a.cumulative() for a in anchors]
    rows = [([1] * (len(anchors) + 1), 1, EQ)]
    for k in range(p - 1):
        ints, den = _scaled([*(ac[k] for ac in anchor_cums), cum[k]])
        rows.append((ints, den, LE))
    solved = solve(feasibility_program(len(anchors), rows))
    if solved.status != OPTIMAL:
        return None
    return tuple((w, anchor) for w, anchor in zip(solved.result.primal, anchors) if w > 0)


def verified_anchors(n: int, p: int, *, jobs: int = 1, deadline: Optional[float] = None) -> tuple[RankLottery, ...]:
    """The uniform, the canonical guarantees at (n, p), each proved feasible
    by the protocol of its word (`compose.word_protocol`), then the
    guarantees of the named covers (`protocols.cover_protocol`, modes
    top-pair, bottom-pair and block, where defined), each proved by its
    cover and kept when no anchor before it equals it; memoized per (n, p)
    once complete.

    Each anchor is what `worst_case_guarantee` evaluates for its protocol,
    not the formula of `canonical_word`, which the tests tie to it.  That
    evaluation is a proof on its own terms: at any profile, let every agent
    play the truthful report; each agent then gets at least the evaluated
    guarantee.  The evaluation takes agent 1's worst case, and the stages
    fold the reports symmetrically, so agent 1 stands for every agent.  A
    cover round may play any covering set, and the evaluation takes the
    adversaries' pick of it, so each agent secures a cover's evaluated
    guarantee whichever covering set the mechanism plays.

    A word's first stage folds about C(p, n) report aggregates, a cover's
    C(p, depth) ** (n - 1) adversary report tuples.  The words are
    evaluated in `enumerate_canonical` order while i * C(p, n) is at most
    `_MAX_CHAINS`, i counting the words so far, and each cover while the
    words' count and the covers' so far, its own included, are at most
    `_MAX_CHAINS` in all.  Measured cold, without tracing, on a 2-core x86
    VM with Python 3.11.7 (ROADMAP, "What this re-anchor measured"):
    without that bound the 14 words of (7,22) took 35.3 s and 116 MB, the
    anchors of (9,19) 19.1 s and all 14 words of (6,19) 5.1 s, and the
    (5,9) block cover's 1,679,616 tuples take 0.11 s; within it, all 14
    words of (3,10) take 0.02 s, the 7 of the 14 at (6,19) that it admits
    1.7 s, and the covers, at most 42,875 tuples each, add 0.4 ms at (3,5)
    and 10 ms at (4,7).  Fewer anchors are still sound.
    `deadline` is checked before each word and each cover, and a set it
    stops is returned but not kept, so that a later call without one sees
    every anchor.  `jobs` is unused; callers that pass it keep working.
    """
    if (n, p) in _anchor_cache:
        return _anchor_cache[n, p]
    anchors = [uniform(p)]
    if 3 <= n < p:
        from .compose import enumerate_canonical, word_protocol
        from .protocols import cover_protocol, parse_protocol, worst_case_guarantee

        spent = 0
        for word, _ in enumerate_canonical(n, p):
            if spent + math.comb(p, n) > _MAX_CHAINS:
                break
            if _expired(deadline):
                return tuple(anchors)
            spent += math.comb(p, n)
            anchors.append(worst_case_guarantee(parse_protocol(word_protocol(word), n, p), n, p).achieved)
        for mode in ("top-pair", "bottom-pair", "block"):
            try:
                spec = cover_protocol(n, p, mode)
            except ValueError:  # not defined at (n, p)
                continue
            tuples = math.comb(p, spec.stages[0].depth) ** (n - 1)
            if spent + tuples > _MAX_CHAINS:
                continue
            if _expired(deadline):
                return tuple(anchors)
            spent += tuples
            achieved = worst_case_guarantee(spec, n, p).achieved
            if achieved not in anchors:
                anchors.append(achieved)
    _anchor_cache[n, p] = tuple(anchors)
    return _anchor_cache[n, p]


def is_feasible(
    lam: RankLottery,
    n: int,
    *,
    jobs: int = 1,
    limit_profiles: Optional[int] = None,
    time_budget: Optional[float] = None,
    use_hull: bool = True,
) -> FeasibilityReport:
    """Decide membership of `lam` in the feasible-guarantee polytope.

    Feasible verdicts are proofs: either a domination argument (uniform or
    a mixture of the anchors, the guarantees of the words and the named
    covers, each proved by its protocol) or an exhaustive scan of tail
    systems.
    Infeasible verdicts always carry a witness profile whose implementation
    LP is infeasible, plus its Farkas certificate.  Resource limits (profile
    count, wall-clock seconds) yield the explicit verdict "undecided",
    never a guess.  `limit_profiles` caps the implementation LPs on library
    profiles plus the tail systems scanned, whatever `jobs` is.
    At n >= p the uniform's domination and the cuts decide every input, by
    the paper's first theorem (`necessary_cuts`): no call there reaches the
    mixture, the library profiles or the scan.
    The mixture of anchors is tried on every input at 3 <= n < p that no cut
    refutes; `use_hull=False` skips it, so that the benchmark's `scan`
    workload and the tests reach the library profiles and the scan.
    """
    started = time.perf_counter()
    if n < 1:
        raise ValueError("need at least one agent")
    p = lam.p
    deadline = None if time_budget is None else time.monotonic() + time_budget
    checked = 0

    def finish(verdict: str, method: str, **witness) -> FeasibilityReport:
        return FeasibilityReport(
            verdict,
            n,
            p,
            profiles_checked=checked,
            method=method,
            runtime_ms=int((time.perf_counter() - started) * 1000),
            **witness,
        )

    if n == 1:
        return finish(FEASIBLE, "single-agent")

    if dominates(uniform(p), lam):
        return finish(FEASIBLE, "uniform-dominates")

    ks, caps, cap_den = _tail_caps(lam)
    violated = necessary_cuts(lam, n)
    if violated is not None:
        _, certificate = _implementing_point(p, ks, caps, cap_den, [pref.order for pref in violated.witness.prefs])
        if certificate is None:
            raise AssertionError("cut witness failed to refute")
        return finish(
            INFEASIBLE,
            f"cut:{violated.kind}:k={violated.k}",
            witness_profile=violated.witness,
            witness_certificate=certificate,
        )

    if n == 2:
        # The two-agent inequalities are exact, and they just passed.
        return finish(FEASIBLE, "two-agent-exact")

    if use_hull:
        mixture = _hull_mixture(lam, verified_anchors(n, p, deadline=deadline))
        if mixture is not None:
            return finish(FEASIBLE, "mixture-dominates", mixture=mixture)

    for prof in hard_profiles(n, p):
        if limit_profiles is not None and checked >= limit_profiles:
            return finish(UNDECIDED, "profile-limit")
        if _expired(deadline):
            return finish(UNDECIDED, "time-limit")
        orders = [pref.order for pref in prof.prefs]
        checked += 1
        point, certificate = _implementing_point(p, ks, caps, cap_den, orders)
        if point is None:
            return finish(
                INFEASIBLE,
                "library-profile",
                witness_profile=prof,
                witness_certificate=certificate,
            )

    chains = chain_count(p, ks)
    if chains > _MAX_CHAINS:
        return finish(UNDECIDED, f"scan-too-large:{chains}-chains")

    budget = None if limit_profiles is None else limit_profiles - checked
    outcome = _scan(p, n, ks, caps, cap_den, jobs, budget, deadline)
    checked += outcome["checked"]
    if outcome["status"] == INFEASIBLE:
        witness = Profile(tuple(Preference(order) for order in outcome["orders"]))
        return finish(
            INFEASIBLE,
            "scan",
            witness_profile=witness,
            witness_certificate=tuple(outcome["certificate"]),
        )
    if outcome["status"] in ("profile-limit", "time-limit"):
        return finish(UNDECIDED, outcome["status"])
    return finish(FEASIBLE, "scan")
