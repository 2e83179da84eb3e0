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
  1's tails to the canonical chain, agent exchange sorts the rest.
* Most systems are certified by reusing a recently found implementing
  lottery (an exact check, no LP); the LP runs only on misses, and its
  solution joins the reuse pool.

Fast verdicts come first: domination by the uniform lottery or by a mixture
of already-verified guarantees proves feasibility outright (any lottery
implementing the dominating guarantee implements `lam`); the two-agent case
is a closed-form inequality test; cheap covering arguments refute many
infeasible inputs with an explicit witness profile.
"""

from __future__ import annotations

import itertools
import math
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .lottery import RankLottery, ZERO, dominates, sorted_dot, uniform
from .lp import (
    EQ,
    INFEASIBLE,
    LE,
    OPTIMAL,
    Constraint,
    LinearProgram,
    LPResult,
    feasibility_program,
    solve,
)
from .library import hard_profiles, tails_profile, tiling_profile, tops_profile
from .profiles import OutcomeLottery, Preference, Profile, identity_preference, reversal_profile

FEASIBLE = "feasible"
UNDECIDED = "undecided"

_POOL_LIMIT = 24
_MAX_CHAINS = 200_000

UtilityVector = tuple[Fraction, ...]


# ----------------------------------------------------------------------------
# Per-profile implementation LP.
# ----------------------------------------------------------------------------


def active_ranks(lam: RankLottery) -> tuple[int, ...]:
    """Ranks k < p at which the cumulative of `lam` strictly increases at k+1.

    Tail constraints at other ranks are implied by these (tails are nested
    and mass is nonnegative), so feasibility checks may ignore them.
    """
    return tuple(k for k in range(1, lam.p) if lam.probs[k] > 0)


def implement_program(lam: RankLottery, prof: Profile) -> LinearProgram:
    """The exact LP deciding whether some lottery implements `lam` at `prof`.

    Row 0 pins total mass to one; then one row per agent and active rank
    bounding the mass of that agent's tail.  Row order is deterministic so
    certificates can be re-verified against a rebuilt program.
    """
    if lam.p != prof.p:
        raise ValueError("dimension mismatch between lottery and profile")
    p = lam.p
    cum = lam.cumulative()
    rows = [Constraint((Fraction(1),) * p, EQ, Fraction(1))]
    for pref in prof.prefs:
        for k in active_ranks(lam):
            coeffs = [ZERO] * p
            for a in pref.order[:k]:
                coeffs[a - 1] = Fraction(1)
            rows.append(Constraint(tuple(coeffs), LE, cum[k - 1]))
    return feasibility_program(p, rows)


def implement_report(lam: RankLottery, prof: Profile) -> tuple[Optional[OutcomeLottery], LPResult]:
    result = solve(implement_program(lam, prof))
    if result.status == OPTIMAL:
        return OutcomeLottery(result.primal), result
    return None, result


def implement_at(lam: RankLottery, prof: Profile) -> Optional[OutcomeLottery]:
    """An outcome lottery implementing `lam` at `prof`, or None if none exists."""
    ell, _ = implement_report(lam, prof)
    return ell


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


def balanced_family(p: int, k: int, n: int) -> Optional[BalancedFamily]:
    """A balanced family of k-sets of [p] with at most n members, when the
    supported (n, p) range allows one; None otherwise."""
    if not 2 <= k <= p // 2:
        raise ValueError(f"need 2 <= k <= p/2, got k={k}, p={p}")
    if not (p <= 2 * n - 2 or (p == 2 * n and n not in (4, 5))):
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
    required: Fraction
    actual: Fraction
    witness: Profile


@dataclass(frozen=True)
class CutResult:
    passed: bool
    violated: Optional[ViolatedCut]
    applied: tuple[str, ...]


def necessary_cuts(lam: RankLottery, n: int) -> CutResult:
    """Closed-form inequalities every feasible guarantee must satisfy.

    Each violation comes with a concrete profile at which the implementation
    LP is infeasible, so a failed cut is a full refutation, not a heuristic.
    """
    p = lam.p
    cum = lam.cumulative()
    applied: list[str] = []

    if n == 2:
        applied.append("two-agent")
        for k in range(1, p // 2 + 1):
            front = cum[k - 1]
            back = 1 - cum[p - k - 1]
            if front < back:
                return CutResult(
                    False,
                    ViolatedCut("two-agent", k, back, front, reversal_profile(2, p)),
                    tuple(applied),
                )

    for k in range(1, p):
        m = -(-p // k)
        if m <= n:
            applied.append(f"cover k={k}")
            if m * cum[k - 1] < 1:
                witness = tiling_profile(n, p, k)
                assert witness is not None
                return CutResult(
                    False,
                    ViolatedCut("cover", k, Fraction(1, m), cum[k - 1], witness),
                    tuple(applied),
                )

    if p <= 2 * n - 2 or (p == 2 * n and n not in (4, 5)):
        for k in range(2, p - 1):
            applied.append(f"balanced k={k}")
            if cum[k - 1] < Fraction(k, p):
                side = k if k <= p // 2 else p - k
                fam = balanced_family(p, side, n)
                assert fam is not None
                if k <= p // 2:
                    witness = tails_profile(n, p, list(fam.sets))
                else:
                    witness = tops_profile(n, p, list(fam.sets))
                return CutResult(
                    False,
                    ViolatedCut("balanced", k, Fraction(k, p), cum[k - 1], witness),
                    tuple(applied),
                )

    return CutResult(True, None, tuple(applied))


# ----------------------------------------------------------------------------
# Tail-system scan.
# ----------------------------------------------------------------------------


def _chain_layouts(p: int, ks: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All nested tail chains with the given sizes, encoded as orderings.

    A layout is a worst-to-best arrangement whose prefixes of sizes `ks` are
    the chain; blocks between consecutive sizes are sorted, making each
    chain appear exactly once.  Layouts are sorted so that the ones most
    disjoint from the canonical chain come first (better witness hunting).
    """
    sizes = []
    prev = 0
    for k in ks:
        sizes.append(k - prev)
        prev = k
    sizes.append(p - prev)

    # Extend every partial layout by one block at a time, in lexicographic
    # order; the last block takes whatever remains.
    partial: list[tuple[tuple[int, ...], tuple[int, ...]]] = [((), tuple(range(1, p + 1)))]
    for size in sizes[:-1]:
        partial = [
            (acc + block, tuple(a for a in remaining if a not in block))
            for acc, remaining in partial
            for block in itertools.combinations(remaining, size)
        ]
    layouts = [acc + remaining for acc, remaining in partial]

    def overlap(layout: tuple[int, ...]) -> int:
        score = 0
        for k in ks:
            score += sum(1 for a in layout[:k] if a <= k)
        return score

    layouts.sort(key=lambda L: (overlap(L), L))
    return layouts


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


class _Pool:
    """Recently successful implementing lotteries, held as scaled integers."""

    def __init__(self, caps: Sequence[Fraction]):
        self.caps = tuple(caps)
        self.scale = math.lcm(*(c.denominator for c in caps)) if caps else 1
        self.thresholds = [int(c * self.scale) for c in caps]
        self.vecs: list[list[int]] = []
        self.fractions: list[tuple[Fraction, ...]] = []

    def add(self, mass: Sequence[Fraction]) -> None:
        denom = math.lcm(*(x.denominator for x in mass))
        new_scale = math.lcm(self.scale, denom)
        if new_scale != self.scale:
            factor = new_scale // self.scale
            self.thresholds = [t * factor for t in self.thresholds]
            self.vecs = [[v * factor for v in vec] for vec in self.vecs]
            self.scale = new_scale
        self.vecs.insert(0, [int(x * self.scale) for x in mass])
        self.fractions.insert(0, tuple(mass))
        if len(self.vecs) > _POOL_LIMIT:
            self.vecs.pop()
            self.fractions.pop()

    def promote(self, idx: int) -> None:
        if idx > 0:
            self.vecs.insert(0, self.vecs.pop(idx))
            self.fractions.insert(0, self.fractions.pop(idx))


def _system_program(
    p: int, ks: tuple[int, ...], caps: Sequence[Fraction], layouts: Sequence[tuple[int, ...]]
) -> LinearProgram:
    rows = [Constraint((Fraction(1),) * p, EQ, Fraction(1))]
    for layout in layouts:
        for k, cap in zip(ks, caps):
            coeffs = [ZERO] * p
            for a in layout[:k]:
                coeffs[a - 1] = Fraction(1)
            rows.append(Constraint(tuple(coeffs), LE, cap))
    return feasibility_program(p, rows)


def _satisfies(vec: list[int], thresholds: list[int], layout: tuple[int, ...], ks: tuple[int, ...]) -> bool:
    s = 0
    idx = 0
    for pos, t in zip(ks, thresholds):
        while idx < pos:
            s += vec[layout[idx] - 1]
            idx += 1
        if s > t:
            return False
    return True


def _iter_systems(count: int, agents: int, lo: int, hi: int):
    if agents == 0:
        if lo == 0:
            yield ()
        return
    for i in range(lo, hi):
        if agents == 1:
            yield (i,)
        else:
            for rest in itertools.combinations_with_replacement(range(i, count), agents - 1):
                yield (i,) + rest


def _scan_chunk(payload: tuple) -> dict:
    """Scan one slice of the tail-system space; used directly and by workers."""
    probs, n, ks, lo, hi, limit, deadline = payload
    lam = RankLottery(probs)
    p = lam.p
    cum = lam.cumulative()
    caps = [cum[k - 1] for k in ks]
    layouts = _chain_layouts(p, ks)
    identity = tuple(range(1, p + 1))

    pool = _Pool(caps)
    pool.add(probs)  # mass lam_k on outcome k always satisfies the canonical chain
    if all(Fraction(k, p) <= cap for k, cap in zip(ks, caps)):
        pool.add((Fraction(1, p),) * p)

    checked = 0
    for combo in _iter_systems(len(layouts), n - 1, lo, hi):
        if limit is not None and checked >= limit:
            return {"status": "limited", "checked": checked}
        if deadline is not None and checked % 1024 == 0 and time.monotonic() > deadline:
            return {"status": "limited", "checked": checked}
        checked += 1
        others = [layouts[i] for i in combo]
        hit = -1
        for ci, vec in enumerate(pool.vecs):
            ok = True
            for layout in others:
                if not _satisfies(vec, pool.thresholds, layout, ks):
                    ok = False
                    break
            if ok:
                hit = ci
                break
        if hit >= 0:
            pool.promote(hit)
            continue
        program = _system_program(p, ks, caps, [identity, *others])
        result = solve(program)
        if result.status == INFEASIBLE:
            return {
                "status": "infeasible",
                "checked": checked,
                "orders": [identity, *others],
                "certificate": result.certificate,
            }
        pool.add(result.primal)
    return {"status": "feasible", "checked": checked}


def _chunk_ranges(count: int, agents: int, parts: int) -> list[tuple[int, int]]:
    """Split the first-index range into contiguous slices of similar weight."""
    if agents <= 0 or count == 0:
        return [(0, count)]
    weights = [math.comb(count - i + agents - 2, agents - 1) for i in range(count)]
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
    cuts_used: tuple[str, ...] = ()
    method: str = ""
    mixture: tuple[tuple[Fraction, RankLottery], ...] = ()
    witness_deterministic: bool = True
    runtime_ms: int = 0

    @property
    def feasible(self) -> bool:
        return self.verdict == FEASIBLE


_verdict_cache: dict[tuple[int, tuple[Fraction, ...]], FeasibilityReport] = {}
_anchor_cache: dict[tuple[int, int], tuple[RankLottery, ...]] = {}


def clear_caches() -> None:
    _verdict_cache.clear()
    _anchor_cache.clear()


def _finish(report: FeasibilityReport, started: float, cache_key=None) -> FeasibilityReport:
    out = FeasibilityReport(
        **{**report.__dict__, "runtime_ms": int((time.perf_counter() - started) * 1000)}
    )
    if cache_key is not None and out.verdict != UNDECIDED:
        _verdict_cache[cache_key] = out
    return out


def _hull_mixture(
    lam: RankLottery, anchors: Sequence[RankLottery]
) -> Optional[tuple[tuple[Fraction, RankLottery], ...]]:
    """Weights making a mixture of anchors dominate `lam`, if any exist."""
    if not anchors:
        return None
    p = lam.p
    cum = lam.cumulative()
    anchor_cums = [a.cumulative() for a in anchors]
    rows = [Constraint((Fraction(1),) * len(anchors), EQ, Fraction(1))]
    for k in range(p - 1):
        coeffs = tuple(ac[k] for ac in anchor_cums)
        rows.append(Constraint(coeffs, LE, cum[k]))
    result = solve(feasibility_program(len(anchors), rows))
    if result.status != OPTIMAL:
        return None
    return tuple(
        (w, anchor) for w, anchor in zip(result.primal, anchors) if w > 0
    )


def verified_anchors(n: int, p: int, *, jobs: int = 1) -> tuple[RankLottery, ...]:
    """The uniform plus every canonical guarantee at (n, p), each verified
    feasible by direct scan; memoized per context."""
    key = (n, p)
    if key in _anchor_cache:
        return _anchor_cache[key]
    if not 3 <= n < p:
        _anchor_cache[key] = (uniform(p),)
        return _anchor_cache[key]
    from .compose import enumerate_canonical

    anchors = [uniform(p)]
    for _, lam in enumerate_canonical(n, p):
        if system_count(lam, n) > 5_000_000:
            continue  # too costly to certify; a smaller anchor set is still sound
        report = is_feasible(lam, n, jobs=jobs, use_hull=False)
        if report.verdict == INFEASIBLE:
            raise AssertionError(
                f"canonical guarantee {lam.text()} was refuted at {report.witness_profile}"
            )
        if report.verdict == FEASIBLE:
            anchors.append(lam)
    _anchor_cache[key] = tuple(anchors)
    return _anchor_cache[key]


def is_feasible(
    lam: RankLottery,
    n: int,
    *,
    jobs: int = 1,
    limit_profiles: Optional[int] = None,
    time_budget: Optional[float] = None,
    use_hull: bool = True,
    extra_profiles: Iterable[Profile] = (),
) -> FeasibilityReport:
    """Decide membership of `lam` in the feasible-guarantee polytope.

    Feasible verdicts are proofs: either a domination argument (uniform or
    a mixture of verified guarantees) or an exhaustive scan of tail systems.
    Infeasible verdicts always carry a witness profile whose implementation
    LP is infeasible, plus its Farkas certificate.  Resource limits (profile
    count, wall-clock seconds) yield the explicit verdict "undecided",
    never a guess.
    """
    started = time.perf_counter()
    if n < 1:
        raise ValueError("need at least one agent")
    p = lam.p
    cache_key = (n, lam.probs)
    limited_run = limit_profiles is not None or time_budget is not None
    cached = _verdict_cache.get(cache_key)
    if cached is not None and not limited_run:
        return cached
    deadline = None if time_budget is None else time.monotonic() + time_budget

    def finish(report):
        return _finish(report, started, None if limited_run else cache_key)

    if n == 1:
        return finish(FeasibilityReport(FEASIBLE, n, p, method="single-agent"))

    if dominates(uniform(p), lam):
        return finish(FeasibilityReport(FEASIBLE, n, p, method="uniform-dominates"))

    cuts = necessary_cuts(lam, n)
    if not cuts.passed:
        violated = cuts.violated
        assert violated is not None
        _, lp_result = implement_report(lam, violated.witness)
        assert lp_result.status == INFEASIBLE, "cut witness failed to refute"
        return finish(
            FeasibilityReport(
                INFEASIBLE,
                n,
                p,
                witness_profile=violated.witness,
                witness_certificate=lp_result.certificate,
                cuts_used=cuts.applied,
                method=f"cut:{violated.kind}:k={violated.k}",
            )
        )

    if n == 2:
        # The two-agent inequalities are exact, and they just passed.
        return finish(
            FeasibilityReport(FEASIBLE, n, p, cuts_used=cuts.applied, method="two-agent-exact")
        )

    checked = 0
    for prof in extra_profiles:
        ell, result = implement_report(lam, prof)
        checked += 1
        if ell is None:
            return finish(
                FeasibilityReport(
                    INFEASIBLE,
                    n,
                    p,
                    witness_profile=prof,
                    witness_certificate=result.certificate,
                    profiles_checked=checked,
                    cuts_used=cuts.applied,
                    method="supplied-profile",
                )
            )

    own_size = system_count(lam, n)

    if use_hull and 3 <= n < p:
        have_anchors = (n, p) in _anchor_cache
        if have_anchors or own_size > 50_000:
            anchors = verified_anchors(n, p, jobs=jobs)
            mixture = _hull_mixture(lam, anchors)
            if mixture is not None:
                return finish(
                    FeasibilityReport(
                        FEASIBLE,
                        n,
                        p,
                        profiles_checked=checked,
                        cuts_used=cuts.applied,
                        method="mixture-dominates",
                        mixture=mixture,
                    )
                )

    for prof in hard_profiles(n, p):
        ell, result = implement_report(lam, prof)
        checked += 1
        if ell is None:
            return finish(
                FeasibilityReport(
                    INFEASIBLE,
                    n,
                    p,
                    witness_profile=prof,
                    witness_certificate=result.certificate,
                    profiles_checked=checked,
                    cuts_used=cuts.applied,
                    method="library-profile",
                )
            )

    ks = active_ranks(lam)
    if not ks:
        # No binding tail constraints: any outcome lottery implements lam.
        return finish(
            FeasibilityReport(
                FEASIBLE, n, p, profiles_checked=checked, cuts_used=cuts.applied, method="vacuous"
            )
        )

    chains = chain_count(p, ks)
    if chains > _MAX_CHAINS:
        return finish(
            FeasibilityReport(
                UNDECIDED,
                n,
                p,
                profiles_checked=checked,
                cuts_used=cuts.applied,
                method=f"scan-too-large:{chains}-chains",
            )
        )

    payload_base = (lam.probs, n, ks)
    if jobs <= 1 or own_size < 20_000:
        outcome = _scan_chunk((*payload_base, 0, chains, limit_profiles, deadline))
        checked += outcome["checked"]
        return finish(_scan_outcome_report(lam, n, outcome, checked, cuts.applied, True))

    ranges = _chunk_ranges(chains, n - 1, jobs * 4)
    per_chunk_limit = None if limit_profiles is None else max(1, limit_profiles // len(ranges))
    limited = False
    with ProcessPoolExecutor(max_workers=jobs) as executor:
        futures = {
            executor.submit(
                _scan_chunk, (*payload_base, lo, hi, per_chunk_limit, deadline)
            ): (lo, hi)
            for lo, hi in ranges
        }
        pending = set(futures)
        try:
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for fut in done:
                    outcome = fut.result()
                    checked += outcome["checked"]
                    if outcome["status"] == "infeasible":
                        for other in pending:
                            other.cancel()
                        return finish(
                            _scan_outcome_report(lam, n, outcome, checked, cuts.applied, False)
                        )
                    if outcome["status"] == "limited":
                        limited = True
        finally:
            for fut in pending:
                fut.cancel()
    if limited:
        return finish(
            FeasibilityReport(
                UNDECIDED,
                n,
                p,
                profiles_checked=checked,
                cuts_used=cuts.applied,
                method="profile-limit",
            )
        )
    return finish(
        FeasibilityReport(
            FEASIBLE, n, p, profiles_checked=checked, cuts_used=cuts.applied, method="scan"
        )
    )


def _scan_outcome_report(
    lam: RankLottery,
    n: int,
    outcome: dict,
    checked: int,
    cuts_applied: tuple[str, ...],
    deterministic: bool,
) -> FeasibilityReport:
    p = lam.p
    if outcome["status"] == "infeasible":
        prefs = tuple(Preference(tuple(order)) for order in outcome["orders"])
        witness = Profile(prefs)
        return FeasibilityReport(
            INFEASIBLE,
            n,
            p,
            witness_profile=witness,
            witness_certificate=tuple(outcome["certificate"]),
            profiles_checked=checked,
            cuts_used=cuts_applied,
            method="scan",
            witness_deterministic=deterministic,
        )
    if outcome["status"] == "limited":
        return FeasibilityReport(
            UNDECIDED,
            n,
            p,
            profiles_checked=checked,
            cuts_used=cuts_applied,
            method="profile-limit",
        )
    return FeasibilityReport(
        FEASIBLE, n, p, profiles_checked=checked, cuts_used=cuts_applied, method="scan"
    )


# ----------------------------------------------------------------------------
# Randomized cardinal falsifier.
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class CardinalViolation:
    """A zero-sum utility profile on which the guarantee overpromises."""

    utilities: tuple[UtilityVector, ...]
    value: Fraction


def cardinal_falsifier(
    lam: RankLottery,
    n: int,
    sample_count: int = 10_000,
    seed: int = 0,
    *,
    low: int = -10,
    high: int = 10,
) -> Optional[CardinalViolation]:
    """Random search for a zero-sum utility profile where the summed
    guaranteed utilities are positive: a certificate of infeasibility.
    Finding nothing proves nothing."""
    import random

    rng = random.Random(seed)
    p = lam.p
    for _ in range(sample_count):
        raw = [[rng.randint(low, high) for _ in range(p)] for _ in range(n)]
        cols = [sum(raw[i][a] for i in range(n)) for a in range(p)]
        # scale by n before centering so the profile stays integral
        profile = [
            tuple(Fraction(n * raw[i][a] - cols[a]) for a in range(p)) for i in range(n)
        ]
        total = sum((sorted_dot(lam, u) for u in profile), ZERO)
        if total > 0:
            return CardinalViolation(tuple(profile), total)
    return None
