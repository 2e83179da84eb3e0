"""Deciding whether a feasible guarantee can be improved.

A guarantee is maximal when no other feasible guarantee dominates it, so the
word means something only inside `F(n, p)`.  `is_maximal` is the one entry
point, and it proves its input feasible before anything else; an infeasible
input is a ValueError, never a verdict.  It then answers n = 2 in closed
form, tries the certified duals stored for `(n, p)` as proofs of
maximality, and the verified anchors as strict dominators.  What is left
runs a cutting-plane loop: a small master LP proposes a candidate
dominating the input with maximum total cumulative slack, subject to cover
cuts from profiles that refuted earlier candidates.  Each `(n, p)` has one
master, kept in its cut store: a call that finds none solves it, with
every stored cut, by `lp.solve`, and each later call moves its cap rows to
the input's cumulatives (`move`), which change only right-hand sides.
Either way the solved program is then re-optimized after each cut by its
dual simplex (`add`), not solved again from scratch.  The candidate is read off the
master as ints over one scale (its `point`), and its caps and cuts stay
ints.

A cover cut holds at every lottery implementable at its profile, so at
every feasible guarantee of `(n, p)`, whatever lottery was being tested
when it was found.  Each `(n, p)` keeps one `_CutStore` of the cuts found
so far, each with its refuting profile, and the master of the last call
that returned, which holds the cuts that call and those before it added.
A call that raises drops the master, not the cuts, and the next call's
fresh master is built with every stored cut.  So the master holds every
stored cut, and a candidate meets them all.  It is tested at the working
profiles (the store's profiles and the structured library) by
`feasibility._implementing_point`: greedy fills in integers, and an exact
implementation LP only where they miss.  A candidate that survives the
working profiles becomes a `RankLottery` and goes to the full feasibility
engine; its witness profile, if any, contributes a new cut.  Every new cut
joins the store.

The loop ends either with a certified improver (dominated) or with master
slack exactly zero (maximal: even the relaxation admits no strict
dominator, and the true feasible set is contained in the relaxation).
Before a maximal verdict, the master's dual is checked in integers, which
proves that zero is the master's optimum and not only the slack of some
feasible point.  The store keeps that dual too.  Its feasibility does not
depend on the caps, so it bounds the master of every later input at the
size; where that bound equals the input's objective (one integer
equation in the input's caps), the dual, re-checked in full at those
caps, proves the input maximal without moving the master.  The store
holds inequalities, a master over them and certified duals, which are
proofs re-checked for each input, never a verdict: the method, the
improver and the iteration count may depend on earlier calls at the same
`(n, p)`, the verdicts cannot.

One profile budget and one deadline cover a whole call: the feasibility
checks of the input and of every candidate share them, each check getting
what the checks before it left.

Positive verdicts can be decorated with per-rank forcing profiles (profiles
where every implementing lottery is pinned to the guarantee's cumulative
value at that rank), each tested by one `lp.solve` of the least worst
tail mass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, islice
from math import lcm
from operator import mul
from typing import Optional, Sequence

from .lottery import RankLottery, ZERO, convex_combination, dominates, is_symmetric
from .lp import (
    GE,
    LE,
    OPTIMAL,
    LinearProgram,
    Row,
    _Tableau,
    _bounds,
    _reduce,
    _scaled,
    solve,
)
from .feasibility import (
    FEASIBLE,
    UNDECIDED,
    FeasibilityReport,
    _expired,
    _implementing_point,
    _tail_rows,
    implement_program,
    is_feasible,
    verified_anchors,
)
from .profiles import Profile, hard_profiles

MAXIMAL = "maximal"
DOMINATED = "dominated"
_LIMITS = ("time-limit", "profile-limit")  # the feasibility methods of a limit that ran out


class _CutStore:
    """The cover cuts found at one `(n, p)`, in the order found, each with
    the profile whose implementation LP refuted a candidate with it, and the
    certified duals of the masters that ended maximal there.

    Every cut holds on all of `F(n, p)`.  A cut row is kept once, and each
    profile is held once, in `profiles`, in the order first met.  `master`
    is the solved master of the last `is_maximal` call at `(n, p)` that
    returned, or None.  Each entry of `duals` is ``(z, z_den, m, weights,
    const)``: multipliers ``z / z_den`` over the master's rows (the mass
    row, the p - 1 cap rows, then the first `m` stored cuts), and the
    equation ``weights . caps + const * cap_den == 0`` on an input's
    cumulatives ``caps / cap_den`` below rank p.  The rows' coefficients,
    and so the dual's feasibility, are the same at every input's caps,
    which change only right-hand sides; the equation holds exactly when
    the dual's bound there equals the input's objective.
    """

    def __init__(self) -> None:
        self.cuts: dict[tuple[tuple[int, ...], int], tuple[Row, Profile]] = {}
        self.profiles: dict[Profile, Profile] = {}
        self.master: Optional[_Tableau] = None
        self.duals: list[tuple[list[int], int, int, list[int], int]] = []

    def add(self, cut: Row, prof: Profile) -> None:
        key = (tuple(cut[0]), cut[1])
        if key not in self.cuts:
            self.cuts[key] = (cut, self.profiles.setdefault(prof, prof))

    def first_cuts(self, m: int) -> list[Row]:
        return [cut for cut, _ in islice(self.cuts.values(), m)]

    def add_dual(self, z: list[int], z_den: int, p: int) -> None:
        """Keep the dual that `certify` checked over a master's rows, with
        its equation.  At caps ``c_k``, the bound ``-z . b / z_den`` equals
        the objective ``sum_k c_k`` exactly when ``sum_k (z_k + z_den) *
        c_k + z_0 + sum_cuts z_i * b_i == 0``, multiplied here by the cuts'
        common denominator."""
        m = len(z) - p
        cuts = [(v, cut) for v, cut in zip(z[p:], self.first_cuts(m)) if v]
        scale = lcm(*(den for _, (_, den, _) in cuts))
        const = z[0] * scale + sum(v * ints[-1] * (scale // den) for v, (ints, den, _) in cuts)
        self.duals.append((z, z_den, m, [(v + z_den) * scale for v in z[1:p]], const))


_cut_stores: dict[tuple[int, int], _CutStore] = {}


@lru_cache(maxsize=32)
def _library_set(n: int, p: int) -> frozenset[Profile]:
    """`hard_profiles(n, p)` as a set, built once per (n, p)."""
    return frozenset(hard_profiles(n, p))


def _known_profiles(n: int, p: int) -> list[Profile]:
    """The profiles of the cuts stored for `(n, p)` that the structured
    library lacks, in the order first met, then the library's."""
    stored = _cut_stores.get((n, p))
    held = _library_set(n, p)
    return [*(prof for prof in (stored.profiles if stored else ()) if prof not in held), *hard_profiles(n, p)]


@dataclass(frozen=True)
class MaximalityReport:
    verdict: str
    n: int
    p: int
    improver: Optional[RankLottery] = None
    witnesses: Optional[dict[int, Profile]] = None
    iterations: int = 0
    profiles_in_working_set: int = 0
    runtime_ms: int = 0
    # The step that decided (two-agent, stored-dual, anchor-dominates, master-dual,
    # candidate-feasible) or why none did (time-limit, profile-limit, feasibility-undecided).
    method: str = ""


def _cover_cut(mu_active: tuple[int, ...], certificate: Sequence[Fraction], p: int) -> Row:
    """Turn a Farkas certificate of an implementation LP into a master cut.

    The LP rows are those `feasibility._tail_rows` lays out: the mass
    equality, then one tail row per (agent, active rank).  Dividing the
    multipliers by minus the equality's gives cover weights w_k with
    sum_k w_k * cum_k(mu) >= 1 for every lottery mu implementable at the
    refuting profile.  The cut is that row, in lowest terms.
    """
    if not mu_active:
        raise AssertionError("a candidate with no tail constraints cannot be refuted")
    y, _ = _scaled(certificate)  # over a common scale, which cancels
    tau = -y[0]
    if tau <= 0:
        raise AssertionError("degenerate certificate")
    weights = [0] * (p + 1)  # tau * w_k at index k
    for i, k in enumerate(mu_active * ((len(y) - 1) // len(mu_active)), 1):
        weights[k] += y[i]
    # cum_k sums mu_t over t < k (0-based), so mu_t weighs the ranks k > t.
    coeffs = [sum(weights[t + 1:]) for t in range(p)]
    return (*_reduce([*coeffs, tau], tau), GE)


def is_maximal(
    lam: RankLottery,
    n: int,
    *,
    jobs: int = 1,
    witnesses: bool = False,
    limit_profiles: Optional[int] = None,
    time_budget: Optional[float] = None,
) -> MaximalityReport:
    """Decide whether `lam` is maximal in `F(n, p)`, with optional per-rank
    forcing profiles on a maximal verdict.

    Five steps, in order: `lam` is proved feasible (ValueError when it is
    refuted); at n = 2 it is maximal exactly when it equals its reflection,
    and otherwise the midpoint of the two improves it; a certified dual
    stored for `(n, p)`, newest first, whose bound at `lam`'s caps equals
    `lam`'s objective proves it maximal (`stored-dual`, with no iteration,
    working set or improver; a stored dual that meets its equation and then
    fails the full re-check is an `AssertionError`); a verified anchor
    that strictly dominates it improves it; the cutting-plane loop decides
    the rest.  `time_budget` covers all five, each step getting what the
    steps before it leave; the stored duals are not tried once it has run
    out, and they spend no profile budget.  `limit_profiles` caps the
    profile LPs and tail systems of all the call's feasibility checks
    together, the input's and every candidate's; the loop's tests at the
    working profiles are not counted, since their number depends on the
    cuts stored by earlier calls.

    The loop runs on one master per `(n, p)`, kept in the cut store: built
    by the first call at the size, moved to `lam`'s caps by each later one,
    and kept again only when the call returns; a built master carries
    every cut stored for `(n, p)`, in store order, after the master rows.
    A maximal verdict of the loop stores the master's certified dual.
    `iterations` counts the master optima this call read.  Each candidate
    of the loop is tested by `_implementing_point` at the working profiles,
    newest first: the store's profiles and `hard_profiles(n, p)`, plus each
    witness of this call.  Every cut found joins the store and the master.
    Where the master's optimum is not unique, the candidates, the improver
    and the iteration count can differ from those of a master solved from
    scratch, and can depend on earlier calls at the same `(n, p)`; so can
    whether a stored dual answers first.  The verdicts cannot: maximal is
    proved by a master's dual, this call's or a stored one, over cuts that
    all hold on `F(n, p)`, dominated by the feasibility engine.

    The loop ends with no cap on its iterations.  Each iteration that does
    not end the call adds to the master a cut that its candidate violates,
    while the candidate meets every cut already in the master, so the
    master gets no cut twice, whichever calls added its cuts.  And there
    are finitely many to add: the store is finite, and each new cut comes
    from the Farkas certificate of a refuting basis of one of finitely many
    implementation programs (one per profile and set of active ranks).
    """
    started = time.perf_counter()
    p = lam.p
    deadline = None if time_budget is None else time.monotonic() + time_budget
    iterations = 0
    spent = 0  # the profiles and tail systems that this call's feasibility checks visited
    working: list[Profile] = []

    def check(mu: RankLottery) -> FeasibilityReport:
        """`is_feasible` on what the earlier checks left of the profile
        budget and of the time to the deadline."""
        nonlocal spent
        left = None if limit_profiles is None else limit_profiles - spent
        remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
        report = is_feasible(mu, n, jobs=jobs, limit_profiles=left, time_budget=remaining)
        spent += report.profiles_checked
        return report

    def finish(verdict: str, method: str, improver: Optional[RankLottery] = None) -> MaximalityReport:
        found = None
        if witnesses and verdict == MAXIMAL:
            found = {k: prof for k in range(1, p) if (prof := forcing_profile(lam, n, k)) is not None}
        return MaximalityReport(
            verdict, n, p, improver, found or None, iterations, len(working),
            int((time.perf_counter() - started) * 1000), method=method,
        )

    feas = check(lam)
    if feas.verdict == UNDECIDED:
        return finish(UNDECIDED, feas.method if feas.method in _LIMITS else "feasibility-undecided")
    if feas.verdict != FEASIBLE:
        raise ValueError(f"not a feasible guarantee: {lam.text()}")

    if n == 2:
        if is_symmetric(lam):
            return finish(MAXIMAL, "two-agent")
        return finish(DOMINATED, "two-agent", convex_combination([(Fraction(1, 2), lam), (Fraction(1, 2), lam.reflect())]))

    # Candidates mu: the tail rows of one identity order at every rank below
    # p, capped by `lam`'s cumulatives, then the cuts.  Maximizing total
    # cumulative slack, sum_{k<p} (cum_k(lam) - cum_k(mu)), is minimizing
    # sum_t (p - t) * mu_t, which is sum_{k<p} cum_k(mu).
    lam_caps, lam_den = _scaled(lam.cumulative()[:-1])
    master_rows = _tail_rows(p, range(1, p), lam_caps, lam_den, [tuple(range(1, p + 1))])
    objective = [p - t for t in range(1, p + 1)]

    # `lam` meets its own caps, the mass row and every cut, so a stored
    # dual's bound at its caps is at most its objective; where the two are
    # equal, no point of the master, and so no strict dominator, has a
    # smaller one.
    stored = _cut_stores.get((n, p))
    if stored is not None and not _expired(deadline):
        for z, z_den, m, weights, const in reversed(stored.duals):
            if sum(map(mul, weights, lam_caps)) + const * lam_den == 0:
                rows = [*master_rows, *stored.first_cuts(m)]
                if not _bounds(rows, z, z_den, objective, 1, Fraction(sum(lam_caps), lam_den)):
                    raise AssertionError("a stored dual failed its re-check")
                return finish(MAXIMAL, "stored-dual")

    for anchor in verified_anchors(n, p, deadline=deadline):
        if anchor.probs != lam.probs and dominates(anchor, lam):
            return finish(DOMINATED, "anchor-dominates", anchor)

    working = _known_profiles(n, p)
    store = _cut_stores.setdefault((n, p), _CutStore())
    # Only rows 1..p-1, the caps, differ between the masters of one size.
    master, store.master = store.master, None  # kept again only when this call returns
    if master is None:
        cuts = tuple(cut for cut, _ in store.cuts.values())
        master = solve(LinearProgram(p, (*master_rows, *cuts), tuple(map(Fraction, objective))))
    else:
        master.move(dict(enumerate(master_rows[1:], 1)))
    while True:
        if _expired(deadline):
            ended = UNDECIDED, "time-limit"
            break
        iterations += 1
        if master.status != OPTIMAL:
            raise AssertionError("master must stay solvable")
        # The candidate mu is ``x / scale``, its cumulatives ``caps / scale``.
        x, scale = master.point
        caps = list(accumulate(x))[:-1]
        slack = sum(lam_caps) * scale - sum(caps) * lam_den  # the slack times lam_den * scale
        if slack < 0:
            raise AssertionError("the input lottery should keep the master nonempty")
        if slack == 0:
            store.add_dual(*master.certify(), p)
            ended = MAXIMAL, "master-dual"
            break
        mu_active = tuple(k for k in range(1, p) if x[k])
        mu_caps = [caps[k - 1] for k in mu_active]

        for prof in reversed(working):
            orders = [pref.order for pref in prof.prefs]
            point, certificate = _implementing_point(p, mu_active, mu_caps, scale, orders)
            if point is None:
                break
        else:
            mu = RankLottery(tuple([Fraction(v, scale) for v in x]))
            report = check(mu)
            if report.verdict == FEASIBLE:
                ended = DOMINATED, "candidate-feasible", mu
                break
            if report.verdict == UNDECIDED:
                ended = UNDECIDED, report.method if report.method in _LIMITS else "feasibility-undecided"
                break
            prof, certificate = report.witness_profile, report.witness_certificate
            assert prof is not None and certificate is not None
            working.append(prof)
        # The feasibility engine builds the same row layout as the working
        # profiles' tests, so either Farkas certificate converts directly
        # into a master cut.
        cut = _cover_cut(mu_active, certificate, p)
        store.add(cut, prof)
        master.add(cut)
    store.master = master
    return finish(*ended)


def forcing_value(lam: RankLottery, prof: Profile, k: int) -> Optional[Fraction]:
    """The smallest achievable worst k-tail mass over lotteries implementing
    `lam` at `prof`, or None when no lottery implements `lam` there."""
    p = lam.p
    orders = [pref.order for pref in prof.prefs]
    # Variable p + 1 is an upper bound t on every agent's k-tail mass.
    implementation = implement_program(lam, prof).constraints
    rows = [(ints[:-1] + [0, ints[-1]], den, rel) for ints, den, rel in implementation]
    rows += [(ints[:-1] + [-1, 0], 1, LE) for ints, _, _ in _tail_rows(p, (k,), (0,), 1, orders)[1:]]
    objective = (ZERO,) * p + (Fraction(1),)
    solved = solve(LinearProgram(p + 1, tuple(rows), objective))
    # t is bounded below by 0 and unbounded above, so the LP is infeasible
    # exactly when the implementation rows are.
    return solved.result.objective_value if solved.status == OPTIMAL else None


def forcing_profile(lam: RankLottery, n: int, k: int) -> Optional[Profile]:
    """A profile at which every lottery implementing `lam` has some agent's
    k-tail mass exactly at the guarantee's cumulative value.

    Searches the profiles of the cuts stored for `(n, p)` and the structured
    library; failure to find one is inconclusive.
    """
    if not 1 <= k <= lam.p - 1:
        raise ValueError(f"k={k} out of range")
    target = lam.cumulative()[k - 1]
    for prof in _known_profiles(n, lam.p):
        if forcing_value(lam, prof, k) == target:
            return prof
    return None
