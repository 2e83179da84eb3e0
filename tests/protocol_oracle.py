"""A brute-force protocol oracle that plays each stage from its definition.

`plays` lets agent 1, on any preference, make its safe report against
every tuple of adversary reports, stage by stage, and `worst_case` takes
the per-rank worst case over every play.  The stage rules, the report
spaces, agent 1's safe report and the reading of a tuple of reports are
written out here from the stage definitions:

- a veto round removes the union of the vetoes;
- a padded dictator round pads the claims with the lowest labels, and a
  unanimous claim on a terminal round settles on that claim;
- a naive dictator round lists the claims;
- the uniform fallback spreads evenly over what is left;
- a cover round lets the adversaries pick any `cover_size`-set that meets
  every report, in combination order; `bottom` plays its complement.

It imports only `worstvote.lottery` and `worstvote.profiles` and reads a
spec's stages by their fields, so it shares no code with
`worstvote.protocols`: it checks the evaluation's stage rules as well as
its recursion, memo and relabeling.  It cannot check the parser or the
continuation weights the parser sets, which it takes from the spec.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from worstvote.lottery import RankLottery
from worstvote.profiles import OutcomeLottery, rank_rearrange


class NoCoverError(ValueError):
    """No `cover_size`-set meets every report of a cover round."""


def _sets(survivors, size):
    if size > len(survivors):
        raise ValueError(f"no {size}-set to report among {len(survivors)} outcomes")
    return [frozenset(combo) for combo in itertools.combinations(survivors, size)]


def _reports(stage, survivors, pref):
    """Agent 1's safe report under `pref` and the reports an adversary may
    make: veto the worst `tokens`, claim the best, report the best (top) or
    worst (bottom) `depth` to a cover round."""
    ranked = sorted(survivors, key=pref.order.index)  # worst first
    if hasattr(stage, "tokens"):
        return frozenset(ranked[: stage.tokens]), _sets(survivors, stage.tokens)
    if hasattr(stage, "padded"):
        return ranked[-1], survivors
    if hasattr(stage, "cover_size"):
        mine = ranked[-stage.depth :] if stage.side == "top" else ranked[: stage.depth]
        return frozenset(mine), _sets(survivors, stage.depth)
    return None, [None]


def _settle(stage, survivors, reports, n):
    """Every way the stage may settle `reports`, as (listed outcomes, the
    weight with which play continues, the survivors left).  Only a cover
    round has more than one: one per covering set, in combination order."""
    if hasattr(stage, "tokens"):
        vetoed = frozenset().union(*reports)
        return [((), 1, tuple(a for a in survivors if a not in vetoed))]
    if hasattr(stage, "padded"):
        if not stage.padded:
            return [(reports, 0, ())]
        weight, claims = stage.continue_weight or 0, set(reports)
        if not weight and len(claims) == 1:
            return [(reports[:1], 0, ())]
        lowest = [a for a in survivors if a not in claims]
        padded = claims.union(lowest[: min(n, len(survivors)) - len(claims)])
        return [(tuple(sorted(padded)), weight, tuple(a for a in survivors if a not in padded))]
    if hasattr(stage, "cover_size"):
        covers = [
            combo
            for combo in itertools.combinations(survivors, stage.cover_size)
            if all(not report.isdisjoint(combo) for report in reports)
        ]
        if not covers:
            raise NoCoverError(f"no {stage.cover_size}-set meets all reported {stage.depth}-sets")
        if stage.side == "bottom":
            covers = [tuple(a for a in survivors if a not in combo) for combo in covers]
            if not covers[0]:
                raise ValueError(f"a {stage.cover_size}-set cover leaves no complement")
        return [(combo, 0, ()) for combo in covers]
    return [(survivors, 0, ())]


def plays(spec, n, p, pref):
    """Each report trace, agent 1 reporting safely under `pref` and the
    adversaries every tuple of legal reports in `itertools.product` order,
    with the outcome lotteries it may end in: one per covering set at a
    cover round, in combination order, else one.  Raises ValueError where a
    stage cannot be played."""

    @functools.cache
    def lottery(listed, weight, sub):
        mass = [weight * x for x in sub.mass] if weight else [Fraction(0)] * p
        for a in listed:
            mass[a - 1] += Fraction(1 - weight, len(listed))
        return OutcomeLottery(tuple(mass))

    def rec(idx, survivors):
        stage = spec.stages[idx]
        if not survivors:
            raise ValueError(f"no outcome is left for stage {idx}")
        mine, space = _reports(stage, survivors, pref)
        for adversaries in itertools.product(space, repeat=n - 1):
            reports = (mine, *adversaries)
            options = _settle(stage, survivors, reports, n)
            listed, weight, rest = options[0]
            if weight:  # a stage that continues settles one way
                for trace, subs in rec(idx + 1, rest):
                    yield (reports, *trace), [lottery(listed, weight, sub) for sub in subs]
            else:
                yield (reports,), [lottery(listed, 0, None) for listed, _, _ in options]

    return rec(0, tuple(range(1, p + 1)))


def worst_case(spec, n, p, pref):
    """The number of report traces, the guarantee (per rank, the worst case
    over every play of every trace) and, per rank where it is positive,
    the first trace with a play attaining it."""
    count, worst, first, seen = 0, [Fraction(0)] * p, {}, set()
    for trace, lotteries in plays(spec, n, p, pref):
        count += 1
        for ell in lotteries:
            # A lottery met before attains no new maximum.  `plays` makes
            # each one once, so its id names it, and hashing its masses
            # would cost more than the rest of the oracle.
            if id(ell) in seen:
                continue
            seen.add(id(ell))
            for k, value in enumerate(rank_rearrange(ell, pref).cumulative(), start=1):
                if value > worst[k - 1]:
                    worst[k - 1], first[k] = value, trace
    achieved = RankLottery(tuple(b - a for a, b in zip([Fraction(0), *worst], worst)))
    return count, achieved, first
