"""Executable game forms and exact worst-case evaluation.

A protocol is a sequence of stages: veto rounds (non-terminal), a dictator
round, a uniform fallback, or a covering lottery (terminal).  A dictator
round may itself be non-terminal, in which case it resolves with some
probability and otherwise continues to the remaining stages over the
leftover outcomes.  The parser reads its weight off the guarantee that
the continuation achieves, as the evaluation below gives it, mirroring how
guarantees compose; so any stage, a cover round too, may continue one.

One stage function, `_step`, says what a stage does with one tuple of
reports, read through their `_fold` aggregate: the outcomes it lists, each
listing taking an equal share of the mass the stage settles, the weight
with which play continues, and the outcomes left for the next stage.
`run` walks the stages on explicit reports, checking each stage's for
legality first (all randomization symbolic, never sampled), and turns the
listings into `Fraction` masses.
`_windows`, shared by the parser, `run` and the evaluation, gives the
fewest outcomes each stage can be played on and refuses a protocol that
can leave a stage none.  `worst_case_guarantee` fixes agent 1 on one
preference playing its safe strategy and takes, per rank, the worst case
over every adversary report by a recursion over (stage, survivor count)
states.  Each state folds the adversaries' reports, one adversary at a
time, into one aggregate per distinct reading of the stage, counting the
report tuples that reach it, and calls `_step` once per aggregate, or for a
cover round once per covering set, which the adversaries pick.  A count
suffices because every stage reads outcome labels only through their
order: relabeling survivors S onto 1..|S| in order carries each play onto
a play, so the worst case on S at rank k is the one on 1..|S| at rank
|S & 1..k|.  The recursion adds and compares integer numerators over one
scale per suffix of stages; only its result is a `Fraction`.  Its states
are memoized for the whole process, keyed by the remaining stages, n, the
survivor count and the unit of that scale, so protocols that share a
suffix of stages share its states, a repeated call reads them back, and
`verify_safe_strategy` reads the top state without tracing a worst
scenario.

Protocol text format: stages separated by ``;``, e.g. ``"veto(1); uniform"``,
``"rd(pad)"``, ``"rd(naive)"``, ``"veto(1); rd(pad)"``,
``"cover(2, 2, top)"``, ``"rd(pad); cover(2, 2, top)"``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .lottery import RankLottery, ZERO, dominates
from .profiles import (
    OutcomeLottery,
    Profile,
    rank_rearrange,  # not called here; perfbench/tracing.py wraps this name
)

class CoverNotFoundError(ValueError):
    """No covering set exists for the reported preference fragments: a
    counterexample to the combinatorial premise of the covering protocol."""


@dataclass(frozen=True)
class VetoRound:
    tokens: int

    def __post_init__(self) -> None:
        if self.tokens < 1:
            raise ValueError("a veto round needs at least one token")


@dataclass(frozen=True)
class DictatorRound:
    padded: bool = True
    continue_weight: Optional[Fraction] = None  # None: terminal round

    def __post_init__(self) -> None:
        if self.continue_weight is not None:
            if not self.padded:
                raise ValueError("only padded dictator rounds can continue")
            if not 0 < self.continue_weight < 1:
                raise ValueError("continuation weight must be strictly between 0 and 1")


@dataclass(frozen=True)
class UniformFallback:
    pass


@dataclass(frozen=True)
class CoverRound:
    cover_size: int
    depth: int
    side: str  # "top": uniform on the covering set; "bottom": on the rest

    def __post_init__(self) -> None:
        if self.side not in ("top", "bottom"):
            raise ValueError("cover side must be top or bottom")
        if min(self.cover_size, self.depth) < 1:
            raise ValueError("a cover round needs a cover size and a depth of at least 1")


Stage = VetoRound | DictatorRound | UniformFallback | CoverRound


@dataclass(frozen=True)
class ProtocolSpec:
    stages: tuple[Stage, ...]

    def __post_init__(self) -> None:
        _check_order(self.stages)
        for stage in self.stages[:-1]:
            if isinstance(stage, DictatorRound) and stage.continue_weight is None:
                raise ValueError("a non-final dictator round needs a continuation weight")
        last = self.stages[-1]
        if isinstance(last, DictatorRound) and last.continue_weight is not None:
            raise ValueError("the final dictator round cannot continue")

    def text(self) -> str:
        parts = []
        for stage in self.stages:
            if isinstance(stage, VetoRound):
                parts.append(f"veto({stage.tokens})")
            elif isinstance(stage, DictatorRound):
                parts.append("rd(pad)" if stage.padded else "rd(naive)")
            elif isinstance(stage, UniformFallback):
                parts.append("uniform")
            else:
                parts.append(f"cover({stage.cover_size},{stage.depth},{stage.side})")
        return "; ".join(parts)


def parse_protocol(text: str, n: int, p: int) -> ProtocolSpec:
    """Parse the stage mini-language and fix continuation weights for (n, p).

    A dictator round that continues resolves with weight 1 / (n * top + 1),
    top being the largest coordinate of the guarantee its continuation
    achieves, as `_worst` evaluates it on the fewest outcomes `_windows`
    can leave the continuation.  Raises ValueError if n or p is below 1, on
    a stage order no protocol has, and with the exact character position
    on a bad token, on a stage that `_windows` leaves no outcome, on a
    naive dictator round that continues, or on a continuation that cannot
    be played on those outcomes, with the class of error its evaluation
    raises (`CoverNotFoundError` for a failed cover premise).  A cover
    premise that holds there can still fail on more survivors, which only
    evaluating the whole protocol finds: `veto(1); rd(pad); cover(1,1,top)`
    at (2,5) parses, and `worst_case_guarantee` then raises
    `CoverNotFoundError`.
    """
    if min(n, p) < 1:
        raise ValueError(f"n and p must be at least 1, got n={n}, p={p}")
    stages: list[Stage] = []
    names: list[str] = []
    pos = 0
    for chunk in text.split(";"):
        token = chunk.strip()
        offset = pos + (len(chunk) - len(chunk.lstrip()))
        pos += len(chunk) + 1
        names.append(f"the stage at position {offset}")
        if not token:
            raise ValueError(f"empty protocol stage at position {offset}")
        stages.append(_parse_stage_token(token, offset))
    windows = _windows(stages, n, p, names)
    _check_order(stages)
    # One backward pass: the rounds after idx already have their weights,
    # so the stages after it evaluate as a protocol, on the memo states
    # that the whole protocol's evaluation reads in the same unit.
    unit = _unit(n, p)
    for idx in range(len(stages) - 2, -1, -1):
        if isinstance(stages[idx], DictatorRound):
            if not stages[idx].padded:
                raise ValueError(f"a naive dictator round cannot continue ({names[idx]})")
            try:
                top = _evaluate(tuple(stages[idx + 1 :]), n, windows[idx + 1], unit)[2].max_coordinate()
            except ValueError as err:
                raise type(err)(
                    f"the continuation from {names[idx + 1]} cannot be played on {windows[idx + 1]} outcomes: {err}"
                ) from None
            stages[idx] = DictatorRound(True, 1 / (n * top + 1))
    return ProtocolSpec(tuple(stages))


def _parse_stage_token(token: str, offset: int) -> Stage:
    """The stage `token` names.  Its errors, the stage constructors' too,
    end with the token's position."""
    try:
        if token == "uniform":
            return UniformFallback()
        if token.startswith("veto(") and token.endswith(")"):
            body = token[5:-1].strip()
            if not body.isdigit():
                raise ValueError("veto needs an integer token count")
            return VetoRound(int(body))
        if token.startswith("rd(") and token.endswith(")"):
            body = token[3:-1].strip()
            if body in ("pad", "naive"):
                return DictatorRound(padded=body == "pad")
            raise ValueError("rd argument must be 'pad' or 'naive'")
        if token.startswith("cover(") and token.endswith(")"):
            parts = [part.strip() for part in token[6:-1].split(",")]
            if len(parts) != 3 or not parts[0].isdigit() or not parts[1].isdigit():
                raise ValueError("cover needs (size, depth, top|bottom)")
            return CoverRound(int(parts[0]), int(parts[1]), parts[2])
        raise ValueError(f"cannot parse stage {token!r}")
    except ValueError as err:
        raise ValueError(f"{err} at position {offset}") from None


def _windows(stages: Sequence[Stage], n: int, p: int, names: Sequence[str] = ()) -> list[int]:
    """The fewest outcomes each stage can be played on, out of p.

    Every earlier veto token may remove n outcomes, and so may every earlier
    dictator round, which continues unless it is the last stage.  Raises
    ValueError naming (by `names`, else by index) the first stage left with
    none.
    """
    windows, left, verb = [], p, "veto"
    for idx, stage in enumerate(stages):
        if left < 1:
            raise ValueError(f"the protocol can {verb} every outcome before {names[idx] if names else f'stage {idx}'}")
        windows.append(left)
        if isinstance(stage, VetoRound):
            left -= n * stage.tokens
        elif isinstance(stage, DictatorRound):
            left, verb = left - n, "remove"
    return windows


def _check_order(stages: Sequence[Stage]) -> None:
    """Raises ValueError unless the stages are in an order a protocol can
    play: at least one, a lottery stage only last, and no veto round last."""
    if not stages:
        raise ValueError("a protocol needs at least one stage")
    if any(isinstance(stage, (UniformFallback, CoverRound)) for stage in stages[:-1]):
        raise ValueError("only the final stage may be a lottery stage")
    if isinstance(stages[-1], VetoRound):
        raise ValueError("a protocol cannot end on a veto round")


# ----------------------------------------------------------------------------
# Stage semantics and playing a protocol.
# ----------------------------------------------------------------------------


def _pad_set(chosen: set[int], survivors: tuple, target: int) -> tuple[int, ...]:
    extra = [a for a in survivors if a not in chosen]
    return tuple(sorted([*chosen, *extra[: target - len(chosen)]]))


def _reports(stage: Stage, survivors: tuple) -> tuple:
    """Agent 1's truthful report on `survivors`, listed worst first, and
    the legal reports: veto the worst, claim the best, report the best or
    worst `depth` for a cover, and None for the uniform fallback.  Raises
    ValueError when a stage asks for a set larger than `survivors`."""
    if isinstance(stage, DictatorRound):
        return survivors[-1], survivors
    if isinstance(stage, UniformFallback):
        return None, [None]
    if isinstance(stage, VetoRound):
        size, mine = stage.tokens, survivors[: stage.tokens]
    else:
        size = stage.depth
        mine = survivors[-size:] if stage.side == "top" else survivors[:size]
    if size > len(survivors):
        raise ValueError(f"no {size}-set to report among {len(survivors)} outcomes")
    return frozenset(mine), [frozenset(c) for c in itertools.combinations(survivors, size)]


def _fold(stage, survivors, choices):
    """Every aggregate of one report per agent, agent j's from choices[j]:
    aggregate -> [the number of report tuples that reach it, the
    lexicographically first of them].

    Each report reads as a token: a cover report as the bitmask over
    `combinations(survivors, cover_size)` of the sets it meets, a veto's
    labels or a padded claim as their bitmask, a naive claim as its
    1-tuple, and the uniform fallback's None as 0.  A cover keeps the sets
    that every report meets (AND), a naive dictator sorts the claims, and
    the other stages take the union of their masks (OR).  Agent j's tokens
    fold into the aggregates of the agents before it, so the work grows
    with the distinct aggregates, not with the tuples.  The first tuple
    reaching an aggregate extends the first tuple reaching one before it,
    so entries are made in the order of their first tuples.
    """
    if isinstance(stage, CoverRound):
        combos = list(itertools.combinations(survivors, stage.cover_size))
        combine, empty = operator.and_, -1
        read = lambda rep: sum(1 << i for i, combo in enumerate(combos) if not rep.isdisjoint(combo))
    elif not isinstance(stage, DictatorRound):
        combine, empty, read = operator.or_, 0, lambda rep: sum(1 << a for a in rep or ())
    elif stage.padded:
        combine, empty, read = operator.or_, 0, lambda rep: 1 << rep
    else:
        combine, empty, read = lambda agg, token: tuple(sorted(agg + token)), (), lambda rep: (rep,)
    folds = {empty: [1, ()]}  # the aggregate of no report
    for reports in choices:
        tokens = [(rep, read(rep)) for rep in reports]
        folds, last = {}, folds
        for agg, (count, first) in last.items():
            for rep, token in tokens:
                entry = folds.get(key := combine(agg, token))
                if entry:
                    entry[0] += count
                else:
                    folds[key] = [count, first + (rep,)]
    return folds


def _step(stage: Stage, survivors: tuple, agg, n: int) -> tuple[tuple, Fraction | int, tuple]:
    """What one stage does with a tuple of legal reports, given as their
    `_fold` aggregate.

    Every stage settles equal shares.  Returns the outcomes it lists, the
    weight w with which play continues to the next stage (the int 1 after a
    veto round, 0 after a terminal stage), and the outcomes left for that
    stage.  Each listing receives (1 - w) / len(listed) of the mass, so an
    outcome listed twice receives twice that.  A cover round plays the
    lowest set of its mask, the first covering set in label order.  `run`
    passes the reports' whole mask, so it plays their lowest covering set;
    `_worst` passes one set's one-bit mask at a time, so that the
    adversaries pick the set.
    """
    if isinstance(stage, VetoRound):
        return (), 1, tuple(a for a in survivors if not agg >> a & 1)
    if isinstance(stage, UniformFallback):
        return survivors, 0, ()
    if isinstance(stage, DictatorRound):
        if not stage.padded:
            return agg, 0, ()
        weight = stage.continue_weight or 0
        claims = {a for a in survivors if agg >> a & 1}
        if not weight and len(claims) == 1:
            return tuple(claims), 0, ()
        padded = _pad_set(claims, survivors, min(n, len(survivors)))
        return padded, weight, tuple(a for a in survivors if a not in padded)
    if not agg:
        raise CoverNotFoundError(f"no {stage.cover_size}-set meets all reported {stage.depth}-sets")
    combos = itertools.combinations(survivors, stage.cover_size)
    cover = next(itertools.islice(combos, (agg & -agg).bit_length() - 1, None))
    if stage.side == "bottom":
        cover = tuple(a for a in survivors if a not in cover)
        if not cover:
            raise ValueError(
                f"a {stage.cover_size}-set cover leaves no complement of {len(survivors)} outcomes"
            )
    return cover, 0, ()


def run(spec: ProtocolSpec, prof: Profile, reports: tuple[tuple, ...]) -> OutcomeLottery:
    """Exact outcome distribution for one play of the protocol.

    `reports[s]` holds stage s's reports for all agents in agent order
    (veto/cover stages: a set of outcomes per agent; dictator stages: one
    outcome per agent).  The profile fixes dimensions and legality only;
    agents may report anything legal, truthful or not.  The protocol is
    checked before the reports, and each stage's reports before it plays.
    """
    _windows(spec.stages, prof.n, prof.p)
    if len(reports) != len(spec.stages):
        raise ValueError("need one report tuple per stage")
    mass = [ZERO] * prof.p
    survivors, reach = tuple(range(1, prof.p + 1)), Fraction(1)
    for idx, (stage, legal) in enumerate(zip(spec.stages, reports)):
        if isinstance(stage, (VetoRound, CoverRound)):
            legal = tuple(map(frozenset, legal))
        space = _reports(stage, survivors)[1]
        if len(legal) != prof.n or not all(rep in space for rep in legal):
            raise ValueError(f"stage {idx} needs {prof.n} legal reports, got {legal}")
        (agg,) = _fold(stage, survivors, [(rep,) for rep in legal])
        listed, weight, survivors = _step(stage, survivors, agg, prof.n)
        for a in listed:
            mass[a - 1] += reach * (1 - weight) / len(listed)
        reach *= weight
    return OutcomeLottery(tuple(mass))


# ----------------------------------------------------------------------------
# Worst-case evaluation against exhaustive adversaries.
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class EvalReport:
    achieved: RankLottery
    scenario_count: int
    worst_scenarios: dict[int, tuple]
    runtime_ms: int


# The most states the process keeps, the least recently used going first.
# The whole differential sweep of tests/protocol_sweep.py holds 3,081
# states in 6.6 MB (tracemalloc), so this bound keeps it whole, and
# evaluations past it only evaluate evicted states again.
_MEMO_STATES = 4096


@functools.lru_cache(maxsize=_MEMO_STATES)
def _worst(stages: tuple[Stage, ...], n: int, m: int, unit: int):
    """The state of `stages` played on the survivors 1..m, in integers.

    Returns agent 1's worst cumulative numerators over `_scale(stages,
    unit)` at ranks 0..m, the number of scenarios, and per rank the first
    worst reports with the survivors they leave for the next stage (None
    after a terminal one), all as tuples, so that no caller can change what
    the memo holds.

    The key is complete: the state reads only the suffix `stages`, n, the
    survivors 1..m and `unit`.  `_reports`, `_fold` and `_step` read the
    first stage, the survivors and n; a continuation is the state of
    `stages[1:]` on the survivors left, with the same n and unit; and the
    numerators read `unit` and the scales of the suffix and of its tail,
    both fixed by the suffix.  The protocol's other stages and
    p do not enter, so the memo serves every protocol and every call of
    the process.  A state that raises is not stored, so it raises again on
    every call.  The stage functions are fixed for the process: code that
    replaces one must empty the memo (`_worst.cache_clear()`).
    """
    stage, tail, survivors = stages[0], stages[1:], tuple(range(1, m + 1))
    mine, legal = _reports(stage, survivors)
    folds = _fold(stage, survivors, [(mine,)] + [legal] * (n - 1))
    if isinstance(stage, CoverRound):
        # The adversaries pick the covering set: each set, as its one-bit
        # mask, plays with the first report tuple whose aggregate holds it.
        # A tuple counts once, under its lowest set; an empty aggregate
        # keeps the mask 0, on which `_step` raises.
        sets, seen = {}, 0
        for agg, (orderings, reports) in folds.items():
            if new := agg & ~seen:
                seen |= new
                sets.update((1 << i, [0, reports]) for i in range(new.bit_length()) if new >> i & 1)
            sets.setdefault(agg & -agg, [0, reports])[0] += orderings
        folds = sets
    groups = {}  # (listed, rest) -> [first reports, orderings]
    for agg, (orderings, reports) in folds.items():
        listed, weight, rest = _step(stage, survivors, agg, n)
        groups.setdefault((listed, rest), [reports, 0])[1] += orderings
    # `weight` is the stage's own: every report tuple gets the same one.
    share = (weight.denominator - weight.numerator) * unit * _scale(tail, unit)
    best, count, picks = [-1] * (m + 1), 0, [None] * (m + 1)
    for (listed, rest), (reports, orderings) in groups.items():
        cum = [0] * (m + 1)
        if listed:
            for a in listed:
                cum[a] += share // len(listed)
            cum = list(itertools.accumulate(cum))
        if weight:
            sub, sub_count, _ = _worst(tail, n, len(rest), unit)
            # rank k here is rank |rest & 1..k| there
            kept = set(rest)
            sub = [sub[j] for j in itertools.accumulate((a in kept for a in survivors), initial=0)]
            cum = sub if weight == 1 else [c + weight.numerator * unit * s for c, s in zip(cum, sub)]
            orderings *= sub_count
        count += orderings
        pick = reports, rest if weight else None
        for k, value in enumerate(cum):
            if value > best[k]:
                best[k], picks[k] = value, pick
    return tuple(best), count, tuple(picks)


def _scale(stages: Sequence[Stage], unit: int) -> int:
    """The denominator `_worst` counts the mass of `stages` in: a veto stage
    keeps the next stage's, any other multiplies it by unit times the
    denominator of its continuation weight (0 for a terminal stage)."""
    return math.prod(
        1 if isinstance(stage, VetoRound) else unit * (getattr(stage, "continue_weight", None) or 0).denominator
        for stage in stages
    )


def _top(spec: ProtocolSpec, n: int, p: int):
    """The checked top state of `spec` at (n, p): the unit, the worst
    cumulative numerators, the scenario count and the guarantee they
    give."""
    if min(n, p) < 1:
        raise ValueError(f"n and p must be at least 1, got n={n}, p={p}")
    _windows(spec.stages, n, p)
    unit = _unit(n, p)
    return (unit, *_evaluate(spec.stages, n, p, unit))


def _unit(n: int, p: int) -> int:
    """lcm(1..max(n, p)), which the length of every listing divides."""
    return math.lcm(*range(1, max(n, p) + 1))


def _evaluate(stages: tuple[Stage, ...], n: int, m: int, unit: int):
    """The worst cumulative numerators of `stages` on m survivors, the
    scenario count and the guarantee they give."""
    best, count, _ = _worst(stages, n, m, unit)
    scale = _scale(stages, unit)
    return best, count, RankLottery(tuple(Fraction(b - a, scale) for a, b in zip(best, best[1:])))


def worst_case_guarantee(spec: ProtocolSpec, n: int, p: int) -> EvalReport:
    """Tightest guarantee the protocol delivers to a truthful agent 1.

    Agent 1 holds the identity preference (label 1 its worst outcome) and
    plays its safe report against every adversary report tuple.  A
    scenario's mass on agent 1's k worst outcomes is what its first stage
    settles there plus w >= 0 (fixed by the stage) times that of the
    continuation, which depends only on the next (stage, survivors) state.
    So the largest such mass per rank, and the first scenario attaining it,
    follow from a recursion over states, `_worst`, memoized for the whole
    process: protocols that share a suffix of stages, and calls that repeat
    a protocol, share its states.  Each call still builds a fresh report
    from the memo, tracing the worst scenarios through it.

    Within a state, `_fold` folds the n - 1 adversaries' reports, one
    adversary at a time, into aggregates: a veto's or a padded dictator's
    mask (OR), a naive dictator's sorted claims, or the mask of the sets a
    cover round may play (AND).  Each aggregate carries the number of
    ordered report tuples that reach it, which sum to the scenario count,
    and its lexicographically first tuple.  `_step` settles each aggregate
    once, and aggregates with equal results are grouped before the per-rank
    loop.  Every combine is symmetric, so the tuples that reach an aggregate
    include each other's permutations; sorting a tuple never makes it
    lexicographically larger, so the first tuple is sorted, and it is the
    first multiset of adversary reports in `combinations_with_replacement`
    order that reaches the aggregate.  Aggregates, and so groups, come in
    the order of those first multisets, and each rank's first worst
    scenario is the one an enumeration of multisets would pick.

    A cover round plays any `cover_size`-set that meets every report, and
    the adversaries pick which, so the guarantee holds whichever set the
    mechanism plays (`run` plays the lowest).  Walking the aggregates in
    order, each covering set reached for the first time is settled once,
    on its one-bit mask, with the first report tuple whose aggregate holds
    it; that tuple is its worst scenario, which names the reports, not the
    set.  The scenario count still counts ordered report tuples, each once,
    not pairs of a tuple and a set.

    A state needs only the number of survivors.  Every stage reads labels
    through their order alone: the veto union, `_pad_set` (the lowest
    labels), the cover mask (the combinations in label order) and
    `_reports`.  So the order-preserving relabeling of survivors S onto
    1..|S| carries each play from S, its reports, its listings and its
    survivors, onto a play from 1..|S|, in the same order.
    Hence worst(idx, S)[k] = worst(idx, 1..|S|)[|S & 1..k|] (0 when that
    count is 0), with the same first worst reports relabeled, and the
    scenario count depends only on |S|.  The memo keys the remaining stages, n, |S| and the unit below,
    and evaluates each state on the survivors 1..|S|; a listing of `a` adds
    at rank a, and a continuation is lifted back through its survivors by
    that count (a set of them marks which labels survive).  One cold
    evaluation adds at most len(stages) * (p + 1) states; the memo keeps
    at most `_MEMO_STATES`.

    One preference stands for all: relabeling outcomes carries each stage's
    possible results to the relabeled ones.  A veto removes the union of the
    reported sets, a naive dictator settles on the reports, a padded one on
    any min(n, survivors)-set holding agent 1's claim, which the
    adversaries can name outright, and a cover round on any set that meets
    every report, which the adversaries pick.

    The arithmetic is exact in integers.  With unit = lcm(1..max(n, p)),
    which every listing's length divides, a suffix of stages counts mass in
    units of 1/`_scale` of that suffix: a veto stage keeps the next stage's
    scale, and any other stage multiplies it by unit * w.denominator, w
    being its continuation weight (0 for a terminal stage).  A listing then
    adds (w.denominator - w.numerator) * unit // len(listed) times the
    next suffix's scale at its rank, and a continuation adds w.numerator *
    unit times the next state's numerators.  Raises ValueError if n or p is
    below 1, if `_windows` leaves a stage no outcome, or if a stage cannot
    be played.
    """
    started = time.perf_counter()
    unit, best, count, achieved = _top(spec, n, p)

    def trace(k):
        out, names = [], range(p + 1)  # names[a]: the outcome that label a stands for
        while True:
            reports, rest = _worst(spec.stages[len(out):], n, len(names) - 1, unit)[2][k]
            out.append(tuple(
                frozenset(names[a] for a in r) if isinstance(r, frozenset) else r and names[r]  # None stays
                for r in reports
            ))
            if rest is None:
                return tuple(out)
            # Every group ties at rank 0, so a rank below every survivor of
            # `rest` traces the next state's first group.
            k, names = sum(a <= k for a in rest), (0, *(names[a] for a in rest))

    return EvalReport(
        achieved=achieved,
        scenario_count=count,
        worst_scenarios={k: trace(k) for k in range(1, p + 1) if best[k] > 0},
        runtime_ms=int((time.perf_counter() - started) * 1000),
    )


def verify_safe_strategy(spec: ProtocolSpec, lam: RankLottery, n: int, p: int) -> bool:
    """True when the truthful strategy secures `lam` against every adversary:
    every scenario dominates `lam` exactly when the per-rank worst cases do.
    Reads the top state alone, tracing no worst scenario."""
    return dominates(_top(spec, n, p)[3], lam)


# ----------------------------------------------------------------------------
# Covering protocols.
# ----------------------------------------------------------------------------


def cover_protocol(n: int, p: int, mode: str) -> ProtocolSpec:
    """Named covering protocols over claimed top/bottom fragments.

    Modes: "top-pair" (two outcomes meeting everyone's best block, uniform
    on the pair), "bottom-pair" (two outcomes meeting everyone's worst
    block, uniform off them), "block" (p = 2n-1 only: n-1 outcomes meeting
    everyone's top two, uniform on them).
    """
    if mode in ("top-pair", "bottom-pair"):
        depth = {(3, 5): 2, (4, 7): 3}.get((n, p))
        if depth is None:
            raise ValueError("pair covers are defined for (3,5) and (4,7)")
        side = "top" if mode == "top-pair" else "bottom"
        return ProtocolSpec((CoverRound(cover_size=2, depth=depth, side=side),))
    if mode == "block":
        if p != 2 * n - 1:
            raise ValueError("block covers are defined for p = 2n-1")
        return ProtocolSpec((CoverRound(cover_size=n - 1, depth=2, side="top"),))
    raise ValueError(f"unknown cover mode {mode!r}")

