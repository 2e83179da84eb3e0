"""Seeded inputs of the three workloads and their known answers.

Inputs are built only with worstvote's public constructors.  Each workload
is a fixed sequence of strata; a seed draws the free parameters of every
stratum (mixture weights, weaker claims, the order of protocol checks), so
runs with one seed see the same queries in the same order, and runs with
different seeds see the same mix of (n, p) and system-count bands.  No
input repeats within a run, so the feasibility verdict cache never answers
a timed query.

Known answers never come from the code under test.  They come from
convexity and domination (a mixture of feasible guarantees, or a lottery
dominated by one, is feasible), from the maximal sets the paper proves at
(3,5) and (3,6), and from the vt / rd / composition formulas and the bounds
the repository's tests establish for protocols.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from worstvote import (
    RankLottery,
    convex_combination,
    cover_protocol,
    dominates,
    enumerate_canonical,
    parse_lottery,
    parse_protocol,
    rd,
    uniform,
    vt,
)
from worstvote.feasibility import system_count

# Nominal seconds of one round of each workload on the reference machine
# (2-core x86 VM, Python 3.11); a run of `seconds` seconds runs round(seconds / ROUND_S)
# rounds, so the work in a run is fixed by its arguments, never by the speed
# of the machine.
ROUND_S = {"scan": 3.0, "maximality": 3.0, "protocols": 15.0}


@dataclass(frozen=True)
class Query:
    """One timed call and the answer it must give."""

    kind: str  # "feasible", "maximal", "evaluate" or "verify"
    stratum: str
    n: int
    p: int
    lam: Optional[RankLottery] = None
    spec_text: str = ""
    spec: object = None
    expected: object = None  # see `check`

    @property
    def key(self) -> tuple:
        return (self.kind, self.n, self.p, self.lam.probs if self.lam else None, self.spec_text)


def rounds_for(workload: str, seconds: int) -> int:
    """Rounds in a run of `seconds` nominal seconds."""
    return max(1, round(seconds / ROUND_S[workload]))


def _canonical(n: int, p: int) -> dict[str, RankLottery]:
    return {",".join(word): lam for word, lam in enumerate_canonical(n, p)}


def _near_half(rng: random.Random) -> Fraction:
    """A mixture weight in [0.48, 0.52] on a grid of 1/1500.  Seeded
    parameters are drawn from narrow bands on fine grids throughout: inputs
    never repeat, yet a stratum's queries cost about the same for every
    seed, so order statistics of a run do not depend on the seed."""
    return Fraction(1, 2) + Fraction(rng.randint(-30, 30), 1500)


def _push_down(lam: RankLottery, rng: random.Random) -> RankLottery:
    """Move a seeded share (0.4-0.6) of the mass on `lam`'s best supported
    rank to its worst supported rank.  The result keeps `lam`'s support,
    hence its system count, and is dominated by `lam`."""
    support = sorted(lam.support())
    lo, hi = support[0] - 1, support[-1] - 1
    moved = lam.probs[hi] * Fraction(rng.randint(400, 600), 1000)
    probs = list(lam.probs)
    probs[hi] -= moved
    probs[lo] += moved
    return RankLottery(tuple(probs))


def _weaker(lam: RankLottery, rng: random.Random) -> RankLottery:
    """Move a seeded share of the mass on `lam`'s best supported rank to the
    worst rank; the result is dominated by `lam`."""
    hi = max(lam.support()) - 1
    moved = lam.probs[hi] * Fraction(rng.randint(1, 99), 100)
    probs = list(lam.probs)
    probs[hi] -= moved
    probs[0] += moved
    return RankLottery(tuple(probs))


Stratum = tuple[str, int, int, Callable[[random.Random], RankLottery]]


def _scan_strata(round_index: int) -> list[Stratum]:
    c36, c37, c46 = _canonical(3, 6), _canonical(3, 7), _canonical(4, 6)

    def mix(a: RankLottery, b: RankLottery):
        def draw(rng: random.Random) -> RankLottery:
            w = _near_half(rng)
            return convex_combination([(w, a), (1 - w, b)])

        return draw

    def below(lam: RankLottery):
        return lambda rng: _push_down(lam, rng)

    # One round, by cost in ref units on the reference machine: a 260k- or
    # 295k-system mixture (about 58, alternating between rounds), three
    # 88k-system ones (about 45), one of 22k (15), five (3,6) points below
    # the pool switch (3.7-6.3) and five cheaper (4,6) ones (3).  With five
    # rounds the median query is the middle of the (3,6) block and the tail
    # query (ten beyond it) the sixth of the fifteen 88k ones, so neither
    # order statistic sits on the edge between strata of different cost.
    top = [
        ("4-6:VT+RD", 4, 6, mix(c46["VT"], c46["RD"])),
        ("3-6:U+VT", 3, 6, mix(uniform(6), c36["VT"])),
    ]
    return [top[round_index % 2]] + [
        ("3-7:VT,VT+VT,RD", 3, 7, mix(c37["VT,VT"], c37["VT,RD"])),
    ] * 3 + [
        ("3-7:RD+VT,VT", 3, 7, mix(c37["RD"], c37["VT,VT"])),
    ] + [
        ("3-6:below-VT", 3, 6, below(c36["VT"])),
        ("4-6:below-VT", 4, 6, below(c46["VT"])),
    ] * 5


def _draw_distinct(draw, rng: random.Random, seen: set) -> RankLottery:
    """A draw not seen before in this run and not dominated by the uniform
    (those are decided without a scan)."""
    for _ in range(1000):
        lam = draw(rng)
        if lam.probs not in seen and not dominates(uniform(lam.p), lam):
            seen.add(lam.probs)
            return lam
    raise RuntimeError("could not draw a fresh input")


def scan_queries(seed: int, seconds: int) -> list[Query]:
    """Feasible mixtures and dominated points, each decided by a full scan."""
    rng = random.Random(seed)
    seen: set = set()
    out = []
    for round_index in range(rounds_for("scan", seconds)):
        for name, n, p, draw in _scan_strata(round_index):
            lam = _draw_distinct(draw, rng, seen)
            out.append(Query("feasible", name, n, p, lam=lam, expected="feasible"))
    return out


def maximality_queries(seed: int, seconds: int) -> list[Query]:
    """Points with known maximality: the (3,6) segments from the uniform to vt
    and to rd, and the (3,5) segments from the uniform to each of the four
    boundary guarantees, are maximal; the interior of the (3,6) triangle
    spanned by the uniform, vt and rd is dominated."""
    rng = random.Random(seed)
    seen: set = set()
    u5, u6, vt6, rd6 = uniform(5), uniform(6), vt(3, 6), rd(3, 6)
    boundary5 = [
        ("vt", vt(3, 5)),
        ("rd", rd(3, 5)),
        ("1/2,0,0,1/2,0", parse_lottery("1/2,0,0,1/2,0")),
        ("1/3,0,1/3,1/3,0", parse_lottery("1/3,0,1/3,1/3,0")),
    ]

    def segment(u, end):
        def draw(r: random.Random) -> RankLottery:
            w = Fraction(r.randint(400, 600), 1000)
            return convex_combination([(1 - w, u), (w, end)])

        return draw

    def interior(r: random.Random) -> RankLottery:
        a = Fraction(r.randint(180, 220), 1200)
        b = Fraction(r.randint(180, 220), 1200)
        return convex_combination([(1 - a - b, u6), (a, vt6), (b, rd6)])

    # One round, by cost in ref units on the reference machine: four points
    # on the (3,5) segments to vt and rd (about 6); four on the (3,6)
    # segment to rd (about 17); one on the (3,5) segment to 1/2,0,0,1/2,0
    # or to 1/3,0,1/3,1/3,0, alternating between rounds (14-22); two on the
    # (3,6) segment to vt (20, 13 cutting-plane iterations); and one interior
    # point (27 or 35, as it takes 14 or 15 iterations).  With five rounds
    # the median query falls among the points on the (3,6) segment to rd
    # and the tail query (ten beyond it) in the middle of the ten points on
    # the segment to vt.  Among the interior points, whose cost has two
    # modes, the tail would jump between the modes from seed to seed.
    seg5 = {name: (f"3-5:U-{name}", 5, segment(u5, end), "maximal") for name, end in boundary5}
    alternating = [seg5["1/2,0,0,1/2,0"], seg5["1/3,0,1/3,1/3,0"]]
    out = []
    for round_index in range(rounds_for("maximality", seconds)):
        strata = [seg5["vt"], seg5["rd"]] * 2 + [
            ("3-6:U-RD", 6, segment(u6, rd6), "maximal"),
        ] * 4 + [alternating[round_index % 2]] + [
            ("3-6:U-VT", 6, segment(u6, vt6), "maximal"),
        ] * 2 + [
            ("3-6:interior", 6, interior, "dominated"),
        ]
        for name, p, draw, expected in strata:
            lam = _draw_distinct(draw, rng, seen)
            out.append(Query("maximal", name, 3, p, lam=lam, expected=expected))
    return out


# Protocols whose guarantee follows from the vt / rd / composition formulas,
# each with the number of seeded weaker claims it is also verified against.
# The weaker claims spread the run's work over many mid-sized queries, so
# the one 3.5 s cover query weighs less, and they size the blocks so that
# the median query falls among the (4,8) checks and the tail query among
# the (3,8) ones.  `rd(pad); uniform` at (3,7) is left out: the guarantee
# it achieves is an open question (see NOTES.md).
_SIMPLE = ("veto(1); uniform", "rd(pad)", "rd(naive)")
_COMPOSED = (
    "veto(1); rd(pad)",
    "rd(pad); veto(1); uniform",
    "veto(1); veto(1); uniform",
    "rd(pad); rd(pad)",
)
_FORMULA_SPECS = {
    (3, 6): [(text, 0) for text in _SIMPLE],
    (3, 7): [(text, 0) for text in _SIMPLE] + [(text, 4) for text in _COMPOSED],
    (3, 8): [(text, 0) for text in _SIMPLE] + [(text, 5) for text in _COMPOSED],
    (4, 7): [(text, 0) for text in _SIMPLE],
    (4, 8): [(text, 2) for text in _SIMPLE],
}
_WORDS = {
    "veto(1); uniform": "VT",
    "rd(pad)": "RD",
    "veto(1); rd(pad)": "VT,RD",
    "rd(pad); veto(1); uniform": "RD,VT",
    "veto(1); veto(1); uniform": "VT,VT",
    "rd(pad); rd(pad)": "RD,RD",
}


def _formula_guarantee(text: str, n: int, p: int) -> RankLottery:
    if text == "rd(naive)":
        probs = [Fraction(0)] * p
        probs[0] = Fraction(n - 1, n)
        probs[-1] = Fraction(1, n)
        return RankLottery(tuple(probs))
    return _canonical(n, p)[_WORDS[text]]


# Cover protocols: the tests establish lower bounds (by dominance), not the
# exact guarantee.  The last field says whether to verify the bound too;
# at (4,7) that would repeat the evaluation's 3.5 s enumeration.
_COVERS = [
    (3, 5, "top-pair", "1/2,0,0,1/2,0", True),
    (3, 5, "bottom-pair", "1/3,0,1/3,1/3,0", True),
    (4, 7, "top-pair", "1/2,0,0,0,1/2,0,0", False),
]


def protocol_queries(seed: int, seconds: int) -> list[Query]:
    """Worst-case evaluation and safe-strategy checks with known answers.

    Each formula protocol is evaluated once and verified against its own
    guarantee (true), against rd(n, p) or vt(n, p), whichever it fails to
    secure (false: the early exit), and against seeded weaker claims (true).
    Each cover protocol is evaluated, and verified, against its established
    bound.  The seed draws the weaker claims and the order.  The layer keeps
    no cache, so a run of more than one round may repeat the list.
    """
    rng = random.Random(seed)
    base: list[Query] = []
    for (n, p), specs in _FORMULA_SPECS.items():
        for text, weaker in specs:
            spec = parse_protocol(text, n, p)
            own = _formula_guarantee(text, n, p)
            name = f"{n}-{p}:{text}"
            base.append(Query("evaluate", name, n, p, None, text, spec, ("equals", own)))
            base.append(Query("verify", name, n, p, own, text, spec, True))
            seen = {own.probs}
            for _ in range(weaker):
                claim = _draw_distinct(lambda r: _weaker(own, r), rng, seen)
                base.append(Query("verify", f"{name}:weaker", n, p, claim, text, spec, True))
            claim = rd(n, p) if not dominates(own, rd(n, p)) else vt(n, p)
            if dominates(own, claim):
                raise AssertionError(f"{text} at ({n},{p}) secures both vt and rd")
            base.append(Query("verify", name + ":fails", n, p, claim, text, spec, False))
    for n, p, mode, bound_text, verify in _COVERS:
        spec = cover_protocol(n, p, mode)
        bound = parse_lottery(bound_text)
        name = f"{n}-{p}:cover-{mode}"
        base.append(Query("evaluate", name, n, p, None, mode, spec, ("dominates", bound)))
        if verify:
            base.append(Query("verify", name, n, p, bound, mode, spec, True))
    out: list[Query] = []
    for _ in range(rounds_for("protocols", seconds)):
        order = list(base)
        rng.shuffle(order)
        out.extend(order)
    return out


BUILDERS = {"scan": scan_queries, "maximality": maximality_queries, "protocols": protocol_queries}


def check(query: Query, result) -> bool:
    """True when `result` (what the timed call returned) is the known answer."""
    if query.kind == "feasible":
        return result.verdict == query.expected
    if query.kind == "maximal":
        return result.verdict == query.expected
    if query.kind == "evaluate":
        how, lam = query.expected
        if how == "equals":
            return result.achieved == lam
        return dominates(result.achieved, lam)
    if query.kind == "verify":
        return result is query.expected
    raise ValueError(f"unknown query kind {query.kind!r}")


def systems(query: Query) -> int:
    """Tail systems a full scan of the query's guarantee visits."""
    if query.kind in ("feasible", "maximal"):
        return system_count(query.lam, query.n)
    return 0
