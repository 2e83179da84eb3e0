"""Named verification suites: curated end-to-end checks with exact expectations.

Each suite runs a themed batch of computations and compares every result
against its exact expected value (rational arithmetic, zero tolerance).
It adds its checks to a collector; `run_suite` times the suite and
hands it a random source seeded from `seed`.  The CLI exposes them through
``verify --suite <id>``; the acceptance tests run the same functions.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .lottery import (
    RankLottery,
    convex_combination,
    dominates,
    dual,
    is_symmetric,
    lottery,
    m2_vertices,
    parse_lottery,
    rd,
    uniform,
    vt,
)
from .compose import (
    canonical_word,
    dual_word,
    enumerate_canonical,
    rd_compose,
    vt_compose,
    word_simplex,
)
from .feasibility import (
    balanced_family,
    balanced_range,
    implement_program,
    is_feasible,
)
from .lp import (
    LinearProgram,
    solve,
    verify_infeasibility,
)
from .maximality import is_maximal
from .protocols import (
    CoverNotFoundError,
    cover_protocol,
    parse_protocol,
    verify_safe_strategy,
    worst_case_guarantee,
)

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class Check:
    description: str
    expected: str
    computed: str
    passed: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "passed", self.expected == self.computed)


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    checks: tuple[Check, ...]
    runtime_ms: int
    passed: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "passed", all(c.passed for c in self.checks))


class _Collector:
    def __init__(self) -> None:
        self.checks: list[Check] = []

    def add(self, description: str, expected, computed) -> None:
        self.checks.append(Check(description, str(expected), str(computed)))

    def expect(self, description: str, condition: bool) -> None:
        self.add(description, True, bool(condition))


def _random_lottery(p: int, rng: random.Random, grain: int = 24) -> RankLottery:
    cuts = sorted(rng.randint(0, grain) for _ in range(p - 1))
    probs = []
    prev = 0
    for c in [*cuts, grain]:
        probs.append(Fraction(c - prev, grain))
        prev = c
    return RankLottery(tuple(probs))


def _refuted(lam: RankLottery, rep) -> bool:
    """Whether `rep` refutes `lam` by a certificate that re-verifies against
    the implementation LP at its witness profile."""
    return rep.verdict == "infeasible" and verify_infeasibility(
        implement_program(lam, rep.witness_profile), rep.witness_certificate
    )


def _random_boundary_lottery(p: int, rng: random.Random) -> RankLottery:
    while True:
        lam = _random_lottery(p, rng)
        if lam.is_boundary():
            return lam


# ----------------------------------------------------------------------------


def suite_baseline_3_6(c: _Collector, jobs: int, rng: random.Random) -> None:
    """The three named guarantees at (3, 6) and three improvable ones."""
    for name, lam in (("uniform(6)", uniform(6)), ("vt(3,6)", vt(3, 6)), ("rd(3,6)", rd(3, 6))):
        rep = is_feasible(lam, 3, jobs=jobs)
        c.add(f"{name} is feasible", "feasible", rep.verdict)
        mrep = is_maximal(lam, 3, jobs=jobs)
        c.add(f"{name} is maximal", "maximal", mrep.verdict)
    for name, lam in (
        ("one-veto-only (0,1,0,0,0,0)", lottery([0, 1, 0, 0, 0, 0])),
        ("plain dictator (2/3,0,0,0,0,1/3)", parse_lottery("2/3,0,0,0,0,1/3")),
        ("half-half mix (1/6,1/3,1/6,1/6,0,1/6)", parse_lottery("1/6,1/3,1/6,1/6,0,1/6")),
    ):
        rep = is_feasible(lam, 3, jobs=jobs)
        c.add(f"{name} is feasible", "feasible", rep.verdict)
        mrep = is_maximal(lam, 3, jobs=jobs)
        c.add(f"{name} is dominated", "dominated", mrep.verdict)
        improver = mrep.improver
        ok = (
            improver is not None
            and dominates(improver, lam)
            and improver.probs != lam.probs
            and is_feasible(improver, 3, jobs=jobs).feasible
        )
        c.expect(f"{name} improver is a strictly dominating feasible guarantee", ok)
    mix = parse_lottery("1/6,1/3,1/6,1/6,0,1/6")
    c.expect("uniform(6) dominates the half-half mix", dominates(uniform(6), mix))


def suite_two_agent(c: _Collector, jobs: int, rng: random.Random) -> None:
    """Two agents: maximal guarantees are exactly the symmetric feasible ones."""
    for p in (5, 6):
        verdicts = [is_maximal(v, 2, jobs=jobs).verdict for v in m2_vertices(p)]
        c.add(f"all extreme symmetric lotteries at p={p} maximal", "maximal", ",".join(set(verdicts)))
    for p in (5, 6):
        good = 0
        for _ in range(20):
            lam = _random_lottery(p, rng)
            sym = convex_combination([(HALF, lam), (HALF, lam.reflect())])
            if is_maximal(sym, 2, jobs=jobs).verdict == "maximal":
                good += 1
        c.add(f"20 random symmetric lotteries at p={p} maximal", 20, good)
        good = 0
        found = 0
        while found < 20:
            lam = _random_lottery(p, rng)
            if is_symmetric(lam) or not is_feasible(lam, 2).feasible:
                continue
            found += 1
            rep = is_maximal(lam, 2, jobs=jobs)
            if rep.verdict == "dominated" and rep.improver is not None:
                good += 1
        c.add(f"20 random asymmetric feasible lotteries at p={p} dominated", 20, good)


def suite_uniform_dominance(c: _Collector, jobs: int, rng: random.Random) -> None:
    """With at least as many agents as outcomes only the uniform lottery survives."""
    for n, p in ((3, 3), (4, 3)):
        rep = is_maximal(uniform(p), n, jobs=jobs)
        c.add(f"uniform({p}) is maximal at n={n}", "maximal", rep.verdict)
        implication = True
        for _ in range(20):
            lam = _random_lottery(p, rng)
            rep = is_feasible(lam, n, jobs=jobs)
            if not (dominates(uniform(p), lam) if rep.feasible else _refuted(lam, rep)):
                implication = False
        c.expect(f"n={n}, p={p}: every feasible sample is dominated by uniform", implication)


def suite_duality(c: _Collector, jobs: int, rng: random.Random) -> None:
    swaps = all(dual(vt(n, p)) == rd(n, p) for n in range(3, 10) for p in range(n + 1, 11))
    c.expect("veto and dictator guarantees are dual for all 3 <= n < p <= 10", swaps)
    involution = all(
        dual(dual(lam)) == lam
        for lam in (_random_lottery(rng.randint(2, 9), rng) for _ in range(1000))
    )
    c.expect("duality is an involution on 1000 random lotteries", involution)
    c.add(
        "dual of (1/2,0,0,1/2,0)",
        "1/3,0,1/3,1/3,0",
        dual(parse_lottery("1/2,0,0,1/2,0")).text(),
    )
    c.expect("the uniform lottery is self-dual", dual(uniform(8)) == uniform(8))


def suite_composition(c: _Collector, jobs: int, rng: random.Random) -> None:
    c.add("VT over rd(3,4)", "0,1/3,1/3,0,1/3,0,0", vt_compose(rd(3, 4), 3).text())
    c.add("RD over vt(3,4)", "1/4,1/4,0,1/4,0,0,1/4", rd_compose(vt(3, 4), 3).text())
    c.add("VT over uniform(4) is vt(3,7)", vt(3, 7).text(), vt_compose(uniform(4), 3).text())
    c.add("RD over uniform(4) is rd(3,7)", rd(3, 7).text(), rd_compose(uniform(4), 3).text())
    c.add(
        "(RD,VT,VT) at (3,11)",
        "1/5,1/5,0,0,1/5,1/5,0,0,0,0,1/5",
        canonical_word("RD,VT,VT", 3, 11).text(),
    )
    c.add(
        "(RD,VT,RD) at (3,11)",
        "1/6,1/6,0,1/6,1/6,0,0,1/6,0,0,1/6",
        canonical_word("RD,VT,RD", 3, 11).text(),
    )
    c.add(
        "(VT,VT) at (3,11) pools the middle",
        "0,0,1/5,1/5,1/5,1/5,1/5,0,0,0,0",
        canonical_word("VT,VT", 3, 11).text(),
    )
    c.add(
        "(RD,RD) at (3,11) pools the extremes",
        "1/6,1/6,1/6,1/6,0,0,0,0,0,1/6,1/6",
        canonical_word("RD,RD", 3, 11).text(),
    )
    table = {
        ("VT", "VT"): ("0,1/4,1/4,1/4,1/4,0,0", "0,0,1,0,0,0,0"),
        ("RD", "RD"): ("1/3,1/3,0,0,0,0,1/3", "1/6,1/6,1/6,1/6,0,1/6,1/6"),
        ("VT", "RD"): ("0,1/4,1/4,1/4,1/4,0,0", "0,1/3,1/3,0,1/3,0,0"),
        ("RD", "VT"): ("1/3,1/3,0,0,0,0,1/3", "1/4,1/4,0,1/4,0,0,1/4"),
    }
    for word, (v1, v2) in table.items():
        vertices = word_simplex(word, 3, 7)
        c.add(f"simplex vertex 1 of {','.join(word)} at (3,7)", v1, vertices[1].text())
        c.add(f"simplex vertex 2 of {','.join(word)} at (3,7)", v2, vertices[2].text())
    for n, p, count in ((3, 7, 6), (3, 11, 14), (4, 13, 14)):
        c.add(f"canonical guarantee count at ({n},{p})", count, len(enumerate_canonical(n, p)))
    pairing = all(
        dual(lam) == canonical_word(dual_word(word), 3, 7)
        for word, lam in enumerate_canonical(3, 7)
    )
    c.expect("swapping letters gives the dual guarantee at (3,7)", pairing)
    agree = True
    for _ in range(100):
        p = rng.randint(2, 8)
        n = rng.randint(2, 6)
        lam = _random_boundary_lottery(p, rng)
        direct = rd_compose(lam, n)
        via_duality = dual(vt_compose(dual(lam), n))
        if direct != via_duality:
            agree = False
    c.expect("direct and duality-based RD composition agree on 100 boundary lotteries", agree)
    uniform_support = all(
        lam.probs[k - 1] == Fraction(1, len(lam.support()))
        for _, lam in enumerate_canonical(3, 10)
        for k in lam.support()
    )
    c.expect("canonical guarantees are uniform on their support", uniform_support)


def suite_intervals_3_6(c: _Collector, jobs: int, rng: random.Random) -> None:
    """At (3,6) the maximal set is the pair of segments ending at the uniform."""
    for name, lam in (
        ("midpoint of [uniform, vt]", convex_combination([(HALF, uniform(6)), (HALF, vt(3, 6))])),
        ("midpoint of [uniform, rd]", convex_combination([(HALF, uniform(6)), (HALF, rd(3, 6))])),
    ):
        c.add(f"{name} is maximal", "maximal", is_maximal(lam, 3, jobs=jobs).verdict)
    mix = convex_combination([(HALF, vt(3, 6)), (HALF, rd(3, 6))])
    c.add("vt/rd midpoint is dominated", "dominated", is_maximal(mix, 3, jobs=jobs).verdict)
    w_vt = Fraction(rng.randint(1, 5), 12)
    w_rd = Fraction(rng.randint(1, 5), 12)
    off = convex_combination([(1 - w_vt - w_rd, uniform(6)), (w_vt, vt(3, 6)), (w_rd, rd(3, 6))])
    rep = is_maximal(off, 3, jobs=jobs)
    c.add(
        f"sampled off-interval feasible point {off.text()} is dominated",
        "dominated",
        rep.verdict,
    )


def suite_simplices_3_7(c: _Collector, jobs: int, rng: random.Random) -> None:
    """The four guarantee simplices at (3,7) plus the extra dual pair."""
    third = Fraction(1, 3)
    seen: set[tuple] = set()
    for word in (("VT", "VT"), ("RD", "RD"), ("VT", "RD"), ("RD", "VT")):
        vertices = word_simplex(word, 3, 7)
        for idx, vertex in enumerate(vertices):
            if vertex.probs in seen:
                continue
            seen.add(vertex.probs)
            rep = is_maximal(vertex, 3, jobs=jobs)
            c.add(
                f"vertex {vertex.text()} of {','.join(word)} is maximal",
                "maximal",
                rep.verdict,
            )
        centroid = convex_combination([(third, v) for v in vertices])
        rep = is_maximal(centroid, 3, jobs=jobs)
        c.add(f"centroid of the {','.join(word)} triangle is maximal", "maximal", rep.verdict)
    for text in ("1/3,0,0,1/3,1/3,0,0", "1/4,1/4,0,0,1/4,1/4,0"):
        lam = parse_lottery(text)
        rep = is_maximal(lam, 3, jobs=jobs)
        c.add(f"extra boundary guarantee {text} is maximal", "maximal", rep.verdict)
    extra = parse_lottery("1/3,0,0,1/3,1/3,0,0")
    c.expect("the extra pair are duals of each other", dual(extra).text() == "1/4,1/4,0,0,1/4,1/4,0")


def suite_boundary_3_5(c: _Collector, jobs: int, rng: random.Random) -> None:
    """The four boundary maximal guarantees at (3,5) and the cover premise."""
    four = [
        vt(3, 5),
        rd(3, 5),
        parse_lottery("1/2,0,0,1/2,0"),
        parse_lottery("1/3,0,1/3,1/3,0"),
    ]
    for lam in four:
        c.add(f"{lam.text()} is maximal", "maximal", is_maximal(lam, 3, jobs=jobs).verdict)
        mid = convex_combination([(HALF, uniform(5)), (HALF, lam)])
        c.add(
            f"midpoint of [uniform, {lam.text()}] is maximal",
            "maximal",
            is_maximal(mid, 3, jobs=jobs).verdict,
        )
    # Evaluating a one-stage cover protocol folds agent 1's truthful set
    # with every tuple of sets the others can report.  Up to relabeling,
    # each such tuple is the truthful report of some profile, so the
    # evaluation raises CoverNotFoundError exactly when some profile has no
    # covering set.
    for mode in ("top-pair", "bottom-pair"):
        missing = None
        try:
            worst_case_guarantee(cover_protocol(3, 5, mode), 3, 5)
        except CoverNotFoundError as err:
            missing = err
        c.add(f"cover exists at every canonical (3,5) profile [{mode}]", "None", str(missing))


def suite_protocols_3_6(c: _Collector, jobs: int, rng: random.Random) -> None:
    veto_uni = parse_protocol("veto(1); uniform", 3, 6)
    naive = parse_protocol("rd(naive)", 3, 6)
    padded = parse_protocol("rd(pad)", 3, 6)
    c.add(
        "one veto round then uniform achieves vt(3,6)",
        vt(3, 6).text(),
        worst_case_guarantee(veto_uni, 3, 6).achieved.text(),
    )
    c.add(
        "plain random dictator achieves (2/3,0,0,0,0,1/3)",
        "2/3,0,0,0,0,1/3",
        worst_case_guarantee(naive, 3, 6).achieved.text(),
    )
    c.add(
        "padded random dictator achieves rd(3,6)",
        rd(3, 6).text(),
        worst_case_guarantee(padded, 3, 6).achieved.text(),
    )
    c.expect(
        "truthful vetoes secure vt(3,6)", verify_safe_strategy(veto_uni, vt(3, 6), 3, 6)
    )
    c.expect(
        "plain dictator secures its own guarantee",
        verify_safe_strategy(naive, parse_lottery("2/3,0,0,0,0,1/3"), 3, 6),
    )
    c.expect(
        "padded dictator secures rd(3,6)", verify_safe_strategy(padded, rd(3, 6), 3, 6)
    )
    c.add(
        "plain dictator does NOT secure rd(3,6)",
        "False",
        str(verify_safe_strategy(naive, rd(3, 6), 3, 6)),
    )


def suite_infrastructure(c: _Collector, jobs: int, rng: random.Random) -> None:

    certs_ok = True
    refuted = 0
    attempts = 0
    while refuted < 8 and attempts < 400:
        attempts += 1
        p = rng.choice((5, 6))
        lam = _random_lottery(p, rng)
        rep = is_feasible(lam, 3, jobs=jobs)
        if rep.verdict != "infeasible":
            continue
        refuted += 1
        if not _refuted(lam, rep):
            certs_ok = False
    c.add("infeasibility certificates re-verify mechanically", "8 of 8", f"{refuted if certs_ok else 0} of 8")

    degenerate = LinearProgram(
        3,
        (
            ([1, 1, 0, 1], 1, ">="),
            ([1, 0, 1, 1], 1, ">="),
            ([1, 1, 1, 1], 1, ">="),
        ),
        (Fraction(1), Fraction(1), Fraction(1)),
    )
    first = solve(degenerate).result
    second = solve(degenerate).result
    c.expect(
        "LP results are deterministic across runs",
        first == second and first.objective_value == 1,
    )

    balanced_ok = True
    generated = 0
    for n in range(3, 8):
        for p in range(4, 2 * n + 1):
            if not balanced_range(n, p):
                continue
            for k in range(2, p // 2 + 1):
                fam = balanced_family(p, k, n)
                if fam is None or not fam.is_balanced(p) or len(fam.sets) > n:
                    balanced_ok = False
                generated += 1
    c.expect(f"balance equations hold for all {generated} generated families", balanced_ok)

    order_ok = True
    for _ in range(10_000):
        a = _random_lottery(6, rng, grain=8)
        b = _random_lottery(6, rng, grain=8)
        cc = _random_lottery(6, rng, grain=8)
        if not dominates(a, a):
            order_ok = False
        if dominates(a, b) and dominates(b, a) and a != b:
            order_ok = False
        if dominates(a, b) and dominates(b, cc) and not dominates(a, cc):
            order_ok = False
    c.expect("dominance is a partial order on 10000 random triples", order_ok)

    # The paper's first theorem: at n >= p the uniform's domination and the
    # cuts decide every input, with no profile LP.
    theorem_ok = True
    for _ in range(200):
        p = rng.randint(2, 6)
        n = rng.randint(p, p + 2)
        lam = _random_lottery(p, rng)
        rep = is_feasible(lam, n, jobs=jobs)
        if dominates(uniform(p), lam):
            decided = rep.method == "uniform-dominates"
        else:
            decided = rep.method.startswith("cut:") and _refuted(lam, rep)
        if not decided or rep.profiles_checked:
            theorem_ok = False
    c.expect("at n >= p a cut refutes each of 200 samples exactly when the uniform does not dominate it", theorem_ok)


SUITES: dict[str, Callable[[_Collector, int, random.Random], None]] = {
    "baseline-3-6": suite_baseline_3_6,
    "two-agent": suite_two_agent,
    "uniform-dominance": suite_uniform_dominance,
    "duality": suite_duality,
    "composition": suite_composition,
    "intervals-3-6": suite_intervals_3_6,
    "simplices-3-7": suite_simplices_3_7,
    "boundary-3-5": suite_boundary_3_5,
    "protocols-3-6": suite_protocols_3_6,
    "infrastructure": suite_infrastructure,
}


def run_suite(name: str, *, jobs: int = 1, seed: int = 0) -> SuiteResult:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}")
    started = time.perf_counter()
    c = _Collector()
    SUITES[name](c, jobs, random.Random(seed))
    return SuiteResult(name, tuple(c.checks), int((time.perf_counter() - started) * 1000))
