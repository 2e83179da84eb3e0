import functools
import gc
import hashlib
import itertools
import math
import operator
import random
import types
from fractions import Fraction

import pytest

import worstvote.protocols as protocols
from worstvote.cli import main
from worstvote.compose import canonical_word, enumerate_canonical, parse_word, rd_compose, vt_compose, word_protocol
from worstvote.lottery import RankLottery, dominates, parse_lottery, rd, uniform, vt
from worstvote.feasibility import is_feasible
from worstvote.profiles import Preference, identical_profile, identity_preference, rank_rearrange
from worstvote.protocols import (
    CoverNotFoundError,
    CoverRound,
    DictatorRound,
    ProtocolSpec,
    UniformFallback,
    VetoRound,
    cover_protocol,
    parse_protocol,
    run,
    verify_safe_strategy,
    worst_case_guarantee,
)

from .orbits import enumerate_profiles
from .protocol_oracle import NoCoverError, plays, worst_case

F = Fraction


@pytest.fixture
def cold_memo():
    """An empty evaluation memo, emptied again afterwards.  The memo lives
    for the whole process, so a test that patches what the recursion calls
    would otherwise read states computed without the patch, and leave
    states computed under it to the tests after it."""
    protocols._worst.cache_clear()
    yield
    protocols._worst.cache_clear()


class TestParsing:
    def test_round_trips(self):
        spec = parse_protocol("veto(1); uniform", 3, 6)
        assert spec.text() == "veto(1); uniform"
        assert isinstance(spec.stages[0], VetoRound)
        assert isinstance(spec.stages[1], UniformFallback)

    def test_dictator_variants(self):
        assert parse_protocol("rd(naive)", 3, 6).stages[0].padded is False
        assert parse_protocol("rd(pad)", 3, 6).stages[0].padded is True
        # The naive dictator has one spelling: a bare "rd" names no stage.
        with pytest.raises(ValueError, match=r"^cannot parse stage 'rd' at position 0$"):
            parse_protocol("rd", 3, 6)

    def test_continuation_weight(self):
        spec = parse_protocol("rd(pad); veto(1); uniform", 3, 7)
        stage = spec.stages[0]
        # continuation plays one veto round then uniform on 4 outcomes,
        # whose guarantee peaks at 1; weight = 1/(3*1 + 1)
        assert stage.continue_weight == F(1, 4)

    def test_final_naive_dictator_after_a_continuation(self):
        # With no outcome left the parser raised IndexError; with one it
        # failed on a guarantee of mass 1/2.
        with pytest.raises(ValueError, match="remove every outcome before the stage at position 18"):
            parse_protocol("rd(pad); veto(1); rd(naive)", 2, 3)
        spec = parse_protocol("rd(pad); veto(1); rd(naive)", 2, 5)
        assert spec.stages[0].continue_weight == F(1, 3)

    def test_error_positions(self):
        with pytest.raises(ValueError) as err:
            parse_protocol("veto(1); bogus(2)", 3, 6)
        assert "position 9" in str(err.value)
        # The stage constructors' own errors carry the position too.
        with pytest.raises(ValueError, match="^a veto round needs at least one token at position 9$"):
            parse_protocol("rd(pad); veto(0); uniform", 3, 6)
        with pytest.raises(ValueError, match="a depth of at least 1 at position 9$"):
            parse_protocol("veto(1); cover(2,0,top)", 3, 6)
        # A bad side is named before a bad size; the text's names are the field's.
        with pytest.raises(ValueError, match="^cover side must be top or bottom at position 9$"):
            parse_protocol("veto(1); cover(0,1,left)", 3, 6)
        with pytest.raises(ValueError, match="^cover side must be top or bottom$"):
            CoverRound(2, 2, "cover")

    def test_window_errors_name_the_stage(self):
        # The parser names the character position, the evaluator and `run`
        # the stage index; a hand-built spec used to fail in `RankLottery`.
        with pytest.raises(ValueError, match="remove every outcome before the stage at position 9"):
            parse_protocol("rd(pad); uniform", 3, 3)
        spec = ProtocolSpec((DictatorRound(True, F(1, 2)), UniformFallback()))
        with pytest.raises(ValueError, match="remove every outcome before stage 1"):
            worst_case_guarantee(spec, 3, 3)
        with pytest.raises(ValueError, match="remove every outcome before stage 1"):
            run(spec, identical_profile(3, 3), ((3, 3, 3), (None,) * 3))

    def test_final_padded_dictator_on_n_outcomes_plays_the_uniform(self):
        # At (4,8) the continuation's dictator round has 4 outcomes, which it
        # pads to all of them; the parsed text and the hand-built spec agree.
        spec = parse_protocol("rd(pad); rd(pad)", 4, 8)
        assert spec == ProtocolSpec((DictatorRound(True, F(1, 2)), DictatorRound(True)))
        report = worst_case_guarantee(spec, 4, 8)
        assert (report.achieved, report.scenario_count) == (uniform(8), 32_768)

    def test_continuation_errors_name_the_stage(self):
        # The parser evaluates a continuation on its fewest outcomes; what
        # that raises keeps its class and names where the continuation starts.
        with pytest.raises(CoverNotFoundError, match="^the continuation from the stage at position 9 cannot be "
                           "played on 2 outcomes: no 1-set meets all reported 1-sets$"):
            parse_protocol("rd(pad); cover(1,1,top)", 3, 5)
        with pytest.raises(ValueError, match="position 9 cannot be played on 3 outcomes: no 2-set to report among 1"):
            parse_protocol("rd(pad); veto(1); cover(1,2,top)", 2, 5)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: DictatorRound(False, F(1, 2)), "only padded dictator rounds can continue"),
            (lambda: DictatorRound(True, F(1)), "continuation weight must be strictly between 0 and 1"),
            (lambda: ProtocolSpec(()), "a protocol needs at least one stage"),
            (lambda: ProtocolSpec((DictatorRound(), UniformFallback())),
             "a non-final dictator round needs a continuation weight"),
            (lambda: ProtocolSpec((DictatorRound(True, F(1, 2)),)), "the final dictator round cannot continue"),
            (lambda: parse_protocol("rd(naive); uniform", 3, 6),
             "a naive dictator round cannot continue (the stage at position 0)"),
            (lambda: parse_protocol("rd(pad); veto(1)", 3, 9), "a protocol cannot end on a veto round"),
        ],
        ids=["naive-continues", "weight-one", "no-stage", "final-weight-missing", "final-continues",
             "naive-parsed", "veto-last"],
    )
    def test_malformed_stages_are_named(self, build, message):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message

    def test_continuations_of_one_agent_and_cover_rounds_parse(self):
        # No composition formula covers one agent or a cover round; the
        # evaluation weighs their continuations.  One agent vetoes its worst
        # of 2 outcomes and gets the other: weight 1/(1*1 + 1).
        assert parse_protocol("veto(1); uniform", 1, 3).text() == "veto(1); uniform"
        assert parse_protocol("rd(pad); veto(1); uniform", 1, 3).stages[0].continue_weight == F(1, 2)
        assert parse_protocol("veto(1); cover(2,2,top)", 3, 7).text() == "veto(1); cover(2,2,top)"
        # The cover on 5 outcomes achieves 1/2,0,0,1/2,0: weight 1/(3*1/2 + 1).
        assert parse_protocol("rd(pad); cover(2,2,top)", 3, 8).stages[0].continue_weight == F(2, 5)

    def test_stage_order_validation(self):
        with pytest.raises(ValueError):
            ProtocolSpec((UniformFallback(), VetoRound(1)))
        with pytest.raises(ValueError):
            ProtocolSpec((VetoRound(1),))
        with pytest.raises(ValueError):
            parse_protocol("uniform; uniform", 3, 6)


class TestUnplayableStages:
    """A stage with no legal report, or a cover round with nothing off its
    cover, cannot be played.  The first three cases evaluated to a guarantee,
    the last two failed with "probabilities sum to 0"."""

    @pytest.mark.parametrize(
        "text, n, p, message",
        [
            ("veto(1); cover(1,3,top)", 2, 4, "no 3-set to report among 2 outcomes"),
            ("veto(1); cover(1,2,top)", 2, 3, "no 2-set to report among 1 outcomes"),
            ("veto(1); cover(2,2,bottom)", 3, 4, "leaves no complement"),
            ("cover(2,1,bottom)", 2, 2, "leaves no complement"),
            ("cover(3,2,bottom)", 3, 3, "leaves no complement"),
        ],
    )
    def test_evaluation_raises(self, text, n, p, message):
        with pytest.raises(ValueError, match=message):
            worst_case_guarantee(parse_protocol(text, n, p), n, p)

    def test_run_raises(self):
        spec = parse_protocol("cover(2,1,bottom)", 2, 2)
        with pytest.raises(ValueError, match="leaves no complement"):
            run(spec, identical_profile(2, 2), ((frozenset({1}), frozenset({2})),))


class TestRun:
    def test_veto_then_uniform_kills_my_best(self):
        prof = identical_profile(3, 6)
        spec = parse_protocol("veto(1); uniform", 3, 6)
        reports = ((frozenset({1}), frozenset({5}), frozenset({6})), (None, None, None))
        ell = run(spec, prof, reports)
        assert ell.text() == "0,1/3,1/3,1/3,0,0"

    def test_padded_dictator_pads_to_three(self):
        prof = identical_profile(3, 6)
        spec = parse_protocol("rd(pad)", 3, 6)
        ell = run(spec, prof, ((2, 2, 5),))
        # reports {2, 5} pad with outcome 1: uniform over three outcomes
        assert ell.text() == "1/3,1/3,0,0,1/3,0"

    def test_padded_dictator_unanimous(self):
        prof = identical_profile(3, 6)
        spec = parse_protocol("rd(pad)", 3, 6)
        ell = run(spec, prof, ((4, 4, 4),))
        assert ell.text() == "0,0,0,1,0,0"

    def test_naive_dictator_multiset(self):
        prof = identical_profile(3, 6)
        spec = parse_protocol("rd(naive)", 3, 6)
        ell = run(spec, prof, ((6, 1, 1),))
        assert ell.text() == "2/3,0,0,0,0,1/3"

    def test_illegal_reports_rejected(self):
        prof = identical_profile(3, 6)
        spec = parse_protocol("veto(1); uniform", 3, 6)
        with pytest.raises(ValueError):
            run(spec, prof, ((frozenset({1, 2}), frozenset({3}), frozenset({4})), (None,) * 3))
        spec2 = parse_protocol("rd(pad)", 3, 6)
        with pytest.raises(ValueError):
            run(spec2, prof, ((7, 1, 1),))

    def test_nonterminal_dictator_mixes(self):
        prof = identical_profile(3, 7)
        spec = parse_protocol("rd(pad); veto(1); uniform", 3, 7)
        # everyone claims 7; the padded set {1,2,7} resolves with weight 3/4;
        # the continuation vetoes 3,4,5 leaving {6}
        reports = ((7, 7, 7), (frozenset({3}), frozenset({4}), frozenset({5})), (None,) * 3)
        ell = run(spec, prof, reports)
        for a in (7, 2, 1, 6):
            assert ell.mass[a - 1] == F(1, 4)


class TestWorstCase:
    def test_veto_uniform_achieves_veto_guarantee(self):
        spec = parse_protocol("veto(1); uniform", 3, 6)
        report = worst_case_guarantee(spec, 3, 6)
        assert report.achieved == vt(3, 6)
        assert report.scenario_count == 36

    def test_naive_dictator_guarantee(self):
        spec = parse_protocol("rd(naive)", 3, 6)
        report = worst_case_guarantee(spec, 3, 6)
        assert report.achieved == parse_lottery("2/3,0,0,0,0,1/3")

    def test_padded_dictator_guarantee(self):
        spec = parse_protocol("rd(pad)", 3, 6)
        report = worst_case_guarantee(spec, 3, 6)
        assert report.achieved == rd(3, 6)

    def test_dimensions_are_checked(self):
        spec = parse_protocol("rd(pad)", 3, 6)
        for n, p, named in ((0, 6, "n=0"), (3, 0, "p=0")):
            with pytest.raises(ValueError, match=named):
                worst_case_guarantee(spec, n, p)

    def test_worst_scenarios_recorded(self):
        spec = parse_protocol("rd(naive)", 3, 6)
        report = worst_case_guarantee(spec, 3, 6)
        trace = report.worst_scenarios[1]
        assert trace[0][0] == 6  # my truthful claim
        assert trace[0][1] == 1 and trace[0][2] == 1  # adversaries pick my worst

    def test_composed_protocols_achieve_canonical_guarantees(self):
        cases = {
            "veto(1); rd(pad)": ("0,1/3,1/3,0,1/3,0,0", "VT,RD"),
            "rd(pad); veto(1); uniform": ("1/4,1/4,0,1/4,0,0,1/4", "RD,VT"),
            "veto(1); veto(1); uniform": ("0,0,1,0,0,0,0", "VT,VT"),
        }
        for text, (expected, word) in cases.items():
            spec = parse_protocol(text, 3, 7)
            report = worst_case_guarantee(spec, 3, 7)
            assert report.achieved == parse_lottery(expected)
            assert report.achieved == canonical_word(word, 3, 7)

    def test_veto_stage_shadows_composition(self):
        inner = parse_protocol("rd(pad)", 3, 4)
        inner_achieved = worst_case_guarantee(inner, 3, 4).achieved
        outer = parse_protocol("veto(1); rd(pad)", 3, 7)
        outer_achieved = worst_case_guarantee(outer, 3, 7).achieved
        assert dominates(outer_achieved, vt_compose(inner_achieved, 3))

    def test_padding_order_irrelevant_for_guarantee(self, monkeypatch, cold_memo):
        spec = parse_protocol("rd(pad)", 3, 6)
        baseline = worst_case_guarantee(spec, 3, 6).achieved

        original = protocols._pad_set
        calls = []

        def reversed_pad(chosen, survivors, target):
            calls.append(target)
            return original(chosen, list(reversed(survivors)), target)

        monkeypatch.setattr(protocols, "_pad_set", reversed_pad)
        protocols._worst.cache_clear()  # else the baseline's states answer
        assert worst_case_guarantee(spec, 3, 6).achieved == baseline
        assert calls

    def test_evaluation_makes_no_reference_cycles(self):
        # The memo lives for the process; an evaluation leaves nothing for a
        # later cycle collection.
        spec = parse_protocol("veto(1); veto(1); uniform", 3, 8)
        gc.collect()
        gc.disable()
        try:
            worst_case_guarantee(spec, 3, 8)
            assert gc.collect() == 0
        finally:
            gc.enable()


def _answer(evaluate):
    """What `evaluate()` gives, or the class of error it raises, the
    oracle's `NoCoverError` read as `CoverNotFoundError`."""
    try:
        return evaluate()
    except (CoverNotFoundError, NoCoverError):
        return CoverNotFoundError
    except ValueError:
        return ValueError


def _recursion(spec, n, p):
    """`worst_case_guarantee`'s answer in the shape of `worst_case`'s."""
    report = worst_case_guarantee(spec, n, p)
    return report.scenario_count, report.achieved, report.worst_scenarios


_ENUMERATED = [
    (parse_protocol(text, n, p), n, p)
    for text, (n, p) in (
        ("veto(1); uniform", (3, 6)),
        ("rd(naive)", (3, 6)),
        ("rd(pad)", (3, 6)),
        ("veto(1); rd(pad)", (3, 7)),
        ("rd(pad); veto(1); uniform", (3, 7)),
        ("rd(pad); rd(naive)", (3, 7)),
    )
] + [(cover_protocol(3, 5, mode), 3, 5) for mode in ("top-pair", "bottom-pair")]


def _spec_id(value):
    return value.text() if isinstance(value, ProtocolSpec) else None


class TestRunMatchesEnumeration:
    @pytest.mark.parametrize("spec, n, p", _ENUMERATED, ids=_spec_id)
    def test_every_scenario_replays(self, spec, n, p):
        # `run` plays a cover round's lowest covering set, the first the
        # oracle's adversaries may pick.
        prof = identical_profile(n, p)
        traces = list(plays(spec, n, p, identity_preference(p)))
        for trace, lotteries in traces:
            assert run(spec, prof, trace) == lotteries[0], trace
        assert traces

    @pytest.mark.parametrize(
        "spec, n, p",
        _ENUMERATED + [(parse_protocol(text, 4, 7), 4, 7) for text in ("veto(1); uniform", "rd(pad)")],
        ids=_spec_id,
    )
    def test_recursion_matches_enumeration(self, spec, n, p):
        pref = identity_preference(p)
        report = worst_case_guarantee(spec, n, p)
        assert _recursion(spec, n, p) == worst_case(spec, n, p, pref)
        # `run` replays a worst scenario's lowest-set play.  A worst scenario
        # names the reports, not the covering set, so some covering set of
        # the traced reports attains the worst case.
        traces, prof = dict(plays(spec, n, p, pref)), identical_profile(n, p)
        for k, trace in report.worst_scenarios.items():
            assert run(spec, prof, trace) == traces[trace][0], trace
            values = {rank_rearrange(ell, pref).cumulative()[k - 1] for ell in traces[trace]}
            assert report.achieved.cumulative()[k - 1] in values, (k, trace)


_FINAL_STAGES = ("rd(pad)", "rd(naive)", "uniform") + tuple(
    f"cover({s},{d},{side})" for s in (1, 2, 3) for d in (1, 2, 3) for side in ("top", "bottom")
)


def _sweep(sizes):
    """Protocols of up to two of `veto(1)`, `veto(2)` and `rd(pad)`, then one
    final stage, at each (n, p) of `sizes` where the text parses."""
    cases = []
    for (n, p), depth in itertools.product(sizes, range(3)):
        for prefix in itertools.product(("veto(1)", "veto(2)", "rd(pad)"), repeat=depth):
            for final in _FINAL_STAGES:
                text = "; ".join(prefix + (final,))
                try:
                    parse_protocol(text, n, p)
                except ValueError:
                    continue
                cases.append((text, n, p))
    return cases


def _slice(cases, step):
    """Every `step`-th case with no cover round inside a continuation, then
    every ninth case with one.  The texts with one do not move the strides
    over the others, and a ninth of them misses most of the soundness
    cases at (4,7), whose scans take about 3 s each."""
    inside = [case for case in cases if "rd(pad)" in case[0] and "cover" in case[0]]
    return [case for case in cases if case not in inside][::step] + inside[::9]


# 1,058 cases at n = 2..4, p = 2..7, 140 of them with a cover round inside
# a continuation.
_SWEEP = _sweep(itertools.product(range(2, 5), range(2, 8)))
# 46 cases at (5,6): the sweep's grammar with four adversaries.
_SWEEP_N5 = _sweep([(5, 6)])
# The sweep's protocols of at most two stages at (3,4), (3,5), (3,6), (4,5),
# (4,6), (3,7) and (4,7): 376 cases, 310 of them with a cover round, of
# which 116 can be played, the 40 with the cover inside a continuation
# among them.
_SOUNDNESS = [
    (text, n, p)
    for text, n, p in _SWEEP
    if (n, p) in ((3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (3, 7), (4, 7)) and text.count(";") < 2
]


# The sweep's texts of at most two stages at p <= 5: 441 cases, every stage
# of the grammar among them, 24 with a cover round inside a continuation.
_NEUTRALITY = [(text, n, p) for text, n, p in _SWEEP if p <= 5 and text.count(";") < 2]


def _check_neutrality(text, n, p):
    """The guarantee does not depend on which preference agent 1 holds: the
    recursion, which fixes the identity, gives the oracle's scenario count
    and guarantee for agent 1 on every order, or they all raise.  Which
    error a protocol that cannot be played raises first depends on the
    order of its scenarios, so any error matches any other."""
    spec = parse_protocol(text, n, p)
    expected = _answer(lambda: _recursion(spec, n, p)[:2])
    for order in itertools.permutations(range(1, p + 1)):
        got = _answer(lambda: worst_case(spec, n, p, Preference(order))[:2])
        assert got == expected or {got, expected} <= {CoverNotFoundError, ValueError}, order


class TestNeutrality:
    @pytest.mark.parametrize("text, n, p", _slice(_NEUTRALITY, 9), ids=str)
    def test_every_order_of_agent_one_gets_the_same_guarantee(self, text, n, p):
        # `tests/protocol_sweep.py` runs all of `_NEUTRALITY`.
        _check_neutrality(text, n, p)


def _check_against_oracle(text, n, p):
    """The recursion gives the oracle's report for agent 1 on the identity,
    or both raise the same class of error."""
    spec = parse_protocol(text, n, p)
    expected = _answer(lambda: worst_case(spec, n, p, identity_preference(p)))
    assert _answer(lambda: _recursion(spec, n, p)) == expected


@pytest.mark.parametrize("text, n, p", _slice(_SWEEP, 9), ids=str)
def test_recursion_matches_the_oracle_on_a_slice_of_the_sweep(text, n, p):
    # 118 of the cases, 62 of which evaluate and 56 raise, in about 1.5 s
    # on a 2-core VM; `python -m pytest tests/protocol_sweep.py` runs all
    # 1,058.
    _check_against_oracle(text, n, p)


# The (5,6) cases whose brute force takes more than 0.8 s on a 2-core VM
# (5-16 s for the single cover stages); Tier-1 runs the other 32, in about
# 1 s, and `tests/protocol_sweep.py` runs all 46.
_SLOW_N5 = {"veto(1); rd(pad)", "veto(1); rd(naive)"} | {
    f"{prefix}cover({s},{d},{side})"
    for prefix in ("", "veto(1); ")
    for s, d in ((2, 3), (3, 2), (3, 3))
    for side in ("top", "bottom")
}


@pytest.mark.parametrize("text, n, p", [case for case in _SWEEP_N5 if case[0] not in _SLOW_N5], ids=str)
def test_recursion_matches_the_oracle_with_four_adversaries(text, n, p):
    _check_against_oracle(text, n, p)


def _check_soundness(text, n, p):
    """The guarantee the protocol achieves is feasible, by its own scan.  A
    protocol that cannot be played achieves none; the oracle comparisons
    and the premise checks say which ones raise."""
    try:
        achieved = worst_case_guarantee(parse_protocol(text, n, p), n, p).achieved
    except ValueError:
        return
    assert is_feasible(achieved, n, use_hull=False).feasible


@pytest.mark.parametrize("text, n, p", _slice(_SOUNDNESS, 3), ids=str)
def test_achieved_guarantees_are_feasible(text, n, p):
    # 117 of the cases; `tests/protocol_sweep.py` runs all 376 and the
    # single cover stages of `_COVER_SOUNDNESS`.
    _check_soundness(text, n, p)


def _premise_cases(sizes):
    """Every cover stage `cover(s,d,top|bottom)` with 1 <= s, d < p."""
    return [
        (f"cover({s},{d},{side})", n, p)
        for n, p in sizes
        for s, d in itertools.product(range(1, p), repeat=2)
        for side in ("top", "bottom")
    ]


# 68 stages at (3,4), (4,4) and (3,5); `tests/protocol_sweep.py` runs the 82
# at (3,6) and (4,5).
_PREMISE = _premise_cases([(3, 4), (4, 4), (3, 5)])
_PREMISE_SWEEP = _premise_cases([(3, 6), (4, 5)])
# Every single cover stage at (2,5), (3,4)...(3,6) and (4,5)...(4,7): 286
# stages, 214 of which can be played.  Under a rule that played the lowest
# covering set, 95 of those 214 achieved a guarantee `is_feasible` refutes.
_COVER_SOUNDNESS = _premise_cases([(2, 5), (3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (4, 7)])


@functools.cache
def _canonical_profiles(n, p):
    return tuple(enumerate_profiles(n, p))


def _cover_counterexample(n, p, stage):
    """The first canonical profile at which no `cover_size`-set meets every
    agent's best (side "top") or worst (side "bottom") `depth`
    outcomes, else None: the premise checked profile by profile, without
    the protocol code."""
    combos = list(itertools.combinations(range(1, p + 1), stage.cover_size))
    for prof in _canonical_profiles(n, p):
        blocks = [
            set(pref.order[-stage.depth :] if stage.side == "top" else pref.order[: stage.depth])
            for pref in prof.prefs
        ]
        if not any(all(not block.isdisjoint(combo) for block in blocks) for combo in combos):
            return prof
    return None


def _check_cover_premise(text, n, p):
    """Evaluating the one-stage protocol raises CoverNotFoundError exactly
    when some canonical profile has no covering set."""
    spec = parse_protocol(text, n, p)
    if _cover_counterexample(n, p, spec.stages[0]) is None:
        worst_case_guarantee(spec, n, p)
    else:
        with pytest.raises(CoverNotFoundError):
            worst_case_guarantee(spec, n, p)


@pytest.mark.parametrize("text, n, p", _PREMISE, ids=str)
def test_evaluation_decides_the_cover_premise(text, n, p):
    _check_cover_premise(text, n, p)


def _check_word_protocols(n, p):
    """Every canonical word's protocol at (n, p) achieves exactly the
    word's formula, `canonical_word`, and each of its dictator rounds that
    continues has the weight the formula of the word's rest gives: a word's
    stage i is its letter i, and the rounds before it leave p - i * n
    outcomes."""
    for word, lam in enumerate_canonical(n, p):
        spec = parse_protocol(word_protocol(word), n, p)
        assert worst_case_guarantee(spec, n, p).achieved == lam, word
        for i, letter in enumerate(word[:-1]):
            if letter == "RD":
                top = canonical_word(word[i + 1 :], n, p - (i + 1) * n).max_coordinate()
                assert spec.stages[i].continue_weight == 1 / (n * top + 1), (word, i)


def test_word_protocol_texts():
    assert word_protocol(("VT",)) == "veto(1); uniform"
    assert word_protocol(("RD",)) == "rd(pad)"
    assert word_protocol(("RD", "VT")) == "rd(pad); veto(1); uniform"
    assert word_protocol(("VT", "RD")) == "veto(1); rd(pad)"


@pytest.mark.parametrize("p", range(4, 15))
def test_every_word_protocol_achieves_its_formula(p):
    # `verified_anchors` takes these evaluations, not the formula, as its
    # anchors; this ties the two together at 3 <= n < p <= 14, and
    # `tests/protocol_sweep.py` goes on to p = 19 at n = 3..6.
    for n in range(3, p):
        _check_word_protocols(n, p)


# The named covers and every canonical word's protocol at (3,5)...(4,7).
_PRIMITIVES = [(mode, n, p) for n, p in ((3, 5), (4, 7)) for mode in ("top-pair", "bottom-pair", "block")] + [
    (word_protocol(word), n, p)
    for n, p in ((3, 5), (3, 6), (3, 7), (4, 5), (4, 6), (4, 7))
    for word, _ in enumerate_canonical(n, p)
]


@pytest.mark.parametrize("name, n, p", _PRIMITIVES, ids=str)
def test_a_dictator_round_before_a_primitive_achieves_its_rd_composition(name, n, p):
    # A padded dictator round before a primitive protocol P, on n more
    # outcomes, achieves `rd_compose` of P's guarantee.  Its weight comes
    # from evaluating P, which for a cover no formula gives.
    inner = cover_protocol(n, p, name) if "(" not in name else parse_protocol(name, n, p)
    spec = parse_protocol("rd(pad); " + inner.text(), n, p + n)
    expected = rd_compose(worst_case_guarantee(inner, n, p).achieved, n)
    assert worst_case_guarantee(spec, n, p + n).achieved == expected


@pytest.mark.parametrize(
    "word, n, p",
    [
        ("VT,VT,VT", 3, 10),
        ("RD,RD,RD", 3, 10),
        ("VT,VT", 4, 9),
        ("RD,RD", 4, 9),
        ("VT,RD,VT", 5, 16),
        ("RD,RD,RD", 4, 13),
    ],
)
def test_word_protocols_reach_past_the_scan(word, n, p):
    # Full enumeration took 11-17 s for each of the first four; a memo over
    # survivor sets took 60.6 s and 0.52 s for the last two.  Over survivor
    # counts each takes well under a second, and CI's --durations report
    # shows a regression.
    spec = parse_protocol(word_protocol(parse_word(word)), n, p)
    assert worst_case_guarantee(spec, n, p).achieved == canonical_word(word, n, p)


def test_cold_evaluation_adds_at_most_one_state_per_stage_and_survivor_count(cold_memo):
    for word, n, p in (("VT,RD,VT", 5, 16), ("RD,RD,RD", 4, 13), ("RD,VT", 3, 8)):
        protocols._worst.cache_clear()
        spec = parse_protocol(word_protocol(parse_word(word)), n, p)
        worst_case_guarantee(spec, n, p)
        assert 0 < protocols._worst.cache_info().currsize <= len(spec.stages) * (p + 1)


def _memo_corpus():
    """Every canonical word's protocol at 3 <= n < p <= 10, which share
    suffixes of stages, and the named covers at (3,5) and (4,7)."""
    corpus = [
        (parse_protocol(word_protocol(word), n, p), n, p)
        for p in range(4, 11)
        for n in range(3, p)
        for word, _ in enumerate_canonical(n, p)
    ]
    modes = ("top-pair", "bottom-pair", "block")
    return corpus + [(cover_protocol(n, p, mode), n, p) for n, p in ((3, 5), (4, 7)) for mode in modes]


def _report_fields(spec, n, p):
    report = worst_case_guarantee(spec, n, p)
    return report.achieved, report.scenario_count, report.worst_scenarios


def test_warm_and_cold_memos_give_equal_reports(cold_memo):
    # In enumeration order a protocol meets the states of the ones before
    # it; in reverse order, from a cleared memo, those of the ones after.
    corpus = _memo_corpus()
    forward = [_report_fields(*case) for case in corpus]
    protocols._worst.cache_clear()
    backward = [_report_fields(*case) for case in reversed(corpus)]
    assert forward == backward[::-1]


def test_a_memo_that_evicts_gives_equal_reports(monkeypatch):
    # The traces read states again after the recursion; with room for two,
    # most of them were evicted and are evaluated anew.
    corpus = [case for case in _memo_corpus() if case[2] <= 7]
    expected = [_report_fields(*case) for case in corpus]
    monkeypatch.setattr(protocols, "_worst", functools.lru_cache(maxsize=2)(protocols._worst.__wrapped__))
    assert [_report_fields(*case) for case in corpus] == expected
    assert protocols._worst.cache_info().misses > protocols._worst.cache_info().currsize


def test_verification_agrees_with_the_evaluated_guarantee(cold_memo):
    # Each protocol is verified once from a cleared memo, then against
    # claims around its guarantee from a warm one.
    rng = random.Random(31)
    verdicts = set()
    for spec, n, p in _memo_corpus():
        protocols._worst.cache_clear()
        cold = verify_safe_strategy(spec, rd(n, p), n, p)
        achieved = worst_case_guarantee(spec, n, p).achieved
        assert cold == dominates(achieved, rd(n, p))
        for _ in range(4):
            weights = [rng.randint(1, 9) for _ in range(p)]
            noise = [F(w, sum(weights)) for w in weights]
            t = F(rng.randint(1, 20), 100)
            lam = RankLottery(tuple((1 - t) * a + t * b for a, b in zip(achieved.probs, noise)))
            verdict = verify_safe_strategy(spec, lam, n, p)
            assert verdict == dominates(achieved, lam), (spec.text(), n, p, lam.text())
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_reports_do_not_share_the_memo():
    spec = parse_protocol("veto(1); rd(pad)", 3, 7)
    first = worst_case_guarantee(spec, 3, 7)
    kept = dict(first.worst_scenarios)
    first.worst_scenarios.clear()
    first.worst_scenarios[1] = ()
    second = worst_case_guarantee(spec, 3, 7)
    assert second.worst_scenarios == kept and second.achieved == first.achieved


@pytest.mark.parametrize("text, n, p", [("cover(1,2,top)", 3, 5), ("veto(1); cover(1,1,top)", 3, 8)])
def test_errors_are_never_memoized(text, n, p, cold_memo):
    # A stage that cannot be played raises on every call, and neither its
    # state nor any state that continues into it enters the memo.
    spec = parse_protocol(text, n, p)
    for _ in range(2):
        with pytest.raises(CoverNotFoundError):
            worst_case_guarantee(spec, n, p)
        with pytest.raises(CoverNotFoundError):
            verify_safe_strategy(spec, uniform(p), n, p)
        assert protocols._worst.cache_info().currsize == 0


def _reference_step(stage, survivors, reports, n):
    """The stage rules applied to one tuple of reports, with a naive
    dictator's listing sorted, or the error they raise; `_step` on the
    tuple's aggregate must give the same."""
    try:
        if isinstance(stage, VetoRound):
            vetoed = set().union(*reports)
            return (), 1, tuple(a for a in survivors if a not in vetoed)
        if isinstance(stage, UniformFallback):
            return survivors, 0, ()
        if isinstance(stage, DictatorRound):
            if not stage.padded:
                return tuple(sorted(reports)), 0, ()
            weight = stage.continue_weight or 0
            if not weight and len(set(reports)) == 1:
                return reports[:1], 0, ()
            padded = protocols._pad_set(set(reports), survivors, min(n, len(survivors)))
            return padded, weight, tuple(a for a in survivors if a not in padded)
        combos = itertools.combinations(survivors, stage.cover_size)
        cover = next((c for c in combos if all(set(c) & rep for rep in reports)), None)
        if cover is None:
            raise CoverNotFoundError(f"no {stage.cover_size}-set meets all reported {stage.depth}-sets")
        if stage.side == "bottom":
            cover = tuple(a for a in survivors if a not in cover)
            if not cover:
                raise ValueError(f"a {stage.cover_size}-set cover leaves no complement of {len(survivors)} outcomes")
        return cover, 0, ()
    except ValueError as err:
        return type(err), str(err)


def _folded_step(stage, survivors, agg, n):
    try:
        listed, weight, rest = protocols._step(stage, survivors, agg, n)
    except ValueError as err:
        return type(err), str(err)
    return tuple(sorted(listed)), weight, rest


def _reference_aggregate(stage, tokens):
    """The aggregate as specified: a cover ANDs its masks, a naive dictator
    sorts the claims, every other stage ORs its masks."""
    if isinstance(stage, CoverRound):
        return functools.reduce(operator.and_, tokens)
    if isinstance(stage, DictatorRound) and not stage.padded:
        return tuple(sorted(itertools.chain(*tokens)))
    return functools.reduce(operator.or_, tokens)


_FOLD_STAGES = [
    VetoRound(1),
    VetoRound(2),
    DictatorRound(),
    DictatorRound(True, F(1, 2)),
    DictatorRound(False),
    UniformFallback(),
] + [CoverRound(s, d, side) for s in (1, 2, 3) for d in (1, 2, 3) for side in ("top", "bottom")]


def _stage_id(stage):
    """The stage's text form, as `ProtocolSpec.text` writes it, and its
    continuation weight if it has one: ids that name what the test checks,
    not how the stage classes spell their fields."""
    text = ProtocolSpec.text(types.SimpleNamespace(stages=(stage,)))
    weight = getattr(stage, "continue_weight", None)
    return f"{text}-{weight}" if weight else text


def test_fold_stage_ids_are_unique():
    assert len({_stage_id(stage) for stage in _FOLD_STAGES}) == len(_FOLD_STAGES) == 24


@pytest.mark.parametrize("stage", _FOLD_STAGES, ids=_stage_id)
def test_fold_matches_the_enumeration_of_report_tuples(stage):
    # Against every ordered tuple of adversary reports at m = 1..6
    # survivors and n = 2..4: each aggregate is reached by as many tuples as
    # the fold counts, its first tuple is the first multiset that reaches
    # it, the aggregates come in the order of those multisets, and `_step`
    # settles it as the stage rules settle each tuple that reaches it.
    for m, n in itertools.product(range(1, 7), range(2, 5)):
        survivors = tuple(range(1, m + 1))
        try:
            mine, space = protocols._reports(stage, survivors)
        except ValueError:
            continue
        folds = protocols._fold(stage, survivors, [(mine,)] + [space] * (n - 1))
        # one report's token is the one aggregate that it alone reaches
        tokens = [next(iter(protocols._fold(stage, survivors, [(rep,)]))) for rep in (mine, *space)]
        reached, folded, settled = {}, {}, {}
        for combo in itertools.product(range(1, len(tokens)), repeat=n - 1):
            agg = _reference_aggregate(stage, [tokens[0]] + [tokens[i] for i in combo])
            reached[agg] = reached.get(agg, 0) + 1
            if agg not in folded:
                folded[agg] = _folded_step(stage, survivors, agg, n)
            key = tuple(sorted(combo))  # the reference reads the reports as a multiset
            if key not in settled:
                settled[key] = _reference_step(stage, survivors, (mine, *(space[i - 1] for i in key)), n)
            assert folded[agg] == settled[key], (m, n, combo)
        firsts = {}
        for combo in itertools.combinations_with_replacement(range(len(space)), n - 1):
            agg = _reference_aggregate(stage, [tokens[0]] + [tokens[i + 1] for i in combo])
            firsts.setdefault(agg, (mine, *(space[i] for i in combo)))
        assert {agg: count for agg, (count, _) in folds.items()} == reached, (m, n)
        assert [(agg, first) for agg, (_, first) in folds.items()] == list(firsts.items()), (m, n)


@pytest.mark.parametrize("stage", _FOLD_STAGES, ids=_stage_id)
def test_reports_pin_the_truthful_play(stage):
    # Agent 1, whose worst survivor is the lowest label, vetoes its worst
    # `tokens`, claims its best, reports its best (top) or worst (bottom)
    # `depth` to a cover round and nothing to the uniform fallback; that
    # report is legal, and a set larger than the survivors is refused.
    for m in range(1, 7):
        survivors = tuple(range(1, m + 1))
        size = getattr(stage, "tokens", getattr(stage, "depth", 0))
        if size > m:
            with pytest.raises(ValueError, match=f"^no {size}-set to report among {m} outcomes$"):
                protocols._reports(stage, survivors)
            continue
        mine, legal = protocols._reports(stage, survivors)
        if isinstance(stage, VetoRound):
            assert mine == frozenset(survivors[: stage.tokens])
        elif isinstance(stage, DictatorRound):
            assert mine == m
        elif isinstance(stage, CoverRound):
            assert mine == frozenset(survivors[m - size :] if stage.side == "top" else survivors[:size])
        else:
            assert mine is None
        assert mine in legal, (m, mine)


def test_step_runs_once_per_covering_set(monkeypatch, cold_memo):
    # The (4,7) top-pair cover: 7,770 multisets of three adversaries' 3-sets
    # reach 2,575 aggregates, which hold 15 of the 21 pairs, those that meet
    # agent 1's best three.  Each pair is settled once, on its one-bit mask,
    # and each ordered report tuple is counted once.
    calls = []

    def counting_step(*args):
        calls.append(args)
        return step(*args)

    step = protocols._step
    monkeypatch.setattr(protocols, "_step", counting_step)
    spec = cover_protocol(4, 7, "top-pair")
    report = worst_case_guarantee(spec, 4, 7)
    masks = [args[2] for args in calls]
    assert len(masks) == len(set(masks)) == 15 < math.comb(7, 2)
    assert all(mask & (mask - 1) == 0 for mask in masks)
    assert report.scenario_count == 35**3


_SIMPLE = ("veto(1); uniform", "rd(pad)", "rd(naive)")
_COMPOSED = ("veto(1); rd(pad)", "rd(pad); veto(1); uniform", "veto(1); veto(1); uniform", "rd(pad); rd(pad)")
_PINNED = list(
    dict.fromkeys(
        [(text, 3, 6) for text in _SIMPLE]
        + [(text, n, p) for n, p in ((3, 7), (3, 8)) for text in _SIMPLE + _COMPOSED]
        + [(text, n, p) for n, p in ((4, 7), (4, 8)) for text in _SIMPLE]
        + [
            (word_protocol(word), n, p)
            for depth, sizes in ((2, ((2, 5), (3, 8), (4, 8), (3, 9), (4, 9))), (3, ((2, 6), (3, 10))))
            for n, p in sizes
            for word in itertools.product(("VT", "RD"), repeat=depth)
        ]
        + [(mode, n, p) for n, p in ((3, 5), (4, 7)) for mode in ("top-pair", "bottom-pair", "block")]
        + [("rd(pad); rd(naive)", 3, 7), ("rd(pad); uniform", 3, 7)]
    )
)

# sha256 of the `repr` of every `_PINNED` evaluation as (achieved, scenario
# count, worst scenarios), or the ValueError that parsing or evaluating it
# raises.  The evaluations were recorded while the recursion added
# `Fraction` masses; the errors were re-recorded when the parser began
# naming the stage that runs out of outcomes, and 4 of them became
# evaluations, equal to the brute force's, when a final padded dictator
# round on n or fewer outcomes got the uniform as its formula.  When the
# adversaries began to pick a cover round's covering set, only the worst
# scenarios of `bottom-pair` at (3,5) and (4,7) moved; their guarantees and
# scenario counts did not.  When continuation weights began to come from
# evaluating the continuation, every row was compared with the one before,
# and only the RD,RD,RD row at (2,6) moved.  Its continuation `rd(pad);
# rd(pad)` on 4 outcomes achieves uniform(4), where the guarantee formula
# had claimed 1/2,0,0,1/2, so the first round's weight went from 1/2 to
# 2/3 and the protocol from 1/4,1/8,1/8,1/8,1/8,1/4 to uniform(6), with
# the same 48 scenarios.
_PINNED_DIGEST = "7555abcfd5d07f73de6afbe5cd20894e77d5d1e093869cf8061e2959a7c10dda"


def _digest_row(report):
    worst = {
        k: tuple(tuple(tuple(sorted(r)) if isinstance(r, frozenset) else r for r in stage) for stage in trace)
        for k, trace in report.worst_scenarios.items()
    }
    return report.achieved.text(), report.scenario_count, worst


def test_evaluations_match_the_pinned_digest():
    rows = []
    for text, n, p in _PINNED:
        try:
            spec = cover_protocol(n, p, text) if "(" not in text else parse_protocol(text, n, p)
            report = worst_case_guarantee(spec, n, p)
        except ValueError as err:
            rows.append(repr(err))
            continue
        rows.append(_digest_row(report))
    assert sum("veto every outcome" in str(row) for row in rows) == 2
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == _PINNED_DIGEST


# Two evaluations past the sweep: a cover stage with four adversaries and a
# word protocol with five.  sha256 of their reports, as in `_PINNED_DIGEST`,
# recorded while `_step` ran once per multiset of adversary reports, which
# took about 5.5 s and 1.6 s on a 2-core VM (1.7 s and 0.9 s over the fold).
_PINNED_N5 = {
    ("cover(3,3,top)", 5, 8): "5b4da6d3ba089621ac1e79c537ccbfb2e255ab61d992717b0dd731035356eb11",
    ("veto(1); veto(1); rd(pad)", 6, 19): "ea29173a97389901cc8fbfe5cad24ac5cae2805e9056c84ac1c5d5eb64db8e88",
}


@pytest.mark.parametrize("text, n, p", list(_PINNED_N5), ids=str)
def test_large_evaluations_match_their_pinned_digests(text, n, p):
    report = worst_case_guarantee(parse_protocol(text, n, p), n, p)
    assert hashlib.sha256(repr(_digest_row(report)).encode()).hexdigest() == _PINNED_N5[text, n, p]


def test_a_cover_continuation_can_fail_on_more_survivors_than_its_fewest(capsys):
    # The parser weighs the dictator round by the cover on the one outcome
    # that two distinct vetoes and the round can leave, where the premise
    # holds.  When both agents veto the same outcome the cover plays on
    # two, where their best outcomes can differ.
    spec = parse_protocol("veto(1); rd(pad); cover(1,1,top)", 2, 5)
    with pytest.raises(CoverNotFoundError):
        worst_case_guarantee(spec, 2, 5)
    assert main(["protocol-eval", "--spec", spec.text(), "--n", "2", "--p", "5"]) == 3
    assert "no 1-set meets all reported 1-sets" in capsys.readouterr().err


# The texts of `_SWEEP` with a cover round after a dictator round that
# parse, since the premise holds on the fewest outcomes the parser weighs
# the continuation on, and then fail it on more survivors.
_COVER_AFTER_DICTATOR_FAILS = [
    ("veto(1); rd(pad); cover(1,1,top)", 2, 5),
    ("veto(1); rd(pad); cover(1,2,top)", 2, 7),
    ("veto(1); rd(pad); cover(1,2,bottom)", 2, 7),
    ("veto(2); rd(pad); cover(1,1,top)", 2, 7),
    ("veto(1); rd(pad); cover(1,1,top)", 3, 7),
]


@pytest.mark.parametrize("text, n, p", _COVER_AFTER_DICTATOR_FAILS, ids=str)
def test_a_parsed_cover_continuation_can_fail_at_evaluation(text, n, p):
    assert (text, n, p) in _SWEEP
    spec = parse_protocol(text, n, p)
    with pytest.raises(CoverNotFoundError):
        worst_case_guarantee(spec, n, p)
    with pytest.raises(CoverNotFoundError):
        verify_safe_strategy(spec, uniform(p), n, p)


class TestSafeStrategy:
    def test_claimed_pairs(self):
        assert verify_safe_strategy(parse_protocol("veto(1); uniform", 3, 6), vt(3, 6), 3, 6)
        assert verify_safe_strategy(parse_protocol("rd(pad)", 3, 6), rd(3, 6), 3, 6)
        assert verify_safe_strategy(
            parse_protocol("rd(naive)", 3, 6), parse_lottery("2/3,0,0,0,0,1/3"), 3, 6
        )

    def test_naive_dictator_fails_stronger_claim(self):
        assert not verify_safe_strategy(parse_protocol("rd(naive)", 3, 6), rd(3, 6), 3, 6)

    def test_protocol_that_can_veto_everything_is_rejected(self):
        with pytest.raises(ValueError, match="veto every outcome before the stage at position 9"):
            parse_protocol("veto(2); uniform", 3, 6)
        spec = ProtocolSpec((VetoRound(2), UniformFallback()))
        reports = ((frozenset({1, 2}), frozenset({3, 4}), frozenset({5, 6})), (None,) * 3)
        with pytest.raises(ValueError, match="veto every outcome before stage 1"):
            run(spec, identical_profile(3, 6), reports)
        with pytest.raises(ValueError, match="veto every outcome before stage 1"):
            worst_case_guarantee(spec, 3, 6)
        with pytest.raises(ValueError, match="veto every outcome before stage 1"):
            verify_safe_strategy(spec, parse_lottery("1,0,0,0,0,0"), 3, 6)

    def test_achieved_is_secured_by_construction(self):
        spec = parse_protocol("veto(1); rd(pad)", 3, 7)
        achieved = worst_case_guarantee(spec, 3, 7).achieved
        assert verify_safe_strategy(spec, achieved, 3, 7)


class TestCoverProtocols:
    def test_three_five_pair(self):
        spec = cover_protocol(3, 5, "top-pair")
        report = worst_case_guarantee(spec, 3, 5)
        assert dominates(report.achieved, parse_lottery("1/2,0,0,1/2,0"))

    def test_three_five_complement(self):
        spec = cover_protocol(3, 5, "bottom-pair")
        report = worst_case_guarantee(spec, 3, 5)
        assert dominates(report.achieved, parse_lottery("1/3,0,1/3,1/3,0"))

    def test_four_seven_pair(self):
        spec = cover_protocol(4, 7, "top-pair")
        report = worst_case_guarantee(spec, 4, 7)
        assert dominates(report.achieved, parse_lottery("1/2,0,0,0,1/2,0,0"))

    def test_block_cover(self):
        spec = cover_protocol(3, 5, "block")
        report = worst_case_guarantee(spec, 3, 5)
        # everyone keeps at least 1/(n-1) on their top two
        assert sum(report.achieved.probs[3:5]) >= F(1, 2)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            cover_protocol(3, 6, "top-pair")
        with pytest.raises(ValueError):
            cover_protocol(3, 5, "nonsense")

    def test_zero_size_covers_are_rejected(self):
        # They evaluated to CoverNotFoundError, which reads as a
        # counterexample to the covering premise.
        for size, depth in ((0, 1), (1, 0), (0, 0)):
            with pytest.raises(ValueError, match="at least 1"):
                CoverRound(size, depth, "top")
        with pytest.raises(ValueError, match="at least 1 at position 0$"):
            parse_protocol("cover(0,1,top)", 3, 6)

    def test_cover_failure_is_reported(self):
        # engineer an impossible demand: a 1-set meeting three disjoint pairs
        stage = CoverRound(cover_size=1, depth=2, side="top")
        spec = ProtocolSpec((stage,))
        prof = identical_profile(3, 6)
        reports = ((frozenset({1, 2}), frozenset({3, 4}), frozenset({5, 6})),)
        with pytest.raises(CoverNotFoundError):
            run(spec, prof, reports)
