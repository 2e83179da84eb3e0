import random
from collections import Counter
from dataclasses import fields
from fractions import Fraction
from itertools import accumulate

import pytest

from worstvote.feasibility import is_feasible
from worstvote.lottery import (
    RankLottery,
    convex_combination,
    dominates,
    is_symmetric,
    lottery,
    m2_vertices,
    parse_lottery,
    rd,
    uniform,
    vt,
)


def sorted_dot(lam, u):
    """The guaranteed utility of `lam` to an agent with utilities `u`: the
    rank probabilities, worst first, against the utilities in ascending
    order."""
    return sum((x * v for x, v in zip(lam.probs, sorted(u))), Fraction(0))


def rand_lottery(p, rng, grain=12):
    cuts = sorted(rng.randint(0, grain) for _ in range(p - 1))
    probs = []
    prev = 0
    for c in [*cuts, grain]:
        probs.append(Fraction(c - prev, grain))
        prev = c
    return RankLottery(tuple(probs))


def lottery_over(p, rng):
    """A lottery whose entries have mixed denominators, often zero."""
    weights = [rng.choice((0, 0, 1, 2, 3, 5, 7)) * Fraction(1, rng.choice((1, 2, 3, 5))) for _ in range(p)]
    if not any(weights):
        weights[rng.randrange(p)] = Fraction(1)
    total = sum(weights)
    return RankLottery(tuple(w / total for w in weights))


class TestConstruction:
    def test_parse_round_trip(self):
        text = "0,1/3,1/3,1/3,0,0"
        assert parse_lottery(text).text() == text

    def test_bad_entry_is_a_value_error_with_its_offset(self):
        with pytest.raises(ValueError, match=r"^bad rational '1/0' at position 0$"):
            parse_lottery("1/0,1")
        with pytest.raises(ValueError, match=r"^bad rational 'x' at position 6$"):
            parse_lottery("1/2,  x,1/2")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            lottery([Fraction(-1, 2), Fraction(3, 2)])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            lottery([Fraction(1, 2), Fraction(1, 3)])

    def test_named_guarantees(self):
        assert vt(3, 6) == parse_lottery("0,1/3,1/3,1/3,0,0")
        assert rd(3, 6) == parse_lottery("1/3,1/3,0,0,0,1/3")
        assert rd(2, 6) == parse_lottery("1/2,0,0,0,0,1/2")
        assert uniform(4) == parse_lottery("1/4,1/4,1/4,1/4")

    def test_list_built_equals_tuple_built(self):
        for probs in ([Fraction(1, 2), Fraction(1, 2)], [1, 0], [Fraction(1, 3), "2/3"]):
            listed, tupled = RankLottery(probs), RankLottery(tuple(probs))
            assert isinstance(listed.probs, tuple)
            assert listed == tupled and hash(listed) == hash(tupled)
            assert listed.cumulative() == tupled.cumulative()

    def test_uniform_is_one_instance_per_p(self):
        assert uniform(6) is uniform(6)
        assert uniform(5) is not uniform(6)
        with pytest.raises(ValueError):
            uniform(0)

    def test_named_guarantees_require_fewer_agents_than_outcomes(self):
        with pytest.raises(ValueError):
            vt(6, 6)
        with pytest.raises(ValueError):
            rd(7, 6)


class TestPartialSums:
    def test_veto_front(self):
        assert vt(3, 6).cumulative()[1] == Fraction(1, 3)

    def test_normalization(self):
        rng = random.Random(0)
        for _ in range(20):
            lam = rand_lottery(rng.randint(1, 9), rng)
            assert lam.cumulative()[-1] == 1

    def test_uniform_half(self):
        assert uniform(6).cumulative()[2] == Fraction(1, 2)

    def test_computed_once_and_kept_outside_the_fields(self):
        rng = random.Random(6)
        for _ in range(20):
            lam = rand_lottery(rng.randint(1, 9), rng)
            fresh = RankLottery(lam.probs)
            before = repr(lam)
            cum = lam.cumulative()
            assert cum == tuple(accumulate(lam.probs))
            assert lam.cumulative() is cum
            # The kept sums are no field: equality, hash and repr read `probs` alone.
            assert [f.name for f in fields(lam)] == ["probs"]
            assert repr(lam) == before == repr(fresh)
            assert lam == fresh and hash(lam) == hash(fresh)


class TestReflect:
    def test_veto_reflection(self):
        assert vt(3, 6).reflect() == parse_lottery("0,0,1/3,1/3,1/3,0")

    def test_uniform_fixed(self):
        assert uniform(7).reflect() == uniform(7)

    def test_involution(self):
        rng = random.Random(1)
        for _ in range(50):
            lam = rand_lottery(rng.randint(1, 8), rng)
            assert lam.reflect().reflect() == lam


class TestDominance:
    def test_veto_improves_single_veto(self):
        assert dominates(vt(3, 6), lottery([0, 1, 0, 0, 0, 0]))

    def test_reflexive(self):
        rng = random.Random(2)
        for _ in range(30):
            lam = rand_lottery(6, rng)
            assert dominates(lam, lam)

    def test_uniform_dominates_mix(self):
        assert dominates(uniform(6), parse_lottery("1/6,1/3,1/6,1/6,0,1/6"))

    def test_agrees_with_fraction_sums(self):
        # Mixed denominators and zeros, against cumulatives summed afresh.
        rng = random.Random(7)
        outcomes = Counter()
        for _ in range(3000):
            p = rng.randint(1, 7)
            lam, mu = (lottery_over(p, rng) for _ in range(2))
            expected = all(sum(lam.probs[:k], Fraction(0)) <= sum(mu.probs[:k], Fraction(0))
                           for k in range(1, p + 1))
            assert dominates(lam, mu) == expected
            outcomes[expected] += 1
        assert min(outcomes.values()) > 300, outcomes

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dominates(uniform(5), uniform(6))

    def test_partial_order(self):
        rng = random.Random(3)
        for _ in range(2000):
            a, b, c = (rand_lottery(5, rng, grain=6) for _ in range(3))
            if dominates(a, b) and dominates(b, a):
                assert a == b
            if dominates(a, b) and dominates(b, c):
                assert dominates(a, c)

    def test_preserved_by_mixing(self):
        rng = random.Random(4)
        for _ in range(200):
            a, b = (rand_lottery(6, rng) for _ in range(2))
            a2, b2 = (rand_lottery(6, rng) for _ in range(2))
            if dominates(a, b) and dominates(a2, b2):
                w = Fraction(rng.randint(0, 8), 8)
                left = convex_combination([(w, a), (1 - w, a2)])
                right = convex_combination([(w, b), (1 - w, b2)])
                assert dominates(left, right)


class TestSymmetricVertices:
    def test_m2_vertices_p6(self):
        vertices = {v.text() for v in m2_vertices(6)}
        assert vertices == {
            "1/2,0,0,0,0,1/2",
            "0,1/2,0,0,1/2,0",
            "0,0,1/2,1/2,0,0",
        }

    def test_m2_vertices_odd_p(self):
        vertices = {v.text() for v in m2_vertices(5)}
        assert "0,0,1,0,0" in vertices
        assert len(vertices) == 3

    def test_is_symmetric(self):
        assert is_symmetric(uniform(9))
        assert not is_symmetric(vt(3, 6))
        for v in m2_vertices(8):
            assert is_symmetric(v)


class TestTwoAgentFeasibility:
    def test_dictator_vertex(self):
        assert is_feasible(parse_lottery("1/2,0,0,0,0,1/2"), 2).feasible

    def test_best_rank_certain_fails(self):
        assert not is_feasible(lottery([0, 0, 0, 0, 0, 1]), 2).feasible

    def test_uniform_feasible(self):
        for p in range(2, 10):
            assert is_feasible(uniform(p), 2).feasible


class TestSortedDot:
    def test_reflection_identity(self):
        # guaranteed utility against a negated vector equals the negated
        # guarantee of the reflection
        rng = random.Random(5)
        for _ in range(100):
            p = rng.randint(2, 8)
            lam = rand_lottery(p, rng)
            u = [Fraction(rng.randint(-9, 9)) for _ in range(p)]
            left = sorted_dot(lam, [-x for x in u])
            right = -sorted_dot(lam.reflect(), u)
            assert left == right
