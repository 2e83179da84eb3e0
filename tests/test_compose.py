import random
from fractions import Fraction

import pytest

from worstvote.compose import (
    canonical_word,
    dual_word,
    enumerate_canonical,
    parse_word,
    rd_compose,
    vt_compose,
    word_simplex,
)
from worstvote.feasibility import is_feasible
from worstvote.lottery import (
    convex_combination,
    dominates,
    dual,
    lottery,
    parse_lottery,
    rd,
    uniform,
    vt,
)
from worstvote.maximality import is_maximal

from .test_lottery import rand_lottery

F = Fraction


def rand_boundary(p, rng):
    while True:
        lam = rand_lottery(p, rng)
        if lam.is_boundary():
            return lam


class TestOperators:
    def test_vt_over_dictator(self):
        assert vt_compose(rd(3, 4), 3) == parse_lottery("0,1/3,1/3,0,1/3,0,0")

    def test_vt_over_uniform_is_veto(self):
        assert vt_compose(uniform(4), 3) == vt(3, 7)

    def test_vt_adds_ranks_preserves_mass(self):
        rng = random.Random(0)
        for _ in range(20):
            lam = rand_lottery(rng.randint(2, 6), rng)
            out = vt_compose(lam, 3)
            assert out.p == lam.p + 3
            assert sum(out.probs) == 1

    def test_rd_over_veto(self):
        assert rd_compose(vt(3, 4), 3) == parse_lottery("1/4,1/4,0,1/4,0,0,1/4")

    def test_rd_over_uniform_is_dictator(self):
        assert rd_compose(uniform(4), 3) == rd(3, 7)

    def test_rd_boundary_rule_matches_duality_route(self):
        rng = random.Random(1)
        for _ in range(100):
            p = rng.randint(2, 8)
            n = rng.randint(2, 6)
            lam = rand_boundary(p, rng)
            assert rd_compose(lam, n) == dual(vt_compose(dual(lam), n))

    def test_vt_commutes_with_mixing(self):
        rng = random.Random(2)
        for _ in range(50):
            p = rng.randint(2, 6)
            a, b = rand_lottery(p, rng), rand_lottery(p, rng)
            w = F(rng.randint(0, 6), 6)
            mixed = convex_combination([(w, a), (1 - w, b)])
            left = vt_compose(mixed, 3)
            right = convex_combination([(w, vt_compose(a, 3)), (1 - w, vt_compose(b, 3))])
            assert left == right

    def test_rd_does_not_commute_with_mixing(self):
        # Regression guard: the dictator composition is NOT linear, so any
        # "simplification" assuming it is would corrupt canonical values.
        a = lottery([1, 0, 0])
        b = lottery([0, 0, 1])
        mixed = convex_combination([(F(1, 2), a), (F(1, 2), b)])
        left = rd_compose(mixed, 3)
        right = convex_combination(
            [(F(1, 2), rd_compose(a, 3)), (F(1, 2), rd_compose(b, 3))]
        )
        assert left == parse_lottery("1/5,1/5,1/5,0,1/5,1/5")
        assert right == parse_lottery("1/4,1/4,1/8,0,1/8,1/4")
        assert left != right


class TestCanonical:
    def test_context_validation(self):
        with pytest.raises(ValueError, match="between 1 and 2"):
            canonical_word(("VT", "VT", "VT"), 3, 7)  # too long for depth 2
        with pytest.raises(ValueError, match="letters must be in"):
            canonical_word(("XX",), 3, 7)
        with pytest.raises(ValueError, match="need 3 <= n < p"):
            canonical_word(("VT",), 2, 7)

    def test_depth_one_set(self):
        entries = enumerate_canonical(3, 6)
        lots = {lam.text() for _, lam in entries}
        assert lots == {vt(3, 6).text(), rd(3, 6).text()}

    def test_seven_outcomes_set(self):
        entries = enumerate_canonical(3, 7)
        assert len(entries) == 6
        table = dict(
            (
                (("VT",), "0,1/4,1/4,1/4,1/4,0,0"),
                (("RD",), "1/3,1/3,0,0,0,0,1/3"),
                (("VT", "VT"), "0,0,1,0,0,0,0"),
                (("VT", "RD"), "0,1/3,1/3,0,1/3,0,0"),
                (("RD", "VT"), "1/4,1/4,0,1/4,0,0,1/4"),
                (("RD", "RD"), "1/6,1/6,1/6,1/6,0,1/6,1/6"),
            )
        )
        for word, lam in entries:
            assert lam.text() == table[word]

    def test_eleven_outcome_words(self):
        assert canonical_word("RD,VT,VT", 3, 11).text() == "1/5,1/5,0,0,1/5,1/5,0,0,0,0,1/5"
        assert canonical_word("RD,VT,RD", 3, 11).text() == "1/6,1/6,0,1/6,1/6,0,0,1/6,0,0,1/6"

    def test_constant_words(self):
        # h veto rounds pool the middle; h dictator rounds pool the extremes
        assert canonical_word("VT,VT", 3, 11).text() == "0,0,1/5,1/5,1/5,1/5,1/5,0,0,0,0"
        assert canonical_word("RD,RD", 3, 11).text() == "1/6,1/6,1/6,1/6,0,0,0,0,0,1/6,1/6"

    def test_counts(self):
        assert len(enumerate_canonical(3, 7)) == 6
        assert len(enumerate_canonical(3, 11)) == 14
        assert len(enumerate_canonical(4, 13)) == 14

    def test_word_duality(self):
        for n, p in ((3, 7), (3, 11), (4, 13)):
            for word, lam in enumerate_canonical(n, p):
                assert dual(lam) == canonical_word(dual_word(word), n, p)

    def test_uniform_on_support(self):
        for n, p in ((3, 7), (3, 10), (4, 9)):
            for _, lam in enumerate_canonical(n, p):
                support = lam.support()
                share = F(1, len(support))
                assert all(lam.probs[k - 1] == share for k in support)

    def test_parse_word(self):
        assert parse_word("rd, vt") == ("RD", "VT")
        with pytest.raises(ValueError):
            parse_word("RD,QQ")


class TestSimplices:
    def test_seven_outcome_table(self):
        expected = {
            ("VT", "VT"): ["0,1/4,1/4,1/4,1/4,0,0", "0,0,1,0,0,0,0"],
            ("RD", "RD"): ["1/3,1/3,0,0,0,0,1/3", "1/6,1/6,1/6,1/6,0,1/6,1/6"],
            ("VT", "RD"): ["0,1/4,1/4,1/4,1/4,0,0", "0,1/3,1/3,0,1/3,0,0"],
            ("RD", "VT"): ["1/3,1/3,0,0,0,0,1/3", "1/4,1/4,0,1/4,0,0,1/4"],
        }
        for word, tail in expected.items():
            vertices = word_simplex(word, 3, 7)
            assert vertices[0] == uniform(7)
            assert [v.text() for v in vertices[1:]] == tail

    def test_depth_one_simplices_are_intervals(self):
        assert word_simplex(("VT",), 3, 6) == [uniform(6), vt(3, 6)]
        assert word_simplex(("RD",), 3, 6) == [uniform(6), rd(3, 6)]

    def test_requires_full_word(self):
        with pytest.raises(ValueError):
            word_simplex(("VT",), 3, 7)

    @pytest.mark.parametrize("n, p", [(0, 7), (-3, 7), (2, 7), (7, 7)])
    def test_checks_the_context_first(self, n, p):
        # n = 0 divided by zero, and n = -3 asked for a word of length -2.
        with pytest.raises(ValueError, match=r"canonical guarantees need 3 <= n < p"):
            word_simplex(("VT",), n, p)


class TestTransport:
    def test_composition_preserves_feasibility_and_maximality(self):
        # every boundary maximal guarantee at (3,4), lifted one round
        base = [vt(3, 4), rd(3, 4)]
        for lam in base:
            assert is_feasible(lam, 3).feasible
            assert is_maximal(lam, 3).verdict == "maximal"
        for lam in base:
            for lifted in (vt_compose(lam, 3), rd_compose(lam, 3)):
                assert lifted.p == 7
                assert is_feasible(lifted, 3).feasible
                assert is_maximal(lifted, 3).verdict == "maximal"

    def test_duality_commutes_with_composition(self):
        rng = random.Random(3)
        for _ in range(40):
            p = rng.randint(2, 7)
            lam = rand_lottery(p, rng)
            assert dual(vt_compose(lam, 3)) == rd_compose(dual(lam), 3)

    def test_feasibility_transport_under_duality(self):
        rng = random.Random(4)
        for _ in range(15):
            lam = rand_lottery(5, rng)
            assert is_feasible(lam, 3).feasible == is_feasible(dual(lam), 3).feasible
