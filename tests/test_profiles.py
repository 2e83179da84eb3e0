import hashlib
import itertools
import random
import time
from fractions import Fraction

import pytest

from worstvote.lottery import uniform
from worstvote.profiles import (
    OutcomeLottery,
    Preference,
    Profile,
    cyclic_pad_profile,
    cyclic_profile,
    cyclic_top_pad_profile,
    format_profile,
    hard_profiles,
    rank_rearrange,
)
import worstvote.feasibility as feas
from worstvote.lottery import rd as rd_lottery

from .orbits import canonicalize, enumerate_profiles
from .test_lottery import rand_lottery, sorted_dot


def _implementable(lam, prof):
    """Whether some outcome lottery implements `lam` at `prof`."""
    point, _ = feas._implementing_point(lam.p, *feas._tail_caps(lam), [pref.order for pref in prof.prefs])
    return point is not None


def profile(orders):
    """The profile of the given orders, each listed worst to best."""
    return Profile(tuple(Preference(tuple(order)) for order in orders))


def random_profile(n, p, rng):
    perms = list(itertools.permutations(range(1, p + 1)))
    return Profile(tuple(Preference(rng.choice(perms)) for _ in range(n)))


class TestPreference:
    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            Preference((1, 1, 2))


class TestRankRearrange:
    def test_uniform_invariant(self):
        rng = random.Random(0)
        for _ in range(10):
            prof = random_profile(1, 6, rng)
            ell = OutcomeLottery((Fraction(1, 6),) * 6)
            assert rank_rearrange(ell, prof.prefs[0]) == uniform(6)

    def test_point_mass_on_best(self):
        pref = Preference((2, 3, 1))
        ell = OutcomeLottery((Fraction(1), Fraction(0), Fraction(0)))
        assert rank_rearrange(ell, pref).text() == "0,0,1"

    def test_hand_permutation(self):
        pref = Preference((2, 3, 1))
        ell = OutcomeLottery((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
        assert rank_rearrange(ell, pref).text() == "1/3,1/6,1/2"

    def test_same_multiset(self):
        rng = random.Random(1)
        for _ in range(30):
            p = rng.randint(2, 7)
            prof = random_profile(1, p, rng)
            mass = [Fraction(rng.randint(0, 5), 1) for _ in range(p)]
            total = sum(mass)
            if total == 0:
                continue
            ell = OutcomeLottery(tuple(x / total for x in mass))
            ranked = rank_rearrange(ell, prof.prefs[0])
            assert sorted(ranked.probs) == sorted(ell.mass)


class TestCanonicalize:
    def test_fixed_point(self):
        prof = profile([[1, 2, 3], [2, 3, 1]])
        assert canonicalize(prof).prefs == prof.prefs

    def test_agent_swap_invariance(self):
        rng = random.Random(2)
        for _ in range(50):
            prof = random_profile(3, 4, rng)
            perm = list(range(3))
            rng.shuffle(perm)
            permuted = Profile(tuple(prof.prefs[i] for i in perm))
            assert canonicalize(prof) == canonicalize(permuted)

    def test_relabel_invariance(self):
        rng = random.Random(3)
        for _ in range(50):
            prof = random_profile(3, 4, rng)
            mapping = list(range(1, 5))
            rng.shuffle(mapping)
            relabeled = Profile(
                tuple(Preference(tuple(mapping[a - 1] for a in pref.order)) for pref in prof.prefs)
            )
            assert canonicalize(prof) == canonicalize(relabeled)


class TestEnumerate:
    def test_single_agent(self):
        for p in (2, 3, 5):
            assert len(list(enumerate_profiles(1, p))) == 1

    def test_two_agents_two_outcomes(self):
        profs = list(enumerate_profiles(2, 2))
        assert len(profs) == 2  # agents agree; agents oppose

    @pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (4, 2), (3, 4)])
    def test_matches_orbit_count(self, n, p):
        perms = list(itertools.permutations(range(1, p + 1)))
        orbits = set()
        for combo in itertools.product(perms, repeat=n):
            prof = Profile(tuple(Preference(o) for o in combo))
            orbits.add(canonicalize(prof).prefs)
        stream = list(enumerate_profiles(n, p))
        assert len(stream) == len(orbits)
        assert {prof.prefs for prof in stream} == orbits


class TestCyclicPad:
    def test_shape(self):
        inner = cyclic_profile(3, 4)
        padded = cyclic_pad_profile(inner)
        assert padded.p == 7
        worsts = [pref.order[0] for pref in padded.prefs]
        assert sorted(worsts) == [5, 6, 7]
        for i, pref in enumerate(padded.prefs):
            assert pref.order[1:5] == inner.prefs[i].order

    def test_double_padding_adds_two_rounds(self):
        inner = cyclic_profile(3, 4)
        assert cyclic_pad_profile(cyclic_pad_profile(inner)).p == 10

    def test_pad_layouts(self):
        inner = cyclic_profile(3, 3)
        worst_pad = cyclic_pad_profile(inner)
        # agent 1: dedicated worst 4, the inner order, then 5 6 cyclically
        assert worst_pad.prefs[0].order == (4, 1, 2, 3, 5, 6)
        assert worst_pad.prefs[1].order == (5, 2, 3, 1, 6, 4)
        top_pad = cyclic_top_pad_profile(inner)
        assert top_pad.prefs[0].order == (4, 5, 1, 2, 3, 6)
        assert top_pad.prefs[1].order == (5, 6, 2, 3, 1, 4)

    def test_padded_cycles_match_hand_built_tight_profiles(self):
        # Padding a 3-cycle reproduces, up to relabeling, the classic profiles
        # that pin the dictator and veto guarantees at (3, 6).
        inner = cyclic_profile(3, 3)
        left = profile([(1, 2, 4, 5, 6, 3), (2, 3, 5, 6, 4, 1), (3, 1, 6, 4, 5, 2)])
        right = profile([(1, 4, 5, 6, 2, 3), (2, 5, 6, 4, 3, 1), (3, 6, 4, 5, 1, 2)])
        assert canonicalize(cyclic_top_pad_profile(inner)) == canonicalize(left)
        assert canonicalize(cyclic_pad_profile(inner)) == canonicalize(right)
        # at the dictator-pinning profile the forced lottery exists
        assert _implementable(rd_lottery(3, 6), left)


class TestHardProfiles:
    # The digest of every profile's orders, in list order, over 2 <= n <= 8
    # and 1 <= p <= 19, as the separate library module built them before
    # it was folded into `profiles`.
    DIGEST = "3b41e73915d0818d294a5fbe1dea36b241ec9557efa53d165e5f428e19576a28"

    def test_the_seed_lists_are_pinned(self):
        digest, count = hashlib.sha256(), 0
        for n, p in itertools.product(range(2, 9), range(1, 20)):
            for prof in hard_profiles(n, p):
                digest.update(repr(tuple(pref.order for pref in prof.prefs)).encode() + b"\n")
                count += 1
        assert count == 3718
        assert digest.hexdigest() == self.DIGEST

    def test_one_agent_gets_one_profile(self):
        # Every one-agent profile is a relabeling of the identity, so no
        # padding round is added; with them the list grew as 2^(p-1).
        for p in range(1, 20):
            assert hard_profiles(1, p) == (profile([range(1, p + 1)]),)
        started = time.perf_counter()
        assert len(hard_profiles(1, 20)) == 1
        assert time.perf_counter() - started < 0.5


class TestTextFormat:
    def test_text_lists_each_order_worst_first(self):
        assert format_profile(profile([(1, 2, 3), (2, 3, 1), (3, 1, 2)])) == "1 2 3 / 2 3 1 / 3 1 2"

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            profile([(1, 2), (1, 2, 3)])


class TestGuaranteedUtilityIdentity:
    def test_sorting_matches_rank_order(self):
        # the ascending rearrangement of a utility vector lists utilities in
        # the order of the preference it induces, so the outcome lottery that
        # rank_rearrange turns into lam pays lam's guaranteed utility, and the
        # reversed order (that of the negated vector) ranks it as the reflection
        rng = random.Random(9)
        for _ in range(50):
            p = rng.randint(2, 7)
            while True:
                u = [Fraction(rng.randint(-20, 20)) for _ in range(p)]
                if len(set(u)) == p:
                    break
            order = tuple(sorted(range(1, p + 1), key=lambda a: u[a - 1]))
            pref = Preference(order)
            assert [u[a - 1] for a in pref.order] == sorted(u)
            lam = rand_lottery(p, rng)
            mass = dict(zip(pref.order, lam.probs))
            ell = OutcomeLottery(tuple(mass[a] for a in range(1, p + 1)))
            assert rank_rearrange(ell, pref) == lam
            paid = sum(x * y for x, y in zip(ell.mass, u))
            assert paid == sorted_dot(lam, u)
            assert rank_rearrange(ell, Preference(order[::-1])) == lam.reflect()
            assert sorted_dot(lam.reflect(), [-x for x in u]) == -paid


class TestSymmetryTransport:
    def test_implementability_is_orbit_invariant(self):
        rng = random.Random(5)
        from worstvote.lottery import RankLottery

        for _ in range(20):
            n, p = rng.choice([(2, 3), (2, 4), (3, 3), (3, 4)])
            prof = random_profile(n, p, rng)
            grain = 6
            cuts = sorted(rng.randint(0, grain) for _ in range(p - 1))
            probs = []
            prev = 0
            for c in [*cuts, grain]:
                probs.append(Fraction(c - prev, grain))
                prev = c
            lam = RankLottery(tuple(probs))
            direct = _implementable(lam, prof)
            canon = _implementable(lam, canonicalize(prof))
            assert direct == canon
