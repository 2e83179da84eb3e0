import random
from fractions import Fraction

import worstvote
from worstvote.lottery import RankLottery, convex_combination, dual, parse_lottery, rd, uniform, vt

from .test_lottery import rand_lottery

F = Fraction


def _geometric_dual(lam):
    """The duality map by its geometric steps: push `lam` along the ray from
    the uniform lottery until it exits the simplex, reflect the exit point,
    and mix the image back with the same weights."""
    p, share = lam.p, F(1, lam.p)
    low = min(lam.probs)
    if low == share:  # only the uniform lottery has least coordinate 1/p
        return lam
    alpha = share / (share - low)
    boundary = RankLottery(tuple(share + alpha * (x - share) for x in lam.probs))
    delta = 1 - 1 / alpha
    assert boundary.is_boundary()
    assert convex_combination([(delta, uniform(p)), (1 - delta, boundary)]) == lam
    top = max(boundary.probs)
    image = [(top - x) / (p * top - 1) for x in reversed(boundary.probs)]
    return RankLottery(tuple(delta * share + (1 - delta) * x for x in image))


class TestDual:
    def test_veto_dictator_pair(self):
        assert dual(vt(3, 6)) == rd(3, 6)
        assert dual(rd(3, 6)) == vt(3, 6)

    def test_pairs_across_sizes(self):
        for n in range(3, 9):
            for p in range(n + 1, 11):
                assert dual(vt(n, p)) == rd(n, p)

    def test_uniform_self_dual(self):
        for p in range(1, 9):
            assert dual(uniform(p)) == uniform(p)

    def test_boundary_example(self):
        assert dual(parse_lottery("1/2,0,0,1/2,0")) == parse_lottery("1/3,0,1/3,1/3,0")

    def test_involution(self):
        rng = random.Random(0)
        for _ in range(300):
            lam = rand_lottery(rng.randint(2, 9), rng)
            assert dual(dual(lam)) == lam

    def test_package_exports_dual(self):
        assert worstvote.dual is dual

    def test_closed_form_matches_the_geometric_steps(self):
        # 2,000 random lotteries at p = 1..9, half of them mixed with the
        # uniform into the interior of the simplex, and the uniform itself.
        rng = random.Random(3)
        cases = [uniform(p) for p in range(1, 10)]
        for _ in range(2_000):
            lam = rand_lottery(rng.randint(1, 9), rng, grain=rng.choice((4, 12, 60)))
            if rng.random() < 0.5:
                weight = F(rng.randint(1, 9), 10)
                lam = convex_combination([(weight, uniform(lam.p)), (1 - weight, lam)])
            cases.append(lam)
        assert sum(lam.p == 1 for lam in cases) > 100
        assert sum(not lam.is_boundary() and lam.p > 1 for lam in cases) > 500
        for lam in cases:
            assert dual(lam) == _geometric_dual(lam), lam
