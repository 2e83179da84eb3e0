import random
from fractions import Fraction

from worstvote.duality import boundary_decompose, dual
from worstvote.lottery import convex_combination, parse_lottery, rd, uniform, vt

from .test_lottery import rand_lottery

F = Fraction


class TestDual:
    def test_veto_dictator_pair(self):
        assert dual(vt(3, 6)) == rd(3, 6)
        assert dual(rd(3, 6)) == vt(3, 6)

    def test_pairs_across_sizes(self):
        for n in range(3, 9):
            for p in range(n + 1, 11):
                assert dual(vt(n, p)) == rd(n, p)

    def test_uniform_self_dual(self):
        for p in range(2, 9):
            assert dual(uniform(p)) == uniform(p)

    def test_boundary_example(self):
        assert dual(parse_lottery("1/2,0,0,1/2,0")) == parse_lottery("1/3,0,1/3,1/3,0")

    def test_involution(self):
        rng = random.Random(0)
        for _ in range(300):
            lam = rand_lottery(rng.randint(2, 9), rng)
            assert dual(dual(lam)) == lam


class TestBoundaryDecompose:
    def test_boundary_is_fixed(self):
        lam = vt(3, 6)
        decomp = boundary_decompose(lam)
        assert decomp.delta == 0
        assert decomp.boundary == lam

    def test_uniform_degenerate(self):
        assert boundary_decompose(uniform(5)).delta == 1

    def test_midpoint_recovers_parts(self):
        mid = convex_combination([(F(1, 2), uniform(6)), (F(1, 2), vt(3, 6))])
        decomp = boundary_decompose(mid)
        assert decomp.delta == F(1, 2)
        assert decomp.boundary == vt(3, 6)

    def test_reconstruction(self):
        rng = random.Random(1)
        for _ in range(100):
            lam = rand_lottery(rng.randint(2, 8), rng)
            decomp = boundary_decompose(lam)
            if decomp.delta == 1:
                assert lam == uniform(lam.p)
                continue
            assert decomp.boundary.min_coordinate() == 0
            rebuilt = convex_combination(
                [(decomp.delta, uniform(lam.p)), (1 - decomp.delta, decomp.boundary)]
            )
            assert rebuilt == lam
