import pytest

from arl.errors import NonStabilizing, NotLAdic
from arl.groups import FinAbGroup, GroupHom
from arl.hypernat import HyperNat
from arl.intmat import IntMatrix
from arl.limits import (
    comparison_check,
    ladic_iff_torsionfree,
    limit,
    tensor_zl,
    to_tower,
)
from arl.towers import Tower, direct_sum, is_l_adic
from arl.upsilon import upsilon
from arl.zlmod import ZlModule


L = 2
H = HyperNat.symbol("h")


class TestLimit:
    def test_free_rank_one(self):
        t = to_tower(ZlModule(L, (), 1), 8)
        assert limit(t) == ZlModule(L, (), 1)

    def test_constant_torsion(self):
        t = to_tower(ZlModule(L, (1,)), 8)
        assert limit(t) == ZlModule(L, (1,))

    def test_mixed_detection_from_truncated_prefix(self):
        src = to_tower(ZlModule(L, (2,), 1), 6)
        t = Tower(L, src.groups, src.maps, tail=None)
        assert limit(t) == ZlModule(L, (2,), 1)

    def test_exponent_pattern_example(self):
        # levels (1,1),(2,2),(2,3),(2,4),... force Z/l^2 + Zl
        src = to_tower(ZlModule(L, (2,), 1), 6)
        exps = [
            sorted(
                len(bin(d)) - 3 for d in src.level(n).invariant_factors
            )
            for n in range(4)
        ]
        assert exps == [[1, 1], [2, 2], [2, 3], [2, 4]]

    def test_not_l_adic_rejected(self):
        t = to_tower(ZlModule(L, (), 1), 6)
        bad = tuple(
            GroupHom(t.level(n), t.level(n - 1), IntMatrix.from_rows([[L]]))
            for n in range(1, 6)
        )
        b = Tower(L, tuple(t.level(n) for n in range(6)), bad)
        with pytest.raises(NotLAdic):
            limit(b)

    def test_too_short_prefix(self):
        g = FinAbGroup((2,), prime_support=2)
        t = Tower(2, (g,), ())
        with pytest.raises(NonStabilizing):
            limit(t)

    def test_operator_transport(self):
        m = ZlModule(L, (2,), 1, operators=(("frob", IntMatrix.from_rows([[3, 0], [0, 5]])),))
        t = to_tower(m, 8)
        back = limit(t)
        assert back == m

    def test_operator_detection_from_truncated(self):
        m = ZlModule(L, (2,), operators=(("frob", IntMatrix.from_rows([[3]])),))
        src = to_tower(m, 6)
        t = Tower(L, src.groups, src.maps, tail=None)
        assert limit(t) == m


class TestToTower:
    def test_zl(self):
        t = to_tower(ZlModule(L, (), 1), 5)
        assert [g.invariant_factors for g in t.groups] == [(2,), (4,), (8,), (16,), (32,)]

    def test_torsion_saturates(self):
        t = to_tower(ZlModule(L, (2,)), 5)
        assert [g.invariant_factors for g in t.groups] == [(2,), (4,), (4,), (4,), (4,)]

    def test_trivial(self):
        t = to_tower(ZlModule(L, ()), 4)
        assert all(g.is_trivial() for g in t.groups)
        assert is_l_adic(t)

    def test_roundtrip_random(self):
        from arl.gen import GenParams, random_zl_module, rng_for
        for case in range(30):
            rng = rng_for(9, case)
            m = random_zl_module(rng, 3, GenParams(max_exponent=5, max_rank=3,
                                                   max_torsion_factors=3))
            assert limit(to_tower(m, 8)) == m


class TestTensorAndRank:
    def test_tensor_zl_of_sum(self):
        from arl.groups import identity_hom, trivial_group, zero_hom
        from arl.towers import TailRule
        t = to_tower(ZlModule(L, (), 1), 8)
        g = FinAbGroup((L,), prime_support=L)
        groups = [g] * 2 + [trivial_group(L)] * 6
        maps = [identity_hom(g)] + [zero_hom(groups[n], groups[n - 1]) for n in range(2, 8)]
        noise = Tower(L, tuple(groups), tuple(maps), tail=TailRule(2))
        s = direct_sum(t, noise)
        assert tensor_zl(upsilon(s, H)) == ZlModule(L, (), 1)

    def test_tensor_zl_constant(self):
        t = to_tower(ZlModule(L, (1,)), 8)
        assert tensor_zl(upsilon(t, H)) == ZlModule(L, (1,))

    def test_rank_ql(self):
        # torsion dies over Q_l, the free rank survives
        assert ZlModule(L, (), 1).free_rank == 1
        assert ZlModule(L, (5,), 2).free_rank == 2
        assert ZlModule(L, ()).free_rank == 0


class TestComparison:
    def test_unit_frobenius(self):
        m = ZlModule(L, (), 1, operators=(("frob", IntMatrix.from_rows([[3]])),))
        rep = comparison_check(to_tower(m, 8))
        assert rep.isomorphic and rep.operators_match
        assert rep.left == m

    def test_noise_ignored(self):
        from arl.groups import identity_hom, trivial_group, zero_hom
        from arl.towers import TailRule
        t = to_tower(ZlModule(L, (2,), 1), 8)
        g = FinAbGroup((L,), prime_support=L)
        groups = [g] * 3 + [trivial_group(L)] * 5
        maps = [identity_hom(g), identity_hom(g)] + \
            [zero_hom(groups[n], groups[n - 1]) for n in range(3, 8)]
        noise = Tower(L, tuple(groups), tuple(maps), tail=TailRule(3))
        rep = comparison_check(direct_sum(t, noise))
        assert rep.isomorphic and rep.operators_match
        assert rep.left == ZlModule(L, (2,), 1)

    def test_trivial_degree(self):
        rep = comparison_check(to_tower(ZlModule(L, ()), 6))
        assert rep.isomorphic and rep.operators_match and rep.left.is_trivial()


class TestTorsionCriterion:
    def test_torsion_free_next(self):
        res = ladic_iff_torsionfree(ZlModule(L, ()), ZlModule(L, (), 2))
        assert res.verdict and is_l_adic(res.tower)

    def test_torsion_next_detected(self):
        res = ladic_iff_torsionfree(ZlModule(L, ()), ZlModule(L, (1,)))
        assert res.verdict
        assert is_l_adic(res.tower).is_no
        assert res.witness is not None

    def test_both_trivial(self):
        res = ladic_iff_torsionfree(ZlModule(L, ()), ZlModule(L, ()))
        assert res.verdict and is_l_adic(res.tower)

    def test_middle_term_shape(self):
        # level n is mod_i/l^{n+1} (+) l^{n+1}-torsion of mod_next
        res = ladic_iff_torsionfree(ZlModule(L, (), 1), ZlModule(L, (2,)))
        assert res.tower.level(0).invariant_factors == (2, 2)
        assert res.tower.level(2).invariant_factors == (4, 8)

    def test_exhaustive_small_grid(self):
        from arl.suites import torsion_grid
        grid = torsion_grid(primes=(2,), max_exponent=2, max_factors=1, max_rank=1)
        for mod_i, mod_next in grid:
            assert ladic_iff_torsionfree(mod_i, mod_next).verdict
