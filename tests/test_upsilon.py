import pytest

from arl.arcat import (
    ar_compose,
    ar_equal,
    ar_from_tower_hom,
    ar_identity,
    ar_is_isomorphism,
    ar_zero,
    reshift,
)
from arl.errors import FiniteIndex, PreconditionViolated
from arl.gen import module_hom_tower_map
from arl.groups import FinAbGroup, GroupHom, identity_hom, trivial_group, zero_hom
from arl.hypernat import HyperNat
from arl.intmat import IntMatrix
from arl.limits import to_tower
from arl.towers import (
    HomRule,
    TailRule,
    Tower,
    TowerHom,
    direct_sum,
    sum_embeddings,
)
from arl.upsilon import (
    ar_canonical_rep,
    check_right_exact,
    faithfulness_check,
    phi_iso,
    psi,
    star_tower,
    upsilon,
    upsilon_mor,
)
from arl.zlmod import ZlModule


L = 2
H = HyperNat.symbol("h")
ZL = ZlModule(L, (), 1)


def zl_tower(levels=8):
    return to_tower(ZL, levels)


def zero_tail_tower(nontrivial=3, levels=8):
    g = FinAbGroup((L,), prime_support=L)
    groups = [g] * nontrivial + [trivial_group(L)] * (levels - nontrivial)
    maps = []
    for n in range(1, levels):
        maps.append(zero_hom(groups[n], groups[n - 1]) if groups[n].is_trivial()
                    else identity_hom(g))
    return Tower(L, tuple(groups), tuple(maps), tail=TailRule(nontrivial))


class TestUpsilon:
    def test_l_adic_normal_form(self):
        t = zl_tower()
        u = upsilon(t, H)
        assert psi(u) is t
        assert u.h == H
        assert u.finite_quotient(3).invariant_factors == (8,)

    def test_zero_summand_stripped(self):
        t = zl_tower()
        s = direct_sum(t, zero_tail_tower())
        u1 = upsilon(s, H)
        u2 = upsilon(t, H)
        k = min(psi(u1).top, psi(u2).top)
        assert u1.canonical_form(k) == u2.canonical_form(k)

    def test_trivial_tower(self):
        t = to_tower(ZlModule(L, ()), 6)
        u = upsilon(t, H)
        assert all(u.finite_quotient(k).is_trivial() for k in range(1, 5))

    def test_finite_index_rejected(self):
        with pytest.raises(FiniteIndex):
            upsilon(zl_tower(), HyperNat.finite(5))

    def test_marker_renaming_same_form(self):
        t = zl_tower()
        u1 = upsilon(t, H)
        u2 = upsilon(t, H + HyperNat.symbol("d1"))
        assert u1.canonical_form() == u2.canonical_form()
        assert u1.h != u2.h


class TestStarLevel:
    """The object at star-level h-1: its quotient by l^k is level k-1 of the
    canonical l-adic tower."""

    def test_infinite_index_quotients(self):
        u = upsilon(zl_tower(), H)
        assert u.finite_quotient(2).invariant_factors == (4,)

    @pytest.mark.parametrize("power", [0, -1])
    def test_quotient_power_below_one_rejected(self, power):
        with pytest.raises(ValueError, match="power must be >= 1"):
            upsilon(zl_tower(), H).finite_quotient(power)

    @pytest.mark.parametrize("tower", [zl_tower, lambda: direct_sum(zl_tower(), zero_tail_tower())])
    def test_quotients_are_the_reconstructed_levels(self, tower):
        u = upsilon(tower(), H)
        base = psi(u)
        for k in range(1, base.top + 2):
            assert u.finite_quotient(k) == base.level(k - 1)


class TestPsi:
    def test_roundtrip_on_l_adic(self):
        t = zl_tower()
        p = psi(upsilon(t, H))
        assert p.levelwise_equal(t) and p.top == t.top

    def test_constant_tower(self):
        t = to_tower(ZlModule(L, (1,)), 6)
        p = psi(upsilon(t, H))
        assert all(p.level(n).invariant_factors == (L,) for n in range(p.top + 1))


class TestStar:
    def test_levelwise_identity_with_marker(self):
        t = zl_tower()
        s = star_tower(t)
        assert s.starred and not t.starred
        assert s.levelwise_equal(t)

    def test_preserves_tail_class(self):
        n = zero_tail_tower()
        s = star_tower(n)
        from arl.towers import is_zero_system
        assert is_zero_system(s).certificate.radius == is_zero_system(n).certificate.radius


class TestPhi:
    def test_identity_on_l_adic(self):
        t = zl_tower()
        iso, inverse = phi_iso(t, H)
        assert iso.shift_amount == 0
        assert all(iso.rep.level(n).matrix.is_identity() for n in range(iso.rep.top + 1))

    def test_projection_for_sum(self):
        s = direct_sum(zl_tower(), zero_tail_tower())
        iso, inverse = phi_iso(s, H)
        assert ar_is_isomorphism(iso)
        assert ar_is_isomorphism(inverse)
        comp = ar_compose(inverse, iso)
        assert ar_equal(comp, ar_identity(iso.source))

    def test_trivial(self):
        t = to_tower(ZlModule(L, ()), 6)
        iso, _ = phi_iso(t, H)
        assert all(iso.rep.level(n).source.is_trivial() for n in range(iso.rep.top + 1))


class TestUpsilonMor:
    def mult_l(self, t):
        return ar_from_tower_hom(TowerHom(
            t, t,
            tuple(GroupHom(t.level(n), t.level(n), IntMatrix.from_rows([[L]]))
                  for n in range(t.top + 1)),
            tail=HomRule(0, IntMatrix.from_rows([[L]])),
        ))

    def test_identity(self):
        u = upsilon_mor(ar_identity(zl_tower()), H)
        assert u.is_iso() and not u.is_zero()

    def test_mult_l_nonzero(self):
        t = zl_tower()
        u = upsilon_mor(self.mult_l(t), H)
        assert not u.is_zero() and not u.is_iso()
        assert u.tower_hom.level(1).matrix.entries == ((L,),)

    def test_factor_through_zero_system_gives_zero(self):
        t, n = zl_tower(), zero_tail_tower()
        _, incl_t, incl_n, proj_t, proj_n = sum_embeddings(t, n)
        # t -> t + n -> n: the composite lands in a zero system
        into_noise = ar_compose(ar_from_tower_hom(proj_n), ar_from_tower_hom(incl_t))
        u = upsilon_mor(into_noise, H)
        assert u.is_zero()

    def test_representative_independence(self):
        t = zl_tower()
        f = self.mult_l(t)
        u1 = upsilon_mor(f, H)
        u2 = upsilon_mor(reshift(f, 2), H)
        k = min(u1.tower_hom.top, u2.tower_hom.top)
        assert all(u1.tower_hom.level(n) == u2.tower_hom.level(n) for n in range(k + 1))

    def test_functoriality(self):
        t = zl_tower()
        f = self.mult_l(t)
        g = self.mult_l(t)
        comp = upsilon_mor(ar_compose(g, f), H)
        ug, uf = upsilon_mor(g, H).tower_hom, upsilon_mor(f, H).tower_hom
        k = min(comp.tower_hom.top, ug.top, uf.top)
        assert all(comp.tower_hom.level(n) == ug.level(n).compose(uf.level(n))
                   for n in range(k + 1))


class TestCanonicalRep:
    def test_shift_zero_representative_unique(self):
        t = zl_tower()
        f = ar_from_tower_hom(natural_or_mult(t))
        shifted = reshift(f, 2)
        rep = ar_canonical_rep(shifted)
        assert all(rep.level(n) == f.rep.level(n) for n in range(rep.top + 1))


def natural_or_mult(t):
    return TowerHom(
        t, t,
        tuple(GroupHom(t.level(n), t.level(n), IntMatrix.from_rows([[3]]))
              for n in range(t.top + 1)),
    )


class TestRightExact:
    def test_identity_sequence(self):
        t = zl_tower()
        triv = to_tower(ZlModule(L, ()), 8)
        f = ar_identity(t)
        g = ar_zero(t, triv)
        assert check_right_exact(f, g, H)

    def test_mult_l_truncation(self):
        src = ZlModule(L, (), 1)
        tgt = ZlModule(L, (), 1)
        f = ar_from_tower_hom(module_hom_tower_map(IntMatrix.from_rows([[L]]), src, tgt, 8))
        coker = ZlModule(L, (1,))
        g = ar_from_tower_hom(module_hom_tower_map(IntMatrix.from_rows([[1]]), tgt, coker, 8))
        assert check_right_exact(f, g, H)

    def test_non_exact_precondition_rejected(self):
        t = zl_tower()
        f = ar_identity(t)
        g = ar_identity(t)  # composite = identity, does not vanish
        with pytest.raises(PreconditionViolated):
            check_right_exact(f, g, H)


class TestFaithful:
    def test_identity_instance(self):
        assert faithfulness_check(ar_identity(zl_tower()), H)

    def test_iso_with_noise(self):
        t, n = zl_tower(), zero_tail_tower()
        _, _, _, proj, _ = sum_embeddings(t, n)
        assert faithfulness_check(ar_from_tower_hom(proj), H)

    def test_mult_l_instance(self):
        t = zl_tower()
        f = TestUpsilonMor().mult_l(t)
        assert faithfulness_check(f, H)
