import gc
import random
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from arl.arcat import ar_from_tower_hom, ar_is_isomorphism, stable_image_tower
from arl.errors import PrimeMismatch, TruncatedTower
from arl.gen import (
    GenParams,
    module_hom_tower_map,
    random_ar_l_adic,
    random_hom,
    random_l_adic,
    random_module_hom,
    random_prime,
    random_zero_system,
    random_zl_module,
    rng_for,
)
from arl.groups import (
    FinAbGroup,
    GroupHom,
    direct_sum_hom,
    direct_sum_with_maps,
    hom_on_quotients,
    identity_hom,
    induced_on_quotient,
    is_exact_at,
    is_surjective,
    quotient_with_maps,
    trivial_group,
    zero_hom,
)
from arl.intmat import IntMatrix
from arl.limits import to_tower
from arl.towers import (
    HomRule,
    TailRule,
    Tower,
    TowerHom,
    classify_tail,
    cokernel_is_zero_system,
    constant_tower,
    direct_sum,
    identity_tower_hom,
    is_l_adic,
    is_zero_system,
    kernel_is_zero_system,
    ladic_truncation,
    mod_power,
    natural_map,
    shift,
    sum_embeddings,
    zero_tower_hom,
)
from arl.zlmod import ZlModule

from oracles import group_elements, hom_apply
from reference_towers import levelwise_cokernel, levelwise_kernel


L = 2
ZL = ZlModule(L, (), 1)


def zl_tower(levels=8):
    return to_tower(ZL, levels)


def zero_tail_tower(nontrivial=3, levels=6):
    g = FinAbGroup((L,), prime_support=L)
    groups = [g] * nontrivial + [trivial_group(L)] * (levels - nontrivial)
    maps = []
    for n in range(1, levels):
        maps.append(zero_hom(groups[n], groups[n - 1]) if groups[n].is_trivial()
                    else identity_hom(g))
    return Tower(L, tuple(groups), tuple(maps), tail=TailRule(nontrivial))


class TestConstruction:
    def test_levels_must_be_l_local(self):
        g = FinAbGroup((2,))
        with pytest.raises(ValueError):
            Tower(2, (g,), ())

    def test_transition_endpoints_checked(self):
        g = FinAbGroup((2,), prime_support=2)
        h = FinAbGroup((4,), prime_support=2)
        with pytest.raises(ValueError):
            Tower(2, (g, h), (identity_hom(g),))

    def test_tail_consistency_eventually_l_adic(self):
        t = zl_tower(4)
        with pytest.raises(ValueError):
            Tower(L, t.groups, t.maps, tail=TailRule(0, ZlModule(L, (1,))))

    def test_negative_tail_offset_rejected(self):
        t = zl_tower(4)
        with pytest.raises(ValueError, match="offset -1"):
            Tower(L, t.groups, t.maps, tail=TailRule(0, ZL, -1))

    def test_tail_offset_on_torsion_module_rejected(self):
        # from level 1 on Z/4 / 2^{n+2} = Z/4 / 2^{n+1}: only the guard refuses it
        m = ZlModule(L, (2,))
        t = to_tower(m, 4)
        with pytest.raises(ValueError, match="offset 1"):
            Tower(L, t.groups, t.maps, tail=TailRule(1, m, 1))

    def test_zero_tail_demands_trivial_levels(self):
        g = FinAbGroup((2,), prime_support=2)
        with pytest.raises(ValueError):
            Tower(2, (g, g), (identity_hom(g),), tail=TailRule(0))

    def test_tail_check_reads_the_first_transition_past_its_start(self):
        # every level is Zl/3^{n+1}, but transition 1 is multiplication by the
        # unit 2 of Z/3 rather than the canonical projection (at l = 2 there
        # is no such unit, so the levels alone would fix the transition)
        zl3 = ZlModule(3, (), 1)
        t = to_tower(zl3, 4)
        doubled = GroupHom(t.level(1), t.level(0), IntMatrix.from_rows([[2]]))
        with pytest.raises(ValueError, match="transition 1 is not the canonical projection"):
            Tower(3, t.groups, (doubled,) + t.maps[1:], tail=TailRule(0, zl3))

    def test_levelwise_equal_compares_the_top_transition(self):
        g = FinAbGroup((3,), prime_support=3)
        doubled = GroupHom(g, g, IntMatrix.from_rows([[2]]))
        a = constant_tower(3, g, 4)
        b = Tower(3, a.groups, a.maps[:-1] + (doubled,))
        assert not a.levelwise_equal(b) and not b.levelwise_equal(a)
        assert a.levelwise_equal(b, upto=2)


class TestShift:
    def test_zero_shift_is_same_object(self):
        t = zl_tower()
        assert shift(t, 0) is t

    def test_shift_levels(self):
        t = zl_tower()
        s = shift(t, 1)
        assert s.level(0).invariant_factors == (4,)
        assert s.level(3).invariant_factors == (32,)

    def test_shift_composes(self):
        t = zl_tower()
        assert shift(shift(t, 1), 2).levelwise_equal(shift(t, 3))

    def test_shift_of_zero_tail(self):
        n = zero_tail_tower(3)
        s = shift(n, 3)
        assert all(s.level(k).is_trivial() for k in range(s.top + 1))

    def test_truncated_shift_shrinks(self):
        t = Tower(L, zl_tower(4).groups, zl_tower(4).maps)
        s = shift(t, 1)
        assert s.top == 2
        with pytest.raises(TruncatedTower):
            shift(t, 9)


class TestNaturalMap:
    def test_r0_is_identity(self):
        t = zl_tower()
        nm = natural_map(t, 0)
        assert all(nm.level(n).matrix.is_identity() for n in range(t.top + 1))

    def test_r1_is_reduction(self):
        t = zl_tower()
        nm = natural_map(t, 1)
        assert nm.level(0).source.invariant_factors == (4,)
        assert nm.level(0).matrix.entries == ((1,),)

    def test_zero_transitions_give_zero_map(self):
        g = FinAbGroup((L,), prime_support=L)
        t = constant_tower(L, g, 5, transition=zero_hom(g, g))
        nm = natural_map(t, 1)
        assert all(nm.level(n).is_zero() for n in range(nm.top + 1))


class TestZeroSystem:
    def test_constant_zero_maps(self):
        g = FinAbGroup((L,), prime_support=L)
        t = constant_tower(L, g, 5, transition=zero_hom(g, g))
        v = is_zero_system(t)
        assert v and v.certificate.radius == 1

    def test_l_adic_is_not_zero(self):
        v = is_zero_system(zl_tower())
        assert v.is_no

    def test_finite_support(self):
        v = is_zero_system(zero_tail_tower(3))
        assert v and v.certificate.radius == 3 and v.certificate.scope == "tail"

    def test_four_nontrivial_levels_radius_four(self):
        # nontrivial through level 3 with identity maps below, trivial beyond
        v = is_zero_system(zero_tail_tower(4, 7))
        assert v and v.certificate.radius == 4

    def test_certified_tail_never_unknown(self):
        # the claimed radius sits just past the prefix; the tail still forces it
        g = FinAbGroup((L,), prime_support=L)
        t = Tower(L, (g, g, g), (identity_hom(g), identity_hom(g)),
                  tail=TailRule(3))
        v = is_zero_system(t)
        assert v and v.certificate.radius == 3

    def test_truncated_unknown_when_bound_exhausted(self):
        g = FinAbGroup((L,), prime_support=L)
        t = constant_tower(L, g, 5)  # identity transitions, truncated
        v = is_zero_system(t)
        assert v.is_unknown

    def test_module_tail_no_of_kernel_and_cokernel_builds_no_tower(self, monkeypatch):
        # zero maps from level 0 on with a rule from level 2: the kernel (the
        # source) and the cokernel (the target) have a module tail, named at
        # the rule's start although the built towers' tails walk down to 0
        module, finite = zl_tower(6), zero_tail_tower(3, 6)
        into, out_of = (TowerHom(a, b, zero_tower_hom(a, b).levels, HomRule(2))
                        for a, b in ((module, finite), (finite, module)))

        def refuse(*args, **kwargs):
            raise AssertionError("a tower was built")

        monkeypatch.setattr(Tower, "__post_init__", refuse)
        monkeypatch.setattr(Tower, "_of", classmethod(refuse))
        for v in (kernel_is_zero_system(into), cokernel_is_zero_system(out_of)):
            assert v.is_no and v.witness == ("level", 2)


class TestLAdic:
    def test_to_tower_is_l_adic(self):
        v = is_l_adic(zl_tower())
        assert v and v.certificate.scope == "tail"

    def test_constant_quotient_tower(self):
        t = to_tower(ZlModule(L, (1,)), 6)
        assert is_l_adic(t)

    def test_mult_l_transitions_rejected_at_level_zero(self):
        t = zl_tower(6)
        bad = tuple(
            GroupHom(t.level(n), t.level(n - 1), IntMatrix.from_rows([[L]]))
            for n in range(1, 6)
        )
        b = Tower(L, tuple(t.level(n) for n in range(6)), bad)
        v = is_l_adic(b)
        assert v.is_no and v.witness[1] == 0

    def test_shift_not_l_adic(self):
        # level 0 of Zl[1] is Z/4, which 2^1 does not kill; the tail starts there
        v = is_l_adic(shift(to_tower(ZL), 1))
        assert v.is_no and v.witness == ("annihilator", 0)


class TestLevelwise:
    def test_kernel_of_identity_is_trivial(self):
        t = zl_tower(5)
        k, _ = levelwise_kernel(TowerHom(t, t, tuple(identity_hom(t.level(n)) for n in range(5))))
        assert all(k.level(n).is_trivial() for n in range(k.top + 1))

    def test_image_of_natural_map_is_everything(self):
        # level n of the stable image at s = 1 is the image of F_{n+1} -> F_n,
        # the level map of the natural map F[1] -> F
        t = zl_tower(5)
        img, incl = stable_image_tower(t, 1)
        assert img.levelwise_equal(t, upto=img.top)
        assert is_l_adic(img)

    def test_cokernel_of_zero_is_target(self):
        t = zl_tower(5)
        c, proj = levelwise_cokernel(
            TowerHom(t, t, tuple(zero_hom(t.level(n), t.level(n)) for n in range(5)))
        )
        assert c.levelwise_equal(t, upto=c.top)

    def test_cokernel_of_mult_l_is_constant(self):
        t = zl_tower(6)
        mult = TowerHom(
            t, t,
            tuple(GroupHom(t.level(n), t.level(n), IntMatrix.from_rows([[L]]))
                  for n in range(6)),
            tail=HomRule(0, IntMatrix.from_rows([[L]])),
        )
        c, _ = levelwise_cokernel(mult)
        assert all(c.level(n).invariant_factors == (L,) for n in range(c.top + 1))
        # the derived tail certifies the cokernel as the constant tower
        shape = classify_tail(c)
        assert shape is not None and shape.module == ZlModule(L, (1,))
        v = is_zero_system(c)
        assert v.is_no

    def test_kernel_of_mult_l_is_zero_system(self):
        t = zl_tower(6)
        mult = TowerHom(
            t, t,
            tuple(GroupHom(t.level(n), t.level(n), IntMatrix.from_rows([[L]]))
                  for n in range(6)),
            tail=HomRule(0, IntMatrix.from_rows([[L]])),
        )
        k, _ = levelwise_kernel(mult)
        assert all(k.level(n).invariant_factors == (L,) for n in range(k.top + 1))
        v = is_zero_system(k)
        assert v and v.certificate.radius == 1

    def test_levelwise_exactness_of_kernel_sequences(self):
        t = zl_tower(6)
        mult = TowerHom(
            t, t,
            tuple(GroupHom(t.level(n), t.level(n), IntMatrix.from_rows([[L]]))
                  for n in range(6)),
        )
        k, incl = levelwise_kernel(mult)
        for n in range(k.top + 1):
            assert is_exact_at(incl.levels[n], mult.levels[n])


class TestModPower:
    def test_power_zero_kills_everything(self):
        t = mod_power(zl_tower(), 0)
        assert all(t.level(n).is_trivial() for n in range(t.top + 1))

    def test_power_one_is_constant(self):
        t = mod_power(zl_tower(), 1)
        assert all(t.level(n).invariant_factors == (L,) for n in range(t.top + 1))
        assert is_l_adic(t)

    def test_annihilated_tower_unchanged(self):
        t = to_tower(ZlModule(L, (1,)), 6)
        m = mod_power(t, 1)
        assert m.levelwise_equal(t)


class TestDirectSum:
    def test_sum_with_trivial(self):
        t = zl_tower(6)
        triv = to_tower(ZlModule(L, ()), 6)
        s = direct_sum(t, triv)
        assert s.levelwise_equal(t)

    def test_l_adic_sum_certifies(self):
        a = to_tower(ZlModule(L, (2,)), 6)
        b = to_tower(ZlModule(L, (), 1), 6)
        s = direct_sum(a, b)
        assert is_l_adic(s)

    def test_l_adic_plus_zero_system_not_l_adic(self):
        s = direct_sum(zl_tower(6), zero_tail_tower(3, 6))
        v = is_l_adic(s)
        assert v.is_no

    def test_prime_mismatch(self):
        with pytest.raises(PrimeMismatch):
            direct_sum(zl_tower(4), to_tower(ZlModule(3, (), 1), 4))

    def test_embeddings_compose(self):
        a, b = zl_tower(5), zero_tail_tower(2, 5)
        s, ia, ib, pa, pb = sum_embeddings(a, b)
        for n in range(s.top + 1):
            assert pa.levels[n].compose(ia.levels[n]).matrix.is_identity()
            assert pb.levels[n].compose(ib.levels[n]).matrix.is_identity()


class TestTruncation:
    def test_ladic_truncation_of_shift_recovers(self):
        t = zl_tower()
        g = ladic_truncation(shift(t, 2))
        assert g.levelwise_equal(t, upto=g.top)
        assert is_l_adic(g)


class TestDerivedTails:
    """Derived towers keep the tail kind their construction derives."""

    def test_shift_of_free_module_moves_the_offset(self):
        assert shift(zl_tower(), 2).tail == TailRule(0, ZL, 2)

    def test_ladic_truncation_keeps_eventually_l_adic(self):
        g = ladic_truncation(shift(zl_tower(), 2))
        assert g.tail == TailRule(0, ZL)

    def test_kernel_of_zero_hom_keeps_source_tail(self):
        k, _ = levelwise_kernel(zero_tower_hom(zl_tower(6), zero_tail_tower(3, 6)))
        assert k.tail == TailRule(0, ZL)

    def test_image_of_identity_keeps_target_tail(self):
        # the stable image at s = 0 is the image of the identity
        t = zero_tail_tower(3, 6)
        i, _ = stable_image_tower(t, 0)
        assert i.tail == TailRule(3)

    @pytest.mark.parametrize("case", range(12))
    def test_cokernel_of_module_hom_keeps_module_tail(self, case):
        rng = rng_for(0, case)
        params = GenParams(levels=6)
        l = random_prime(rng, params)
        src, tgt = random_zl_module(rng, l, params), random_zl_module(rng, l, params)
        f = module_hom_tower_map(random_module_hom(rng, src, tgt), src, tgt, params.levels)
        c, _ = levelwise_cokernel(f)
        assert isinstance(c.tail, TailRule)


class TestTailsAsData:
    """A derived tower carries its tail as data: it holds no parent, and where
    its prefix leaves the closed form of its parents' tails it is truncated."""

    @pytest.mark.parametrize("derive", [
        lambda t: shift(t, 2),
        lambda t: direct_sum(t, zero_tail_tower(3, 6)),
        lambda t: mod_power(t, 1),
    ])
    def test_derived_tower_frees_its_parent(self, derive):
        t = Tower(L, zl_tower(6).groups, zl_tower(6).maps, tail=TailRule(0, ZL))
        parent = weakref.ref(t)
        d = derive(t)
        d.level(d.top + 3)
        del t
        gc.collect()
        assert parent() is None and d.can_extend()

    @pytest.mark.parametrize("f, g, levels, l_adic, witness", [
        # the group sum puts Z/2 first from level 1 on, the module sum Z/8
        (to_tower(ZlModule(L, (3,)), 8), to_tower(ZlModule(L, (1,)), 8),
         ["Z/2 + Z/2", "Z/2 + Z/4"] + ["Z/2 + Z/8"] * 6, "yes", None),
        # offsets 0 and 2 have no common closed form
        (to_tower(ZlModule(L, (1,)), 8), shift(zl_tower(), 2),
         [f"Z/2 + Z/{2 ** (n + 3)}" for n in range(8)], "no", ("annihilator", 0)),
    ])
    def test_sum_without_a_closed_form_is_truncated(self, f, g, levels, l_adic, witness):
        s = direct_sum(f, g)
        assert s.top == 7 and s.describe_levels() == levels and not s.can_extend()
        assert all(s.transition(n) == direct_sum_hom(f.transition(n), g.transition(n))
                   for n in range(1, 8))
        assert classify_tail(s) is None
        v = is_l_adic(s)
        assert v.status == l_adic and v.witness == witness
        assert is_zero_system(s).is_unknown
        assert shift(s, 3).top == 4
        with pytest.raises(TruncatedTower):
            shift(s, 8)

    def test_sum_reads_up_to_where_its_generator_order_settles(self):
        # the group sum puts the free generator first up to level 2, where the
        # exponents tie, and last from level 3 on; the module sum always last
        f, g = zl_tower(3), to_tower(ZlModule(L, (3,)), 3)
        s = direct_sum(f, g)
        assert s.describe_levels() == ["Z/2 + Z/2", "Z/4 + Z/4", "Z/8 + Z/8", "Z/8 + Z/16"]
        assert s.transition(3) == direct_sum_hom(f.transition(3), g.transition(3))
        assert classify_tail(s) is None

    def test_quotient_of_a_shifted_free_tower(self):
        # levels Z/2^{min(n+4, 2)} = Z/4: the free part meets the form from n + 1 >= 2
        m = mod_power(shift(zl_tower(4), 3), 2)
        assert m.describe_levels() == ["Z/4"] * 4
        assert classify_tail(m) == TailRule(1, ZlModule(L, (2,)))


class TestEpiProperty:
    def test_epi_onto_zero_system_forces_trivial(self):
        # with r the zero radius of N, f_n.u^L = u^N.f_{n+r} = 0 for a levelwise
        # epi f : L -> N, and the l-adic composites u^L are onto, so f_n = 0
        t = zl_tower(6)
        n = zero_tail_tower(3, 6)
        assert is_l_adic(t)
        r = is_zero_system(n).certificate.radius
        for m in range(min(t.top, n.top) - r + 1):
            assert is_surjective(t.composite(m, r))
            assert n.composite(m, r).is_zero()


class TestSingleLevel:
    def test_truncated_singleton(self):
        g = FinAbGroup((L,), prime_support=L)
        t = Tower(L, (g,), ())
        assert is_l_adic(t)  # vacuous on the prefix, scoped accordingly
        assert is_l_adic(t).certificate.scope == "prefix"
        assert is_zero_system(t).is_unknown

    def test_certified_singleton(self):
        t = to_tower(ZL, 1)
        v = is_l_adic(t)
        assert v and v.certificate.scope == "tail"
        assert natural_map(t, 0).top == 0

    def test_trivial_singleton_is_zero_system(self):
        t = Tower(L, (trivial_group(L),), ())
        assert is_zero_system(t)


class TestDefaultBound:
    def test_env_override(self, monkeypatch):
        from arl.towers import resolve_bound
        t = zl_tower(6)
        assert resolve_bound(t, None) == t.top
        assert resolve_bound(t, 2) == 2
        monkeypatch.setenv("ARL_DEFAULT_BOUND", "11")
        assert resolve_bound(t, None) == 11
        assert resolve_bound(t, 3) == 3

    def test_env_bound_limits_truncated_searches(self, monkeypatch):
        g = FinAbGroup((L,), prime_support=L)
        groups = [g] * 3 + [trivial_group(L)] * 3
        maps = []
        for n in range(1, 6):
            maps.append(zero_hom(groups[n], groups[n - 1]) if groups[n].is_trivial()
                        else identity_hom(g))
        t = Tower(L, tuple(groups), tuple(maps))  # truncated: prefix-only claims
        monkeypatch.setenv("ARL_DEFAULT_BOUND", "1")
        assert is_zero_system(t).is_unknown
        monkeypatch.setenv("ARL_DEFAULT_BOUND", "4")
        v = is_zero_system(t)
        assert v and v.certificate.scope == "prefix"

    def test_certified_tail_ignores_tight_bound(self, monkeypatch):
        monkeypatch.setenv("ARL_DEFAULT_BOUND", "1")
        v = is_zero_system(zero_tail_tower(3))
        assert v and v.certificate.radius == 3

    @pytest.mark.parametrize("value", ["-1", "abc"])
    def test_bad_env_bound_is_rejected(self, monkeypatch, value):
        from arl.towers import resolve_bound
        monkeypatch.setenv("ARL_DEFAULT_BOUND", value)
        with pytest.raises(ValueError, match="ARL_DEFAULT_BOUND"):
            resolve_bound(zl_tower(6), None)
        with pytest.raises(ValueError, match="ARL_DEFAULT_BOUND"):
            is_zero_system(zero_tail_tower(3))


class TestClassification:
    def test_sum_of_certified_tails(self):
        s = direct_sum(zl_tower(6), zero_tail_tower(3, 6))
        shape = classify_tail(s)
        assert shape is not None and shape.module == ZL and shape.start == 3

    def test_truncated_is_opaque(self):
        t = Tower(L, zl_tower(4).groups, zl_tower(4).maps, tail=None)
        assert classify_tail(t) is None

    def test_shift_of_torsion_reanchors(self):
        t = to_tower(ZlModule(L, (2,)), 8)
        s = shift(t, 3)
        shape = classify_tail(s)
        assert shape is not None and shape.offset == 0
        assert shape.module == ZlModule(L, (2,))


class TestHomTailContradictions:
    """A contradicted hom tail names itself and the level, even where the
    tail's matrix does not define a hom between the levels at all."""

    def test_canonical_tail_onto_a_larger_group(self):
        # the identity Z/2 -> Z/4 is not well defined; the zero map is natural
        s = constant_tower(L, FinAbGroup((2,), prime_support=L), 2)
        t = constant_tower(L, FinAbGroup((4,), prime_support=L), 2)
        levels = tuple(zero_hom(s.level(n), t.level(n)) for n in range(2))
        for build in (TowerHom, TowerHom._of):
            with pytest.raises(ValueError, match=r"HomRule\(start=0, matrix=.*\) contradicted at level 0"):
                build(s, t, levels, HomRule(0, IntMatrix.identity(1)))

    def test_canonical_tail_that_holds(self):
        t = zl_tower(4)
        one = IntMatrix.identity(1)
        f = TowerHom(t, t, tuple(identity_hom(t.level(n)) for n in range(5)), HomRule(1, one))
        assert f.tail == HomRule(1, one)
        assert all(f.level(n) == identity_hom(t.level(n)) for n in range(f.top + 1))

    def test_module_tail_not_defined_on_a_level(self):
        # levels Z/2 -> Z/4 at 0, where the module matrix [1] is no hom
        s = zl_tower(2)
        z4 = FinAbGroup((4,), prime_support=L)
        t = Tower(L, (z4, z4), (identity_hom(z4),), tail=TailRule(1, ZL))
        levels = (GroupHom(s.level(0), z4, IntMatrix.from_rows([[2]])),
                  GroupHom(s.level(1), z4, IntMatrix.from_rows([[2]])))
        one = IntMatrix.from_rows([[1]])
        with pytest.raises(ValueError, match=r"HomRule\(start=0, matrix=.*\) contradicted at level 0"):
            TowerHom(s, t, levels, HomRule(0, one))
        with pytest.raises(ValueError, match=r"HomRule\(start=1, matrix=.*\) contradicted at level 1"):
            TowerHom(s, t, levels, HomRule(1, one))
        assert TowerHom(s, t, levels, HomRule(1, IntMatrix.from_rows([[2]]))).top == 1

    def test_matrix_rule_needs_a_source_offset_at_least_the_target_offset(self):
        # doubling Z/2^{n+1} -> Z/2^{n+2} is natural, but no module map
        # Z_l -> Z_l induces it
        s, t = zl_tower(4), shift(zl_tower(5), 1)
        two = IntMatrix.from_rows([[2]])
        levels = tuple(GroupHom(s.level(n), t.level(n), two) for n in range(4))
        with pytest.raises(ValueError, match="source tail offset 0 below the target's 1"):
            TowerHom(s, t, levels, HomRule(0, two))
        # the other way round the identity matrix induces the natural map F[1] -> F
        assert natural_map(zl_tower(5), 1).tail == HomRule(0, IntMatrix.identity(1))



class TestHomTailAlgebra:
    """A tower hom is read only on its represented levels, whatever its tail;
    the tails that the levelwise cokernel of a zero tail inherits."""

    def test_zero_tail_levels_beyond_the_prefix(self):
        s, t = zl_tower(3), zero_tail_tower(2, 3)
        z = zero_tower_hom(s, t)
        assert z.level(2).is_zero()
        for n in (3, 6):
            with pytest.raises(TruncatedTower, match=f"hom level {n} beyond"):
                z.level(n)
        levels = tuple(zero_hom(s.level(n), t.level(n)) for n in range(2))
        late = TowerHom(s, t, levels, HomRule(4))
        for n in (2, 4):
            with pytest.raises(TruncatedTower):
                late.level(n)

    @pytest.mark.parametrize("kind", ["truncated", "identity", "module"])
    def test_levels_beyond_the_prefix_raise(self, kind):
        # zero tails: test_zero_tail_levels_beyond_the_prefix
        t = zl_tower(3)
        if kind == "truncated":
            f, tail = TowerHom(t, t, tuple(identity_hom(t.level(n)) for n in range(3))), None
        elif kind == "identity":
            f, tail = identity_tower_hom(t), HomRule(0, IntMatrix.identity(1))
        else:
            mat = IntMatrix.from_rows([[L]])
            f, tail = module_hom_tower_map(mat, ZL, ZL, 3), HomRule(0, mat)
        assert f.tail == tail
        assert f.level(f.top) == f.levels[-1]
        for n in (f.top + 1, f.top + 5):
            with pytest.raises(TruncatedTower, match=f"hom level {n} beyond"):
                f.level(n)

    def test_cokernel_of_zero_hom_is_target(self):
        t = zl_tower(5)
        c, _ = levelwise_cokernel(zero_tower_hom(zl_tower(5), t))
        assert c.levelwise_equal(t)
        assert classify_tail(c) == classify_tail(t)

    def test_cokernel_of_a_matrix_rule_between_offset_tails(self):
        # Z/2^{n+2} -> (Z/2^{n+2})^2 onto the first summand: the cokernel is
        # Z/2^{n+2}, not Z_l/l^{n+1} of the module cokernel
        s, t = shift(zl_tower(6), 1), shift(to_tower(ZlModule(L, (), 2), 6), 1)
        first = IntMatrix.from_rows([[1], [0]])
        f = TowerHom(s, t, tuple(GroupHom(s.level(n), t.level(n), first) for n in range(6)),
                     tail=HomRule(0, first))
        c, _ = levelwise_cokernel(f)
        assert c.describe_levels() == [f"Z/{2 ** (n + 2)}" for n in range(6)]

    def test_zero_tail_above_a_nonzero_level(self):
        # level 0 is the identity of Z/2, later levels are zero: below the
        # hom tail's start the cokernel is a proper quotient of the target,
        # so the target's tail is re-anchored where the maps vanish
        target = zl_tower(6)
        z2 = FinAbGroup((2,), prime_support=L)
        source = Tower(L, (z2,) * 6, (zero_hom(z2, z2),) * 5)
        levels = (identity_hom(z2),) + tuple(zero_hom(z2, target.level(n)) for n in range(1, 6))
        f = TowerHom(source, target, levels, tail=HomRule(1))
        c, _ = levelwise_cokernel(f)
        assert c.describe_levels() == ["0", "Z/4", "Z/8", "Z/16", "Z/32", "Z/64"]
        assert classify_tail(c) == TailRule(1, ZL)
        v = ar_is_isomorphism(ar_from_tower_hom(f))
        assert v.is_no and v.witness == ("cokernel", ("level", 1))

    def test_zero_tail_past_the_prefix_over_derived_tails(self):
        # the sum tower's rule matches its top level only; a kernel or
        # cokernel that differs there must not inherit it
        z2 = FinAbGroup((2,), prime_support=L)
        one = constant_tower(L, z2, 3)
        both = direct_sum(constant_tower(L, z2, 3), constant_tower(L, z2, 3))
        first = IntMatrix.from_rows([[1, 0]])
        proj = TowerHom(both, one, tuple(GroupHom(both.level(n), z2, first) for n in range(3)),
                        tail=HomRule(3))
        k, _ = levelwise_kernel(proj)
        assert k.describe_levels() == ["Z/2"] * 3 and k.tail is None
        incl = TowerHom(one, both, tuple(GroupHom(z2, both.level(n), first.transpose())
                                         for n in range(3)), tail=HomRule(3))
        c, _ = levelwise_cokernel(incl)
        assert c.describe_levels() == ["Z/2"] * 3 and c.tail is None

    def test_zero_tail_of_the_source_above_the_hom_top(self):
        # the kernel of a zero hom is its source, which is nontrivial up to
        # level 4; with levels 0..2 represented, a zero tail at 3 would certify
        # radius 3 where the source needs 5
        src = zero_tail_tower(5, 7)
        k, _ = levelwise_kernel(zero_tower_hom(src, zl_tower(3)))
        assert k.top == 2 and k.tail is None
        assert is_zero_system(src).certificate.radius == 5


def _brute_is_l_adic_witness(t):
    """The first failure of the l-adic conditions on a truncated tower, by
    element counting, or None when they all hold."""
    l = t.l
    for n in range(t.top + 1):
        factors = t.level(n).invariant_factors
        if any(any(l ** (n + 1) * x % d for x, d in zip(e, factors)) for e in group_elements(factors)):
            return ("annihilator", n)
    for n in range(t.top):
        u = t.transition(n + 1)
        src, tgt = u.source.invariant_factors, u.target.invariant_factors
        rows = [list(r) for r in u.matrix.entries]
        elements = group_elements(src)
        if any(any(hom_apply(rows, tgt, tuple(l ** (n + 1) * x for x in e))) for e in elements):
            return ("not-factoring", n)
        quotient_order = 1
        for d in src:
            quotient_order *= min(d, l ** (n + 1))
        image = {hom_apply(rows, tgt, e) for e in elements}
        if quotient_order != len(group_elements(tgt)) or len(image) != quotient_order:
            return ("induced-map", n)
    return None


@st.composite
def small_towers(draw):
    """Towers of two or three small l-groups with random transitions.  With
    operators, every level carries the scalar "c"; or all levels are one group
    G with an endomorphism "e" and the transitions are polynomials in e."""
    l = draw(st.sampled_from([2, 3]))
    levels = draw(st.integers(2, 3))
    rng = random.Random(draw(st.integers(0, 2**32)))
    mode = draw(st.sampled_from(["plain", "scalar", "endo"]))
    cap = 3 if l == 2 else 2

    def group(n):
        exps = sorted(draw(st.lists(st.integers(1, min(n + 2, cap)), min_size=1, max_size=2)))
        return FinAbGroup(tuple(l ** e for e in exps), prime_support=l)

    if mode == "endo":
        g = group(levels - 1)
        e = random_hom(rng, g, g)
        g = g.with_operators([("e", e.matrix)])
        e = GroupHom(g, g, e.matrix)
        maps = []
        for _ in range(levels - 1):
            a, b = draw(st.integers(0, 8)), draw(st.integers(0, 8))
            u = GroupHom(g, g, e.compose(e).matrix + IntMatrix.diagonal([a] * g.rank) @ e.matrix
                         + IntMatrix.diagonal([b] * g.rank))
            maps.append(u)
        return Tower(l, (g,) * levels, tuple(maps))
    groups = [group(n) for n in range(levels)]
    if mode == "scalar":
        c = draw(st.integers(0, 8))
        groups = [g.with_operators([("c", IntMatrix.diagonal([c] * g.rank))]) for g in groups]
    maps = tuple(random_hom(rng, groups[n], groups[n - 1]) for n in range(1, levels))
    return Tower(l, tuple(groups), maps)


@settings(max_examples=150, deadline=None)
@given(small_towers())
def test_induced_quotient_map_against_brute_force(t):
    l = t.l
    for n in range(t.top):
        u = t.transition(n + 1)
        src, tgt = u.source.invariant_factors, u.target.invariant_factors
        rows = [list(r) for r in u.matrix.entries]
        factors = any(any(hom_apply(rows, tgt, tuple(l ** (n + 1) * x for x in e)))
                      for e in group_elements(src)) is False
        induced = induced_on_quotient(u, l ** (n + 1))
        assert (induced is not None) == factors
        if induced is None:
            continue
        # the validating constructor accepts it: well defined and commuting
        assert GroupHom(induced.source, induced.target, induced.matrix) == induced
        q = induced.source.invariant_factors
        induced_rows = [list(r) for r in induced.matrix.entries]
        for e in group_elements(src):
            image = tuple(x % d for x, d in zip(e, q))
            assert hom_apply(induced_rows, tgt, image) == hom_apply(rows, tgt, e)
    verdict = is_l_adic(t)
    assert verdict.witness == _brute_is_l_adic_witness(t)
    assert bool(verdict) == (verdict.witness is None)


@st.composite
def tailed_pairs(draw):
    """Two towers over one prime that may carry tails: gen-drawn l-adic, zero
    and AR-l-adic towers with short prefixes, or the towers of modules with
    a torsion part, with or without a free part."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    params = GenParams(levels=draw(st.integers(2, 5)), primes=(2, 3))
    l = random_prime(rng, params)

    def tower():
        kind = draw(st.sampled_from(["l-adic", "zero", "ar-l-adic", "module"]))
        if kind == "module":
            exps = tuple(sorted(draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))))
            return to_tower(ZlModule(l, exps, draw(st.integers(0, 2))), draw(st.integers(1, 4)))
        draw_tower = {"l-adic": random_l_adic, "zero": random_zero_system,
                      "ar-l-adic": random_ar_l_adic}[kind]
        return draw_tower(rng, l, params)

    return tower(), tower()


def _tail_agrees(d, level, transition):
    """Levels and transitions top+1..top+4 that d's tail builds equal the
    construction's, read through the parents."""
    if not d.can_extend():
        return
    for n in range(d.top + 1, d.top + 5):
        assert d.level(n) == level(n), f"level {n}"
        assert d.transition(n) == transition(n), f"transition {n}"


@settings(max_examples=120, deadline=None)
@given(tailed_pairs(), st.integers(1, 3), st.integers(0, 3))
@example((zl_tower(3), to_tower(ZlModule(L, (3,)), 3)), 1, 1)
def test_tails_agree_with_their_construction(pair, r, k):
    f, g = pair
    if f.can_extend() or r <= f.top:
        _tail_agrees(shift(f, r), lambda n: f.level(n + r), lambda n: f.transition(n + r))
    _tail_agrees(direct_sum(f, g), lambda n: direct_sum_with_maps(f.level(n), g.level(n))[0],
                 lambda n: direct_sum_hom(f.transition(n), g.transition(n)))
    q = f.l ** k
    _tail_agrees(mod_power(f, k), lambda n: quotient_with_maps(f.level(n), q)[0],
                 lambda n: hom_on_quotients(f.transition(n), q, q))
