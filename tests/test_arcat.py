import pytest

from arl.arcat import (
    ARMor,
    ar_compose,
    ar_equal,
    ar_from_tower_hom,
    ar_identity,
    ar_is_isomorphism,
    ar_zero,
    canonical_l_adic,
    certify_ar_l_adic,
    factorization_radius,
    kernel_bound_check,
    reshift,
    stable_image_bound,
    stable_image_tower,
)
from arl.errors import NotARladic, PreconditionViolated
from arl.gen import GenParams, random_armor, random_extension, rng_for
from arl.groups import FinAbGroup, GroupHom, identity_hom, trivial_group, zero_hom
from arl.intmat import IntMatrix
from arl.limits import to_tower
from arl.towers import (
    HomRule,
    MLBound,
    TailRule,
    Tower,
    TowerHom,
    constant_tower,
    direct_sum,
    identity_tower_hom,
    is_l_adic,
    is_zero_system,
    natural_map,
    shift,
    sum_embeddings,
    zero_tower_hom,
)
from arl.zlmod import ZlModule


L = 2
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


def mult_l_endo(t, levels=None):
    hi = t.top if levels is None else levels - 1
    return TowerHom(
        t, t,
        tuple(GroupHom(t.level(n), t.level(n), IntMatrix.diagonal([L] * t.level(n).rank))
              for n in range(hi + 1)),
        tail=HomRule(0, IntMatrix.diagonal([L] * ZL.rank)),
    )


class TestCompose:
    def test_identity_is_neutral(self):
        t = zl_tower()
        f = ar_from_tower_hom(mult_l_endo(t))
        assert ar_equal(ar_compose(f, ar_identity(t)), f)
        assert ar_equal(ar_compose(ar_identity(t), f), f)
        # the identity's rule is the identity matrix, so the composite keeps f's rule
        assert ar_compose(ar_identity(t), f).rep.tail == f.rep.tail

    def test_matrix_rule_starts_where_both_rules_hold(self):
        # the source transition u_1 is zero, so f can be the identity of Z/2
        # at level 0 and doubling beyond: its matrix rule starts at 1
        t = zl_tower(5)
        src = Tower(L, t.groups, (zero_hom(t.level(1), t.level(0)),) + t.maps[1:],
                    tail=TailRule(1, ZL))
        two = IntMatrix.from_rows([[2]])
        f = TowerHom(src, t, (identity_hom(t.level(0)),) + tuple(
            GroupHom(t.level(n), t.level(n), two) for n in range(1, 5)), tail=HomRule(1, two))
        comp = ar_compose(ar_identity(t), ar_from_tower_hom(f))
        assert comp.rep.tail == HomRule(1, two)

    def test_natural_maps_compose(self):
        t = zl_tower()
        n1 = ar_from_tower_hom(natural_map(t, 1))
        n1_shifted = ar_from_tower_hom(natural_map(shift(t, 1), 1))
        n2 = ar_from_tower_hom(natural_map(t, 2))
        # the composite F[2] -> F[1] -> F equals the two-step natural map,
        # after aligning the shift bookkeeping
        comp = ar_compose(n1, n1_shifted)
        lhs = comp.rep
        rhs = natural_map(t, 2)
        assert all(lhs.level(n) == rhs.level(n) for n in range(min(lhs.top, rhs.top) + 1))

    def test_zero_absorbs(self):
        t = zl_tower()
        f = ar_from_tower_hom(mult_l_endo(t))
        z = ar_zero(t, t)
        assert ar_equal(ar_compose(f, z), z)
        # a zero rule from level 2 holds from level 1 after an outer shift of 1
        late = ar_from_tower_hom(TowerHom(t, t, z.rep.levels, tail=HomRule(2)))
        assert ar_compose(reshift(f, 1), late).rep.tail == HomRule(1)


def _tampered(base, r, kind, k):
    """shift(base, r) with its level k swapped for a bigger group, or its
    transition k twisted by the unit 3."""
    groups, maps = list(base.groups[r:]), list(base.maps[r:])
    if kind == "level":
        g = groups[k]
        groups[k] = FinAbGroup(g.invariant_factors[:-1] + (g.exponent() * L,), prime_support=L)
        maps[k - 1] = GroupHom(groups[k], groups[k - 1], IntMatrix.diagonal([1] * g.rank))
        if k < len(maps):
            maps[k] = GroupHom(groups[k + 1], groups[k], IntMatrix.diagonal([L] * g.rank))
    else:
        maps[k - 1] = GroupHom(groups[k], groups[k - 1], IntMatrix.diagonal([3] * groups[k].rank))
    return Tower(L, tuple(groups), tuple(maps))


class TestARMorInvariant:
    """An ARMor's representative must read as source shifted by shift_amount
    on its levels: the builders that trust their inputs rely on it."""

    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_the_shifted_source_is_accepted(self, r):
        base = constant_tower(L, FinAbGroup((4,), prime_support=L), 7)
        f = ARMor(base, base, r, zero_tower_hom(shift(base, r), base))
        # read straight from the source: a copy of the shift is accepted too
        copy = shift(base, r)
        g = ARMor(base, base, r, zero_tower_hom(Tower(L, copy.groups, copy.maps), base))
        assert f.rep.levels == g.rep.levels

    def test_one_shift_too_many_is_refused(self):
        t = zl_tower()
        # natural_map(t, 2) starts at shift(t, 2): level 0 is Z/8, not level 1 (Z/4)
        with pytest.raises(ValueError, match="source level 0 is not the source's level 1"):
            ARMor(t, t, 1, natural_map(t, 2))
        f = ar_from_tower_hom(mult_l_endo(t))
        with pytest.raises(ValueError, match="source level 0 is not the source's level 3"):
            ARMor(t, t, 3, TowerHom(shift(t, 4), t, reshift(f, 4).rep.levels))

    def test_the_unshifted_source_is_refused_at_a_positive_shift(self):
        # the representative's source is the source object itself, which
        # reads as shift(f, 0), not shift(f, 1): F_0 = Z/2 + Z/2, F_1 = Z/2 + Z/4
        f = to_tower(ZlModule(2, (1,), 1), 4)
        assert f.level(0) != f.level(1)
        with pytest.raises(ValueError) as err:
            ARMor(f, f, 1, identity_tower_hom(f))
        assert str(err.value) == "representative source level 0 is not the source's level 1"

    @pytest.mark.parametrize("r", [0, 1])
    @pytest.mark.parametrize("kind", ["level", "transition"])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_a_single_departure_is_named(self, r, kind, k):
        base = constant_tower(L, FinAbGroup((2, 4), prime_support=L), 8)
        tampered = _tampered(base, r, kind, k)
        with pytest.raises(ValueError, match=f"source {kind} {k} is not the source's {kind} {k + r}"):
            ARMor(base, base, r, zero_tower_hom(tampered, base))
        with pytest.raises(ValueError, match=f"target {kind} {k} is not the target's {kind} {k}"):
            ARMor(base, base, r, zero_tower_hom(shift(base, r), _tampered(base, 0, kind, k)))

    def test_a_source_truncated_below_the_representative_is_refused(self):
        t = zl_tower(8)
        short = Tower(L, t.groups[:4], t.maps[:3])
        with pytest.raises(ValueError, match="source level 2 is not the source's level 4"):
            ARMor(short, t, 2, natural_map(t, 2))


class TestReshift:
    """reshift with extra > 0 equals the validated construction of the
    representative F[r + extra] -> F[r] -> G, and the same shift class."""

    @pytest.mark.parametrize("case", range(12))
    def test_equals_the_validated_construction(self, case):
        rng = rng_for(81, case)
        f = random_armor(rng, rng.choice([2, 3, 5]), GenParams())
        if case % 3 == 0:
            f = reshift(f, 1)
        r = f.shift_amount
        for extra in (1, 2, 3):
            g = reshift(f, extra)
            assert (g.source, g.target, g.shift_amount) == (f.source, f.target, r + extra)
            src = shift(f.source, r + extra)
            k = min(src.top, f.rep.top)
            validated = TowerHom(src, f.target, tuple(
                GroupHom(src.level(n), f.target.level(n),
                         f.rep.level(n).matrix @ f.source.composite(n + r, extra).matrix)
                for n in range(k + 1)))
            assert g.rep.levels == validated.levels
            assert g.rep.tail is None
        v = ar_equal(f, reshift(f, 2))
        assert v.status == "yes"
        assert ar_equal(reshift(f, 2), f).status == "yes"


class TestEqual:
    def test_reshift_is_equal(self):
        t = zl_tower()
        f = ar_from_tower_hom(mult_l_endo(t))
        assert ar_equal(f, reshift(f, 1))
        assert ar_equal(reshift(f, 2), f)

    def test_identity_vs_zero_on_l_adic(self):
        t = zl_tower()
        v = ar_equal(ar_identity(t), ar_zero(t, t))
        assert v.is_no

    def test_everything_into_zero_system_collapses(self):
        n = zero_tail_tower()
        ident = ar_identity(n)
        assert ar_equal(ident, ar_zero(n, n))

    def test_truncated_unknown(self):
        g = FinAbGroup((L,), prime_support=L)
        t = constant_tower(L, g, 5)
        v = ar_equal(ar_identity(t), ar_zero(t, t), bound=3)
        assert v.is_unknown

    def test_difference_at_the_top_level_is_seen(self):
        # 1 + 2^top is the identity modulo 2^top, so the two representatives
        # agree on every level but the top one, where the source's composites
        # are onto at every extra shift
        t = zl_tower()
        top = t.top
        levels = tuple(identity_hom(t.level(n)) for n in range(top)) + (
            GroupHom(t.level(top), t.level(top), IntMatrix.from_rows([[1 + L ** top]])),)
        f, g = ar_identity(t), ar_from_tower_hom(TowerHom(t, t, levels))
        v = ar_equal(f, g)
        assert v.is_no and v.witness == ("shift", 0)


class TestZeroObject:
    def test_zero_system_is_zero_object(self):
        # isomorphic to zero in the shift-class category iff a zero system
        assert is_zero_system(zero_tail_tower())
        assert is_zero_system(zl_tower()).is_no


class TestIsomorphism:
    def test_identity(self):
        assert ar_is_isomorphism(ar_identity(zl_tower()))

    def test_projection_off_zero_system(self):
        t, n = zl_tower(), zero_tail_tower()
        _, _, _, proj, _ = sum_embeddings(t, n)
        assert ar_is_isomorphism(ar_from_tower_hom(proj))

    def test_mult_l_is_not_iso(self):
        t = zl_tower()
        v = ar_is_isomorphism(ar_from_tower_hom(mult_l_endo(t)))
        assert v.is_no
        assert v.witness[0] == "cokernel"


class TestStableImages:
    def test_l_adic_bound_zero(self):
        v = stable_image_bound(zl_tower())
        assert v and v.certificate.bound == 0

    def test_sum_with_radius_three(self):
        s = direct_sum(zl_tower(), zero_tail_tower(3))
        v = stable_image_bound(s)
        assert v and v.certificate.bound == 3

    def test_constant_identity_tower(self):
        t = to_tower(ZlModule(L, (1,)), 6)
        v = stable_image_bound(t)
        assert v and v.certificate.bound == 0

    def test_stable_tower_strips_noise(self):
        t, n = zl_tower(), zero_tail_tower(3)
        s = direct_sum(t, n)
        st, _ = stable_image_tower(s)
        assert st.levelwise_equal(t, upto=st.top)

    def test_zero_system_stabilizes_to_trivial(self):
        st, _ = stable_image_tower(zero_tail_tower())
        assert all(st.level(k).is_trivial() for k in range(st.top + 1))

    @pytest.mark.parametrize("with_tail", [True, False])
    def test_bound_is_searched_up_to_itself_and_no_further(self, with_tail):
        # Zl + (Z/2 for 3 levels): the images lose the Z/2 summand at shift 3
        s = direct_sum(zl_tower(), zero_tail_tower(3))
        f = s if with_tail else Tower(L, s.groups, s.maps)
        v = stable_image_bound(f, bound=3)
        assert v and v.certificate == MLBound(3, scope="tail" if with_tail else "prefix")
        assert stable_image_bound(f, bound=2).is_unknown

    def test_level_below_the_tail_start_is_compared(self):
        # Zl from level 1 on, under a Z/2 at level 0 that transition 1 misses:
        # the tail starts at 1 and the images at level 0 settle at shift 1
        t = zl_tower(6)
        f = Tower(L, t.groups, (zero_hom(t.level(1), t.level(0)),) + t.maps[1:],
                  tail=TailRule(1, ZL))
        assert stable_image_bound(f).certificate == MLBound(1, scope="tail")

    def test_truncated_bound_needs_one_confirming_level(self):
        # shift 3 is confirmed by comparing F_4 -> F_0 with F_3 -> F_0
        s = direct_sum(zl_tower(), zero_tail_tower(3))
        assert stable_image_bound(Tower(L, s.groups[:5], s.maps[:4]), bound=8).certificate == \
            MLBound(3, scope="prefix")
        assert stable_image_bound(Tower(L, s.groups[:4], s.maps[:3]), bound=8).is_unknown

    def test_s_independence(self):
        s = direct_sum(zl_tower(), zero_tail_tower(2))
        sb = stable_image_bound(s)
        t1, _ = stable_image_tower(s, s=sb.certificate.bound)
        t2, _ = stable_image_tower(s, s=sb.certificate.bound + 1)
        assert t1.levelwise_equal(t2, upto=min(t1.top, t2.top))


class TestCanonical:
    def test_already_l_adic_returns_same(self):
        t = zl_tower()
        c = canonical_l_adic(t)
        assert c.tower is t and c.shift == 0

    def test_strips_zero_summand(self):
        s = direct_sum(zl_tower(), zero_tail_tower(3))
        c = canonical_l_adic(s)
        assert c.tower.levelwise_equal(zl_tower(), upto=c.tower.top)
        assert is_l_adic(c.tower)
        assert ar_is_isomorphism(c.iso)
        assert ar_equal(ar_compose(c.inverse, c.iso), ar_identity(s))
        assert ar_equal(ar_compose(c.iso, c.inverse), ar_identity(c.tower))

    def test_shift_renormalizes(self):
        c = canonical_l_adic(shift(zl_tower(), 2))
        assert c.tower.levelwise_equal(zl_tower(), upto=c.tower.top)

    def test_idempotent(self):
        s = direct_sum(zl_tower(), zero_tail_tower(2))
        c = canonical_l_adic(s)
        c2 = canonical_l_adic(c.tower)
        assert c2.tower is c.tower and c2.shift == 0

    def test_not_ar_l_adic_raises(self):
        # images never stabilize: transitions multiply by l
        t = zl_tower(8)
        bad = tuple(
            GroupHom(t.level(n), t.level(n - 1), IntMatrix.from_rows([[L]]))
            for n in range(1, 8)
        )
        b = Tower(L, tuple(t.level(n) for n in range(8)), bad)
        with pytest.raises(NotARladic):
            canonical_l_adic(b)


class TestFactorization:
    def test_l_adic_radius_zero(self):
        assert factorization_radius(zl_tower()).certificate == 0

    def test_shift_by_one(self):
        r = factorization_radius(shift(zl_tower(), 1)).certificate
        assert r == 1  # the lemma guarantees r <= 2, the search finds the minimum

    def test_sum_with_zero_system(self):
        s = direct_sum(zl_tower(), zero_tail_tower(3))
        r = factorization_radius(s).certificate
        assert 0 <= r <= 6

    def test_requires_ar_l_adic(self):
        t = zl_tower(8)
        bad = tuple(
            GroupHom(t.level(n), t.level(n - 1), IntMatrix.from_rows([[L]]))
            for n in range(1, 8)
        )
        b = Tower(L, tuple(t.level(n) for n in range(8)), bad)
        with pytest.raises(NotARladic):
            factorization_radius(b)


class TestCertify:
    def test_l_adic_trivial_witness(self):
        w = certify_ar_l_adic(zl_tower())
        assert w and w.certificate.iso.shift_amount == 0

    def test_sum_witness(self):
        s = direct_sum(zl_tower(), zero_tail_tower(3))
        w = certify_ar_l_adic(s)
        assert w
        assert w.certificate.iso.rep.source.levelwise_equal(shift(s, w.certificate.iso.shift_amount))
        assert is_l_adic(w.certificate.tower)

    def test_truncation_shift_witness(self):
        # level 0 is Z/2, where Z/2 + Z/2 would be l-adic: the normalization
        # truncates one level (r = 1) with no stabilization shift (s = 0)
        groups = (FinAbGroup((2,), prime_support=L),) + tuple(
            FinAbGroup((2, 2 ** (n + 1)), prime_support=L) for n in range(1, 6))
        maps = (GroupHom(groups[1], groups[0], IntMatrix.from_rows([[1, 0]])),) + tuple(
            GroupHom(groups[n], groups[n - 1], IntMatrix.identity(2)) for n in range(2, 6))
        f = Tower(L, groups, maps, TailRule(1, ZlModule(L, (1,), 1)))
        w = certify_ar_l_adic(f)
        c = w.certificate
        assert w and (c.shift, c.ml_bound, c.iso.shift_amount) == (1, 0, 1)
        assert c.kernel_cert.radius == 1
        assert ar_is_isomorphism(c.iso) and ar_is_isomorphism(c.inverse)
        assert c.iso.rep.source.levelwise_equal(shift(f, 1))

    def test_non_stabilizing_images_refused(self):
        # exponent floor keeps every image chain strictly shrinking in-prefix
        groups = tuple(FinAbGroup((L ** (n + 6),), prime_support=L) for n in range(8))
        maps = tuple(
            GroupHom(groups[n], groups[n - 1], IntMatrix.from_rows([[L]]))
            for n in range(1, 8)
        )
        b = Tower(L, groups, maps)
        v = certify_ar_l_adic(b)
        assert v.is_no
        assert v.witness[0] == "non-stabilizing-images"

    def test_images_settling_at_the_last_shift_are_no_evidence(self):
        # level m is Z/2^{3-m} for m <= 2 under multiplication by 2, so the
        # images at level m shrink at every shift but the last one the prefix
        # reaches: no level shows images still shrinking at the edge
        groups = tuple(FinAbGroup((L ** e,), prime_support=L) for e in (3, 2, 1, 1, 1))
        maps = tuple(GroupHom(groups[n], groups[n - 1], IntMatrix.from_rows([[L]]))
                     for n in range(1, 5))
        v = certify_ar_l_adic(Tower(L, groups, maps), bound=1)
        assert v.is_unknown

    def test_twisted_transitions_also_refused(self):
        # same obstruction with the image chains hitting zero at low levels:
        # the deeper represented levels still shrink at every computable shift
        t = zl_tower(8)
        bad = tuple(
            GroupHom(t.level(n), t.level(n - 1), IntMatrix.from_rows([[L]]))
            for n in range(1, 8)
        )
        b = Tower(L, tuple(t.level(n) for n in range(8)), bad)
        v = certify_ar_l_adic(b)
        assert v.is_no
        assert v.witness[0] == "non-stabilizing-images"

    def test_zero_transition_tower_is_ar_l_adic(self):
        # all-zero transitions make a zero system, which is isomorphic to the
        # trivial l-adic tower in the shift-class category
        g = FinAbGroup((L,), prime_support=L)
        groups = [g if n % 2 == 0 else FinAbGroup((L * L,), prime_support=L) for n in range(6)]
        maps = [zero_hom(groups[n], groups[n - 1]) for n in range(1, 6)]
        t = Tower(L, tuple(groups), tuple(maps))
        w = certify_ar_l_adic(t)
        assert w
        assert all(w.certificate.tower.level(n).is_trivial()
                   for n in range(w.certificate.tower.top + 1))


class TestKernelBound:
    def test_trivial_kernel_case(self):
        g = zl_tower()
        n = to_tower(ZlModule(L, ()), 8)
        f, incl, proj = random_extension(rng_for(0, 0), n, g)
        assert kernel_bound_check(n, f, g, incl, proj, 0, 0, 0)
        assert kernel_bound_check(n, f, g, incl, proj, 0, 2, 1)

    def test_generic_instances(self):
        params = GenParams(levels=8, max_rank=0)
        for case in range(10):
            rng = rng_for(77, case)
            g = to_tower(ZlModule(2, (1, 2)), 8)
            n = zero_tail_tower(3)
            f, incl, proj = random_extension(rng, n, g)
            r = is_zero_system(n).certificate.radius
            for m in range(3):
                for k in range(3):
                    assert kernel_bound_check(n, f, g, incl, proj, r, m, k)

    def test_precondition_violation(self):
        g = zl_tower()
        n = zero_tail_tower(3)
        f, incl, proj = random_extension(rng_for(0, 1), n, g)
        with pytest.raises(PreconditionViolated):
            kernel_bound_check(n, f, g, incl, proj, 0, 0, 0)  # radius 0 is wrong

    def test_radius_checked_on_every_level_it_uses(self):
        # N_0 is trivial, so the claimed radius 0 holds at level 0, but N_1 is
        # Z/2: a check whose levels reach 1 rests on a false premise
        groups = [trivial_group(L), FinAbGroup((L,), prime_support=L)] + [trivial_group(L)] * 6
        maps = tuple(zero_hom(groups[k], groups[k - 1]) for k in range(1, 8))
        n = Tower(L, tuple(groups), maps, tail=TailRule(2))
        g = zl_tower()
        f, incl, proj = random_extension(rng_for(0, 2), n, g)
        assert kernel_bound_check(n, f, g, incl, proj, 0, 0, 0)
        for m, k in ((1, 0), (0, 1)):
            with pytest.raises(PreconditionViolated, match="radius 0 fails at level 1"):
                kernel_bound_check(n, f, g, incl, proj, 0, m, k)
        # radius 2 holds everywhere: N_{k+2} -> N_k is zero for every k
        assert kernel_bound_check(n, f, g, incl, proj, 2, 1, 1)
