"""Cross-checks of lattice-arithmetic results against element enumeration.

These tests recompute library answers by brute force on small instances:
kernel-bound membership by enumerating actual kernel elements, stable images
by enumerating actual image sets, and shift-class equality by exhaustive
shift search.  They exist to keep the fast paths honest.
"""

from arl.arcat import (
    ar_equal,
    canonical_l_adic,
    kernel_bound_check,
    stable_image_tower,
)
from arl.gen import (
    GenParams,
    random_ar_l_adic,
    random_extension,
    random_l_adic,
    random_prime,
    random_zero_system,
    rng_for,
)
from arl.groups import FinAbGroup, GroupHom, identity_hom, trivial_group, zero_hom
from arl.hypernat import HyperNat
from arl.intmat import IntMatrix
from arl.limits import limit, tensor_zl, to_tower
from arl.towers import TailRule, Tower, direct_sum, is_zero_system
from arl.upsilon import upsilon
from arl.zlmod import ZlModule

from oracles import group_elements, hom_apply, invariants_from_subgroup


def apply_matrix(hom, x):
    return hom_apply([list(r) for r in hom.matrix.entries],
                     hom.target.invariant_factors, x)


def test_kernel_bound_check_matches_enumeration():
    params = GenParams(levels=8, max_exponent=2, max_torsion_factors=1,
                       max_zero_radius=3, primes=(2, 3))
    cases = 0
    for case in range(12):
        rng = rng_for(81, case)
        l = random_prime(rng, params)
        g_tower = random_l_adic(rng, l, GenParams(levels=8, max_rank=0,
                                                  max_exponent=2, max_torsion_factors=1))
        n_tower = random_zero_system(rng, l, params)
        _, incl, proj = random_extension(rng, n_tower, g_tower)
        f_tower = incl.target
        r = is_zero_system(n_tower).certificate.radius
        for m in range(2):
            for n in range(2):
                if r + m + n > 5:
                    continue
                big = f_tower.composite(n, r + m)
                drop = f_tower.composite(m + n, r)
                target = f_tower.level(m + n)
                if big.source.order() > 4096:
                    continue
                power = l ** (n + 1)
                # enumerate ker(F_{r+m+n} -> F_n), push into F_{m+n}, and
                # check membership in l^{n+1}-multiples elementwise
                multiples = {
                    tuple((power * v) % d for v, d in zip(x, target.invariant_factors))
                    for x in group_elements(target.invariant_factors)
                }
                for x in group_elements(big.source.invariant_factors):
                    if any(apply_matrix(big, x)):
                        continue
                    assert apply_matrix(drop, x) in multiples, (case, m, n, x)
                    cases += 1
                # every kernel element lands in the multiples, so the check agrees
                assert kernel_bound_check(incl, proj, r, m, n), (case, m, n)
    assert cases > 50


def test_stable_image_matches_enumeration():
    params = GenParams(levels=8, max_exponent=2, max_torsion_factors=1)
    for case in range(10):
        rng = rng_for(82, case)
        l = random_prime(rng, params)
        f = random_ar_l_adic(rng, l, params)
        stable, incl = stable_image_tower(f)
        for n in range(min(stable.top, 3) + 1):
            source_level = incl.levels[n].source
            ambient = f.level(n)
            if ambient.order() > 4096:
                continue
            s = stable.top  # any shift at or past the bound gives the image
            comp = f.composite(n, min(s, f.top - n) if not f.can_extend() else s)
            image = {apply_matrix(comp, x)
                     for x in group_elements(comp.source.invariant_factors)}
            expected = invariants_from_subgroup(ambient.invariant_factors, image)
            assert sorted(source_level.invariant_factors) == expected, (case, n)


def test_ar_equal_false_matches_exhaustive_search():
    # identity vs zero on an l-adic tower: no shift can reconcile them;
    # confirm by checking every shift the prefix can express
    t = to_tower(ZlModule(2, (), 1), 8)
    from arl.arcat import ar_identity, ar_zero
    assert ar_equal(ar_identity(t), ar_zero(t, t)).is_no
    for e in range(t.top):
        nm = t.composite(0, e)
        assert not nm.is_zero()


def test_operators_flow_through_normalization():
    l = 2
    frob = ("frob", IntMatrix.from_rows([[3]]))
    core = to_tower(ZlModule(l, (), 1, operators=(frob,)), 8)

    noise_group = FinAbGroup((l,), prime_support=l,
                             operators=(("frob", IntMatrix.from_rows([[1]])),))
    groups = [noise_group] * 2 + [trivial_group(l)] * 6
    maps = [identity_hom(noise_group)] + \
        [zero_hom(groups[n], groups[n - 1]) for n in range(2, 8)]
    noise = Tower(l, tuple(groups), tuple(maps), tail=TailRule(2))

    mixed = direct_sum(core, noise)
    assert mixed.level(0).operator_labels() == ("frob",)
    c = canonical_l_adic(mixed)
    assert c.tower.level(2).operator_labels() == ("frob",)
    value = limit(c.tower)
    assert dict(value.operators)["frob"].entries == ((3,),)
    assert tensor_zl(upsilon(mixed, HyperNat.symbol("h"))) == value
