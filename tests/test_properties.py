"""Property tests for the structural invariants of the calculus."""

import pytest
from hypothesis import given, settings, strategies as st

from arl.arcat import (
    ar_compose,
    ar_equal,
    ar_identity,
    ar_is_isomorphism,
    canonical_l_adic,
    certify_ar_l_adic,
    stable_image_bound,
    stable_image_tower,
)
from arl.gen import (
    GenParams,
    module_hom_tower_map,
    random_ar_l_adic,
    random_armor,
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
    corestrict,
    hom_is_isomorphism,
    hom_kernel,
    hom_on_quotients,
    identity_hom,
    image_lattice,
    induced_on_quotient,
    is_surjective,
    hom_cokernel,
    kills_multiples,
    lies_in_image,
    quotient_with_maps,
    subgroup_from_lattice,
    vanishes_on_kernel,
)
from arl.hypernat import HyperNat
from arl.intmat import IntMatrix
from arl.limits import limit, to_tower
from arl.towers import (
    HomRule,
    LAdicCert,
    TailRule,
    Tower,
    TowerHom,
    classify_tail,
    direct_sum,
    is_l_adic,
    is_zero_system,
    cokernel_is_zero_system,
    kernel_is_zero_system,
    ladic_truncation,
    natural_map,
    shift,
    zero_tower_hom,
)
from arl.upsilon import ar_canonical_rep, psi, upsilon
from arl.zlmod import ZlModule

from reference_towers import levelwise_cokernel, levelwise_kernel


H = HyperNat.symbol("h")
PARAMS = GenParams()


zl_modules = st.builds(
    lambda exps, rho, l: ZlModule(l, tuple(sorted(exps)), rho),
    st.lists(st.integers(1, 4), max_size=3),
    st.integers(0, 2),
    st.sampled_from([2, 3, 5]),
)


class TestTowerInvariants:
    def test_shift_additivity(self):
        for case in range(10):
            rng = rng_for(21, case)
            l = random_prime(rng, PARAMS)
            f = random_ar_l_adic(rng, l, PARAMS)
            a, b = rng.randint(0, 2), rng.randint(0, 2)
            lhs = shift(shift(f, a), b)
            rhs = shift(f, a + b)
            assert lhs.levelwise_equal(rhs, upto=min(lhs.top, rhs.top))

    def test_natural_map_composition_coherence(self):
        for case in range(10):
            rng = rng_for(22, case)
            l = random_prime(rng, PARAMS)
            f = random_l_adic(rng, l, PARAMS)
            a, b = rng.randint(0, 2), rng.randint(1, 2)
            big = natural_map(f, a + b)
            small = natural_map(f, a)
            shifted = natural_map(shift(f, a), b)
            for n in range(min(big.top, small.top, shifted.top) + 1):
                assert big.level(n) == small.level(n).compose(shifted.level(n))

    def test_zero_certificate_means_zero_natural_map(self):
        for case in range(10):
            rng = rng_for(23, case)
            l = random_prime(rng, PARAMS)
            n_tower = random_zero_system(rng, l, PARAMS, certified_only=False)
            v = is_zero_system(n_tower)
            assert v
            nm = natural_map(n_tower, v.certificate.radius)
            assert all(nm.level(k).is_zero() for k in range(nm.top + 1))

    def test_l_adic_orders_grow(self):
        for case in range(10):
            rng = rng_for(24, case)
            l = random_prime(rng, PARAMS)
            t = random_l_adic(rng, l, PARAMS)
            for n in range(t.top):
                assert t.level(n + 1).order() >= t.level(n).order()

    def test_kernel_image_cokernel_chains_exact(self):
        from arl.gen import module_hom_tower_map, random_module_hom
        from arl.groups import is_exact_at
        for case in range(8):
            rng = rng_for(27, case)
            l = random_prime(rng, PARAMS)
            src = random_zl_module(rng, l, PARAMS)
            tgt = random_zl_module(rng, l, PARAMS)
            mat = random_module_hom(rng, src, tgt)
            f = module_hom_tower_map(mat, src, tgt, PARAMS.levels)
            _, incl = levelwise_kernel(f)
            _, proj = levelwise_cokernel(f)
            for n in range(f.top + 1):
                assert is_exact_at(incl.levels[n], f.levels[n])
                assert is_exact_at(f.levels[n], proj.levels[n])

    def test_epi_onto_zero_system_forces_trivial(self):
        for case in range(10):
            rng = rng_for(25, case)
            l = random_prime(rng, PARAMS)
            ladic = random_l_adic(rng, l, PARAMS)
            noise = random_zero_system(rng, l, PARAMS)
            # f_n.u^L = u^N.f_{n+r} = 0 for a levelwise epi f and the zero
            # radius r of N, and u^L is onto, so f_n = 0 and N_n is trivial
            assert is_l_adic(ladic)
            r = is_zero_system(noise).certificate.radius
            for n in range(min(ladic.top, noise.top) - r + 1):
                assert is_surjective(ladic.composite(n, r))
                assert noise.composite(n, r).is_zero()

    def test_random_homs_never_levelwise_epi_onto_nontrivial_zero_system(self):
        for case in range(10):
            rng = rng_for(26, case)
            l = random_prime(rng, PARAMS)
            ladic = random_l_adic(rng, l, PARAMS)
            noise = random_zero_system(rng, l, PARAMS)
            nontrivial = [n for n in range(noise.top + 1) if not noise.level(n).is_trivial()]
            if not nontrivial:
                continue
            from arl.groups import is_surjective
            # build a candidate hom levelwise; surjectivity must fail somewhere
            levels = []
            feasible = True
            for n in range(min(ladic.top, noise.top) + 1):
                h = random_hom(rng, ladic.level(n), noise.level(n))
                levels.append(h)
            try:
                hom = TowerHom(ladic, noise, tuple(levels))
            except ValueError:
                continue  # squares failed to commute; not a morphism at all
            assert not all(is_surjective(hom.levels[n]) for n in nontrivial)


class TestARInvariants:
    def test_compose_associative_and_unital(self):
        for case in range(8):
            rng = rng_for(31, case)
            l = random_prime(rng, PARAMS)
            f = random_armor(rng, l, PARAMS)
            assert ar_equal(ar_compose(f, ar_identity(f.source)), f)
            assert ar_equal(ar_compose(ar_identity(f.target), f), f)

    def test_compose_associative_triple(self):
        from arl.arcat import ar_from_tower_hom
        from arl.gen import module_hom_tower_map, random_module_hom
        for case in range(8):
            rng = rng_for(35, case)
            l = random_prime(rng, PARAMS)
            mods = [random_zl_module(rng, l, PARAMS) for _ in range(4)]
            arrows = []
            for src, tgt in zip(mods, mods[1:]):
                mat = random_module_hom(rng, src, tgt)
                arrows.append(ar_from_tower_hom(
                    module_hom_tower_map(mat, src, tgt, PARAMS.levels)))
            f, g, h = arrows
            left = ar_compose(h, ar_compose(g, f))
            right = ar_compose(ar_compose(h, g), f)
            assert ar_equal(left, right)

    def test_l_adic_morphisms_have_unique_shift0_rep(self):
        from arl.arcat import reshift
        for case in range(8):
            rng = rng_for(32, case)
            l = random_prime(rng, PARAMS)
            src = random_zl_module(rng, l, PARAMS)
            tgt = random_zl_module(rng, l, PARAMS)
            from arl.gen import random_module_hom, module_hom_tower_map
            mat = random_module_hom(rng, src, tgt)
            base = module_hom_tower_map(mat, src, tgt, PARAMS.levels)
            from arl.arcat import ar_from_tower_hom
            f = ar_from_tower_hom(base)
            g = reshift(f, rng.randint(1, 2))
            rep = ar_canonical_rep(g)
            for n in range(rep.top + 1):
                assert rep.level(n) == base.level(n)
            # equality at shift bound 0 coincides with levelwise equality
            assert ar_equal(f, g)

    def test_canonical_iso_always_isomorphism(self):
        for case in range(8):
            rng = rng_for(33, case)
            l = random_prime(rng, PARAMS)
            f = random_ar_l_adic(rng, l, PARAMS)
            c = canonical_l_adic(f)
            assert ar_is_isomorphism(c.iso)
            assert is_l_adic(c.tower)

    def test_ar_l_adic_certificate_certifies(self):
        # the certificate is the normalization record; re-check what it
        # claims from its fields, not from how it was built
        for seed in (35, 36):
            for l in PARAMS.primes:
                for case in range(4):
                    f = random_ar_l_adic(rng_for(seed, case), l, PARAMS)
                    c = certify_ar_l_adic(f).certificate
                    epi = c.iso.rep
                    assert c.iso.shift_amount == c.shift + c.ml_bound
                    assert epi.source.levelwise_equal(shift(f, c.iso.shift_amount))
                    assert all(is_surjective(epi.level(n)) for n in range(epi.top + 1))
                    assert is_l_adic(c.tower)
                    zk = is_zero_system(levelwise_kernel(epi)[0])
                    assert zk and zk.certificate.radius == c.kernel_cert.radius

    def test_canonical_idempotent(self):
        for case in range(8):
            rng = rng_for(34, case)
            l = random_prime(rng, PARAMS)
            f = random_ar_l_adic(rng, l, PARAMS)
            c = canonical_l_adic(f)
            c2 = canonical_l_adic(c.tower)
            assert c2.tower is c.tower
            assert c2.shift == 0
            assert all(c2.iso.rep.level(n).matrix.is_identity()
                       for n in range(c2.iso.rep.top + 1))


class TestUpsilonInvariants:
    def test_additivity(self):
        for case in range(8):
            rng = rng_for(41, case)
            l = random_prime(rng, PARAMS)
            f = random_ar_l_adic(rng, l, PARAMS)
            g = random_ar_l_adic(rng, l, PARAMS)
            u_sum = upsilon(direct_sum(f, g), H)
            u_f = upsilon(f, H)
            u_g = upsilon(g, H)
            combined = direct_sum(psi(u_f), psi(u_g))
            k = min(psi(u_sum).top, combined.top)
            for n in range(k + 1):
                assert psi(u_sum).level(n).invariant_factors == \
                    combined.level(n).invariant_factors

    def test_psi_upsilon_identity_on_l_adic(self):
        for case in range(8):
            rng = rng_for(42, case)
            l = random_prime(rng, PARAMS)
            t = random_l_adic(rng, l, PARAMS)
            p = psi(upsilon(t, H))
            assert p.levelwise_equal(t) and p.top == t.top


class TestLimitInvariants:
    @settings(max_examples=60, deadline=None)
    @given(zl_modules)
    def test_limit_to_tower_roundtrip(self, m):
        assert limit(to_tower(m, 8)) == m

    def test_to_tower_limit_roundtrip_levelwise(self):
        for case in range(10):
            rng = rng_for(51, case)
            l = random_prime(rng, PARAMS)
            t = random_l_adic(rng, l, PARAMS)
            back = to_tower(limit(t), t.top + 1)
            for n in range(t.top + 1):
                assert back.level(n).invariant_factors == t.level(n).invariant_factors

    def test_rank_matches_growth_pattern(self):
        for case in range(10):
            rng = rng_for(52, case)
            l = random_prime(rng, PARAMS)
            m = random_zl_module(rng, l, GenParams(max_exponent=3, max_rank=3))
            t = to_tower(m, 8)
            top = t.top
            growth = t.level(top).order() // t.level(top - 1).order()
            assert growth == l ** m.free_rank

    def test_tensor_equals_limit_of_canonical(self):
        from arl.limits import tensor_zl
        for case in range(8):
            rng = rng_for(53, case)
            l = random_prime(rng, PARAMS)
            f = random_ar_l_adic(rng, l, PARAMS)
            assert tensor_zl(upsilon(f, H)) == limit(canonical_l_adic(f).tower)


def _reference_is_l_adic(f):
    """is_l_adic read on every level up to top + 1 (top for a truncated tower)."""
    tail = classify_tail(f)
    hi = f.top if tail is None else f.top + 1
    for n in range(hi + 1):
        if not kills_multiples(identity_hom(f.level(n)), f.l ** (n + 1)):
            return "no", ("annihilator", n), None
    for n in range(hi):
        if not hom_is_isomorphism(induced_on_quotient(f.transition(n + 1), f.l ** (n + 1))):
            return "no", ("induced-map", n), None
    return "yes", None, LAdicCert(scope="prefix" if tail is None else "tail")


def _sample_tower(seed, case, kind, r):
    rng = rng_for(seed, case)
    l = random_prime(rng, PARAMS)
    if kind == "ar":
        f = random_ar_l_adic(rng, l, PARAMS)
    elif kind == "zero":
        f = random_zero_system(rng, l, PARAMS, certified_only=False)
    else:
        f = to_tower(random_zl_module(rng, l, PARAMS), PARAMS.levels)
    return shift(f, r), rng


sampled_towers = st.builds(_sample_tower, st.integers(0, 10 ** 6), st.integers(0, 99),
                           st.sampled_from(["ar", "zero", "module"]), st.integers(0, 2))


class TestClosedFormTails:
    """From a verified tail start on, the normalization takes levels in closed
    form; each shortcut must agree with the levelwise computation."""

    @settings(max_examples=40, deadline=None)
    @given(sampled_towers)
    def test_is_l_adic_matches_every_level(self, sample):
        f, _ = sample
        v = is_l_adic(f)
        assert (v.status, v.witness, v.certificate) == _reference_is_l_adic(f)

    @settings(max_examples=40, deadline=None)
    @given(sampled_towers, st.integers(0, 4))
    def test_stable_image_bound_matches_every_level(self, sample, bound):
        f, _ = sample
        tail = classify_tail(f)
        if tail is None:
            return
        # the least s whose images equal im(F_max(m, start) -> F_m) at every level
        targets = [image_lattice(f.composite(m, max(0, tail.start - m))) for m in range(f.top + 1)]
        found = [s for s in range(bound + 1)
                 if all(image_lattice(f.composite(m, s)) == targets[m] for m in range(f.top + 1))]
        v = stable_image_bound(f, bound)
        assert (v.certificate.bound if v else None) == (found[0] if found else None)

    @settings(max_examples=30, deadline=None)
    @given(sampled_towers, st.integers(0, 1))
    def test_stable_image_tower_matches_every_level(self, sample, extra):
        f, _ = sample
        sb = stable_image_bound(f, 6)
        if not sb:
            return
        s = sb.certificate.bound + extra
        if not f.can_extend() and s > f.top:
            return
        stable, incl = stable_image_tower(f, s)
        for m in range(stable.top + 1):
            sub, sub_incl = subgroup_from_lattice(
                f.level(m), f.composite(m, s).matrix,
                transport_labels=f.level(m).operator_labels())
            assert stable.level(m) == sub and incl.levels[m] == sub_incl

    @settings(max_examples=40, deadline=None)
    @given(sampled_towers)
    def test_ladic_truncation_matches_every_level(self, sample):
        f, _ = sample
        g = ladic_truncation(f)
        for n in range(g.top + 1):
            assert g.level(n) == quotient_with_maps(f.level(n), f.l ** (n + 1))[0]
        for n in range(1, g.top + 1):
            assert g.transition(n) == hom_on_quotients(f.transition(n), f.l ** (n + 1), f.l ** n)

    @settings(max_examples=40, deadline=None)
    @given(sampled_towers)
    def test_corestriction_along_an_identity(self, sample):
        f, rng = sample
        a, b = f.level(rng.randint(0, f.top)), f.level(rng.randint(0, f.top))
        h = random_hom(rng, a, b)
        assert corestrict(identity_hom(b), h) == h


def _truncation_shift_tower():
    """The tower of ``test_arcat.TestCertify.test_truncation_shift_witness``:
    Z/2, then Z/2 + Z/2^{n+1}, normalized with truncation shift r = 1."""
    groups = (FinAbGroup((2,), prime_support=2),) + tuple(
        FinAbGroup((2, 2 ** (n + 1)), prime_support=2) for n in range(1, 6))
    maps = (GroupHom(groups[1], groups[0], IntMatrix.from_rows([[1, 0]])),) + tuple(
        GroupHom(groups[n], groups[n - 1], IntMatrix.identity(2)) for n in range(2, 6))
    return Tower(2, groups, maps, TailRule(1, ZlModule(2, (1,), 1)))


def _kernel_sample_homs():
    """Tower homs whose levelwise kernels are zero systems with a tail or a
    prefix radius, unknown within small bounds, or not zero systems at all."""
    homs = [random_armor(rng, random_prime(rng, PARAMS), PARAMS).rep
            for rng in (rng_for(71, case) for case in range(16))]
    for l in PARAMS.primes:
        for case in range(6):
            c = canonical_l_adic(random_ar_l_adic(rng_for(72, case), l, PARAMS))
            homs += [c.iso.rep, c.inverse.rep]
    c = canonical_l_adic(_truncation_shift_tower())
    assert c.shift == 1
    homs += [c.iso.rep, c.inverse.rep]
    for case in range(8):
        rng = rng_for(73, case)
        l = random_prime(rng, PARAMS)
        src, tgt = random_zl_module(rng, l, PARAMS), random_zl_module(rng, l, PARAMS)
        homs.append(module_hom_tower_map(random_module_hom(rng, src, tgt), src, tgt, PARAMS.levels))
    for case in range(8):
        rng = rng_for(74, case)
        l = random_prime(rng, PARAMS)
        zero = random_zero_system(rng, l, PARAMS, certified_only=False)
        module = to_tower(random_zl_module(rng, l, PARAMS), PARAMS.levels)
        homs += [zero_tower_hom(zero, module), zero_tower_hom(module, zero),
                 zero_tower_hom(random_ar_l_adic(rng, l, PARAMS), zero)]
        # a zero rule that starts after the source's tail: the kernel's tail
        # start walks down below it
        late = zero_tower_hom(zero, module)
        homs.append(TowerHom(zero, module, late.levels, HomRule(rng.randint(1, 4))))
    return homs


def _assert_same_verdict(v, expected, reference, case):
    """v is the verdict of the reference tower's is_zero_system, except that a
    no, which only a module tail gives, may name any level of that tail: the
    certificate names the tail's start as anchored by the hom's rule, the
    reference tower's verdict its start walked down on the built levels."""
    if not (v.is_no and expected.is_no):
        assert v == expected, case
        return
    kind, level = v.witness
    assert kind == "level" and level <= reference.top, case
    assert not reference.level(level).is_trivial(), case
    assert level >= classify_tail(reference).start, case


class TestKernelCertificate:
    """kernel_is_zero_system reads the kernel's zero radius off the level
    maps' kernel lattices; it must give the verdict of the kernel tower."""

    def test_matches_the_kernel_tower(self):
        seen = set()
        for h in _kernel_sample_homs():
            kernel = levelwise_kernel(h)[0]
            for bound in (0, 1, 2, 3, None):
                v = kernel_is_zero_system(h, bound)
                _assert_same_verdict(v, is_zero_system(kernel, bound), kernel, (h, bound))
                seen.add((v.status, v.certificate.scope if v else None))
        # every branch of the search is reached
        assert seen == {("yes", "tail"), ("yes", "prefix"), ("no", None), ("unknown", None)}

    def test_vanishes_on_kernel_against_the_presented_kernel(self):
        for sample in range(40):
            f, rng = _sample_tower(75, sample, ["ar", "zero", "module"][sample % 3], sample % 2)
            n = rng.randint(0, f.top)
            a = f.level(n)
            g = random_hom(rng, a, f.level(rng.randint(0, f.top)))
            h = random_hom(rng, a, f.level(rng.randint(0, f.top)))
            _, incl = hom_kernel(h)
            assert vanishes_on_kernel(g, h) == g.compose(incl).is_zero()


def _cokernel_sample_homs():
    """The kernel sample, plus homs whose cokernels have a module tail at a
    positive target offset (left truncated), a module tail through a matrix
    rule (multiplication by l), and a zero tail through a surjective one."""
    homs = _kernel_sample_homs()
    for case in range(8):
        rng = rng_for(76, case)
        l = random_prime(rng, PARAMS)
        m = random_zl_module(rng, l, PARAMS)
        t = to_tower(m, PARAMS.levels)
        scaled = IntMatrix.diagonal([l] * m.rank)
        homs += [module_hom_tower_map(scaled, m, m, PARAMS.levels),
                 natural_map(shift(t, 1), rng.randint(1, 2)),
                 zero_tower_hom(shift(t, 1), shift(t, 2))]
    return homs


class TestCokernelCertificate:
    """cokernel_is_zero_system reads the cokernel's zero radius off the level
    maps' image lattices; it must give the verdict of the cokernel tower."""

    def test_matches_the_cokernel_tower(self):
        seen = set()
        for h in _cokernel_sample_homs():
            cokernel = levelwise_cokernel(h)[0]
            for bound in (0, 1, 2, 3, None):
                v = cokernel_is_zero_system(h, bound)
                _assert_same_verdict(v, is_zero_system(cokernel, bound), cokernel, (h, bound))
                seen.add((v.status, v.certificate.scope if v else None))
        # every branch of the search is reached
        assert seen == {("yes", "tail"), ("yes", "prefix"), ("no", None), ("unknown", None)}

    def test_lies_in_image_against_the_presented_cokernel(self):
        for sample in range(40):
            f, rng = _sample_tower(77, sample, ["ar", "zero", "module"][sample % 3], sample % 2)
            b = f.level(rng.randint(0, f.top))
            g = random_hom(rng, f.level(rng.randint(0, f.top)), b)
            h = random_hom(rng, f.level(rng.randint(0, f.top)), b)
            _, proj = hom_cokernel(h)
            assert lies_in_image(g, h) == proj.compose(g).is_zero()
            assert lies_in_image(h, h)


class TestOperatorTransport:
    def test_frobenius_rides_through_the_stack(self):
        from arl.limits import tensor_zl
        for case in range(6):
            rng = rng_for(61, case)
            l = random_prime(rng, PARAMS)
            params = GenParams(operators=True, max_exponent=3, max_rank=2)
            m = random_zl_module(rng, l, params)
            t = to_tower(m, 8)
            assert limit(t) == m
            u = upsilon(t, H)
            assert tensor_zl(u) == m

    def test_equivariant_transitions_enforced(self):
        g = FinAbGroup((4,), prime_support=2,
                       operators=(("frob", IntMatrix.from_rows([[3]])),))
        h = FinAbGroup((2,), prime_support=2,
                       operators=(("frob", IntMatrix.from_rows([[1]])),))
        GroupHom(g, h, IntMatrix.from_rows([[1]]))  # 3 = 1 mod 2: fine
        bad_target = FinAbGroup((4,), prime_support=2,
                                operators=(("frob", IntMatrix.from_rows([[1]])),))
        with pytest.raises(ValueError):
            GroupHom(g, bad_target, IntMatrix.from_rows([[1]]))
