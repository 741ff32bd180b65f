import signal
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from arl.errors import CompositionMismatch, InfiniteGroup
from arl.groups import (
    PRIME_LIMIT,
    FinAbGroup,
    GroupHom,
    canonicalize,
    cyclic,
    direct_sum_with_maps,
    element_in_multiples,
    hom_cokernel,
    hom_image,
    hom_is_isomorphism,
    hom_kernel,
    identity_hom,
    is_exact_at,
    quotient_by_integer,
    quotient_with_maps,
    subgroup_from_lattice,
    trivial_group,
    zero_hom,
)
from arl.intmat import IntMatrix
from arl.zlmod import ZlModule

from oracles import (
    group_elements,
    hom_apply,
    invariants_from_subgroup,
    quotient_invariants,
)


def hom(src, tgt, rows):
    return GroupHom(src, tgt, IntMatrix.from_rows(rows, cols=src.rank))


def kernel_set(f):
    return {
        x for x in group_elements(f.source.invariant_factors)
        if all(v == 0 for v in hom_apply([list(r) for r in f.matrix.entries],
                                         f.target.invariant_factors, x))
    }


def image_set(f):
    return {
        hom_apply([list(r) for r in f.matrix.entries], f.target.invariant_factors, x)
        for x in group_elements(f.source.invariant_factors)
    }


class TestCanonicalize:
    def test_diag_already_invariant(self):
        assert canonicalize(IntMatrix.diagonal([2, 4])).invariant_factors == (2, 4)

    def test_coprime_merges(self):
        assert canonicalize(IntMatrix.from_rows([[2, 0], [0, 3]])).invariant_factors == (6,)

    def test_identity_relations_trivial(self):
        assert canonicalize(IntMatrix.identity(2)).invariant_factors == ()

    def test_free_rank_rejected(self):
        with pytest.raises(InfiniteGroup):
            canonicalize(IntMatrix.from_rows([[2, 0], [0, 0]]))

    def test_idempotent_on_own_relations(self):
        g = FinAbGroup((2, 4, 12))
        again = canonicalize(g.relation_matrix())
        assert again.invariant_factors == g.invariant_factors


class TestGroupBasics:
    def test_chain_enforced(self):
        with pytest.raises(ValueError):
            FinAbGroup((4, 2))

    def test_l_local_rejects_foreign_primes(self):
        with pytest.raises(ValueError):
            FinAbGroup((6,), prime_support=2)

    @pytest.mark.parametrize("factor", [4.5, 4.0, "4", None])
    def test_non_integral_factor_rejected(self, factor):
        with pytest.raises(ValueError, match="non-integer invariant factor"):
            FinAbGroup((factor,))


@contextmanager
def time_budget(seconds):
    """Interrupt the block with TimeoutError once it runs past seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"over its {seconds}-s budget")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestPrimeRule:
    """Both public constructors take a prime only if ``is_prime`` certifies it."""

    # 318665857834031151167461 passes Miller-Rabin on the first 12 primes;
    # 2^89 - 1 is prime but beyond PRIME_LIMIT, so it is refused, not guessed
    BAD = [1, 0, -2, 4, 6, 9, 318665857834031151167461, 2**89 - 1, PRIME_LIMIT]

    @pytest.mark.parametrize("p", BAD)
    def test_group_rejects_non_prime_by_name(self, p):
        # prime_support=1 used to loop forever in valuation(d, 1)
        with time_budget(2), pytest.raises(ValueError, match=rf"prime {p} "):
            FinAbGroup((2,), prime_support=p)
        with time_budget(2), pytest.raises(ValueError, match=rf"prime {p} "):
            FinAbGroup((), prime_support=p)

    @pytest.mark.parametrize("p", BAD)
    def test_module_rejects_non_prime_by_name(self, p):
        # ZlModule(6, (1,), 1).quotient_group(2) used to give Z/6 + Z/36
        with time_budget(2), pytest.raises(ValueError, match=rf"prime {p} "):
            ZlModule(p, (1,), 1).quotient_group(2)

    @pytest.mark.parametrize("p", [2.0, "2"])
    def test_non_integral_prime_rejected(self, p):
        with pytest.raises(ValueError, match="non-integer prime"):
            FinAbGroup((2,), prime_support=p)
        with pytest.raises(ValueError, match="non-integer prime"):
            ZlModule(p, (1,))

    def test_large_certified_prime_accepted(self):
        p = 2**61 - 1
        with time_budget(2):
            assert FinAbGroup((p, p * p), prime_support=p).order() == p ** 3
            assert ZlModule(p, (1,), 1).quotient_group(2).invariant_factors == (p, p * p)


class TestKernelImageCokernel:
    def test_multiplication_by_two_on_z4(self):
        z4 = cyclic(4)
        f = hom(z4, z4, [[2]])
        k, ki = hom_kernel(f)
        i, ii = hom_image(f)
        c, cp = hom_cokernel(f)
        # oracle: enumerate all four elements
        ks = kernel_set(f)
        assert sorted(k.invariant_factors) == invariants_from_subgroup((4,), ks) == [2]
        assert sorted(i.invariant_factors) == invariants_from_subgroup((4,), image_set(f)) == [2]
        assert sorted(c.invariant_factors) == quotient_invariants((4,), image_set(f)) == [2]
        # inclusion maps land correctly
        assert all(hom_apply(ki.matrix.entries, ki.target.invariant_factors, (x,)) in ks
                   for x in range(2))

    def test_identity_on_z6(self):
        f = identity_hom(cyclic(6))
        assert hom_kernel(f)[0].is_trivial()
        assert hom_image(f)[0].invariant_factors == (6,)
        assert hom_cokernel(f)[0].is_trivial()

    def test_zero_map_z3_to_z5(self):
        f = zero_hom(cyclic(3), cyclic(5))
        assert hom_kernel(f)[0].invariant_factors == (3,)
        assert hom_image(f)[0].is_trivial()
        assert hom_cokernel(f)[0].invariant_factors == (5,)

    def test_order_formula_random(self):
        import random
        rng = random.Random(11)
        for _ in range(40):
            factors = tuple(sorted(
                rng.choice([2, 4, 8, 3, 9]) for _ in range(rng.randint(1, 2))
            ))
            try:
                src = FinAbGroup(canonicalize(IntMatrix.diagonal(list(factors))).invariant_factors)
            except InfiniteGroup:
                continue
            tgt = FinAbGroup((rng.choice([2, 4, 6, 12]),))
            rows = []
            for i, di in enumerate(tgt.invariant_factors):
                row = []
                for dj in src.invariant_factors:
                    import math
                    base = di // math.gcd(di, dj)
                    row.append(base * rng.randrange(0, di // base))
                rows.append(row)
            f = hom(src, tgt, rows)
            k, _ = hom_kernel(f)
            i, _ = hom_image(f)
            assert k.order() * i.order() == src.order()
            # cokernel of the kernel inclusion recovers the image
            _, incl = hom_kernel(f)
            coim, _ = hom_cokernel(incl)
            assert coim.invariant_factors == i.invariant_factors


class TestQuotients:
    def test_z8_mod_4(self):
        assert quotient_by_integer(cyclic(8), 4).invariant_factors == (4,)
        assert quotient_invariants((8,), {(0,), (4,)}) == [4]

    def test_mod_one_is_trivial(self):
        assert quotient_by_integer(FinAbGroup((3, 9)), 1).is_trivial()

    def test_mixed_mod_three(self):
        g = FinAbGroup((3, 9))
        q = quotient_by_integer(g, 3)
        assert q.invariant_factors == (3, 3)
        image = {hom_apply([[3, 0], [0, 3]], (3, 9), x) for x in group_elements((3, 9))}
        assert quotient_invariants((3, 9), image) == [3, 3]

    def test_projection_is_canonical_on_generators(self):
        g = FinAbGroup((2, 8), prime_support=2)
        q, proj, lift = quotient_with_maps(g, 4)
        assert q.invariant_factors == (2, 4)
        assert proj.matrix.is_identity()


class TestExactness:
    def test_short_exact_z2_z4_z2(self):
        z2, z4 = cyclic(2), cyclic(4)
        incl = hom(z2, z4, [[2]])
        proj = hom(z4, z2, [[1]])
        assert is_exact_at(incl, proj)
        assert image_set(incl) == kernel_set(proj)

    def test_identity_pair_not_exact(self):
        f = identity_hom(cyclic(2))
        assert not is_exact_at(f, f)

    def test_zero_pair_not_exact(self):
        z = zero_hom(cyclic(4), cyclic(4))
        assert not is_exact_at(z, z)

    def test_endpoint_mismatch(self):
        with pytest.raises(CompositionMismatch):
            is_exact_at(identity_hom(cyclic(2)), identity_hom(cyclic(3)))


class TestOperators:
    def test_operator_well_defined_required(self):
        with pytest.raises(ValueError):
            FinAbGroup((2, 4), operators=(("frob", IntMatrix.from_rows([[0, 0], [1, 0]])),))

    def test_hom_must_commute_with_shared_operators(self):
        g = FinAbGroup((4,), operators=(("frob", IntMatrix.from_rows([[3]])),))
        h = FinAbGroup((4,), operators=(("frob", IntMatrix.from_rows([[1]])),))
        with pytest.raises(ValueError):
            GroupHom(g, h, IntMatrix.from_rows([[1]]))
        GroupHom(g, h, IntMatrix.from_rows([[2]]))  # 2*3 = 2*1 mod 4

    def test_kernel_inherits_operator(self):
        g = FinAbGroup((8,), operators=(("frob", IntMatrix.from_rows([[3]])),))
        f = GroupHom(g, g, IntMatrix.from_rows([[4]]))
        k, incl = hom_kernel(f)
        assert k.operator_labels() == ("frob",)
        # operator of the kernel commutes with the inclusion
        left = incl.matrix @ k.operator("frob")
        right = g.operator("frob") @ incl.matrix
        assert all(
            (left.entries[i][j] - right.entries[i][j]) % 8 == 0
            for i in range(left.rows) for j in range(left.cols)
        )


class TestDirectSum:
    def test_l_local_merge(self):
        g = FinAbGroup((2,), prime_support=2)
        h = FinAbGroup((4, 8), prime_support=2)
        s, ig, ih, pg, ph = direct_sum_with_maps(g, h)
        assert s.invariant_factors == (2, 4, 8)
        assert pg.compose(ig).matrix.is_identity()
        assert ph.compose(ih).matrix.is_identity()
        assert pg.compose(ih).is_zero()

    def test_crt_merge(self):
        s, *_ = direct_sum_with_maps(cyclic(2), cyclic(3))
        assert s.invariant_factors == (6,)

    def test_sum_with_trivial(self):
        g = FinAbGroup((2, 4), prime_support=2)
        s, ig, _, pg, _ = direct_sum_with_maps(g, trivial_group(2))
        assert s.invariant_factors == g.invariant_factors
        assert ig.matrix.is_identity()


class TestSubgroupMachinery:
    def test_full_subgroup_fast_path(self):
        g = FinAbGroup((2, 4), prime_support=2)
        sub, incl = subgroup_from_lattice(g, IntMatrix.identity(2))
        assert sub is g
        assert incl.matrix.is_identity()

    def test_canonical_across_generating_sets(self):
        g = cyclic(8)
        s1, i1 = subgroup_from_lattice(g, IntMatrix.from_rows([[2]]))
        s2, i2 = subgroup_from_lattice(g, IntMatrix.from_rows([[6, 2, 4]]))
        assert s1 == s2
        assert i1.matrix == i2.matrix

    def test_element_in_multiples(self):
        g = FinAbGroup((8,))
        assert element_in_multiples(g, (4,), 4)
        assert element_in_multiples(g, (2,), 2)
        assert not element_in_multiples(g, (2,), 4)


small_groups = st.lists(st.sampled_from([2, 4, 8, 3, 9]), min_size=0, max_size=2).map(
    lambda xs: canonicalize(IntMatrix.diagonal(sorted(xs))) if xs else trivial_group()
)


@settings(max_examples=60, deadline=None)
@given(small_groups, st.integers(1, 12))
def test_quotient_matches_oracle(g, n):
    q = quotient_by_integer(g, n)
    image = {
        hom_apply([[n if i == j else 0 for j in range(g.rank)] for i in range(g.rank)],
                  g.invariant_factors, x)
        for x in group_elements(g.invariant_factors)
    }
    assert sorted(q.invariant_factors) == quotient_invariants(g.invariant_factors, image)


def test_iso_detection():
    g = FinAbGroup((2, 4))
    assert hom_is_isomorphism(identity_hom(g))
    assert not hom_is_isomorphism(hom(g, g, [[1, 0], [0, 2]]))
    swap = hom(FinAbGroup((4, 4)), FinAbGroup((4, 4)), [[0, 1], [1, 0]])
    assert hom_is_isomorphism(swap)
