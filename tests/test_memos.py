"""The process-wide memos are transparent: results are the same whether a
value comes out of a memo or is built afresh."""

import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from arl import groups, intmat, limits, zlmod
from arl.errors import PrimeMismatch
from arl.gen import random_hom
from arl.groups import (
    FinAbGroup,
    GroupHom,
    cyclic,
    direct_sum_hom,
    direct_sum_with_maps,
    identity_hom,
)
from arl.intmat import IntMatrix
from arl.limits import limit, to_tower
from arl.suites import SuiteReport, default_params, run_case, run_suite
from arl.towers import Tower, classify_tail, is_l_adic
from arl.zlmod import ZlModule


MEMOS = (
    groups.direct_sum_with_maps,
    groups.direct_sum_hom,
    zlmod._quotient_group,
    zlmod._quotient_projection,
    limits.to_tower,
    limits._torsion_window_tower,
)


# per-size constants: immutable values shared across the whole run
CONSTANTS = (intmat._identity,)


def clear_memos():
    for memo in MEMOS + CONSTANTS + (intmat._snf_cached,):
        memo.cache_clear()


# the comparison suite builds no torsion window, every other memo gets hits
@pytest.mark.parametrize("suite, cases, unused", [
    pytest.param("torsionfree", 300, (), id="torsionfree-300"),
    pytest.param("comparison", 10, (limits._torsion_window_tower,), id="comparison-10"),
])
def test_reports_equal_with_memos_cleared_before_each_case(suite, cases, unused):
    clear_memos()
    warm = run_suite(suite, 0, cases)
    assert warm.all_pass()
    assert all(memo.cache_info().hits > 0 for memo in MEMOS + CONSTANTS if memo not in unused)
    assert all(memo.cache_info().currsize == 0 for memo in unused)
    params = default_params(suite)
    cold = []
    for index in range(cases):
        clear_memos()
        cold.append(run_case(suite, 0, index, params))
    assert SuiteReport(suite, 0, cases, tuple(cold)).body_lines() == warm.body_lines()


def _levelwise(tower):
    """A tower's data as a value: towers compare by identity."""
    return tower.l, tower.groups, tower.maps, tower.tail


def _memo_work(modules):
    out = []
    for m in modules:
        for p in range(2, 5):
            u = m.quotient_projection(p, p - 1)
            out.append((m.quotient_group(p), u, direct_sum_hom(u, u),
                        direct_sum_with_maps(u.source, u.target),
                        _levelwise(to_tower(m, p)),
                        _levelwise(limits._torsion_window_tower(m, m.l, p))))
    return out


def test_memos_agree_under_concurrent_callers():
    # more keys than a memo holds, so that threads evict each other's entries;
    # each shape comes with and without an operator
    shapes = [zlmod.ZlModule(l, tuple(range(1, k + 1)), rho)
              for l in (2, 3) for k in range(4) for rho in range(3)]
    modules = [m.with_operators([("c", IntMatrix.diagonal([c] * m.rank))]) if c else m
               for m in shapes for c in (0, 2)]
    clear_memos()
    expected = _memo_work(modules)
    clear_memos()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(_memo_work, modules[i:] + modules[:i]) for i in range(8)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for i, got in enumerate(results):
        shift = 3 * i
        assert got == expected[shift:] + expected[:shift]
    assert all(0 < memo.cache_info().currsize <= memo.cache_info().maxsize for memo in MEMOS)


MODULES = [ZlModule(2, (), 1), ZlModule(3, (1, 2)), ZlModule(2, (1, 3), 2),
           ZlModule(5, (2,), 1, operators=(("frob", IntMatrix.diagonal([2, 3])),))]


@pytest.mark.parametrize("m", MODULES, ids=lambda m: f"l={m.l}:{m.describe()}")
def test_equal_modules_share_one_tower(m):
    twin = ZlModule(m.l, tuple(m.torsion_exponents), m.free_rank, tuple(m.operators))
    assert twin == m and twin is not m
    assert to_tower(twin) is to_tower(m)
    assert to_tower(twin, 5) is to_tower(m, 5) is not to_tower(m)
    window = limits._torsion_window_tower
    assert window(twin, m.l, 4) is window(m, m.l, 4)


@pytest.mark.parametrize("m", MODULES, ids=lambda m: f"l={m.l}:{m.describe()}")
@pytest.mark.parametrize("levels", [1, 3, 8])
def test_shared_tower_answers_as_a_fresh_one(m, levels):
    clear_memos()
    # ask twice: the second answers come from the verdicts cached on the tower
    for _ in range(2):
        shared = to_tower(m, levels)
        fresh = Tower(shared.l, shared.groups, shared.maps, shared.tail)
        assert fresh is not shared
        assert is_l_adic(shared) == is_l_adic(fresh)
        assert classify_tail(shared) == classify_tail(fresh)
        assert limit(shared) == limit(fresh) == m
    assert to_tower.cache_info().hits >= 1
    for w in (limits._torsion_window_tower(m, m.l, levels),) * 2:
        fresh = Tower(w.l, w.groups, w.maps, w.tail)
        assert is_l_adic(w) == is_l_adic(fresh)
        assert classify_tail(w) == classify_tail(fresh)
        assert bool(is_l_adic(w)) == (levels == 1 or m.is_torsion_free())


@st.composite
def hom_pairs(draw):
    """Two random homs to add.

    Most are between l-local groups, whose factors merge as a chain, so the
    sum is placed entry by entry.  Every such group carries the same scalar
    operator "c"; with ``endo`` each hom is an endomorphism that is also its
    group's operator "e", so the sums carry a non-scalar operator.  With
    ``tie`` the second hom's groups repeat the first's factors, so every
    factor ties in the merge; any group may have rank 0.  The rest are
    between untagged groups of mixed primes, such as Z/2 + Z/3 or
    Z/4 + Z/6, whose factors need not chain, so the sum may take the
    presentation route."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.integers(0, 3)) == 0:
        def untagged():
            factors, d = [], 1
            for _ in range(draw(st.integers(0, 2))):
                d *= draw(st.sampled_from([2, 3, 4, 6]))
                factors.append(d)
            return FinAbGroup(tuple(factors))

        return tuple(random_hom(rng, untagged(), untagged()) for _ in range(2))
    l = draw(st.sampled_from([2, 3, 5]))
    c = draw(st.integers(0, 6))
    endo = draw(st.booleans())
    tie = draw(st.booleans())

    def group(factors=None):
        if factors is None:
            factors = tuple(l ** a for a in sorted(draw(st.lists(st.integers(1, 3), max_size=3))))
        g = FinAbGroup(factors, prime_support=l)
        return g.with_operators([("c", IntMatrix.diagonal([c] * g.rank))])

    def hom(like=None):
        src = group(like and like.source.invariant_factors)
        if not endo:
            return random_hom(rng, src, group(like and like.target.invariant_factors))
        bare = FinAbGroup(src.invariant_factors, prime_support=l)
        f = random_hom(rng, bare, bare)
        g = src.with_operators(src.operators + (("e", f.matrix),))
        return GroupHom(g, g, f.matrix)

    first = hom()
    return first, hom(first if tie else None)


def _sum_formula(f: GroupHom, g: GroupHom) -> GroupHom:
    """incl_f.f.proj_f + incl_g.g.proj_g, through the validating constructor."""
    s1, _, _, pa1, pb1 = direct_sum_with_maps(f.source, g.source)
    s0, ia0, ib0, _, _ = direct_sum_with_maps(f.target, g.target)
    return GroupHom(s1, s0, ia0.compose(f).compose(pa1).matrix
                    + ib0.compose(g).compose(pb1).matrix)


@settings(max_examples=80, deadline=None)
@given(hom_pairs())
def test_direct_sum_hom_matches_sum_formula(pair):
    f, g = pair
    expected = _sum_formula(f, g)
    assert direct_sum_hom(f, g) == expected  # the memo as earlier examples left it
    groups.direct_sum_hom.cache_clear()
    built = direct_sum_hom(f, g)
    assert built == expected
    assert (built.source, built.target) == (expected.source, expected.target)


def _group(*factors, prime=None):
    return FinAbGroup(factors, prime_support=prime)


@pytest.mark.parametrize("source, target, placed", [
    # untagged factors that do not chain: the presentation route
    ((cyclic(2), cyclic(3)), (cyclic(2), cyclic(3)), False),
    ((cyclic(4), cyclic(6)), (_group(2, 4), _group(6)), False),
    # equal factors on both sides: the stable merge puts f's generators first
    ((_group(2, 4, prime=2), _group(2, 4, prime=2)),
     (_group(4, prime=2), _group(2, 4, prime=2)), True),
    ((_group(9, prime=3), _group(3, 9, prime=3)),
     (_group(3, 9, prime=3), _group(9, prime=3)), True),
    # rank-0 summands
    ((_group(prime=2), _group(2, 8, prime=2)),
     (_group(4, prime=2), _group(prime=2)), True),
    ((_group(prime=5), _group(prime=5)), (_group(prime=5), _group(prime=5)), True),
])
def test_both_routes_of_direct_sum_hom_match_the_sum_formula(source, target, placed):
    rng = random.Random(7)
    for _ in range(5):
        f, g = (random_hom(rng, a, b) for a, b in zip(source, target))
        groups.direct_sum_hom.cache_clear()
        assert direct_sum_hom(f, g) == _sum_formula(f, g)
    chains = (groups._chain_merge(*source), groups._chain_merge(*target))
    assert all(c is not None for c in chains) == placed


def test_direct_sum_hom_rejects_mixed_primes():
    with pytest.raises(PrimeMismatch):
        direct_sum_hom(identity_hom(cyclic(2, 2)), identity_hom(cyclic(3, 3)))


def test_quotient_memo_keeps_argument_checks():
    m = zlmod.ZlModule(2, (1, 3), 1)
    with pytest.raises(ValueError):
        m.quotient_group(0)
    with pytest.raises(ValueError):
        m.quotient_projection(1, 2)
    assert m.quotient_projection(3, 1) is m.quotient_projection(3, 1)


def test_constant_caches_stay_bounded_and_small():
    clear_memos()
    run_suite("comparison", 0, 10)
    for memo in CONSTANTS:
        info = memo.cache_info()
        assert info.maxsize == intmat.IDENTITY_CACHE_SIZE
        assert 0 < info.currsize <= info.maxsize and info.hits > info.misses
    # a group's relation matrix is built once and then shared
    g = FinAbGroup((2, 4), prime_support=2)
    assert g.relation_matrix() is g.relation_matrix()
    assert g.relation_matrix() == IntMatrix.diagonal([2, 4])
    with pytest.raises(ValueError):
        IntMatrix.identity(-1)
