"""The trusted constructors change no result.

``IntMatrix._of``, ``FinAbGroup._of`` (with or without operators),
``GroupHom._of``, ``Tower._of`` and ``TowerHom._of`` skip the checks of the
public constructors for values that are valid by construction.  Swapping
each of them for its validating public constructor re-checks every derived
matrix, group, hom, tower and tower hom, so a derivation that builds an
invalid value fails
here instead of passing silently.  ``tests/full_checks.py`` runs the same
swap over the functor suites' seed-1 goldens.
"""

import collections
import contextlib
import io
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from arl import groups, intmat, limits, zlmod
from arl.arcat import ar_compose, canonical_l_adic, reshift, stable_image_tower
from arl.cli import main
from arl.gen import (
    GenParams,
    module_hom_tower_map,
    random_ar_l_adic,
    random_armor,
    random_exact_triple,
    random_hom,
    random_module_hom,
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
    quotient_with_maps,
    zero_hom,
)
from arl.hypernat import HyperNat
from arl.intmat import IntMatrix
from arl.limits import _torsion_window_tower
from arl.suites import run_suite
from arl.towers import (
    TailRule,
    Tower,
    TowerHom,
    direct_sum,
    levelwise_cokernel,
    levelwise_kernel,
    mod_power,
    natural_map,
    shift,
    sum_embeddings,
)
from arl.upsilon import upsilon_mor
from arl.zlmod import ZlModule

ROOT = Path(__file__).resolve().parents[1]
SAMPLE = "demos/data/sample.arl.json"


def clear_memos():
    for memo in (groups.direct_sum_with_maps, groups.direct_sum_hom, zlmod._quotient_group,
                 zlmod._quotient_projection, intmat._snf_cached, intmat._identity,
                 limits.to_tower, limits._torsion_window_tower):
        memo.cache_clear()


@pytest.fixture()
def full_checks(monkeypatch):
    """Route every trusted construction through the validating constructor.
    Each ``_of`` takes its fields positionally, in the dataclass's order, so
    ``FinAbGroup._of`` with operators becomes ``FinAbGroup(factors, prime,
    operators)``."""
    def enable():
        clear_memos()
        for cls in (IntMatrix, FinAbGroup, GroupHom, Tower, TowerHom):
            monkeypatch.setattr(cls, "_of", classmethod(lambda c, *fields: c(*fields)))
    yield enable
    monkeypatch.undo()
    clear_memos()


def test_full_checks_reject_an_invalid_derived_value(full_checks):
    IntMatrix.identity(2)
    g = FinAbGroup((2,), prime_support=2)
    # Z/2 -> Z/2 by [[3]] is valid but unreduced, which _of alone does not see
    assert GroupHom._of(g, g, IntMatrix.from_rows([[3]])).matrix.entries == ((3,),)
    full_checks()
    # identities built by the trusted path before the swap are not served
    assert intmat._identity.cache_info().currsize == 0
    assert GroupHom._of(g, g, IntMatrix.from_rows([[3]])).matrix.entries == ((1,),)
    with pytest.raises(ValueError):
        IntMatrix._of(1, 1, ((1.5,),))
    with pytest.raises(ValueError):
        GroupHom._of(g, FinAbGroup((4,), prime_support=2), IntMatrix.from_rows([[1]]))
    with pytest.raises(ValueError):
        FinAbGroup._of((4, 2), 2)
    # an operator is reduced, and one that is not well defined is refused
    assert FinAbGroup._of((2,), 2, (("s", IntMatrix.from_rows([[3]])),)).operators == \
        (("s", IntMatrix.from_rows([[1]])),)
    with pytest.raises(ValueError, match="operator 's'"):
        FinAbGroup._of((2, 4), 2, (("s", IntMatrix.from_rows([[0, 0], [1, 0]])),))
    # a tower whose level 0 is not Z_2/2 under a tail that says it is
    z4 = FinAbGroup((4,), prime_support=2)
    with pytest.raises(ValueError, match="tail does not match level 0"):
        Tower._of(2, (z4,), (), TailRule(0, ZlModule(2, (), 1)))


H = HyperNat.symbol("h")


def _shift_class_homs():
    """Representatives built by the trusted shift-class builders: reshift,
    ar_compose, the normalization's two morphisms and upsilon's canonical
    shift-0 representative, at primes 2, 3 and 5."""
    params = GenParams()
    homs = []
    for case in range(12):
        rng = rng_for(91, case)
        l = (2, 3, 5)[case % 3]
        f, g = random_exact_triple(rng, l, params)
        a = random_armor(rng, l, params)
        homs += [a.rep, reshift(a, 2).rep, ar_compose(g, f).rep,
                 ar_compose(reshift(g, 1), reshift(f, 2)).rep, upsilon_mor(a, H).tower_hom]
        c = canonical_l_adic(random_ar_l_adic(rng, l, params))
        homs += [c.iso.rep, c.inverse.rep]
    return homs


def test_shift_class_builders_equal_their_validated_construction(full_checks):
    clear_memos()
    trusted = _shift_class_homs()
    for h in trusted:
        assert _checked(h).levels == h.levels
    full_checks()
    validated = _shift_class_homs()
    assert len(validated) == len(trusted)
    for t, v in zip(trusted, validated):
        assert t.levels == v.levels and t.tail == v.tail
        assert t.source.levelwise_equal(v.source) and t.target.levelwise_equal(v.target)


def test_validations_fall_to_the_generators(monkeypatch):
    """Over 25 cases of each functor suite at seed 0 the only tower homs that
    are validated are the generator's test data (module_hom_tower_map 75,
    random_extension 14 + 14), and group validations stay at most 342 (the
    generator's random groups, trivial groups and a few operator
    transports), against the 1,579 that re-validating the quotients and
    presentations cost, the 772 that re-validating the module quotients
    with operators cost and the 384 that validating each zero-tail level
    read past a prefix cost."""
    counts = collections.Counter()

    def counted(cls):
        original = cls.__post_init__

        def post_init(self):
            counts[cls.__name__] += 1
            # frame 1 is the dataclass __init__, frame 2 its caller
            if sys._getframe(2).f_globals["__name__"] == "arl.gen":
                counts[cls.__name__ + " in arl.gen"] += 1
            original(self)
        monkeypatch.setattr(cls, "__post_init__", post_init)

    counted(TowerHom)
    counted(FinAbGroup)
    clear_memos()
    for suite in ("upsilon", "phi", "faithful", "comparison"):
        assert run_suite(suite, 0, 25).all_pass()
    assert counts["TowerHom"] == counts["TowerHom in arl.gen"] == 103
    assert counts["FinAbGroup"] <= 342


@pytest.mark.parametrize("suite, cases", [("torsionfree", 300), ("comparison", 10),
                                          ("upsilon", 8), ("phi", 8), ("faithful", 8)])
def test_suite_reports_equal_under_full_checks(full_checks, suite, cases):
    clear_memos()
    trusted = run_suite(suite, 0, cases)
    assert trusted.all_pass()
    full_checks()
    assert run_suite(suite, 0, cases).body_lines() == trusted.body_lines()


def _cli_outputs():
    out = []
    for tower in ("zl", "noisy", "flat"):
        for command in (["normalize"], ["limit"], ["upsilon", "--h", "h"], ["psi", "--h", "h"]):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(command + ["--file", SAMPLE, "--tower", tower])
            body = [line for line in buf.getvalue().splitlines() if not line.startswith("timing:")]
            out.append((command, tower, code, body))
    return out


def test_cli_outputs_equal_under_full_checks(full_checks, monkeypatch):
    monkeypatch.chdir(ROOT)
    clear_memos()
    trusted = _cli_outputs()
    assert all(code == 0 for _, _, code, _ in trusted)
    full_checks()
    assert _cli_outputs() == trusted


@st.composite
def hom_chains(draw):
    """f, f2 : A -> B and g : B -> C between random l-local groups.  A and C
    carry a scalar operator "c"; B carries it only sometimes."""
    l = draw(st.sampled_from([2, 3]))
    c = draw(st.integers(0, 4))
    rng = random.Random(draw(st.integers(0, 2**32)))

    def group(with_operator):
        exps = sorted(draw(st.lists(st.integers(1, 3), max_size=3)))
        g = FinAbGroup(tuple(l ** e for e in exps), prime_support=l)
        return g.with_operators([("c", IntMatrix.diagonal([c] * g.rank))]) if with_operator else g

    a, b, c_group = group(True), group(draw(st.booleans())), group(True)
    return random_hom(rng, a, b), random_hom(rng, a, b), random_hom(rng, b, c_group)


def _revalidated(h: GroupHom) -> GroupHom:
    return GroupHom(h.source, h.target, IntMatrix(h.matrix.rows, h.matrix.cols, h.matrix.entries))


@settings(max_examples=100, deadline=None)
@given(hom_chains(), st.integers(1, 30))
def test_trusted_homs_equal_their_validated_construction(chain, n):
    f, f2, g = chain
    a, b = f.source, f.target
    derived = [g.compose(f), f - f2, identity_hom(a), zero_hom(a, b),
               quotient_with_maps(a, n)[1], direct_sum_hom(f, g)]
    for h in derived:
        assert _revalidated(h) == h
    assert g.compose(f) == GroupHom(a, g.target, g.matrix @ f.matrix)
    assert f - f2 == GroupHom(a, b, f.matrix - f2.matrix)


def _swap_group():
    sigma = IntMatrix.from_rows([[0, 1], [1, 0]])
    return FinAbGroup((2, 2), prime_support=2, operators=(("sigma", sigma),))


def test_compose_through_a_group_without_the_operator_is_checked():
    # A and C carry a swap, B carries none: both factors are valid homs, but
    # their composite keeps only the first coordinate and breaks the swap
    a = c = _swap_group()
    b = FinAbGroup((2,), prime_support=2)
    first = GroupHom(a, b, IntMatrix.from_rows([[1, 0]]))
    second = GroupHom(b, c, IntMatrix.from_rows([[1], [0]]))
    with pytest.raises(ValueError, match="sigma"):
        second.compose(first)


def test_compose_keeps_operators_common_to_both_factors():
    a = _swap_group()
    swap = GroupHom(a, a, a.operator("sigma"))
    assert swap.compose(swap) == GroupHom(a, a, IntMatrix.identity(2))


@st.composite
def _factors(draw):
    rows, inner, cols = (draw(st.integers(0, 4)) for _ in range(3))
    entry = st.integers(-10**30, 10**30) | st.integers(-3, 3)
    a = [[draw(entry) for _ in range(inner)] for _ in range(rows)]
    b = [[draw(entry) for _ in range(cols)] for _ in range(inner)]
    return rows, inner, cols, a, b


@settings(max_examples=200, deadline=None)
@given(_factors())
def test_matmul_equals_the_naive_triple_sum(factors):
    rows, inner, cols, a, b = factors
    ma, mb = IntMatrix.from_rows(a, cols=inner), IntMatrix.from_rows(b, cols=cols)
    product = ma @ mb
    expected = tuple(tuple(sum(a[i][t] * b[t][j] for t in range(inner)) for j in range(cols))
                     for i in range(rows))
    assert (product.rows, product.cols, product.entries) == (rows, cols, expected)
    # the trusted result is the value the validating constructor builds
    assert product == IntMatrix(rows, cols, expected)
    assert all(type(x) is int for row in product.entries for x in row)


def _revalidated_group(g: FinAbGroup) -> FinAbGroup:
    return FinAbGroup(g.invariant_factors, g.prime_support, g.operators)


@st.composite
def summand_pairs(draw):
    """Two groups to add: l-local with scalar and endomorphism operators, or
    untagged with factors of mixed primes (which may break the chain)."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        l = draw(st.sampled_from([2, 3, 5]))
        c = draw(st.integers(0, 6))

        def group():
            exps = sorted(draw(st.lists(st.integers(1, 3), max_size=3)))
            g = FinAbGroup(tuple(l ** e for e in exps), prime_support=l)
            ops = [("c", IntMatrix.diagonal([c] * g.rank))]
            if draw(st.booleans()):
                ops.append(("e", random_hom(rng, g, g).matrix))
            return g.with_operators(ops)
    else:
        def group():
            factors, d = [], 1
            for _ in range(draw(st.integers(0, 2))):
                d *= draw(st.sampled_from([2, 3, 4, 6]))
                factors.append(d)
            g = FinAbGroup(tuple(factors))
            return g.with_operators([("c", IntMatrix.diagonal([5] * g.rank))]) \
                if draw(st.booleans()) else g
    return group(), group()


@settings(max_examples=150, deadline=None)
@given(summand_pairs())
def test_direct_sum_maps_equal_their_validated_construction(pair):
    g, h = pair
    groups.direct_sum_with_maps.cache_clear()
    s, incl_g, incl_h, proj_g, proj_h = direct_sum_with_maps(g, h)
    assert _revalidated_group(s) == s
    for f in (incl_g, incl_h, proj_g, proj_h):
        assert _revalidated(f) == f
    assert proj_g.compose(incl_g) == identity_hom(g)
    assert proj_h.compose(incl_h) == identity_hom(h)
    assert proj_h.compose(incl_g).is_zero() and proj_g.compose(incl_h).is_zero()
    assert GroupHom(s, s, incl_g.compose(proj_g).matrix + incl_h.compose(proj_h).matrix) \
        == identity_hom(s)


@settings(max_examples=100, deadline=None)
@given(hom_chains(), st.integers(1, 30), st.integers(1, 4))
def test_quotients_equal_their_validated_construction(chain, n, k):
    f, _, g = chain
    q, proj, lift = quotient_with_maps(f.source, n)
    assert _revalidated_group(q) == q and _revalidated(proj) == proj
    assert proj.matrix @ lift == IntMatrix.identity(q.rank)
    # n_target | n_source: the induced map exists and is trusted
    induced = hom_on_quotients(g, n * k, n)
    assert _revalidated(induced) == induced
    # "t" needs reducing below the module's exponents, and its entry 4 below
    # the diagonal is well defined only because Z/2 -> Z/8 lands in 4Z/8
    m = ZlModule(2, (1, 3), 1).with_operators([
        ("t", IntMatrix.from_rows([[1, 0, 1], [4, 1, 3], [0, 0, 5]])),
        ("c", IntMatrix.diagonal([3, 3, 3]))])
    for power in range(1, 5):
        group = m.quotient_group(power)
        assert _revalidated_group(group) == group
        u = m.quotient_projection(power + 1, power)
        assert _revalidated(u) == u


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.lists(st.integers(1, 4), max_size=3),
       st.integers(0, 2), st.integers(1, 6))
def test_torsion_window_tower_equals_its_validated_construction(l, exps, rho, levels):
    t = _torsion_window_tower(ZlModule(l, tuple(sorted(exps)), rho), l, levels)
    rebuilt = Tower(l, tuple(_revalidated_group(g) for g in t.groups),
                    tuple(_revalidated(u) for u in t.maps), t.tail)
    assert rebuilt.levelwise_equal(t)
    k = len(exps)
    for n, u in enumerate(t.maps, start=1):
        assert u == GroupHom(t.level(n), t.level(n - 1), IntMatrix.diagonal([l] * k))
        # exponent 1: multiplication by l is zero onto Z/l
        assert all(u.matrix.entries[i][i] == 0
                   for i, d in enumerate(t.level(n - 1).invariant_factors) if d == l)


def _checked(f: TowerHom) -> TowerHom:
    """f rebuilt through the validating constructor: every square re-checked."""
    return TowerHom(f.source, f.target, f.levels, tail=f.tail)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from([2, 3]), st.booleans())
def test_derived_tower_homs_pass_the_validating_constructor(seed, l, operators):
    rng = random.Random(seed)
    params = GenParams(levels=4, max_exponent=2)
    src, tgt = random_zl_module(rng, l, params), random_zl_module(rng, l, params)
    if operators:
        # one scalar action on both ends, which every module hom commutes with
        src, tgt = (m.with_operators([("frob", IntMatrix.diagonal([l + 1] * m.rank))])
                    if m.rank else m for m in (src, tgt))
    f = module_hom_tower_map(random_module_hom(rng, src, tgt), src, tgt, params.levels)
    noise = random_zero_system(rng, l, params, certified_only=False)
    derived = []
    for a, b in ((f.source, noise), (noise, f.target)):
        derived += sum_embeddings(a, b)[1:]
    for t in (f.source, f.target, noise, direct_sum(f.target, noise)):
        derived += [natural_map(t, r) for r in range(3)]
    derived += [levelwise_kernel(f)[1], levelwise_cokernel(f)[1]]
    derived.append(stable_image_tower(direct_sum(f.target, noise), 1)[1])
    for h in derived:
        assert _checked(h).levels == h.levels


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from([2, 3]))
def test_derived_towers_pass_the_validating_constructor(seed, l):
    """shift, mod_power and direct_sum build their towers with the trusted
    Tower._of; rebuilt through Tower(...), every transition's ends and the
    carried tail are checked again."""
    rng = random.Random(seed)
    params = GenParams(levels=4, max_exponent=2)
    module = random_zl_module(rng, l, params)
    noise = random_zero_system(rng, l, params, certified_only=False)
    noisy = random_ar_l_adic(rng, l, params)
    towers = [limits.to_tower(module, params.levels), noise, noisy]
    derived = []
    for t in towers:
        derived += [shift(t, r) for r in range(1, 4)]
        derived += [mod_power(t, k) for k in range(4)]
        derived += [direct_sum(t, u) for u in towers]
    for t in derived:
        rebuilt = Tower(t.l, t.groups, t.maps, t.tail, t.starred)
        assert rebuilt.levelwise_equal(t) and rebuilt.tail == t.tail
