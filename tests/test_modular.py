"""Linear algebra modulo the exponent: solve_mod, preimage_lattice,
presentation_with_maps and zl_canonicalize against brute force, and inputs
whose integer normal forms used to blow up or stall, under a time budget."""

import itertools
import math
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from arl.cli import main
from arl.groups import presentation_with_maps, preimage_lattice, solve_mod
from arl.intmat import IntMatrix, smith_normal_form
from arl.zlmod import ZlModule, zl_canonicalize

from oracles import elementary_divisors_by_minors, group_elements, hom_apply, quotient_invariants


DATA = Path(__file__).parent / "data"


def columns(vectors, rows):
    return IntMatrix.from_rows(vectors, cols=rows).transpose()


def span_mod(gens, e, n):
    """The subgroup of (Z/e)^n generated by gens, by closure."""
    reduced = {tuple(x % e for x in g) for g in gens}
    seen = {(0,) * n}
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for g in reduced:
                y = tuple((a + b) % e for a, b in zip(x, g))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


# -- regression: integer Smith forms of these ran for seconds to minutes ------

def test_solve_mod_induced_subtower_matrix_is_fast():
    # the inclusion solved against by stable_image_tower on a coupled tower; its
    # integer Smith form passed 1.8 million bits within 8 s
    mat = [[2, 2, 0], [4, 7, 3], [6, 6, 7], [7, 2, 5], [448, 432, 483], [0, 511, 14]]
    factors = (8, 8, 8, 8, 512, 512)
    xs = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (3, 5, 7), (511, 100, 64)]
    ys = [hom_apply(mat, factors, x) for x in xs]
    start = time.perf_counter()
    sols = solve_mod(IntMatrix.from_rows(mat), factors, columns(ys, 6))
    assert time.perf_counter() - start < 0.5
    for x, y in zip(sols, ys):
        assert x is not None and hom_apply(mat, factors, x) == y


def test_solve_mod_non_chain_factors_against_brute_force():
    # factors (8, 8, 16, 8, 16) are no divisibility chain: the modulus is their
    # lcm.  The integer Smith form of this input ran for over 30 s.
    mat = [[36, 3, 28], [24, -19, -37], [-22, -8, -12], [32, -23, -26], [-17, 12, 39]]
    factors = (8, 8, 16, 8, 16)
    image = {hom_apply(mat, factors, x) for x in itertools.product(range(16), repeat=3)}
    ys = sorted(image)[::7] + [y for y in itertools.islice(
        itertools.product(*[range(d) for d in factors]), 0, None, 997) if y not in image]
    start = time.perf_counter()
    sols = solve_mod(IntMatrix.from_rows(mat), factors, columns(ys, 5))
    assert time.perf_counter() - start < 0.5
    for y, x in zip(ys, sols):
        assert (x is not None) == (y in image)
        if x is not None:
            assert hom_apply(mat, factors, x) == y


def test_integer_smith_form_of_small_matrix_is_fast():
    # an integer Smith form that reduced by Euclidean remainders on the whole
    # matrix ran for 54 s on this 5x5 input with entries below 21
    m = IntMatrix.from_rows([[-15, -20, -14, 15, 4], [10, 18, -4, -9, -15],
                             [-16, -3, -16, -13, -17], [7, 9, -15, 10, 0],
                             [16, -12, -15, -2, 19]])
    start = time.perf_counter()
    u, d, v = smith_normal_form(m)
    module, _, _ = zl_canonicalize(m, 2)
    assert time.perf_counter() - start < 0.5
    assert d.diagonal_values() == [1, 1, 1, 1, 2755976]
    assert u @ m @ v == d
    # 2755976 = 2^3 * 344497
    assert module == ZlModule(2, (3,))


def test_coupled_draw5_normalize_and_limit_are_fast(capsys, monkeypatch):
    # perfbench's random-coupling tower, draw 5: `normalize` did not finish
    # within 30 s while the group layer used integer Smith forms
    monkeypatch.chdir(DATA)
    start = time.perf_counter()
    assert main(["normalize", "--file", "coupled-draw5.arl.json", "--tower", "coupled"]) == 0
    assert main(["limit", "--file", "coupled-draw5.arl.json", "--tower", "coupled"]) == 0
    assert time.perf_counter() - start < 1.0
    out = capsys.readouterr().out.splitlines()
    assert "iso-check: yes" in out
    assert "limit: Zl^2 + Z/l^3" in out


# -- brute-force properties on small groups ----------------------------------

# factor lists of at most three factors whose lcm e keeps (Z/e)^3 enumerable;
# each case carries the prime of an l-local group, None for an untagged one
l_local = st.sampled_from([(2, [2, 4, 8], 3), (3, [3, 9, 27], 2), (5, [5, 25], 2)]).flatmap(
    lambda p: st.tuples(st.lists(st.sampled_from(p[1]), min_size=1, max_size=p[2]),
                        st.just(p[0])))
untagged = st.tuples(st.one_of(
    st.lists(st.sampled_from([2, 3, 4, 6, 12]), min_size=1, max_size=3),
    st.lists(st.sampled_from([2, 3, 5, 6, 10, 15, 30]), min_size=1, max_size=2),
    st.lists(st.integers(2, 40), min_size=1, max_size=1)), st.none())


def small_case(factors_prime):
    """(factors, prime, matrix, cols) with lcm(factors)^cols enumerable."""
    factors, prime = factors_prime
    e = math.lcm(*factors)
    most = max(c for c in range(4) if e ** c <= 1728)
    return st.integers(0, most).flatmap(lambda c: st.lists(
        st.lists(st.integers(-20, 20), min_size=c, max_size=c),
        min_size=len(factors), max_size=len(factors)).map(
            lambda m: (tuple(factors), prime, IntMatrix.from_rows(m, cols=c))))


cases = st.one_of(l_local, untagged).flatmap(small_case)


@settings(max_examples=80, deadline=1000)
@given(cases, st.randoms(use_true_random=False))
def test_solve_mod_matches_brute_force(case, rng):
    factors, _, mat = case
    rows, e = [list(r) for r in mat.entries], math.lcm(*factors)
    image = {hom_apply(rows, factors, x) for x in itertools.product(range(e), repeat=mat.cols)}
    ys = [rng.choice(sorted(image)) for _ in range(3)]
    ys += [tuple(rng.randrange(d) for d in factors) for _ in range(3)]
    for y, x in zip(ys, solve_mod(mat, factors, columns(ys, len(factors)))):
        assert (x is not None) == (y in image)
        if x is not None:
            assert hom_apply(rows, factors, x) == y


def check_preimage(mat, factors):
    rows, e = [list(r) for r in mat.entries], math.lcm(*factors)
    kernel = {x for x in itertools.product(range(e), repeat=mat.cols)
              if not any(hom_apply(rows, factors, x))}
    gens = preimage_lattice(mat, factors)
    assert gens.rows == mat.cols
    assert span_mod(gens.columns(), e, mat.cols) == kernel


@settings(max_examples=80, deadline=1000)
@given(cases)
def test_preimage_lattice_matches_brute_force(case):
    factors, _, mat = case
    check_preimage(mat, factors)


def test_preimage_lattice_after_column_bezout_steps():
    # modulo 30, clearing the pivot 1 leaves the row [9, 28]: its pivot 28
    # does not divide 9, so a column Bezout step runs, and it must keep V
    # invertible
    check_preimage(IntMatrix.from_rows([[1, 24, 17], [6, 3, 10]]), (30, 30))


def check_presentation(mat, e, prime):
    group, proj, lift = presentation_with_maps(mat, e, prime=prime)
    n = mat.rows
    span = span_mod(mat.columns(), e, n)
    assert list(group.invariant_factors) == quotient_invariants((e,) * n, span)
    assert group.prime_support == prime
    d, rows = group.invariant_factors, [list(r) for r in proj.entries]
    # proj is well defined on the quotient and injective there; lift splits it
    assert {x for x in group_elements((e,) * n) if not any(hom_apply(rows, d, x))} == span
    assert all(hom_apply(rows, d, lift.column(j)) == tuple(int(i == j) for i in range(len(d)))
               for j in range(len(d)))


@settings(max_examples=80, deadline=1000)
@given(cases, st.booleans())
def test_presentation_matches_brute_force(case, cokernel):
    # the group Z^n / (span(columns of mat) + e*Z^n), e = lcm(factors); as a
    # cokernel, mat is stacked with diag(factors), as hom_cokernel does
    factors, prime, mat = case
    if cokernel:
        mat = mat.hstack(IntMatrix.diagonal(factors))
    check_presentation(mat, math.lcm(*factors), prime)


@pytest.mark.parametrize("factors", [(2, 3), (4, 3), (3, 4), (6, 4), (4, 6, 9), (10, 4), (6, 10, 15)])
def test_presentation_merges_coprime_parts(factors):
    # mixed primes: the Bezout steps and the divisibility-chain pass both run
    check_presentation(IntMatrix.diagonal(factors), math.lcm(*factors), None)


def _lval(n, l):
    v = 0
    while n % l == 0:
        n //= l
        v += 1
    return v


integer_matrices = st.integers(0, 4).flatmap(lambda r: st.integers(0, 4).flatmap(
    lambda c: st.lists(st.lists(st.integers(-12, 12), min_size=c, max_size=c),
                       min_size=r, max_size=r).map(lambda m: IntMatrix.from_rows(m, cols=c))))


@settings(max_examples=150, deadline=None)
@given(integer_matrices, st.sampled_from([2, 3, 5]))
def test_zl_canonicalize_matches_minors(rel, l):
    module, proj, lift = zl_canonicalize(rel, l)
    divisors = elementary_divisors_by_minors([list(r) for r in rel.entries])
    assert module.l == l
    assert module.torsion_exponents == tuple(sorted(v for v in (_lval(d, l) for d in divisors) if v))
    assert module.free_rank == rel.rows - len(divisors)
    assert (proj @ lift).is_identity()
    # proj kills the relations modulo l^a on a torsion generator of exponent
    # a, and exactly on a free one
    k = len(module.torsion_exponents)
    for i, row in enumerate((proj @ rel).entries):
        modulus = l ** module.torsion_exponents[i] if i < k else 0
        assert all((x % modulus if modulus else x) == 0 for x in row)
