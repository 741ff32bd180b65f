"""The lattice questions that ``groups`` answers for the layers above --
membership in n*G, whether a hom kills n*A, whether a matrix is a hom's,
injectivity -- against brute force on small groups."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from arl.groups import (
    FinAbGroup,
    GroupHom,
    canonicalize,
    element_in_multiples,
    is_injective,
    is_matrix_of,
    kills_multiples,
    sublattice_basis,
)
from arl.intmat import IntMatrix, hermite_normal_form

from oracles import group_elements, hom_apply


# l-local groups for l = 2, 3, 5, and untagged groups that mix primes; every
# group stays small enough to enumerate
l_local = st.sampled_from([(2, [2, 4, 8]), (3, [3, 9, 27]), (5, [5, 25])]).flatmap(
    lambda p: st.lists(st.sampled_from(p[1]), max_size=2).map(
        lambda fs: FinAbGroup(tuple(sorted(fs)), prime_support=p[0])))
untagged = st.lists(st.sampled_from([2, 3, 4, 5, 6, 9, 10, 12]), max_size=2).map(
    lambda fs: canonicalize(IntMatrix.diagonal(fs)) if fs else FinAbGroup(()))
groups = st.one_of(l_local, untagged)


@st.composite
def homs(draw):
    """A hom between two small groups of the same kind: entry (i, j) is a
    multiple of d_i / gcd(d_i, s_j), so the matrix is well defined."""
    kind = draw(st.sampled_from([l_local, untagged]))
    src, tgt = draw(kind), draw(kind)
    if src.prime_support != tgt.prime_support:
        tgt = FinAbGroup(tgt.invariant_factors, prime_support=None)
        src = FinAbGroup(src.invariant_factors, prime_support=None)
    rows = [[draw(st.integers(0, 12)) * (d // math.gcd(d, s)) for s in src.invariant_factors]
            for d in tgt.invariant_factors]
    return GroupHom(src, tgt, IntMatrix.from_rows(rows, cols=src.rank))


def apply(f, x):
    return hom_apply([list(r) for r in f.matrix.entries], f.target.invariant_factors, x)


def is_zero(x):
    return not any(x)


@settings(max_examples=150, deadline=1000)
@given(groups, st.integers(0, 30), st.data())
def test_element_in_multiples_matches_brute_force(g, n, data):
    d = g.invariant_factors
    multiples = {tuple(n * y % di for y, di in zip(x, d)) for x in group_elements(d)}
    x = tuple(data.draw(st.integers(-60, 60)) for _ in d)
    assert element_in_multiples(g, x, n) == (tuple(v % di for v, di in zip(x, d)) in multiples)


@settings(max_examples=150, deadline=1000)
@given(homs(), st.integers(0, 30))
def test_kills_multiples_matches_brute_force(f, n):
    d = f.source.invariant_factors
    expected = all(is_zero(apply(f, tuple(n * y for y in x))) for x in group_elements(d))
    assert kills_multiples(f, n) == expected


@settings(max_examples=150, deadline=1000)
@given(homs(), st.data())
def test_is_matrix_of_matches_brute_force(f, data):
    d = f.target.invariant_factors
    # f's matrix moved by multiples of the target factors, or perturbed
    rows = [[x + data.draw(st.integers(-2, 2)) * di for x in row]
            for row, di in zip(f.matrix.entries, d)]
    if rows and rows[0] and data.draw(st.booleans()):
        rows[0][0] += data.draw(st.integers(1, 5))
    mat = IntMatrix.from_rows(rows, cols=f.source.rank)
    same = all(hom_apply(rows, d, x) == apply(f, x)
               for x in group_elements(f.source.invariant_factors))
    assert is_matrix_of(f, mat) == same
    assert not is_matrix_of(f, IntMatrix.zeros(f.target.rank, f.source.rank + 1))


@settings(max_examples=150, deadline=1000)
@given(homs())
def test_is_injective_matches_brute_force(f):
    kernel = [x for x in group_elements(f.source.invariant_factors) if is_zero(apply(f, x))]
    assert is_injective(f) == (len(kernel) == 1)


@pytest.mark.parametrize("prime", [None, 2, 5])
@pytest.mark.parametrize("cols", [0, 1, 3])
def test_rank_zero_sublattice_is_the_empty_basis_without_elimination(prime, cols, monkeypatch):
    trivial = FinAbGroup((), prime_support=prime)
    gens = IntMatrix.zeros(0, cols)
    # the Hermite form of Z^0 that the general path computes
    expected = hermite_normal_form(gens.hstack(trivial.relation_matrix()), trivial.exponent())
    assert expected == IntMatrix.zeros(0, 0)

    def no_elimination(*args):
        raise AssertionError("rank-0 lattice sent to the Hermite workspace")

    monkeypatch.setattr("arl.groups.hermite_normal_form", no_elimination)
    assert sublattice_basis(trivial, gens) == expected
