"""The three universal-property owners of ``groups`` -- ``corestrict`` (maps
into a subgroup), ``induced_on_quotient`` (maps out of A/nA) and ``section``
(lifts along a surjection) -- against brute force on small groups.

Each property checks that the result is None exactly when the map does not
exist, and otherwise that its defining identity holds element by element and
that the validating constructor accepts it.  Groups are l-local for l = 2, 3,
5, with no operator, a scalar operator "c" on every group, or one group G
with an endomorphism "e" whose maps are polynomials in e.
"""

import math
import random

from hypothesis import given, settings, strategies as st

from arl.gen import random_hom
from arl.groups import (
    FinAbGroup,
    GroupHom,
    corestrict,
    hom_cokernel,
    hom_image,
    hom_kernel,
    identity_hom,
    induced_on_quotient,
    quotient_with_maps,
    section,
    subgroup_from_lattice,
)
from arl.intmat import IntMatrix

from oracles import group_elements, hom_apply


def apply(f, x):
    return hom_apply([list(r) for r in f.matrix.entries], f.target.invariant_factors, x)


def elements(g):
    return group_elements(g.invariant_factors)


def accepted(f):
    """Whether the validating constructor rebuilds f unchanged: well defined,
    reduced, and commuting with every common operator."""
    return GroupHom(f.source, f.target, f.matrix) == f


@st.composite
def setups(draw):
    """(l, mode, group, maps): group draws a small l-group of the mode, and
    maps(a, b) a random hom a -> b between groups the mode drew."""
    l = draw(st.sampled_from([2, 3, 5]))
    mode = draw(st.sampled_from(["plain", "scalar", "endo"]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    cap = 3 if l == 2 else 2

    def bare():
        exps = sorted(draw(st.lists(st.integers(1, cap), min_size=1, max_size=2)))
        return FinAbGroup(tuple(l ** e for e in exps), prime_support=l)

    if mode == "endo":
        g = bare()
        g = g.with_operators([("e", random_hom(rng, g, g).matrix)])
        e = GroupHom(g, g, g.operator("e"))

        def group():
            return g

        def maps(a, b):
            # a polynomial in e, which commutes with e
            x, y, z = (draw(st.integers(0, l ** cap)) for _ in range(3))
            scalar = [IntMatrix.diagonal([c] * g.rank) for c in (x, y, z)]
            return GroupHom(g, g, (scalar[0] @ e.compose(e).matrix + scalar[1] @ e.matrix
                                   + scalar[2]))
        return l, mode, group, maps
    c = draw(st.integers(0, 6))

    def group():
        g = bare()
        return g.with_operators([("c", IntMatrix.diagonal([c] * g.rank))]) \
            if mode == "scalar" else g

    def maps(a, b):
        return random_hom(rng, a, b)
    return l, mode, group, maps


@settings(max_examples=150, deadline=1000)
@given(setups(), st.data())
def test_corestrict_matches_brute_force(setting, data):
    l, mode, group, maps = setting
    t = group()
    kind = data.draw(st.sampled_from(["image", "kernel", "unit", "span"] if mode != "endo"
                                     else ["image", "kernel", "unit"]))
    h = maps(t, t)
    if kind == "image":
        sub, incl = hom_image(h)
    elif kind == "unit":
        # an automorphism that is not the identity: a unit scalar, which
        # commutes with every operator
        u = data.draw(st.sampled_from([k for k in range(2, l ** 3) if k % l]))
        sub, incl = t, GroupHom(t, t, IntMatrix.diagonal([u] * t.rank))
    elif kind == "kernel":
        sub, incl = hom_kernel(h)
    else:
        cols = data.draw(st.lists(st.sampled_from(elements(t)), max_size=2))
        sub, incl = subgroup_from_lattice(t, IntMatrix.from_rows(cols, cols=t.rank).transpose(),
                                          transport_labels=t.operator_labels())
    # a map that factors by construction, or one drawn at random
    if data.draw(st.booleans()) and kind == "image":
        f = h.compose(maps(t, t))
    else:
        f = maps(group() if mode != "endo" else t, t)
    inside = {apply(incl, s) for s in elements(sub)}
    exists = all(apply(f, a) in inside for a in elements(f.source))
    g = corestrict(incl, f)
    assert (g is not None) == exists
    if g is None:
        return
    assert (g.source, g.target) == (f.source, sub)
    assert accepted(g)
    for a in elements(f.source):
        assert apply(incl, apply(g, a)) == apply(f, a)


@settings(max_examples=150, deadline=1000)
@given(setups(), st.data())
def test_induced_on_quotient_matches_brute_force(setting, data):
    l, mode, group, maps = setting
    a = group()
    f = maps(a, group() if mode != "endo" else a)
    n = data.draw(st.sampled_from([l ** k for k in range(4)]) | st.integers(1, 30))
    d = a.invariant_factors
    exists = all(not any(apply(f, tuple(n * x for x in e))) for e in elements(a))
    induced = induced_on_quotient(f, n)
    assert (induced is not None) == exists
    if induced is None:
        return
    assert induced.source == quotient_with_maps(a, n)[0] and induced.target == f.target
    assert accepted(induced)
    # the projection keeps generator i with factor gcd(d_i, n) when that is not 1
    kept = [(i, math.gcd(di, n)) for i, di in enumerate(d) if math.gcd(di, n) != 1]
    assert induced.source.invariant_factors == tuple(q for _, q in kept)
    for e in elements(a):
        assert apply(induced, tuple(e[i] % q for i, q in kept)) == apply(f, e)


@settings(max_examples=150, deadline=1000)
@given(setups(), st.data())
def test_section_matches_brute_force(setting, data):
    l, mode, group, maps = setting
    a = group()
    kind = data.draw(st.sampled_from(["map", "quotient", "cokernel"]))
    if kind == "map":
        p = maps(a, group() if mode != "endo" else a)
    elif kind == "quotient":
        p = quotient_with_maps(a, data.draw(st.integers(1, 30)))[1]
    else:
        p = hom_cokernel(maps(a, a))[1]
    onto = {apply(p, x) for x in elements(a)} == set(elements(p.target))
    lifts = section(p)
    assert (lifts is not None) == onto
    if lifts is None:
        return
    assert (lifts.rows, lifts.cols) == (a.rank, p.target.rank)
    assert all(0 <= x < d for row, d in zip(lifts.entries, a.invariant_factors) for x in row)
    # p sends the lift of every element back to it
    for t in elements(p.target):
        lifted = hom_apply(lifts.entries, a.invariant_factors, t)
        assert apply(p, lifted) == t
    assert GroupHom(p.target, p.target, p.matrix @ lifts) == identity_hom(p.target)
