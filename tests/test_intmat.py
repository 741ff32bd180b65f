import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from arl.intmat import (
    IntMatrix,
    hermite_normal_form,
    modular_kernel,
    modular_smith,
    modular_solve,
    smith_normal_form,
)

from oracles import elementary_divisors_by_minors, span_mod


def rows(m):
    return [list(r) for r in m.entries]


def test_snf_fixed_examples():
    _, d, _ = smith_normal_form(IntMatrix.diagonal([2, 3]))
    assert d.diagonal_values() == [1, 6]

    u, d, v = smith_normal_form(IntMatrix.identity(3))
    assert d.is_identity()

    _, d, _ = smith_normal_form(IntMatrix.zeros(2, 2))
    assert d.is_zero()


def test_snf_diag_is_canonical_and_deterministic():
    m = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    u1, d1, v1 = smith_normal_form(m)
    u2, d2, v2 = smith_normal_form(IntMatrix.from_rows(rows(m)))
    assert (u1, d1, v1) == (u2, d2, v2)
    assert d1.diagonal_values() == elementary_divisors_by_minors(rows(m)) + [0] * (
        3 - len(elementary_divisors_by_minors(rows(m)))
    )


matrices = st.integers(0, 4).flatmap(
    lambda r: st.integers(0, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-10, 10), min_size=c, max_size=c),
            min_size=r, max_size=r,
        ).map(lambda data: IntMatrix.from_rows(data, cols=c))
    )
)


@settings(max_examples=150, deadline=None)
@given(matrices)
def test_snf_roundtrip_property(m):
    u, d, v = smith_normal_form(m)
    assert (u @ m @ v).entries == d.entries
    assert u.det() in (1, -1)
    assert v.det() in (1, -1)
    diag = d.diagonal_values()
    for i, val in enumerate(diag):
        assert val >= 0
        if i + 1 < len(diag) and val:
            assert diag[i + 1] % val == 0
    nonzero = [x for x in diag if x]
    assert nonzero == elementary_divisors_by_minors(rows(m))


@settings(max_examples=100, deadline=None)
@given(matrices)
def test_snf_inverses(m):
    # U^-1 comes from the same elimination run at modulus 0
    u, d, v = smith_normal_form(m)
    _, u0, ui = modular_smith(m, 0)
    assert u0 == u
    assert (u @ ui).is_identity()
    assert (ui @ u).is_identity()
    assert m @ v == ui @ d


def test_solve_and_kernel():
    m = IntMatrix.from_rows([[2, 4], [0, 0]])
    ys = IntMatrix.from_rows([(6, 0), (3, 0), (0, 1)]).transpose()
    solvable, odd, off = modular_solve(m, 8, ys)
    assert solvable is not None and off is None and odd is None
    assert tuple(x % 8 for x in (m @ IntMatrix.from_rows([solvable]).transpose()).column(0)) == (6, 0)
    k = modular_kernel(m, 8)
    assert all(x % 8 == 0 for col in (m @ k).columns() for x in col)


def test_modulus_zero_presents_over_z():
    # Z^2 / span((2, 0), (4, 0)) = Z/2 + Z: the factor 0 is the free generator
    m = IntMatrix.from_rows([[2, 4], [0, 0]])
    factors, u, ui = modular_smith(m, 0)
    assert factors == (2, 0)
    assert (u @ ui).is_identity() and (ui @ u).is_identity()
    # solving and kernels need a finite modulus
    with pytest.raises(ValueError, match="modulus 0"):
        modular_solve(m, 0, IntMatrix.from_rows([(2, 0)]).transpose())
    with pytest.raises(ValueError, match="modulus 0"):
        modular_kernel(m, 0)


def test_lattice_membership():
    # a full-rank lattice contains its index times Z^2: here 6 Z^2
    basis = IntMatrix.from_rows([[2, 0], [0, 3]])
    inside, outside = modular_solve(basis, 6, IntMatrix.from_rows([(4, 3), (1, 0)]).transpose())
    assert inside is not None and outside is None
    # the same lattice from redundant generators
    same = IntMatrix.from_rows([[2, 0, 2], [3, 3, 0]])
    assert None not in modular_solve(basis, 6, same) + modular_solve(same, 6, basis)
    finer = IntMatrix.from_rows([[2, 0], [0, 4]])
    assert None in modular_solve(basis, 12, finer)


def test_hnf_canonical_for_equal_lattices():
    rng = random.Random(5)
    base = IntMatrix.from_rows([[4, 2], [0, 6]])
    h0 = hermite_normal_form(base)
    for _ in range(25):
        cols = [list(base.column(j)) for j in range(base.cols)]
        extra = []
        for _ in range(rng.randint(0, 2)):
            coeffs = [rng.randint(-3, 3) for _ in cols]
            extra.append([sum(c * col[i] for c, col in zip(coeffs, cols))
                          for i in range(2)])
        shuffled = cols + extra
        rng.shuffle(shuffled)
        m = IntMatrix.from_rows(shuffled, cols=2).transpose()
        assert hermite_normal_form(m) == h0


def test_hnf_shape():
    h = hermite_normal_form(IntMatrix.from_rows([[2, 0, 8], [0, 4, 2]]))
    assert h.rows == h.cols == 2
    for i in range(2):
        assert h.entries[i][i] > 0
        for j in range(i + 1, 2):
            assert h.entries[i][j] == 0
        for j in range(i):
            assert 0 <= h.entries[i][j] < h.entries[i][i]


def test_hnf_rejects_rank_deficient():
    with pytest.raises(ValueError):
        hermite_normal_form(IntMatrix.from_rows([[1, 2], [0, 0]]))


# -- the Hermite form modulo e ---------------------------------------------------


def assert_hnf_shape(h: IntMatrix):
    for i in range(h.rows):
        assert h.entries[i][i] > 0
        for j in range(h.cols):
            if j > i:
                assert h.entries[i][j] == 0
            elif j < i:
                assert 0 <= h.entries[i][j] < h.entries[i][i]


def test_hnf_modular_carries_the_howell_column():
    # span((2, 1)) + 4Z^2 holds 2*(2, 1) - (4, 0) = (0, 2); without the column
    # carried below row 0 the second diagonal entry would read 4
    assert hermite_normal_form(IntMatrix.from_rows([(2, 1)]).transpose(), 4).entries == ((2, 0), (1, 2))


def test_hnf_modular_zero_row_gives_diagonal_e():
    # row 1 is zero modulo 9 in every generator, so its diagonal entry is 9
    h = hermite_normal_form(IntMatrix.from_rows([(3, 9), (6, 18)]).transpose(), 9)
    assert h.entries == ((3, 0), (0, 9))
    assert hermite_normal_form(IntMatrix.zeros(2, 0), 6).entries == ((6, 0), (0, 6))


def test_hnf_modular_mixed_modulus():
    # row 0 holds 4 and 6 modulo 12: neither divides the other, so the pivot
    # takes a Bezout step
    m = IntMatrix.from_rows([(4, 1, 0), (6, 0, 1), (0, 3, 2)]).transpose()
    h = hermite_normal_form(m, 12)
    assert h.entries == ((2, 0, 0), (2, 3, 0), (1, 0, 2))
    assert h == hermite_normal_form(m.hstack(IntMatrix.diagonal([12] * 3)))


@st.composite
def lattices_containing_e(draw):
    """(generators, e) with k <= 3 rows and e <= 16; the lattice is the
    span of the generators plus e*Z^k."""
    e = draw(st.sampled_from([2, 3, 4, 5, 6, 8, 9, 10, 12, 16]))
    k = draw(st.integers(1, 3))
    cols = draw(st.lists(st.lists(st.integers(-2 * e, 2 * e), min_size=k, max_size=k),
                         max_size=4))
    return IntMatrix.from_rows(cols, cols=k).transpose(), e


@settings(max_examples=150, deadline=None)
@given(lattices_containing_e())
def test_hnf_modular_property(case):
    gens, e = case
    k = gens.rows
    full = gens.hstack(IntMatrix.diagonal([e] * k))
    h = hermite_normal_form(gens, e)
    assert h == hermite_normal_form(full, e) == hermite_normal_form(full)
    assert_hnf_shape(h)
    assert all(e % h.entries[i][i] == 0 for i in range(k))
    assert span_mod(h.columns(), k, e) == span_mod(gens.columns(), k, e)


def in_lower_triangular_span(h: IntMatrix, v) -> bool:
    # forward substitution over Z: each step must divide exactly
    v = list(v)
    for i in range(h.rows):
        q, r = divmod(v[i], h.entries[i][i])
        if r:
            return False
        v = [x - q * h.entries[j][i] for j, x in enumerate(v)]
    return True


@pytest.mark.parametrize("rows, cols", [(5, 5), (7, 7), (6, 12), (10, 10), (12, 24)])
def test_hnf_integer_sweep_within_budget(rows, cols):
    # at modulus 0 the Hermite form runs modulo the last invariant factor;
    # random full-rank integer matrices must not make it blow up
    rng = random.Random(rows * 100 + cols)
    for _ in range(4):
        m = IntMatrix.from_rows([[rng.randint(-40, 40) for _ in range(cols)]
                                 for _ in range(rows)])
        start = time.perf_counter()
        h = hermite_normal_form(m)
        assert time.perf_counter() - start < 0.5
        assert_hnf_shape(h)
        # span(m) lies in span(h), and both have the index of the Smith form
        assert all(in_lower_triangular_span(h, col) for col in m.columns())
        index = 1
        for d in smith_normal_form(m)[1].diagonal_values():
            index *= d
        assert h.det() == index
        if rows == cols:
            assert abs(m.det()) == index


def test_matrix_validation():
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1.5]])
    with pytest.raises(ValueError):
        IntMatrix(1, 2, ((1,),))


@pytest.mark.parametrize("rows, cols", [(0, -1), (-1, 0)])
def test_negative_dimension_rejected_beside_a_zero_one(rows, cols):
    # no entries to contradict it: only the dimension check can catch this
    with pytest.raises(ValueError, match="negative"):
        IntMatrix(rows, cols, ())


def test_modulus_one_is_the_whole_lattice():
    # modulo 1 every x solves m @ x = y, so the kernel spans Z^cols and every
    # right-hand side has the solution 0
    m = IntMatrix.from_rows([[2, 4, 1], [0, 3, 5]])
    _, d, _ = smith_normal_form(modular_kernel(m, 1))
    assert [d.entries[i][i] for i in range(m.cols)] == [1] * m.cols
    assert modular_solve(m, 1, IntMatrix.from_rows([(6, 1), (3, 7)]).transpose()) == [(0, 0, 0)] * 2


@pytest.mark.parametrize("build", [
    lambda: IntMatrix.diagonal([2.5]),
    lambda: IntMatrix.diagonal(["2"]),
    lambda: IntMatrix.from_rows([[1.9]]).transpose(),
    lambda: IntMatrix.from_rows([[None]]).transpose(),
    lambda: IntMatrix(1.0, 1, ((1,),)),
    lambda: IntMatrix(1, True, ((1,),)),
    lambda: IntMatrix.from_rows([[1, 2.0]]),
])
def test_non_integral_input_rejected_not_truncated(build):
    with pytest.raises(ValueError, match="non-integer"):
        build()


def test_integral_input_accepted():
    assert IntMatrix.diagonal([2, 3]).entries == ((2, 0), (0, 3))
    assert IntMatrix.from_rows([[1], [2]]).transpose().entries == ((1, 2),)
    assert IntMatrix.from_rows([[1, -2]]).entries == ((1, -2),)


def test_det_exact():
    m = IntMatrix.from_rows([[10**12, 1], [1, 10**12]])
    assert m.det() == 10**24 - 1
