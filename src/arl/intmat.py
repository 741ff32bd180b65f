"""Exact integer matrices and their normal forms.

All arithmetic is over arbitrary-precision Python integers; nothing here is
ever rounded.  One elimination workspace serves the Smith and Hermite forms
at every modulus e, and :func:`modular_smith` is the one routine that
presents a quotient Z^n / L.  The lattices of finite-group arithmetic all
contain e*Z^n for a known e, so they are solved, presented and put in
Hermite form over Z/e, with every entry kept in [0, e).  The modulus e = 0
is Z itself, where Z_l-module presentations and :func:`smith_normal_form`
run unreduced.  The pivot rule is fixed (least gcd(x, e), over Z least
absolute value; ties by lowest (row, col)), so results are reproducible.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Sequence


Vector = tuple[int, ...]


def exact_int(x, what: str = "value") -> int:
    """x as an int; floats, strings and None are rejected, never truncated."""
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"non-integer {what} {x!r}") from None


@dataclass(frozen=True)
class IntMatrix:
    """An immutable rows x cols integer matrix stored row-major.

    The public constructors validate every entry.  Derivations whose result is
    a valid matrix by construction (products, sums, stacks, selections and the
    normal forms) build it with the trusted :meth:`_of` instead.
    """

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for dim in (self.rows, self.cols):
            if not isinstance(dim, int) or isinstance(dim, bool):
                raise ValueError(f"non-integer matrix dimension {dim!r}")
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(self.entries) != self.rows:
            raise ValueError("row count does not match entries")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix rows")
            for x in row:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise ValueError(f"non-integer entry {x!r}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def _of(cls, rows: int, cols: int, entries: tuple[tuple[int, ...], ...]) -> "IntMatrix":
        """Trusted constructor: skips ``__post_init__``.  Only for entries that
        are already a tuple of ``rows`` tuples of ``cols`` ints."""
        m = object.__new__(cls)
        m.__dict__.update(rows=rows, cols=cols, entries=entries)
        return m

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        try:
            rows = [tuple(operator.index(x) for x in row) for row in rows]
        except TypeError as exc:
            raise ValueError(f"non-integer matrix entry: {exc}") from exc
        if cols is None:
            cols = len(rows[0]) if rows else 0
        return IntMatrix(len(rows), cols, tuple(rows))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        if n < 0:
            raise ValueError("negative matrix dimensions")
        return _identity(operator.index(n))

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        return IntMatrix._of(rows, cols, ((0,) * cols,) * rows)

    @staticmethod
    def diagonal(values: Sequence[int], rows: int | None = None) -> "IntMatrix":
        values = [exact_int(v, "matrix entry") for v in values]
        cols = len(values)
        rows = cols if rows is None else rows
        return IntMatrix(
            rows, cols,
            tuple(tuple(values[i] if i == j else 0 for j in range(cols)) for i in range(rows)),
        )

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def is_identity(self) -> bool:
        return self.rows == self.cols and all(
            self.entries[i][j] == (1 if i == j else 0)
            for i in range(self.rows) for j in range(self.cols)
        )

    def column(self, j: int) -> Vector:
        return tuple(self.entries[i][j] for i in range(self.rows))

    def columns(self) -> list[Vector]:
        # zip(*()) yields no columns at all, so a 0-row matrix spells them out
        return list(zip(*self.entries)) if self.rows else [()] * self.cols

    def diagonal_values(self) -> list[int]:
        return [self.entries[i][i] for i in range(min(self.rows, self.cols))]

    # -- arithmetic --------------------------------------------------------

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        cols = other.columns()
        mul = operator.mul
        return IntMatrix._of(self.rows, other.cols, tuple(
            tuple([sum(map(mul, row, col)) for col in cols]) for row in self.entries
        ))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        return IntMatrix._of(self.rows, self.cols, tuple(
            tuple(map(operator.add, r1, r2)) for r1, r2 in zip(self.entries, other.entries)
        ))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix._of(self.rows, self.cols, tuple(
            tuple(-x for x in row) for row in self.entries
        ))

    def transpose(self) -> "IntMatrix":
        return IntMatrix._of(self.cols, self.rows, tuple(self.columns()))

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return IntMatrix._of(self.rows, self.cols + other.cols, tuple(
            r1 + r2 for r1, r2 in zip(self.entries, other.entries)
        ))

    def take_rows(self, indices: Sequence[int]) -> "IntMatrix":
        return IntMatrix._of(len(indices), self.cols, tuple(self.entries[i] for i in indices))

    def take_columns(self, indices: Sequence[int]) -> "IntMatrix":
        return IntMatrix._of(self.rows, len(indices), tuple(
            tuple(row[j] for j in indices) for row in self.entries
        ))

    def det(self) -> int:
        """Determinant by the Bareiss fraction-free algorithm."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = [list(row) for row in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            prev = a[k][k]
        return sign * a[n - 1][n - 1]


# Identities are immutable constants asked for by size thousands of times a
# run; one bounded memo serves them (ranks stay small).
IDENTITY_CACHE_SIZE = 32


@lru_cache(maxsize=IDENTITY_CACHE_SIZE)
def _identity(n: int) -> IntMatrix:
    return IntMatrix._of(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))


# -- Smith and Hermite forms over Z/e and over Z -------------------------------
#
# A lattice L with e*Z^n <= L <= Z^n is the preimage of a submodule of
# (Z/e)^n, so it can be reduced there with every entry kept in [0, e); over Z
# the same eliminations can grow entries without bound.  Z/e is a principal
# ideal ring and has a Smith form.  Its pivot is a nonzero entry x of least
# gcd(x, e).  For e = l^E, a local ring, that is the entry of least l-valuation:
# it divides its whole row and column, and the inverse of its unit part clears
# them.  For any other e a pivot may fail to divide an entry; a Bezout step then
# replaces the pivot by their gcd, and a last pass turns the diagonal into a
# divisibility chain.  Both take no step for e = l^E.
#
# The modulus e = 0 is Z itself (Z/0 = Z): nothing is reduced, and the pivot of
# least gcd(x, 0) = |x| is the integer Smith form's classic rule.  Each Bezout
# step replaces the pivot by a proper divisor of it, so clearing a position
# takes at most log2 |pivot| of them.
#
# The Hermite form runs on the same workspace with column steps alone, modulo an
# e > 0 with e*Z^n inside the lattice (Domich, Kannan & Trotter 1987): the HNF
# modulo the determinant, computed as a Howell form (Storjohann & Mulders
# 1998).  Reducing modulo e is exact because every e*e_i lies in the lattice:
# any integer lift of a column reduced modulo e is still a lattice vector.


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g and |g| = gcd(a, b), for a, b of any sign."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def _unit_quotient(b: int, a: int, e: int) -> int:
    """q with q*a = b (mod e), given gcd(a, e) | b: b/g times the inverse of
    the unit part a/g of a, which is invertible modulo e/g.  Over Z (e = 0)
    a divides b and q is their exact quotient."""
    if not e:
        return b // a
    g = gcd(a, e)
    return b // g * pow(a // g, -1, e // g) % e


def _identity_rows(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


class _ModSmith:
    """Workspace for U @ M @ V = D (mod e), with U and V invertible mod e.

    The rows of ``d`` carry the attached columns after M's own, so that they
    end as U @ A.  Column operations are mirrored on V when track_v is set,
    and row operations on U^-1 when track_ui is set; an untracked one stays an
    empty list that takes no updates.  For e > 0 all entries stay in [0, e).
    For e = 0 the arithmetic is over Z, U and V are unimodular and the
    diagonal is made nonnegative.  With hermite set (e > 0), the same pivot
    rule and column steps bring M to its Hermite form instead (see _hermite).
    """

    def __init__(self, m: IntMatrix, e: int, attached: IntMatrix | None = None,
                 track_v: bool = True, track_ui: bool = False, hermite: bool = False):
        if e < 0:
            raise ValueError(f"modulus {e} < 0")
        self.e = e
        # x -> x mod e; over Z the identity
        self.red = (lambda x: x % e) if e else (lambda x: x)
        self.rows, self.cols = m.rows, m.cols
        tails = attached.entries if attached is not None else ((),) * m.rows
        self.d = [[self.red(x) for x in row + tail] for row, tail in zip(m.entries, tails)]
        self.v = _identity_rows(m.cols) if track_v else []
        self.ui = _identity_rows(m.rows) if track_ui else []
        if hermite:
            self._hermite()
            return
        t = 0
        while t < min(self.rows, self.cols) and self._pivot_to(t):
            self._clear(t)
            t += 1
        self._chain(t)
        if not e:
            for i in range(t):
                if self.d[i][i] < 0:
                    self._negate_row(i)

    def diagonal(self, i: int) -> int:
        return self.d[i][i] if i < min(self.rows, self.cols) else 0

    # -- elementary operations, each invertible modulo e --------------------

    def _swap_rows(self, i: int, k: int):
        self.d[i], self.d[k] = self.d[k], self.d[i]
        for row in self.ui:
            row[i], row[k] = row[k], row[i]

    def _swap_cols(self, j: int, k: int):
        for row in self.d:
            row[j], row[k] = row[k], row[j]
        for row in self.v:
            row[j], row[k] = row[k], row[j]

    def _negate_row(self, i: int):
        self.d[i] = [-x for x in self.d[i]]
        for row in self.ui:
            row[i] = -row[i]

    def _row_sub(self, i: int, t: int, q: int):
        # row_i -= q * row_t
        red = self.red
        self.d[i] = [red(x - q * y) for x, y in zip(self.d[i], self.d[t])]
        for row in self.ui:
            row[t] = red(row[t] + q * row[i])

    def _col_sub(self, j: int, t: int, q: int):
        # col_j -= q * col_t
        if not q:
            return
        red = self.red
        for rows in (self.d, self.v):
            for row in rows:
                row[j] = red(row[j] - q * row[t])

    def _row_bezout(self, t: int, i: int):
        # (row_t, row_i) <- (s row_t + r row_i, -b/g row_t + a/g row_i) with
        # s a + r b = g, |g| = gcd(a, b): d[t][t] becomes g and d[i][t] zero,
        # and the 2x2 block has determinant 1
        red = self.red
        a, b = self.d[t][t], self.d[i][t]
        g, s, r = _xgcd(a, b)
        c, f = -(b // g), a // g
        rt, ri = self.d[t], self.d[i]
        self.d[t] = [red(s * x + r * y) for x, y in zip(rt, ri)]
        self.d[i] = [red(c * x + f * y) for x, y in zip(rt, ri)]
        for row in self.ui:
            x, y = row[t], row[i]
            row[t], row[i] = red(f * x - c * y), red(s * y - r * x)

    def _col_bezout(self, t: int, j: int):
        # the transpose of _row_bezout, on columns (t, j)
        red = self.red
        a, b = self.d[t][t], self.d[t][j]
        g, s, r = _xgcd(a, b)
        c, f = -(b // g), a // g
        for rows in (self.d, self.v):
            for row in rows:
                x, y = row[t], row[j]
                row[t], row[j] = red(s * x + r * y), red(c * x + f * y)

    # -- elimination --------------------------------------------------------

    def _pivot_to(self, t: int, rows: int | None = None) -> bool:
        """Move the entry of least gcd(x, e) in d[t:rows, t:] (ties by lowest
        (row, col)) to (t, t); False when that block is zero."""
        e, best, where = self.e, None, None
        for i in range(t, self.rows if rows is None else rows):
            row = self.d[i]
            for j in range(t, self.cols):
                if row[j]:
                    g = gcd(row[j], e)
                    if where is None or g < best:
                        best, where = g, (i, j)
        if where is None:
            return False
        if where[0] != t:
            self._swap_rows(t, where[0])
        if where[1] != t:
            self._swap_cols(t, where[1])
        return True

    def _clear(self, t: int):
        """Zero row t and column t of d apart from the pivot d[t][t]."""
        d, e = self.d, self.e
        while True:
            for i in range(self.rows):
                if i != t and d[i][t]:
                    if d[i][t] % gcd(d[t][t], e):
                        self._row_bezout(t, i)
                    else:
                        self._row_sub(i, t, _unit_quotient(d[i][t], d[t][t], e))
            if not self._clear_row(t):
                return

    def _clear_row(self, t: int) -> bool:
        """Zero row t right of the pivot d[t][t] by column steps (left of it the
        row is zero or final); True when a Bezout step refilled column t."""
        d, e = self.d, self.e
        refilled = False
        for j in range(t + 1, self.cols):
            if d[t][j]:
                if d[t][j] % gcd(d[t][t], e):
                    # the new pivot column takes entries of column j
                    self._col_bezout(t, j)
                    refilled = True
                else:
                    self._col_sub(j, t, _unit_quotient(d[t][j], d[t][t], e))
        return refilled

    def _hermite(self):
        # Row t is cleared onto column t (no row moves), whose pivot x becomes
        # g = gcd(x, e), or e kept as 0 when row t is zero.  Scaling column t
        # by a unit modulo e/g loses (e/g) col_t, a lattice vector with row t
        # zero, so it is appended for the rows below (Howell's step).  Last,
        # the entries left of the pivot are reduced into [0, g).
        d, e = self.d, self.e
        for t in range(self.rows):
            if self._pivot_to(t, t + 1):
                self._clear_row(t)
            x = d[t][t]
            g = gcd(x, e)
            for row in d:
                row.append(e // g * row[t] % e)
            self.cols += 1
            self._col_sub(t, t, 1 - _unit_quotient(g, x, e))  # col_t *= q
            for j in range(t):
                self._col_sub(j, t, d[t][j] // g)

    def _chain(self, rank: int):
        # make gcd(d_i, e) divide gcd(d_j, e) for i < j: adding column j to
        # column i and clearing turns diag(a, b) into diag(gcd, lcm)
        e = self.e
        for i in range(rank):
            for j in range(i + 1, rank):
                if self.d[j][j] % gcd(self.d[i][i], e):
                    self._col_sub(i, j, -1)
                    self._clear(i)


def modular_smith(m: IntMatrix, e: int) -> tuple[tuple[int, ...], IntMatrix, IntMatrix]:
    """(factors, U, U^-1) presenting Z^rows / (col-span(m) + e*Z^rows).

    That group is the sum of Z/factors_i, a divisibility chain of divisors of
    e (unit factors included, one per row).  Row i of U, read modulo
    factors_i, maps ambient coordinates onto generator i; column i of U^-1
    lifts that generator, and U @ U^-1 = 1 modulo e.  With e = 0 the group is
    Z^rows / col-span(m) itself, a factor 0 is a free generator Z, and U is
    unimodular with U^-1 its exact inverse.
    """
    st = _ModSmith(m, e, IntMatrix.identity(m.rows), track_v=False, track_ui=True)
    factors = tuple(gcd(st.diagonal(i), e) for i in range(m.rows))
    u = IntMatrix._of(m.rows, m.rows, tuple(tuple(row[m.cols:]) for row in st.d))
    ui = IntMatrix._of(m.rows, m.rows, tuple(tuple(row) for row in st.ui))
    return factors, u, ui


@lru_cache(maxsize=8192)
def _snf_cached(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    st = _ModSmith(m, 0, IntMatrix.identity(m.rows))
    rows, cols = m.rows, m.cols
    return (
        IntMatrix._of(rows, rows, tuple(tuple(row[cols:]) for row in st.d)),
        IntMatrix._of(rows, cols, tuple(tuple(row[:cols]) for row in st.d)),
        IntMatrix._of(cols, cols, tuple(tuple(row) for row in st.v)),
    )


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (U, D, V) with D = U @ m @ V, U and V unimodular.

    D is diagonal with nonnegative entries satisfying d_i | d_{i+1}; zero
    entries come last.  This is the Smith form modulo e = 0 (see
    :func:`modular_smith`).
    """
    return _snf_cached(m)


def hermite_normal_form(basis: IntMatrix, modulus: int = 0) -> IntMatrix:
    """Canonical column-HNF basis of L = col-span(basis) + modulus*Z^k.

    The result is the unique k x k lower-triangular basis of L with positive
    diagonal and 0 <= H[i][j] < H[i][i] for j < i, so equal lattices give
    equal matrices.  modulus e means what it means in :func:`modular_smith`;
    each diagonal entry divides it.  With e = 0 the columns must span a
    rank-k lattice, and e is the last invariant factor of Z^k / L.
    """
    k = basis.rows
    if not modulus:
        factors = modular_smith(basis, 0)[0]
        modulus = factors[-1] if factors else 1
        if not modulus:
            raise ValueError("lattice basis does not have full rank")
    if not basis.cols:  # L = e*Z^k: start from a zero column
        basis = IntMatrix.zeros(k, 1)
    st = _ModSmith(basis, modulus, track_v=False, hermite=True)
    # a diagonal entry e is kept as 0 modulo e
    return IntMatrix._of(k, k, tuple(
        (*row[:i], row[i] or modulus, *row[i + 1:k]) for i, row in enumerate(st.d)))


def modular_solve(m: IntMatrix, e: int, ys: IntMatrix) -> list[Vector | None]:
    """For each column y of ys, some x in [0, e)^cols with m @ x = y (mod e),
    or None when there is none.  One elimination serves every column."""
    if ys.rows != m.rows:
        raise ValueError("right-hand side length mismatch")
    if e < 1:
        raise ValueError(f"modulus {e} < 1")
    st = _ModSmith(m, e, ys)
    pivots = []
    for i in range(m.rows):
        x = st.diagonal(i)
        g = gcd(x, e)
        pivots.append((g, pow(x // g, -1, e // g)))
    out: list[Vector | None] = []
    for c in range(m.cols, m.cols + ys.cols):
        w = [0] * m.cols
        for i, (g, inv) in enumerate(pivots):
            y = st.d[i][c]
            if y % g:
                out.append(None)
                break
            if i < m.cols:
                w[i] = y // g * inv % e
        else:
            x = tuple(sum(map(operator.mul, row, w)) % e for row in st.v)
            if any((sum(map(operator.mul, row, x)) - y[c - m.cols]) % e
                   for row, y in zip(m.entries, ys.entries)):
                raise AssertionError(f"modular solution {x} fails modulo {e}")
            out.append(x)
    return out


def modular_kernel(m: IntMatrix, e: int) -> IntMatrix:
    """Columns generating the lattice {x in Z^cols : m @ x = 0 (mod e)}.

    With D = U @ m @ V modulo e, the lattice is V @ {w : D w = 0 (mod e)} +
    e*Z^cols; the generators are the columns of V scaled by e / gcd(d_j, e),
    then e times the unit vectors.
    """
    if e < 1:
        raise ValueError(f"modulus {e} < 1")
    st = _ModSmith(m, e)
    gens = []
    for j in range(m.cols):
        scale = e // gcd(st.diagonal(j), e)
        col = tuple(row[j] * scale % e for row in st.v)
        if any(col):
            gens.append(col)
    gens += [tuple(e if i == j else 0 for i in range(m.cols)) for j in range(m.cols)]
    return IntMatrix._of(m.cols, len(gens), tuple(zip(*gens)) if m.cols else ())
