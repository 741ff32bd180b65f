"""Exact integer matrices: Smith/Hermite normal forms and lattice arithmetic.

All arithmetic is over arbitrary-precision Python integers; nothing here is
ever rounded.  The Smith normal form uses a fixed pivot rule (nonzero entry of
minimal absolute value, ties broken by lowest (row, col)) so that every result
is bit-for-bit reproducible.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence


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
        return IntMatrix._of(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        return IntMatrix._of(rows, cols, ((0,) * cols,) * rows)

    @staticmethod
    def diagonal(values: Sequence[int], rows: int | None = None, cols: int | None = None) -> "IntMatrix":
        values = [exact_int(v, "matrix entry") for v in values]
        n = len(values)
        rows = n if rows is None else rows
        cols = n if cols is None else cols
        return IntMatrix(
            rows, cols,
            tuple(tuple(values[i] if i == j and i < n else 0 for j in range(cols)) for i in range(rows)),
        )

    @staticmethod
    def from_columns(columns: Sequence[Sequence[int]], rows: int | None = None) -> "IntMatrix":
        if rows is None:
            rows = len(columns[0]) if columns else 0
        return IntMatrix(
            rows, len(columns),
            tuple(tuple(exact_int(col[i], "matrix entry") for col in columns) for i in range(rows)),
        )

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_identity(self) -> bool:
        return self.is_square() and all(
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

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(tuple(c * x for x in row) for row in self.entries))

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

    def apply(self, v: Sequence[int]) -> Vector:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(row[k] * v[k] for k in range(self.cols)) for row in self.entries)

    def det(self) -> int:
        """Determinant by the Bareiss fraction-free algorithm."""
        if not self.is_square():
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


def _pivot(d: list[list[int]], t: int, rows: int, cols: int) -> tuple[int, int] | None:
    # Minimal |entry| among nonzeros of d[t:, t:]; ties resolved by (row, col).
    best = None
    best_abs = None
    for i in range(t, rows):
        di = d[i]
        for j in range(t, cols):
            v = di[j]
            if v != 0:
                a = -v if v < 0 else v
                if best_abs is None or a < best_abs:
                    best_abs = a
                    best = (i, j)
    return best


class _SnfState:
    """Mutable workspace tracking D = U*M*V together with U^-1 and V^-1."""

    def __init__(self, m: IntMatrix):
        self.rows = m.rows
        self.cols = m.cols
        self.d = [list(row) for row in m.entries]
        self.u = [[1 if i == j else 0 for j in range(m.rows)] for i in range(m.rows)]
        self.ui = [[1 if i == j else 0 for j in range(m.rows)] for i in range(m.rows)]
        self.v = [[1 if i == j else 0 for j in range(m.cols)] for i in range(m.cols)]
        self.vi = [[1 if i == j else 0 for j in range(m.cols)] for i in range(m.cols)]

    def swap_rows(self, i: int, k: int):
        if i == k:
            return
        self.d[i], self.d[k] = self.d[k], self.d[i]
        self.u[i], self.u[k] = self.u[k], self.u[i]
        for row in self.ui:
            row[i], row[k] = row[k], row[i]

    def swap_cols(self, j: int, k: int):
        if j == k:
            return
        for row in self.d:
            row[j], row[k] = row[k], row[j]
        for row in self.v:
            row[j], row[k] = row[k], row[j]
        self.vi[j], self.vi[k] = self.vi[k], self.vi[j]

    def negate_row(self, i: int):
        self.d[i] = [-x for x in self.d[i]]
        self.u[i] = [-x for x in self.u[i]]
        for row in self.ui:
            row[i] = -row[i]

    def row_addmul(self, i: int, k: int, c: int):
        # row_i += c * row_k
        if c == 0:
            return
        di, dk = self.d[i], self.d[k]
        for j in range(self.cols):
            di[j] += c * dk[j]
        ui, uk = self.u[i], self.u[k]
        for j in range(self.rows):
            ui[j] += c * uk[j]
        for row in self.ui:
            row[k] -= c * row[i]

    def col_addmul(self, j: int, k: int, c: int):
        # col_j += c * col_k
        if c == 0:
            return
        for row in self.d:
            row[j] += c * row[k]
        for row in self.v:
            row[j] += c * row[k]
        vj, vk = self.vi[j], self.vi[k]
        for t in range(self.cols):
            vk[t] -= c * vj[t]

    def clear_at(self, t: int) -> bool:
        """Bring the minimal pivot to (t, t) and clear its row and column.

        Returns False when the trailing block d[t:, t:] is already zero.
        """
        piv = _pivot(self.d, t, self.rows, self.cols)
        if piv is None:
            return False
        self.swap_rows(t, piv[0])
        self.swap_cols(t, piv[1])
        while True:
            dirty = False
            for i in range(self.rows):
                if i != t and self.d[i][t] != 0:
                    q = self.d[i][t] // self.d[t][t]
                    self.row_addmul(i, t, -q)
                    if self.d[i][t] != 0:
                        # Remainder becomes the strictly smaller new pivot.
                        self.swap_rows(t, i)
                        dirty = True
            for j in range(self.cols):
                if j != t and self.d[t][j] != 0:
                    q = self.d[t][j] // self.d[t][t]
                    self.col_addmul(j, t, -q)
                    if self.d[t][j] != 0:
                        self.swap_cols(t, j)
                        dirty = True
            if not dirty:
                row_clear = all(self.d[t][j] == 0 for j in range(self.cols) if j != t)
                col_clear = all(self.d[i][t] == 0 for i in range(self.rows) if i != t)
                if row_clear and col_clear:
                    return True


def _snf_state(m: IntMatrix) -> _SnfState:
    st = _SnfState(m)
    k = min(m.rows, m.cols)
    for t in range(k):
        if not st.clear_at(t):
            break
    # Normalize signs, then repair the divisibility chain d_i | d_{i+1}.
    guard = 0
    while True:
        guard += 1
        if guard > 100_000:
            raise AssertionError("smith normal form failed to converge")
        for i in range(k):
            if st.d[i][i] < 0:
                st.negate_row(i)
        fixed = True
        for i in range(k - 1):
            a, b = st.d[i][i], st.d[i + 1][i + 1]
            if a == 0 and b != 0:
                st.swap_rows(i, i + 1)
                st.swap_cols(i, i + 1)
                fixed = False
                break
            if a != 0 and b % a != 0:
                st.col_addmul(i, i + 1, 1)
                st.clear_at(i)
                st.clear_at(i + 1)
                fixed = False
                break
        if fixed:
            return st


@lru_cache(maxsize=8192)
def _snf_cached(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix, IntMatrix, IntMatrix]:
    st = _snf_state(m)
    freeze = lambda a, r, c: IntMatrix._of(r, c, tuple(tuple(row) for row in a))
    return (
        freeze(st.u, m.rows, m.rows),
        freeze(st.d, m.rows, m.cols),
        freeze(st.v, m.cols, m.cols),
        freeze(st.ui, m.rows, m.rows),
        freeze(st.vi, m.cols, m.cols),
    )


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (U, D, V) with D = U @ m @ V, U and V unimodular.

    D is diagonal with nonnegative entries satisfying d_i | d_{i+1}; zero
    entries come last.
    """
    u, d, v, _, _ = _snf_cached(m)
    return u, d, v


def snf_with_inverses(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix, IntMatrix, IntMatrix]:
    """Like :func:`smith_normal_form` but also returns U^-1 and V^-1."""
    return _snf_cached(m)


def solve(m: IntMatrix, b: Sequence[int]) -> Vector | None:
    """An integer solution x of m @ x = b, or None when there is none."""
    if len(b) != m.rows:
        raise ValueError("right-hand side length mismatch")
    u, d, v, _, _ = _snf_cached(m)
    c = u.apply(tuple(b))
    w = [0] * m.cols
    k = min(m.rows, m.cols)
    for i in range(m.rows):
        di = d.entries[i][i] if i < k else 0
        if di != 0:
            if c[i] % di != 0:
                return None
            w[i] = c[i] // di
        elif c[i] != 0:
            return None
    return v.apply(w)


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Columns generating the integer kernel {x : m @ x = 0}."""
    _, d, v, _, _ = _snf_cached(m)
    k = min(m.rows, m.cols)
    zero_cols = [j for j in range(m.cols) if j >= k or d.entries[j][j] == 0]
    return v.take_columns(zero_cols)


def lattice_contains(basis: IntMatrix, x: Sequence[int]) -> bool:
    """Whether x lies in the column span of basis over the integers."""
    return solve(basis, x) is not None


def lattice_leq(a: IntMatrix, b: IntMatrix) -> bool:
    """Whether col-span(a) is contained in col-span(b)."""
    return all(lattice_contains(b, a.column(j)) for j in range(a.cols))


def lattice_eq(a: IntMatrix, b: IntMatrix) -> bool:
    return lattice_leq(a, b) and lattice_leq(b, a)


def hermite_normal_form(basis: IntMatrix) -> IntMatrix:
    """Canonical column-HNF basis of a full-rank lattice in Z^k.

    The input columns must span a rank-k sublattice of Z^k.  The result is
    the unique k x k lower-triangular basis with positive diagonal and
    0 <= H[i][j] < H[i][i] for j < i, so equal lattices give equal matrices.
    """
    k = basis.rows
    w = [list(row) for row in basis.entries]
    ncols = basis.cols

    def col_addmul(j, t, c):
        for row in w:
            row[j] += c * row[t]

    def col_swap(j, t):
        if j != t:
            for row in w:
                row[j], row[t] = row[t], row[j]

    pc = 0
    for r in range(k):
        while True:
            best = None
            for j in range(pc, ncols):
                v = w[r][j]
                if v != 0 and (best is None or abs(v) < abs(w[r][best])):
                    best = j
            if best is None:
                raise ValueError("lattice basis does not have full rank")
            col_swap(pc, best)
            others = [j for j in range(pc + 1, ncols) if w[r][j] != 0]
            if not others:
                break
            for j in others:
                q = w[r][j] // w[r][pc]
                col_addmul(j, pc, -q)
        if w[r][pc] < 0:
            for row in w:
                row[pc] = -row[pc]
        for j in range(pc):
            q = w[r][j] // w[r][pc]
            col_addmul(j, pc, -q)
        pc += 1
    return IntMatrix._of(k, k, tuple(tuple(row[:k]) for row in w))


def vector(values: Iterable[int]) -> Vector:
    return tuple(exact_int(v, "vector entry") for v in values)
