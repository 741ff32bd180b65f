"""Exact normal forms: the bedrock of everything else.

Every computation in this library reduces to exact linear algebra: Smith
normal form over Z with unimodular transforms, Hermite normal form for
canonical lattice bases, and, for finite groups, Smith form, solving and
kernels over Z/e for e the exponent of the groups involved.
"""

from arl import IntMatrix, hermite_normal_form, smith_normal_form
from arl.intmat import modular_kernel, modular_smith, modular_solve

m = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
u, d, v = smith_normal_form(m)

print("matrix:")
for row in m.entries:
    print("   ", list(row))
print("smith normal form diagonal:", d.diagonal_values())
print("transforms are unimodular: det(U) =", u.det(), ", det(V) =", v.det())
print("U @ M @ V == D:", (u @ m @ v).entries == d.entries)

# The divisibility chain classifies the cokernel as an abelian group:
# Z^3 / col-span(M) is the direct sum of Z/d_i.
print()
print("diag(2,3) has SNF diagonal", smith_normal_form(IntMatrix.diagonal([2, 3]))[1].diagonal_values(),
      " - Z/2 + Z/3 is cyclic of order 6")

# Hermite normal form: a canonical basis for a lattice, independent of the
# generators you started from.
b1 = IntMatrix.from_rows([[4, 2], [0, 6]])
b2 = IntMatrix.from_rows([[2, 4, 6], [6, 0, 6]])
print()
print("two generating sets, one lattice, one HNF basis:")
print("   ", hermite_normal_form(b1).entries)
print("   ", hermite_normal_form(b2).entries)

# Finite groups: modulo e every entry stays in [0, e).  Z^2 / (col-span(M) +
# 8 Z^2) for M = [[2, 4], [6, 4]]: its factors, and the coordinate map U that
# reads generator i modulo factor i.
m2 = IntMatrix.from_rows([[2, 4], [6, 4]])
factors, u2, _ = modular_smith(m2, 8)
print()
print("Z^2 / (span of [[2,4],[6,4]] + 8 Z^2) has factors", factors, "via U =", u2.entries)

# Exact solving modulo 8: a checked solution or a definite no, one
# elimination for all right-hand sides.
print("solve [[2,4],[6,4]] x = (2, 6) and (1, 0) mod 8:",
      modular_solve(m2, 8, IntMatrix.from_rows([[2, 1], [6, 0]])))
print("kernel of [[2,4]] mod 8 is generated by:",
      modular_kernel(IntMatrix.from_rows([[2, 4]]), 8).columns())
