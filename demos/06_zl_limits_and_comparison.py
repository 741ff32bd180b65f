"""Inverse limits as Z_l-modules, and the cohomology-tower comparisons.

An l-adic tower determines a finitely generated Z_l-module: stabilized
invariant factors become torsion, factors growing with the level become free
rank.  Cohomology towers enter as plain towers; the comparison check
evaluates both module-valued readings and the torsion criterion synthesizes
the middle term of the coefficient exact sequence.
"""

from arl import (
    HyperNat,
    IntMatrix,
    Tower,
    ZlModule,
    comparison_check,
    ladic_iff_torsionfree,
    limit,
    tensor_zl,
    to_tower,
    upsilon,
)
from arl.towers import is_l_adic

l = 2
h = HyperNat.symbol("h")

# limit and to_tower are mutually inverse.
m = ZlModule(l, (2,), 1)
t = to_tower(m, 8)
print("module:", m.describe())
print("its tower:", t.describe_levels()[:5], "...")
print("limit of the tower:", limit(t).describe())

# Even from a truncated prefix, the stabilization pattern gives the answer:
# exponents (1,1),(2,2),(2,3),(2,4) force Z/l^2 + Zl.
truncated = Tower(l, t.groups, t.maps, tail=None)
print("limit detected from the bare prefix:", limit(truncated).describe())

# Torsion dies over Q_l.
print()
print("rank over Q_l of", ZlModule(l, (5,), 2).describe(), "is",
      ZlModule(l, (5,), 2).free_rank)

# A cohomology tower with a unit Frobenius: both module readings agree,
# including the operator.
frob = ZlModule(l, (), 1, operators=(("frob", IntMatrix.from_rows([[3]])),))
rep = comparison_check(to_tower(frob, 8))
print()
print("comparison in degree 0:")
print("  stable-image reading:", rep.left.describe())
print("  limit reading:       ", rep.right.describe())
print("  isomorphic:", rep.isomorphic, " operators match:", rep.operators_match)

# The same identity straight from the functor calculus.
print("  tensor_zl(upsilon(T)) == limit(canonical(T)):",
      tensor_zl(upsilon(to_tower(frob, 8), h)) == frob)

# The torsion criterion: the synthesized middle tower is l-adic exactly when
# the next-degree module is torsion free.
print()
for nxt in [ZlModule(l, (), 2), ZlModule(l, (1,))]:
    res = ladic_iff_torsionfree(ZlModule(l, (), 1), nxt)
    print(f"next degree {nxt.describe():12s} -> tower l-adic: "
          f"{is_l_adic(res.tower).status:3s} | criterion held: {res.verdict}")
