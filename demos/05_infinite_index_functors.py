"""Symbolic infinite indices and the image-quotient functor.

A hypernatural index term is a finite offset plus declared infinite symbols.
The image-quotient functor evaluates an AR-l-adic tower "at level h-1" for
an infinite h: on normal forms this is the canonical l-adic replacement
carried at a symbolic star-level whose finite quotients are the tower levels
themselves.  The reconstruction functor and the natural isomorphism phi close
the loop.
"""

from arl import (
    FinAbGroup,
    HyperNat,
    TailRule,
    Tower,
    ZlModule,
    ar_is_isomorphism,
    direct_sum,
    faithfulness_check,
    phi_iso,
    psi,
    star_tower,
    to_tower,
    trivial_group,
    upsilon,
    upsilon_mor,
    zero_hom,
)
from arl.arcat import ar_from_tower_hom
from arl.groups import GroupHom, identity_hom
from arl.intmat import IntMatrix
from arl.towers import HomRule, TowerHom

l = 2
h = HyperNat.parse("h")
d1 = HyperNat.symbol("d1")

# Hypernatural arithmetic: infinite symbols dominate every finite offset.
print("h vs 10^6:", h.compare(10**6))
print("(h+d1) - h =", (h + d1 - h).describe())
print("h vs d1:", h.compare(d1), " (distinct symbols are incomparable)")

# The image-quotient object of the standard tower.
t = to_tower(ZlModule(l, (), 1), 8)
u = upsilon(t, h)
print()
print("object at star-index", (u.h - 1).describe(),
      ", annihilated by l^(", u.h.describe(), ")")
print("finite quotients: ", [u.finite_quotient(k).describe() for k in range(1, 5)])

# Reconstruction returns exactly the l-adic tower we started from.
print("psi(upsilon(L)) levelwise equals L:", psi(u).levelwise_equal(t))

# Zero-system noise does not change the normal form.
g = FinAbGroup((l,), prime_support=l)
groups = [g] * 2 + [trivial_group(l)] * 6
maps = [identity_hom(g)] + [zero_hom(groups[n], groups[n - 1]) for n in range(2, 8)]
noise = Tower(l, tuple(groups), tuple(maps), tail=TailRule(2))
f = direct_sum(t, noise)
uf = upsilon(f, h)
print()
print("with noise:", [uf.finite_quotient(k).describe() for k in range(1, 5)])
print("same normal form:", uf.canonical_form() == u.canonical_form())

# phi: the reconstruction of F agrees with the star of F up to shift-class
# isomorphism; on l-adic towers it is the literal identity.
iso, inverse = phi_iso(f, h)
print()
print("phi is a shift-class isomorphism:", ar_is_isomorphism(iso).status)
print("star marker:", star_tower(f).starred)

# Morphisms are carried to their unique shift-0 representatives.
mult = ar_from_tower_hom(TowerHom(
    t, t,
    tuple(GroupHom(t.level(n), t.level(n), IntMatrix.from_rows([[l]]))
          for n in range(t.top + 1)),
    tail=HomRule(0, IntMatrix.from_rows([[l]])),
))
um = upsilon_mor(mult, h)
print()
print("multiplication by l maps to multiplication by l:",
      um.tower_hom.level(1).matrix.entries)
print("faithfulness holds on this instance:", faithfulness_check(mult, h))
