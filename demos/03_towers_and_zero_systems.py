"""Towers: projective systems of finite l-groups with certified tails.

A tower stores an explicit prefix plus a tail rule that pins down all the
deeper levels.  The two structural predicates are three-valued: a yes comes
with a certificate, a no with a witness, and a truncated tower can leave a
question honestly unanswered.
"""

from arl import (
    FinAbGroup,
    TailRule,
    Tower,
    ZlModule,
    constant_tower,
    direct_sum,
    is_l_adic,
    is_zero_system,
    mod_power,
    natural_map,
    shift,
    to_tower,
    trivial_group,
    zero_hom,
)
from arl.groups import identity_hom

l = 2

# The defining example: levels Z/l^{n+1} with canonical reductions.
t = to_tower(ZlModule(l, (), 1), 8)
print("tower of Z/2^{n+1}:", t.describe_levels()[:5], "...")
print("is l-adic:", is_l_adic(t).status, "| is zero system:", is_zero_system(t).status)

# Shifting re-indexes; an l-adic tower stops being l-adic when shifted.
s = shift(t, 1)
print()
print("shift by 1:", s.describe_levels()[:4], "...")
v = is_l_adic(s)
print("shifted l-adic?", v.status, "witness:", v.witness)

# Natural maps are the composed transitions F[r] -> F.
nm = natural_map(t, 2)
print()
print("natural map F[2] -> F at level 0:", nm.level(0).source.describe(),
      "->", nm.level(0).target.describe())

# A zero system: trivial beyond level 3, certified by its tail rule.
g = FinAbGroup((l,), prime_support=l)
groups = [g, g, g] + [trivial_group(l)] * 5
maps = [identity_hom(g), identity_hom(g)] + \
    [zero_hom(groups[n], groups[n - 1]) for n in range(3, 8)]
noise = Tower(l, tuple(groups), tuple(maps), tail=TailRule(3))
v = is_zero_system(noise)
print()
print("noise tower:", noise.describe_levels()[:5], "...")
print("zero system:", v.status, "radius", v.certificate.radius,
      f"({v.certificate.scope} scope)")

# A truncated tower can only answer up to its prefix.
c = constant_tower(l, g, 5)
print()
print("constant Z/2 with identity maps, truncated:",
      is_zero_system(c).status, "-", is_zero_system(c).note)

# Levelwise operations: sums and quotients, with derived tails.
summed = direct_sum(t, noise)
print()
print("l-adic + zero system:", summed.describe_levels()[:5], "...")
print("still l-adic?", is_l_adic(summed).status, "witness:", is_l_adic(summed).witness)
print("mod l^1 of the big tower:", mod_power(t, 1).describe_levels()[:4], "...")
