"""The shift-class (Artin-Rees) morphism calculus.

Morphisms are taken up to shifting, which quotients away the zero systems.
The central algorithm is the canonical l-adic replacement: stabilize the
images, shift, truncate levelwise, and certify the two mutually inverse
morphisms.
"""

from arl import (
    FinAbGroup,
    TailRule,
    Tower,
    ZlModule,
    ar_compose,
    ar_equal,
    ar_identity,
    ar_is_isomorphism,
    ar_zero,
    canonical_l_adic,
    certify_ar_l_adic,
    direct_sum,
    factorization_radius,
    is_l_adic,
    shift,
    stable_image_bound,
    stable_image_tower,
    to_tower,
    trivial_group,
    zero_hom,
)
from arl.groups import identity_hom

l = 2
t = to_tower(ZlModule(l, (), 1), 8)

g = FinAbGroup((l,), prime_support=l)
groups = [g] * 3 + [trivial_group(l)] * 5
maps = [identity_hom(g), identity_hom(g)] + \
    [zero_hom(groups[n], groups[n - 1]) for n in range(3, 8)]
noise = Tower(l, tuple(groups), tuple(maps), tail=TailRule(3))
f = direct_sum(t, noise)

# Stable images: the Mittag-Leffler bound and the image subsystem.
sb = stable_image_bound(f)
print("Mittag-Leffler bound of (Z_l tower + noise of radius 3):",
      sb.certificate.bound)
stable, _ = stable_image_tower(f)
print("stable image tower:", stable.describe_levels()[:5], "...")

# The canonical l-adic replacement strips the noise and certifies both
# directions of the isomorphism.
c = canonical_l_adic(f)
print()
print("canonical tower:", c.tower.describe_levels()[:5], "...")
print("truncation shift r =", c.shift, ", stabilization s =", c.ml_bound)
print("is l-adic:", is_l_adic(c.tower).status)
print("forward is an isomorphism:", ar_is_isomorphism(c.iso).status)
print("round trips are identities:",
      ar_equal(ar_compose(c.inverse, c.iso), ar_identity(f)).status,
      "/",
      ar_equal(ar_compose(c.iso, c.inverse), ar_identity(c.tower)).status)

# A shifted l-adic tower normalizes back to the unshifted one.
c2 = canonical_l_adic(shift(t, 2))
print()
print("canonical of shift-by-2:", c2.tower.describe_levels()[:4],
      "- levelwise equal to the original:", c2.tower.levelwise_equal(t, upto=c2.tower.top))

# The factorization radius: how far down a transition must go before it
# factors through the mod-l^{m+1} quotient.
print()
print("factorization radius: l-adic tower ->", factorization_radius(t).certificate,
      ", shifted by 1 ->", factorization_radius(shift(t, 1)).certificate)

# Shift-class equality collapses everything mapping into a zero system.
print()
print("identity vs zero into a zero system:",
      ar_equal(ar_identity(noise), ar_zero(noise, noise)).status)
print("identity vs zero on an l-adic tower:",
      ar_equal(ar_identity(t), ar_zero(t, t)).status)

# Certification produces a reusable witness.
w = certify_ar_l_adic(f).certificate
print()
print(f"witness: epi at shift {w.shift} onto an l-adic tower, kernel radius "
      f"{w.kernel_cert.radius}")
