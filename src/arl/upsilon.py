"""The image-quotient functor at a symbolic infinite index, and its partners.

For an AR-l-adic tower F and an infinite index h the functor takes the
stable image over an infinite gap and quotients by l^h.  On normal forms
this is the canonical l-adic replacement G of F placed at the symbolic
star-level h-1, so ``UpsilonObj`` holds only the normalization and h: every
finite quotient  (G at h-1)/l^{n+1}  is literally G_n, which is all the
external information the object carries.  The reconstruction
functor (psi) reads off the tower of finite quotients, which is G again, and
phi, the natural isomorphism between the round trip and the star embedding,
is the normalization's pair of shift-class isomorphisms (levelwise the
identity on l-adic towers).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .arcat import (
    ARMor,
    CanonicalLAdic,
    ar_compose,
    ar_equal,
    ar_is_isomorphism,
    ar_zero,
    canonical_l_adic,
)
from .errors import FiniteIndex, PreconditionViolated
from .groups import (
    FinAbGroup,
    GroupHom,
    hom_is_isomorphism,
    is_exact_at,
    is_surjective,
    kills_multiples,
    reduce_matrix,
    section,
)
from .hypernat import HyperNat
from .towers import (
    Tower,
    TowerHom,
    classify_tail,
    is_l_adic,
)


@dataclass(frozen=True, eq=False)
class UpsilonObj:
    """Normal form of the image-quotient at an infinite index h: the
    canonical l-adic tower G at star-level h-1, annihilated by l^h."""

    normalization: CanonicalLAdic
    h: HyperNat

    def finite_quotient(self, power: int) -> FinAbGroup:
        """The quotient by l^power, which at an infinite index is G_{power-1}."""
        if power < 1:
            raise ValueError("quotient power must be >= 1")
        return self.normalization.tower.level(power - 1)

    def canonical_form(self, upto: Optional[int] = None) -> tuple:
        """Comparable normal form: levelwise invariant factors (up to a given
        level) plus the certified tail data when present."""
        base = self.normalization.tower
        hi = base.top if upto is None else min(upto, base.top)
        levels = tuple(base.level(n).invariant_factors for n in range(hi + 1))
        shape = classify_tail(base)
        tail = None
        if shape is not None and shape.module is not None:
            tail = (shape.start, shape.module.torsion_exponents, shape.module.free_rank)
        elif shape is not None:
            tail = (shape.start, (), 0)
        return (levels, tail)


def upsilon(f: Tower, h: HyperNat, *, ml_bound: Optional[int] = None) -> UpsilonObj:
    """The image-quotient object of an AR-l-adic tower at infinite index h.

    The normalization searches within the default bound (``ARL_DEFAULT_BOUND``,
    else the tower's top level).  The keyword-only ml_bound overrides the
    stabilization shift used for the internal image (for cross-checking that
    the normal form does not depend on it); only without it does the
    normalization carry the mutually inverse shift-class morphisms.
    """
    if not h.is_infinite:
        raise FiniteIndex(f"index {h.describe()} is finite; an infinite index is required")
    c = canonical_l_adic(f, ml_bound=ml_bound)
    return UpsilonObj(c, h)


def psi(u: UpsilonObj) -> Tower:
    """The tower of finite quotients (U/l^{n+1})_n of an l^h-annihilated
    object.  At an infinite index U/l^{n+1} is level n of the canonical
    l-adic tower (:meth:`UpsilonObj.finite_quotient`), so this is that
    tower itself."""
    return u.normalization.tower


def star_tower(f: Tower) -> Tower:
    """The enlargement of a tower: levelwise the identity on finite data.
    The ``starred`` marker changes no computation; it is kept only because
    the benchmark tracer reads it."""
    return replace(f, starred=True)


@dataclass(frozen=True, eq=False)
class UpsilonHom:
    """A morphism of image-quotient objects, represented by the unique
    shift-0 morphism between the canonical l-adic towers."""

    source: UpsilonObj
    target: UpsilonObj
    tower_hom: TowerHom

    def is_zero(self) -> bool:
        return self.tower_hom.is_levelwise_zero()

    def is_iso(self) -> bool:
        return all(hom_is_isomorphism(f) for f in self.tower_hom.levels)


def ar_canonical_rep(f: ARMor) -> TowerHom:
    """The shift-0 representative of a morphism between l-adic towers.

    Between l-adic systems every shift-class morphism has exactly one
    levelwise representative; it is recovered by lifting along the
    (surjective) composed transitions, after checking that the given
    representative kills their kernels.
    """
    if not is_l_adic(f.source) or not is_l_adic(f.target):
        raise PreconditionViolated("canonical representatives need l-adic endpoints")
    rho = f.shift_amount
    if rho == 0:
        return f.rep
    levels = []
    for n in range(f.rep.top + 1):
        comp = f.source.composite(n, rho)
        rep_n = f.rep.level(n)
        # the source is l-adic, so comp is onto (it has a section) with kernel
        # l^{n+1} F_{n+rho}
        if not kills_multiples(rep_n, f.source.l ** (n + 1)):
            raise PreconditionViolated(
                f"representative does not factor through the shift at level {n}")
        # By the ARMor invariant rep_n is a natural map F_{n+rho} -> G_n.  comp
        # is onto and rep_n kills ker comp, so rep_n = g.comp for one
        # well-defined hom g, which sends generator j to rep_n of its lift.
        # For an operator s of both ends, g.s.comp = g.comp.s = s.g.comp, and
        # for the transitions g_n.u_{n+1}.comp_{n+1} = g_n.comp_n.u_{n+1+rho} =
        # u_{n+1}.g_{n+1}.comp_{n+1}; comp is onto, so g commutes with s and
        # the levels are natural
        target = f.target.level(n)
        levels.append(GroupHom._of(comp.target, target, reduce_matrix(
            rep_n.matrix @ section(comp), target.invariant_factors)))
    return TowerHom._of(f.source, f.target, tuple(levels), None)


def upsilon_mor(f: ARMor, h: HyperNat) -> UpsilonHom:
    """The induced morphism of image-quotient objects.

    The morphism is conjugated onto the canonical l-adic replacements and
    presented by its unique shift-0 representative, so it only depends on
    the shift-class of the input.
    """
    if not h.is_infinite:
        raise FiniteIndex(f"index {h.describe()} is finite")
    us = upsilon(f.source, h)
    ut = upsilon(f.target, h)
    conj = ar_compose(ut.normalization.iso, ar_compose(f, us.normalization.inverse))
    rep0 = ar_canonical_rep(conj)
    return UpsilonHom(us, ut, rep0)


def phi_iso(f: Tower, h: HyperNat) -> tuple[ARMor, ARMor]:
    """The natural isomorphism between psi(upsilon(F)) and the star of F.

    On normal forms psi(upsilon(F)) is the canonical l-adic tower G and the
    star is the identity on finite data, so phi is the normalization's own
    pair: (iso, inverse) = (G -> F, F -> G), the first at the factorization
    shift, the second the stable-image epimorphism.  The target of iso is F
    itself.  For an l-adic tower both are the identity.
    """
    c = upsilon(f, h).normalization
    return c.inverse, c.iso


def check_right_exact(f: ARMor, g: ARMor, h: HyperNat) -> bool:
    """Whether the induced sequence of image-quotient objects is exact on
    finite quotients.

    The input F -> G -> H -> 0 must be exact in the shift-class category
    (checked within the default bound: the composite vanishes there).  The
    test then verifies, on every finite quotient that both induced morphisms
    represent, exactness at the middle and surjectivity at the end of the
    induced sequence.
    """
    comp = ar_compose(g, f)
    vanishes = ar_equal(comp, ar_zero(f.source, g.target))
    if not vanishes:
        raise PreconditionViolated("composite does not vanish in the shift-class category")
    uf = upsilon_mor(f, h)
    ug = upsilon_mor(g, h)
    for n in range(min(uf.tower_hom.top, ug.tower_hom.top) + 1):
        a = uf.tower_hom.levels[n]
        b = ug.tower_hom.levels[n]
        if not is_exact_at(a, b):
            return False
        if not is_surjective(b):
            return False
    return True


def faithfulness_check(f: ARMor, h: HyperNat) -> bool:
    """Faithfulness and isomorphism reflection on one instance.

    Checks: the induced morphism vanishes exactly when f is zero in the
    shift-class category, and if the induced morphism is an isomorphism then
    f is a shift-class isomorphism.
    """
    u = upsilon_mor(f, h)
    f_zero = ar_equal(f, ar_zero(f.source, f.target))
    if u.is_zero() != bool(f_zero):
        return False
    if u.is_iso() and not ar_is_isomorphism(f):
        return False
    return True
