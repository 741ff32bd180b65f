"""The Artin-Rees morphism calculus on towers.

A morphism F -> G here is a shift amount r together with a levelwise
morphism F[r] -> G; two such are equal when they agree after a further
common shift.  Equality, isomorphism testing, Mittag-Leffler bounds, the
canonical l-adic replacement and the kernel-bound and factorization lemmas
are all computed exactly, with three-valued verdicts wherever a search is
bounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import CompositionMismatch, NotARladic, PreconditionViolated, TruncatedTower
from .groups import (
    corestrict,
    element_in_multiples,
    hom_kernel,
    identity_hom,
    image_lattice,
    induced_on_quotient,
    is_exact_at,
    is_injective,
    is_surjective,
    kills_multiples,
    quotient_with_maps,
    subgroup_from_lattice,
)
from .towers import (
    MLBound,
    Tower,
    TowerHom,
    Verdict,
    ZeroCertificate,
    classify_tail,
    cokernel_is_zero_system,
    compose_rules,
    identity_tower_hom,
    is_l_adic,
    is_zero_system,
    kernel_is_zero_system,
    ladic_truncation,
    resolve_bound,
    shift,
    zero_tower_hom,
)


def _departure_from_shift(tower: Tower, base: Tower, r: int, top: int) -> Optional[tuple]:
    """Where tower, on levels 0..top, stops reading as shift(base, r): the
    first ("level", n) or ("transition", n) that is not base's at n + r (past
    a truncated base nothing is), or None.  base is read directly, so no
    shifted tower is built."""
    if r == 0 and tower is base:
        return None
    for n in range(top + 1):
        try:
            if tower.level(n) != base.level(n + r):
                return "level", n
            if n and tower.transition(n) != base.transition(n + r):
                return "transition", n
        except TruncatedTower:
            return "level", n
    return None


@dataclass(frozen=True, eq=False)
class ARMor:
    """A shift-class morphism: a representative shift(source, shift_amount) -> target.

    The constructor checks once, on the representative's levels 0..rep.top
    and their transitions, that ``rep.source`` reads as ``source`` shifted
    by ``shift_amount`` and ``rep.target`` as ``target``, which must also
    agree with it on their common prefix.  So level n of the
    representative is a natural map F_{n+r} -> G_n for the transitions of
    ``source`` and ``target`` themselves.  :func:`reshift`,
    :func:`ar_compose` and the two morphisms of :func:`canonical_l_adic`
    (and ``upsilon.ar_canonical_rep``) build their representatives from such
    levels with the trusted ``TowerHom._of``, each under the proof in its
    body.
    """

    source: Tower
    target: Tower
    shift_amount: int
    rep: TowerHom

    def __post_init__(self):
        if self.shift_amount < 0:
            raise ValueError("negative shift")
        common = min(self.rep.target.top, self.target.top)
        for side, tower, base, r, top in (
                ("target", self.rep.target, self.target, 0, max(common, self.rep.top)),
                ("source", self.rep.source, self.source, self.shift_amount, self.rep.top)):
            miss = _departure_from_shift(tower, base, r, top)
            if miss:
                what, n = miss
                raise ValueError(f"representative {side} {what} {n} is not the {side}'s {what} {n + r}")


def ar_from_tower_hom(f: TowerHom) -> ARMor:
    return ARMor(f.source, f.target, 0, f)


def ar_identity(f: Tower) -> ARMor:
    return ARMor(f, f, 0, identity_tower_hom(f))


def ar_zero(source: Tower, target: Tower) -> ARMor:
    return ARMor(source, target, 0, zero_tower_hom(source, target))


def reshift(f: ARMor, extra: int) -> ARMor:
    """The same morphism presented at shift_amount + extra."""
    if extra == 0:
        return f
    r = f.shift_amount
    src = shift(f.source, r + extra)
    k = min(src.top, f.rep.top)
    # level n is F_{n+r+extra} -> F_{n+r} -> G_n: the composite of the source's
    # transitions and, by the ARMor invariant, a level of f's representative,
    # both natural for the transitions of f.source and f.target
    levels = tuple(
        f.rep.level(n).compose(f.source.composite(n + r, extra))
        for n in range(k + 1)
    )
    rep = TowerHom._of(src, f.target, levels, None)
    return ARMor(f.source, f.target, r + extra, rep)


def ar_compose(g: ARMor, f: ARMor) -> ARMor:
    """g after f; the shifts add."""
    if not g.source.levelwise_equal(f.target):
        raise CompositionMismatch("AR composition endpoints do not match")
    rf, rg = f.shift_amount, g.shift_amount
    src = shift(f.source, rf + rg)
    k = min(src.top, g.rep.top, max(f.rep.top - rg, -1))
    if k < 0:
        raise PreconditionViolated("no common represented levels for composition")
    # by the ARMor invariant f.rep's level n + rg is a natural map
    # F_{n+rg+rf} -> G_{n+rg} and g.rep's level n one G_{n+rg} -> H_n (compose
    # checks that the middles agree), so each composite is a natural level of
    # src = F[rf + rg] -> H; _of still checks the composed hom rule
    levels = tuple(
        g.rep.level(n).compose(f.rep.level(n + rg))
        for n in range(k + 1)
    )
    rep = TowerHom._of(src, g.target, levels, compose_rules(g.rep.tail, f.rep.tail, rg))
    return ARMor(f.source, g.target, rf + rg, rep)


def _delta_zero_at(f_levels, g_levels, source: Tower, sigma: int, extra: int, top: int) -> bool:
    # whether (f - g) composed with the natural map of extra more shifts vanishes
    for n in range(top + 1):
        comp = source.composite(n + sigma, extra)
        d = (f_levels[n] - g_levels[n]).compose(comp)
        if not d.is_zero():
            return False
    return True


def ar_equal(f: ARMor, g: ARMor, bound: Optional[int] = None) -> Verdict:
    """Colimit equality: the representatives agree after some common shift.

    With a certified source or target tail the answer is exact (the stable
    image of the source, or the zero radius of the target, bounds where the
    comparison stabilizes); otherwise the search is bounded and may return
    unknown.
    """
    if not f.source.levelwise_equal(g.source):
        raise CompositionMismatch("AR equality needs a common source")
    if not f.target.levelwise_equal(g.target):
        raise CompositionMismatch("AR equality needs a common target")
    sigma = max(f.shift_amount, g.shift_amount)
    fa = reshift(f, sigma - f.shift_amount)
    ga = reshift(g, sigma - g.shift_amount)
    top = min(fa.rep.top, ga.rep.top)
    f_levels = [fa.rep.level(n) for n in range(top + 1)]
    g_levels = [ga.rep.level(n) for n in range(top + 1)]
    bound = resolve_bound(f.source, bound)

    shape = classify_tail(f.source)
    stabilizers = []
    if shape is not None:
        stabilizers.append(max(0, shape.start - sigma))
    tz = is_zero_system(f.target, bound)
    if tz and tz.certificate.scope == "tail":
        stabilizers.append(tz.certificate.radius)
    last = min(stabilizers) if stabilizers else bound
    for e in range(last + 1):
        if _delta_zero_at(f_levels, g_levels, f.source, sigma, e, top):
            return Verdict.yes({"common_shift": sigma + e})
    if stabilizers:
        return Verdict.no(witness=("shift", sigma + last),
                          note="difference survives on the stable data")
    return Verdict.unknown(note=f"representatives still differ after {bound} extra shifts")


def ar_is_isomorphism(f: ARMor, bound: Optional[int] = None) -> Verdict:
    """Iso iff the representative's levelwise kernel and cokernel are zero
    systems (Jannsen 1988).  The radii are read off the level maps' kernel
    and image lattices (:func:`kernel_is_zero_system`,
    :func:`cokernel_is_zero_system`), so neither tower is built."""
    zk = kernel_is_zero_system(f.rep, bound)
    zc = cokernel_is_zero_system(f.rep, bound)
    if zk and zc:
        return Verdict.yes({"kernel": zk.certificate, "cokernel": zc.certificate})
    if zk.is_no or zc.is_no:
        side = "kernel" if zk.is_no else "cokernel"
        bad = zk if zk.is_no else zc
        return Verdict.no(witness=(side, bad.witness))
    return Verdict.unknown(note=f"kernel: {zk.status}, cokernel: {zc.status}")


# -- stable images and the canonical l-adic replacement -----------------------

def stable_image_bound(f: Tower, bound: Optional[int] = None) -> Verdict:
    """The smallest s with im(F[s+n] -> F) = im(F[s] -> F) on all represented levels."""
    bound = resolve_bound(f, bound)

    def compute() -> Verdict:
        shape = classify_tail(f)
        if shape is not None:
            # the true stable image is im(F_start -> F_m) below the start; find
            # the least s whose images already agree with it.  From the start on
            # the composites are onto (or the levels trivial) at every shift.
            below = range(min(shape.start, f.top + 1))
            targets = [image_lattice(f.composite(m, shape.start - m)) for m in below]
            for s in range(bound + 1):
                if all(image_lattice(f.composite(m, s)) == targets[m] for m in below):
                    return Verdict.yes(MLBound(s, scope="tail"))
            return Verdict.unknown(note=f"images do not stabilize within bound {bound}")
        # truncated: require two consecutive confirming shifts inside the prefix
        for s in range(min(bound, f.top - 1) + 1):
            if all(image_lattice(f.composite(m, s)) == image_lattice(f.composite(m, s + 1))
                   for m in range(f.top - s)):
                return Verdict.yes(MLBound(s, scope="prefix"))
        return Verdict.unknown(note="prefix too short to confirm stabilization")

    return f.cached(("ml_bound", bound), compute)


def stable_image_tower(f: Tower, s: Optional[int] = None,
                       bound: Optional[int] = None) -> tuple[Tower, TowerHom]:
    """The subsystem of stable images: level n is im(F_{n+s} -> F_n)."""
    if s is None:
        sb = stable_image_bound(f, bound)
        if not sb:
            raise NotARladic(f"no Mittag-Leffler bound: {sb.note}")
        s = sb.certificate.bound
    hi = f.top if f.can_extend() else f.top - s
    if hi < 0:
        raise NotARladic("prefix too short for the requested stabilization shift")
    tail = classify_tail(f)
    # from the tail start on the composites are onto (or the levels trivial),
    # so the stable image is the whole level
    start = hi + 1 if tail is None else tail.start
    groups, incls = zip(*(subgroup_from_lattice(f.level(m), f.composite(m, s).matrix,
                                                transport_labels=f.level(m).operator_labels())
                          if m < start else (f.level(m), identity_hom(f.level(m)))
                          for m in range(hi + 1)))
    maps = []
    for n in range(1, hi + 1):
        u = corestrict(incls[n - 1], f.transition(n).compose(incls[n]))
        if u is None:
            raise PreconditionViolated(f"sub-tower not closed under transition at level {n}")
        maps.append(u)
    tower = Tower(f.l, groups, tuple(maps), tail=f.tail)
    # each transition is the corestriction with incl_{n-1}.u_n = u^f_n.incl_n
    return tower, TowerHom._of(tower, f, incls, None)


@dataclass(frozen=True)
class CanonicalLAdic:
    """Output of the l-adic normalization, and the certificate of
    AR-l-adic-ness: the l-adic tower, the mutually inverse shift-class
    morphisms, and the parameters used.  The morphisms are None when the
    stabilization shift was given (``ml_bound``)."""

    tower: Tower
    iso: Optional[ARMor]        # original -> canonical
    inverse: Optional[ARMor]    # canonical -> original
    shift: int                  # truncation shift r
    ml_bound: int               # stabilization shift s
    # the zero radius of iso.rep's levelwise kernel, read off its level maps'
    # kernel lattices; None when the morphisms are None
    kernel_cert: Optional[ZeroCertificate] = None


def canonical_l_adic(f: Tower, bound: Optional[int] = None,
                     ml_bound: Optional[int] = None) -> CanonicalLAdic:
    """An l-adic tower isomorphic to f in the shift-class category.

    Levels of the result are im(F_{n+r+s} -> F_{n+r}) / l^{n+1}; r is the
    smallest verified truncation shift.  Already-l-adic towers come back
    unchanged with identity morphisms.  ml_bound overrides the stabilization
    shift s (any value at or above the Mittag-Leffler bound gives the same
    canonical tower); the tower then comes back without the morphisms.
    """
    bound = resolve_bound(f, bound)
    if ml_bound is None and is_l_adic(f):
        ident = ar_identity(f)
        return CanonicalLAdic(f, ident, ident, 0, 0, ZeroCertificate(0, scope="tail"))
    if ml_bound is None:
        sb = stable_image_bound(f, bound)
        if not sb:
            raise NotARladic(f"stable images unavailable: {sb.note}")
        s = sb.certificate.bound
    else:
        s = ml_bound
    stable, incl = stable_image_tower(f, s)
    chosen = None
    for r in range(bound + 1):
        if r > stable.top and not stable.can_extend():
            break
        candidate = ladic_truncation(shift(stable, r))
        if is_l_adic(candidate):
            chosen = (r, candidate)
            break
    if chosen is None:
        raise NotARladic(f"no truncation shift up to {bound} yields an l-adic tower")
    r, g = chosen
    if ml_bound is not None:
        return CanonicalLAdic(g, None, None, r, s)

    # forward: F[r+s] ->> stable[r] ->> stable[r]/l^{n+1} = G
    hi = min(g.top, incl.top - r)
    if hi < 0:
        raise NotARladic("prefix too short to present the forward morphism")
    # the stable level n+r is the image of F_{n+r+s} -> F_{n+r}, so each
    # corestriction exists; G_n is its quotient by l^{n+1}.  Level n is
    # F_{n+r+s} ->> stable_{n+r} ->> G_n: the corestriction of a composite of
    # transitions into the sub-tower, whose transitions are the restricted
    # ones, then the quotient map, which G's transitions (induced on the
    # quotients, the canonical projections past its tail start) commute with
    fwd_levels = tuple(quotient_with_maps(stable.level(n + r), f.l ** (n + 1))[1].compose(
        corestrict(incl.levels[n + r], f.composite(n + r, s))) for n in range(hi + 1))
    fwd = TowerHom._of(shift(f, r + s), g, fwd_levels, None)
    iso = ARMor(f, g, r + s, fwd)

    # backward: G[r2] -> F via mod-l^{m+1} factorization of the transitions
    fr = _factorization_radius(f, bound)
    if not fr:
        raise NotARladic(f"no factorization radius: {fr.note}")
    r2 = fr.certificate
    bwd_top = min(g.top - r2, incl.top - r - r2, f.top)
    if bwd_top < 0:
        raise NotARladic("prefix too short to present the backward morphism")
    # G_m = stable_{m+r} / l^{m+1} for m = n + r2, and stable_{m+r} -> F_{m+r}
    # -> F_n kills l^{m+1}-multiples because F_m -> F_n does (the factorization
    # radius), so each induced map exists.  It is natural: the inclusion and
    # the composite of transitions are, and G's transition m + 1 is induced by
    # the stable one on the quotients, so both sides of a square are induced
    # by the same map out of stable_{m+1+r}
    bwd_levels = tuple(induced_on_quotient(f.composite(n, r2 + r).compose(
        incl.levels[n + r2 + r]), f.l ** (n + r2 + 1)) for n in range(bwd_top + 1))
    bwd = TowerHom._of(shift(g, r2), f, bwd_levels, None)
    inverse = ARMor(g, f, r2, bwd)

    # the construction is only a shift-class isomorphism when the kernel of
    # the forward epimorphism is a zero system; verify that now
    zk = kernel_is_zero_system(fwd, bound)
    if not zk:
        raise NotARladic(
            f"kernel of the candidate epimorphism is not a certified zero system ({zk.status})")
    return CanonicalLAdic(g, iso, inverse, r, s, zk.certificate)


def factorization_radius(f: Tower, bound: Optional[int] = None) -> Verdict:
    """The least r such that every F_m -> F_{m-r} kills l^{m+1}-multiples."""
    bound = resolve_bound(f, bound)
    cert = certify_ar_l_adic(f, bound)
    if not cert:
        raise NotARladic(f"factorization radius needs an AR-l-adic tower: {cert.note}")
    return _factorization_radius(f, bound)


def _factorization_radius(f: Tower, bound: int) -> Verdict:
    """:func:`factorization_radius` unchecked: f is known to be AR-l-adic and
    bound is resolved."""

    def compute() -> Verdict:
        shape = classify_tail(f)
        hi = max(f.top, shape.start) if shape is not None else f.top
        for r in range(bound + 1):
            if shape is not None and shape.module is not None and r < shape.offset:
                continue  # tail levels keep torsion above l^{m+1} until r >= offset
            if all(kills_multiples(f.composite(m - r, r), f.l ** (m + 1))
                   for m in range(r, hi + 1)):
                return Verdict.yes(r, note="tail" if shape is not None else "prefix")
        return Verdict.unknown(note=f"no factorization radius up to {bound}")

    return f.cached(("factorization_radius", bound), compute)


def certify_ar_l_adic(f: Tower, bound: Optional[int] = None) -> Verdict:
    """Whether f is AR-l-adic.  The yes-certificate is the
    :class:`CanonicalLAdic` of f: its ``iso.rep`` is an epimorphism from
    f shifted by ``iso.shift_amount`` (r + s) onto the l-adic ``tower``,
    with a zero-system kernel certified by ``kernel_cert``.  No-certificates
    only for obstructions visible in the prefix (images strictly decreasing
    to the edge)."""
    bound = resolve_bound(f, bound)

    def compute() -> Verdict:
        sb = is_l_adic(f) or stable_image_bound(f, bound)
        note = sb.note
        if sb:
            try:
                return Verdict.yes(canonical_l_adic(f, bound))
            except NotARladic as exc:
                note = str(exc)
        if classify_tail(f) is None and _images_strictly_decreasing(f):
            return Verdict.no(witness=("non-stabilizing-images", f.top),
                              note="images still shrinking at the prefix edge")
        return Verdict.unknown(note=note)

    return f.cached(("ar_l_adic", bound), compute)


def _images_strictly_decreasing(f: Tower) -> bool:
    # evidence-only: at some level the images shrink at every computable shift
    for m in range(f.top - 1):
        depth = f.top - m
        chain = [image_lattice(f.composite(m, s)) for s in range(depth + 1)]
        if all(chain[i] != chain[i + 1] for i in range(len(chain) - 1)):
            return True
    return False


def kernel_bound_check(incl: TowerHom, proj: TowerHom, r: int, m: int, n: int) -> bool:
    """The kernel-bound inequality for an extension 0 -> N -> F -> G -> 0,
    given by incl : N -> F and proj : F -> G, of an l-adic tower G by a zero
    system N of radius r:

        im[ ker(F_{r+m+n} -> F_n) -> F_{m+n} ]  lies in  l^{n+1} F_{m+n}.

    N, F and G are the ends of the two morphisms, and proj must start where
    incl ends.  Preconditions are re-verified on the levels that the check
    touches: levelwise exactness on n..r+m+n (as far as F is represented),
    the l-adic quotient, and the vanishing radius N_{k+r} -> N_k for
    k = n..m+n.
    """
    if proj.source is not incl.target:
        raise PreconditionViolated("projection does not start at the inclusion's target")
    n_tower, f_tower, g_tower = incl.source, incl.target, proj.target
    for lvl in range(n, min(r + m + n, f_tower.top) + 1):
        fl = incl.level(lvl)
        gl = proj.level(lvl)
        if not is_injective(fl):
            raise PreconditionViolated(f"inclusion not injective at level {lvl}")
        if not is_surjective(gl):
            raise PreconditionViolated(f"projection not surjective at level {lvl}")
        if not is_exact_at(fl, gl):
            raise PreconditionViolated(f"sequence not exact at level {lvl}")
    if not is_l_adic(g_tower):
        raise PreconditionViolated("quotient tower is not certified l-adic")
    for lvl in range(n, m + n + 1):
        if not n_tower.composite(lvl, r).is_zero():
            raise PreconditionViolated(f"claimed zero radius {r} fails at level {lvl}")

    big = f_tower.composite(n, r + m)          # F_{r+m+n} -> F_n
    kernel, kincl = hom_kernel(big)
    drop = f_tower.composite(m + n, r).matrix @ kincl.matrix   # kernel -> F_{m+n}
    target = f_tower.level(m + n)
    power = f_tower.l ** (n + 1)
    return all(element_in_multiples(target, drop.column(j), power) for j in range(kernel.rank))
