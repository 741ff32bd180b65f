"""Inverse limits of l-adic towers as finitely generated Z_l-modules.

``limit`` reads the stabilization pattern of the invariant factors off an
l-adic tower (exponents that freeze become torsion, exponents growing with
the level become free rank) and verifies itself by rebuilding every
represented level from the answer.  ``to_tower`` is the reconstruction
functor sending a module M to the tower (M/l^{n+1})_n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .arcat import canonical_l_adic
from .errors import NonStabilizing, NotLAdic
from .groups import FinAbGroup, GroupHom, trivial_group, valuation, zero_hom
from .hypernat import HyperNat
from .intmat import IntMatrix
from .towers import TailRule, Tower, direct_sum, eventually_module, is_l_adic
from .upsilon import psi, upsilon
from .zlmod import ZlModule


DEFAULT_PREFIX_LEVELS = 8
# to_tower and the torsion windows are pure functions of frozen values, so
# equal modules share one Tower and with it the verdicts cached on it; 64
# entries hold the 30 modules per prime of the exhaustive torsion grid.
TOWER_MEMO_SIZE = 64


@lru_cache(maxsize=TOWER_MEMO_SIZE)
def to_tower(module: ZlModule, levels: int = DEFAULT_PREFIX_LEVELS) -> Tower:
    """The l-adic tower with level n equal to module / l^{n+1}."""
    if levels < 1:
        raise ValueError("need at least one represented level")
    groups = tuple(module.quotient_group(n + 1) for n in range(levels))
    maps = tuple(module.quotient_projection(n + 1, n) for n in range(1, levels))
    return Tower(module.l, groups, maps, tail=TailRule(0, module))


def limit(tower: Tower) -> ZlModule:
    """The inverse limit of a certified l-adic tower, in canonical form.

    For towers with an eventually-l-adic tail this is the tail module.  For
    truncated towers the pattern is read off the last two represented levels
    (an exponent equal to L+1 at the top that was L below is growing, hence
    free) and then checked by reconstructing all represented levels.
    """
    la = is_l_adic(tower)
    if not la:
        raise NotLAdic(f"tower is not certified l-adic: {la.note}")
    module = eventually_module(tower)
    if module is not None:
        return module
    top = tower.top
    if top < 1:
        raise NonStabilizing("need at least two represented levels", top)
    top_exps = [valuation(d, tower.l) for d in tower.level(top).invariant_factors]
    prev_exps = [valuation(d, tower.l) for d in tower.level(top - 1).invariant_factors]
    torsion = [v for v in top_exps if v != top + 1]
    rho = len(top_exps) - len(torsion)
    expected_prev = sorted([min(v, top) for v in torsion] + [top] * rho)
    if expected_prev != sorted(prev_exps):
        raise NonStabilizing("invariant factors have not stabilized", top)
    candidate = ZlModule(tower.l, tuple(sorted(torsion)), rho)
    ops = tower.level(top).operators
    if ops:
        candidate = candidate.with_operators([(lab, mat) for lab, mat in ops])
    for n in range(top + 1):
        if candidate.quotient_group(n + 1) != tower.level(n):
            raise NonStabilizing(f"reconstruction mismatch at level {n}", n)
    return candidate


def tensor_zl(upsilon_obj) -> ZlModule:
    """The external Z_l-module carried by an image-quotient object at an
    infinite index: the limit of its tower of finite quotients."""
    return limit(psi(upsilon_obj))


@dataclass(frozen=True)
class ComparisonReport:
    left: ZlModule
    right: ZlModule
    isomorphic: bool
    operators_match: bool


def comparison_check(tower: Tower, bound: Optional[int] = None) -> ComparisonReport:
    """Compare the two module-valued readings of a cohomology tower (supplied
    as input, never computed from geometry here).

    Left: the stable image over an infinite gap, tensored down to Z_l
    (computed through the image-quotient functor at a symbolic infinite
    index).  Right: the limit of the canonical l-adic replacement.  The
    theorem says they agree; the report records whether the canonical forms
    (and operator actions, when present) are equal.
    """
    h = HyperNat.symbol("h")
    left = tensor_zl(upsilon(tower, h, bound=bound))
    right = limit(canonical_l_adic(tower, bound=bound).tower)
    return ComparisonReport(
        left=left,
        right=right,
        isomorphic=left.without_operators() == right.without_operators(),
        operators_match=left == right,
    )


@lru_cache(maxsize=TOWER_MEMO_SIZE)
def _torsion_window_tower(module: ZlModule, l: int, levels: int) -> Tower:
    """The tower of l^{n+1}-torsion subgroups of module with multiplication
    by l as transitions (the free part contributes nothing)."""
    exps = module.torsion_exponents
    if not exps:
        trivial = trivial_group(l)
        return Tower(l, (trivial,) * levels, (zero_hom(trivial, trivial),) * (levels - 1),
                     tail=TailRule(0))
    # the exponents are sorted and >= 1, so each level is a chain of powers of l
    groups = [FinAbGroup._of(tuple(l ** min(b, n + 1) for b in exps), l) for n in range(levels)]
    # multiplication by l is well defined from l^min(b, n+1) down to
    # l^min(b, n) and carries no operators; its entry is reduced modulo each
    # target factor, which makes it 0 where that factor is l itself
    k = len(exps)
    maps = [GroupHom._of(groups[n], groups[n - 1], IntMatrix._of(k, k, tuple(
                tuple(l % d if i == j else 0 for j in range(k))
                for i, d in enumerate(groups[n - 1].invariant_factors))))
            for n in range(1, levels)]
    return Tower(l, tuple(groups), tuple(maps))


@dataclass(frozen=True)
class TorsionCriterionResult:
    tower: Tower
    verdict: bool
    witness: object


def ladic_iff_torsionfree(mod_i: ZlModule, mod_next: ZlModule,
                          levels: int = 6) -> TorsionCriterionResult:
    """Synthesize the middle tower of the coefficient exact sequence and test
    the torsion criterion.

    Level n is mod_i/l^{n+1} (+) (l^{n+1}-torsion of mod_next); the first
    summand carries canonical projections, the second multiplication by l.
    The tower is l-adic exactly when mod_next is torsion free; the verdict
    records whether that equivalence held on this instance.
    """
    if mod_i.l != mod_next.l:
        raise ValueError("modules must share the prime")
    l = mod_i.l
    a = to_tower(mod_i, levels)
    b = _torsion_window_tower(mod_next, l, levels)
    h = direct_sum(a, b)
    la = is_l_adic(h)
    expected = mod_next.is_torsion_free()
    verdict = bool(la) == expected
    witness = la.witness if la.is_no else None
    return TorsionCriterionResult(tower=h, verdict=verdict, witness=witness)
