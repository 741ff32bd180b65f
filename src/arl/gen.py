"""Seeded random instances for the verification suites.

Every generator consumes a ``random.Random`` derived from (seed, case index)
through SHA-256, so the seed -> instance mapping is stable across platforms
and runs.  Sizes are controlled by a GenParams record so that failing cases
can be shrunk (fewer levels first, then smaller groups).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

try:
    # hashlib loads OpenSSL, 3 MB resident in a fresh arl process, for one
    # digest; the lean builtin gives the same SHA-256 (as random.py does)
    from _sha256 import sha256
except ImportError:  # renamed in Python 3.12; hashlib always has it
    from hashlib import sha256

from .arcat import ARMor, ar_compose, ar_from_tower_hom
from .groups import FinAbGroup, GroupHom, trivial_group
from .intmat import IntMatrix
from .limits import to_tower
from .towers import (
    HomModuleTail,
    TailRule,
    Tower,
    TowerHom,
    direct_sum,
    shift,
    sum_embeddings,
)
from .zlmod import ZlModule, check_module_hom, module_cokernel


@dataclass(frozen=True)
class GenParams:
    levels: int = 8
    max_torsion_factors: int = 2
    max_exponent: int = 3
    max_rank: int = 1
    max_zero_radius: int = 4
    primes: tuple[int, ...] = (2, 3, 5)
    operators: bool = False

    def shrink_levels(self) -> "GenParams | None":
        if self.levels > 3:
            return replace(self, levels=self.levels - 1)
        return None

    def shrink_size(self) -> "GenParams | None":
        if self.max_exponent > 1:
            return replace(self, max_exponent=self.max_exponent - 1)
        if self.max_torsion_factors > 0:
            return replace(self, max_torsion_factors=self.max_torsion_factors - 1)
        if self.max_rank > 1:
            return replace(self, max_rank=self.max_rank - 1)
        return None


def rng_for(seed: int, case: int) -> random.Random:
    digest = sha256(f"{seed}:{case}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def random_prime(rng: random.Random, params: GenParams) -> int:
    return rng.choice(list(params.primes))


def random_zl_module(rng: random.Random, l: int, params: GenParams) -> ZlModule:
    k = rng.randint(0, params.max_torsion_factors)
    exps = tuple(sorted(rng.randint(1, params.max_exponent) for _ in range(k)))
    module = ZlModule(l, exps, rng.randint(0, params.max_rank))
    if params.operators and module.rank:
        unit = rng.randrange(1, l ** max(params.max_exponent, 2))
        while unit % l == 0:
            unit += 1
        mat = IntMatrix.diagonal([unit] * module.rank)
        module = module.with_operators([("frob", mat)])
    return module


def random_l_adic(rng: random.Random, l: int, params: GenParams) -> Tower:
    return to_tower(random_zl_module(rng, l, params), params.levels)


def random_group(rng: random.Random, l: int, params: GenParams) -> FinAbGroup:
    k = rng.randint(1, max(params.max_torsion_factors, 1))
    exps = sorted(rng.randint(1, params.max_exponent) for _ in range(k))
    return FinAbGroup(tuple(l ** a for a in exps), prime_support=l)


def random_hom(rng: random.Random, src: FinAbGroup, tgt: FinAbGroup) -> GroupHom:
    rows = []
    for i, di in enumerate(tgt.invariant_factors):
        row = []
        for j, dj in enumerate(src.invariant_factors):
            base = di // math.gcd(di, dj)
            row.append(base * rng.randrange(0, di // base))
        rows.append(row)
    return GroupHom(src, tgt, IntMatrix.from_rows(rows, cols=src.rank))


def random_zero_system(rng: random.Random, l: int, params: GenParams,
                       certified_only: bool = True) -> Tower:
    """A zero system with radius at most the cap.

    The default style is certified (trivial beyond the radius, a zero tail).
    With certified_only=False a quarter of the instances are the truncated
    constant-group multiplication-by-l style, whose radius is only
    prefix-verified.
    """
    levels = params.levels
    if certified_only or rng.random() < 0.75:
        s = rng.randint(1, min(params.max_zero_radius, levels - 1))
        groups = [random_group(rng, l, params) for _ in range(s)]
        groups += [trivial_group(l)] * (levels - s)
        maps = [random_hom(rng, groups[n], groups[n - 1]) for n in range(1, levels)]
        return Tower(l, tuple(groups), tuple(maps), tail=TailRule(s))
    k = rng.randint(1, min(params.max_zero_radius, params.max_exponent))
    g = FinAbGroup((l ** k,), prime_support=l)
    mult = GroupHom(g, g, IntMatrix.from_rows([[l]]))
    return Tower(l, (g,) * levels, (mult,) * (levels - 1))


def random_extension(rng: random.Random, n_tower: Tower, g_tower: Tower,
                     ) -> tuple[Tower, TowerHom, TowerHom]:
    """A levelwise extension 0 -> N -> F -> G -> 0 with random twisting maps.

    F carries the tail of the untwisted sum N + G.  Twists into trivial levels
    vanish automatically, so with a zero-tail kernel the transitions past the
    tail start are untwisted; the tail check on F's prefix proves it.
    """
    base, incl_n, _, _, proj_g = sum_embeddings(n_tower, g_tower)
    maps = []
    for n in range(1, base.top + 1):
        c = random_hom(rng, g_tower.level(n), n_tower.level(n - 1))
        mat = base.transition(n).matrix + \
            (incl_n.levels[n - 1].matrix @ c.matrix @ proj_g.levels[n].matrix)
        maps.append(GroupHom(base.level(n), base.level(n - 1), mat))
    twisted = Tower(base.l, base.groups, tuple(maps), tail=base.tail)
    incl = TowerHom(n_tower, twisted, incl_n.levels)
    proj = TowerHom(twisted, g_tower, proj_g.levels)
    return twisted, incl, proj


def random_ar_l_adic(rng: random.Random, l: int, params: GenParams) -> Tower:
    """An AR-l-adic tower: an l-adic core with zero-system noise attached by
    sums, extensions, and shifts."""
    kind = rng.choice(["ladic", "sum", "shift", "extension", "shift-sum"])
    core = random_l_adic(rng, l, params)
    if kind == "ladic":
        return core
    if kind == "sum":
        return direct_sum(core, random_zero_system(rng, l, params))
    if kind == "shift":
        return shift(core, rng.randint(1, 2))
    if kind == "extension":
        noise = random_zero_system(rng, l, params)
        twisted, _, _ = random_extension(rng, noise, core)
        return twisted
    summed = direct_sum(core, random_zero_system(rng, l, params))
    return shift(summed, rng.randint(1, 2))


def random_module_hom(rng: random.Random, src: ZlModule, tgt: ZlModule) -> IntMatrix:
    l = src.l
    ks, kt = len(src.torsion_exponents), len(tgt.torsion_exponents)
    rows = []
    for i in range(tgt.rank):
        row = []
        for j in range(src.rank):
            if j < ks:
                if i < kt:
                    need = max(tgt.torsion_exponents[i] - src.torsion_exponents[j], 0)
                    row.append((l ** need) * rng.randint(0, l))
                else:
                    row.append(0)
            else:
                row.append(rng.randint(-l, l))
        rows.append(row)
    mat = IntMatrix.from_rows(rows, cols=src.rank)
    check_module_hom(mat, src, tgt)
    return mat


def module_hom_tower_map(mat: IntMatrix, src: ZlModule, tgt: ZlModule,
                         levels: int) -> TowerHom:
    """The tower morphism to_tower(src) -> to_tower(tgt) induced by a module hom."""
    s = to_tower(src, levels)
    t = to_tower(tgt, levels)
    homs = tuple(GroupHom(s.level(n), t.level(n), mat) for n in range(levels))
    return TowerHom(s, t, homs, tail=HomModuleTail(0, mat))


def random_armor(rng: random.Random, l: int, params: GenParams) -> ARMor:
    """A shift-class morphism between AR-l-adic towers.

    Built from a module hom between l-adic cores, optionally pre-composed
    with a sum projection (adding zero-system noise to the source) and
    post-composed with a sum inclusion (noise on the target), then reshifted.
    """
    src_mod = random_zl_module(rng, l, params)
    tgt_mod = random_zl_module(rng, l, params)
    style = rng.random()
    if style < 0.15:
        core = ar_from_tower_hom(module_hom_tower_map(
            IntMatrix.identity(src_mod.rank), src_mod, src_mod, params.levels))
    elif style < 0.3:
        zero_mat = IntMatrix.zeros(tgt_mod.rank, src_mod.rank)
        core = ar_from_tower_hom(module_hom_tower_map(zero_mat, src_mod, tgt_mod, params.levels))
    else:
        mat = random_module_hom(rng, src_mod, tgt_mod)
        core = ar_from_tower_hom(module_hom_tower_map(mat, src_mod, tgt_mod, params.levels))
    f = core
    if rng.random() < 0.4:
        noise = random_zero_system(rng, l, params)
        _, _, _, proj_f, _ = sum_embeddings(f.source, noise)
        f = ar_compose(f, ar_from_tower_hom(proj_f))
    if rng.random() < 0.4:
        noise = random_zero_system(rng, l, params)
        _, incl_f, _, _, _ = sum_embeddings(f.target, noise)
        f = ar_compose(ar_from_tower_hom(incl_f), f)
    return f


def random_exact_triple(rng: random.Random, l: int, params: GenParams,
                        ) -> tuple[ARMor, ARMor]:
    """An AR-exact sequence F -> G -> H -> 0 built from a module hom and its
    cokernel, with optional zero-system noise on the source."""
    src_mod = random_zl_module(rng, l, params)
    tgt_mod = random_zl_module(rng, l, params)
    mat = random_module_hom(rng, src_mod, tgt_mod)
    coker, proj_mat, _ = module_cokernel(mat, src_mod, tgt_mod)
    f = ar_from_tower_hom(module_hom_tower_map(mat, src_mod, tgt_mod, params.levels))
    g = ar_from_tower_hom(module_hom_tower_map(proj_mat, tgt_mod, coker, params.levels))
    if rng.random() < 0.4:
        noise = random_zero_system(rng, l, params)
        _, _, _, proj_f, _ = sum_embeddings(f.source, noise)
        f = ar_compose(f, ar_from_tower_hom(proj_f))
    return f, g
