"""Seeded `.arl.json` tower files with a known limit, written without `arl`.

Each tower is an extension of the l-adic tower of a module ``M`` by a zero
system ``N`` of known radius ``r``:

    level n = M/l^{n+1}  (+)  N_n,        N_n = (Z/l^e)^r   (noise levels)
    u_n     = [[P, 0], [phi_n, J]]

``P`` is the canonical projection on M's generators, ``J`` the nilpotent
shift on the noise (``J^r = 0``, so every composite of ``r`` transitions kills
the noise) and ``phi_n`` a coupling of the M generators into the noise,
scaled so that the map is well defined.  Since N is a zero system, the tower
is AR-isomorphic to the tower of M, whatever the coupling: its limit is M, and
its canonical l-adic replacement and its image-quotient readings have levels
M/l^{n+1}.

The seeded files couple each M generator into one noise generator with the
least coefficient.  ``make_coupled_file`` adds one tower whose coupling
coefficients are random multiples: the Smith normal forms of such towers
grow large entries (see README.md).

Tail kinds:

* ``truncated``: noise on every prefix level;
* ``eventually-l-adic``: noise below ``start``, pure M/l^{n+1} from ``start``;
* ``zero``: M = 0, noise below ``start``, trivial levels from ``start``.
"""

from __future__ import annotations

import random


def module_text(torsion: tuple[int, ...], rank: int) -> str:
    parts = [f"Zl^{rank}"] if rank else []
    parts += [f"Z/l^{a}" for a in sorted(torsion, reverse=True)]
    return " + ".join(parts) if parts else "0"


def quotient_factors(l: int, torsion: tuple[int, ...], rank: int, k: int) -> list[int]:
    """Invariant factors of M/l^k, ascending, without trivial factors."""
    return sorted([l ** min(a, k) for a in torsion] + [l ** k] * rank)


class _Builder:
    def __init__(self, l: int):
        self.l = l
        self.groups: dict[str, dict] = {}
        self.homs: dict[str, dict] = {}

    def level(self, name: str, gens: list[tuple[str, int]]) -> list[tuple[str, int]]:
        """Register a group on generators (tag, order); returns them sorted
        into invariant-factor order, which is the group's basis order."""
        gens = sorted(gens, key=lambda g: (g[1], g[0]))
        self.groups[name] = {"factors": [order for _, order in gens]}
        return gens

    def hom(self, name: str, src: str, src_gens, tgt: str, tgt_gens, image: dict):
        """``image[tag]`` maps a source generator to {target tag: coefficient}."""
        col_of = {tag: j for j, (tag, _) in enumerate(src_gens)}
        matrix = [[0] * len(src_gens) for _ in tgt_gens]
        for i, (ttag, _) in enumerate(tgt_gens):
            for stag, coeffs in image.items():
                if stag in col_of and ttag in coeffs:
                    matrix[i][col_of[stag]] = coeffs[ttag]
        self.homs[name] = {"source": src, "target": tgt, "matrix": matrix}


def _tower(b: _Builder, name: str, torsion, rank: int,
           levels: int, noise_rank: int, noise_exp: int, noise_below: int,
           coupling: random.Random | None = None):
    """Add one tower; noise sits on levels < noise_below.  Without
    ``coupling`` each M generator goes to one noise generator with the least
    coefficient that keeps the map well defined; with it, to every noise
    generator with that coefficient times a random multiplier."""
    l = b.l
    level_names, map_names, gens_at = [], [], []
    for n in range(levels):
        gens = [(f"t{i}", l ** min(a, n + 1)) for i, a in enumerate(torsion)]
        gens += [(f"f{i}", l ** (n + 1)) for i in range(rank)]
        if n < noise_below:
            gens += [(f"n{i}", l ** noise_exp) for i in range(noise_rank)]
        gname = f"{name}_L{n}"
        gens_at.append(b.level(gname, gens))
        level_names.append(gname)
    for n in range(1, levels):
        src, tgt = gens_at[n], gens_at[n - 1]
        noise_here = any(tag.startswith("n") for tag, _ in tgt)
        image = {}
        for j, (tag, order) in enumerate(src):
            if tag.startswith("n"):            # J: n_i -> n_{i-1}, n_0 -> 0
                i = int(tag[1:])
                image[tag] = {f"n{i - 1}": 1} if i > 0 else {}
                continue
            image[tag] = {tag: 1}              # P: canonical projection
            if not noise_here:
                continue
            step = l ** max(0, noise_exp - _lval(order, l))
            if coupling is None:               # phi: one noise target, rotating
                image[tag][f"n{(j + n) % noise_rank}"] = step
            else:                              # phi: random multiples of step
                for i in range(noise_rank):
                    image[tag][f"n{i}"] = step * coupling.randrange(1, l ** noise_exp)
        mname = f"{name}_u{n}"
        b.hom(mname, level_names[n], src, level_names[n - 1], tgt, image)
        map_names.append(mname)
    return level_names, map_names


def _lval(n: int, l: int) -> int:
    v = 0
    while n % l == 0:
        n //= l
        v += 1
    return v


# Per file: the prime and, per tower, (name, tail kind, levels, M's rank,
# M's torsion summands, noise rank, noise exponent range).  The shapes are
# fixed so that every seed asks for about the same work; the seed draws the
# torsion exponents, the noise exponent and the index terms.  The plans give
# 41 distinct towers, and every one of them was run through all four commands.
# Normal-form work grows fast with the prime and the number of levels, so the
# deep tower is 2-adic.
_PLANS = (
    (2, (("deep", "truncated", 14, 2, 1, 3, (2, 3)),
         ("eventual", "eventually-l-adic", 11, 1, 1, 2, (1, 3)),
         ("flat", "zero", 9, 0, 0, 3, (1, 3)))),
    (3, (("deep", "truncated", 8, 1, 1, 2, (1, 2)),
         ("eventual", "eventually-l-adic", 8, 1, 1, 2, (1, 2)),
         ("flat", "zero", 7, 0, 0, 2, (1, 2)))),
)
# Levels at the top of an eventually-l-adic or zero tail that carry no noise.
_CLEAN_TOP = 3
# Index terms the seed draws from; psi is only asked at h or above.
_UPSILON_H = ("h", "h-1", "h+d1", "h+d1+d2")
_PSI_H = ("h", "h+d1", "h+d1+d2")


# The pinned draw of the random-coupling tower.  Of draws 0-11, draw 5 did not
# finish `normalize` within 6 s, ten took 55-180 ms a command, like the seeded
# deep towers, and draw 11 took 260-400 ms: its entries grow the most among
# the draws that finish.
COUPLED_DRAW = 11


def make_coupled_file() -> tuple[dict, dict]:
    """The tower file that does not depend on the seed, and what the commands
    must show: one 2-adic truncated tower of 14 levels, ``M = Zl^2 + Z/2^a``,
    three noise generators, random coupling coefficients."""
    rng = random.Random(f"perfbench-coupled:{COUPLED_DRAW}")
    l, levels, rank, noise_rank = 2, 14, 2, 3
    b = _Builder(l)
    torsion = (rng.randint(1, 4),)
    noise_exp = rng.randint(2, 3)
    lv, mp = _tower(b, "coupled", torsion, rank, levels, noise_rank, noise_exp, levels,
                    coupling=rng)
    data = {"format": 1, "l": l, "symbols": ["h", "d1", "d2"], "modules": {},
            "groups": b.groups, "homs": b.homs,
            "towers": {"coupled": {"levels": lv, "maps": mp, "tail": {"kind": "truncated"}}}}
    expect = {"coupled": {"l": l, "torsion": list(torsion), "rank": rank,
                          "upsilon_h": "h+d1", "psi_h": "h+d1"}}
    return data, expect


def make_file(seed: int, index: int) -> tuple[dict, dict]:
    """Tower file ``index`` of a seed and, per tower, what the commands must show.

    ``expect[name]`` holds the prime, M's torsion exponents and free rank (the
    limit), and the index terms to ask ``upsilon`` and ``psi`` at.
    """
    rng = random.Random(f"perfbench-towerfile:{seed}:{index}")
    l, plan = _PLANS[index % len(_PLANS)]
    b = _Builder(l)
    towers, modules, expect = {}, {}, {}
    for name, kind, levels, rank, n_torsion, noise_rank, ne_range in plan:
        torsion = tuple(sorted(rng.randint(1, 4) for _ in range(n_torsion)))
        noise_exp = rng.randint(*ne_range)
        start = levels if kind == "truncated" else levels - _CLEAN_TOP
        lv, mp = _tower(b, name, torsion, rank, levels, noise_rank, noise_exp, start)
        if kind == "truncated":
            tail = {"kind": "truncated"}
        elif kind == "zero":
            tail = {"kind": "zero", "start": start}
        else:
            modules[f"M_{name}"] = module_text(torsion, rank)
            tail = {"kind": "eventually-l-adic", "start": start, "module": f"M_{name}"}
        towers[name] = {"levels": lv, "maps": mp, "tail": tail}
        expect[name] = {"l": l, "torsion": list(torsion), "rank": rank,
                        "upsilon_h": rng.choice(_UPSILON_H), "psi_h": rng.choice(_PSI_H)}
    data = {"format": 1, "l": l, "symbols": ["h", "d1", "d2"], "modules": modules,
            "groups": b.groups, "homs": b.homs, "towers": towers}
    return data, expect
