"""Finitely generated Z_l-modules in invariant-factor form.

A module is (+) Z/l^{a_1} + ... + Z/l^{a_k} + Z_l^rho with a_1 <= ... <= a_k.
Generators are ordered torsion-first (ascending exponent) then free, and all
finite quotients below reuse that order, so towers built from a module are
literally canonical level by level.

The textual form used in tower files is ``Zl^2 + Z/l^3 + Z/l`` with ``0`` for
the trivial module; the prime l is bound by the surrounding context.
Presentations go through ``intmat.modular_smith`` at modulus 0 (over Z).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Mapping, Sequence

from .errors import PrimeMismatch
from .groups import FinAbGroup, GroupHom, check_prime, reduce_matrix, valuation
from .intmat import IntMatrix, exact_int, modular_smith


@dataclass(frozen=True)
class ZlModule:
    l: int
    torsion_exponents: tuple[int, ...]
    free_rank: int = 0
    operators: tuple[tuple[str, IntMatrix], ...] = ()

    def __post_init__(self):
        exps = tuple(exact_int(a, "torsion exponent") for a in self.torsion_exponents)
        object.__setattr__(self, "torsion_exponents", exps)
        exact_int(self.free_rank, "free rank")
        object.__setattr__(self, "l", check_prime(self.l))
        if any(a < 1 for a in exps):
            raise ValueError("torsion exponents must be >= 1")
        if list(exps) != sorted(exps):
            raise ValueError("torsion exponents must be sorted ascending")
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        ops = []
        for label, mat in sorted(self.operators, key=lambda kv: kv[0]):
            check_module_hom(mat, self, self, what=f"operator {label!r}")
            ops.append((label, self._reduce_endo(mat)))
        object.__setattr__(self, "operators", tuple(ops))

    def _reduce_endo(self, mat: IntMatrix) -> IntMatrix:
        rows = []
        for i in range(self.rank):
            if i < len(self.torsion_exponents):
                m = self.l ** self.torsion_exponents[i]
                rows.append(tuple(x % m for x in mat.entries[i]))
            else:
                rows.append(tuple(mat.entries[i]))
        return IntMatrix(self.rank, self.rank, tuple(rows))

    # -- structure -----------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.torsion_exponents) + self.free_rank

    def is_trivial(self) -> bool:
        return self.rank == 0

    def is_torsion_free(self) -> bool:
        return not self.torsion_exponents

    def max_exponent(self) -> int:
        return self.torsion_exponents[-1] if self.torsion_exponents else 0

    def operator_labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.operators)

    def with_operators(self, operators: Mapping[str, IntMatrix] | Sequence[tuple[str, IntMatrix]]) -> "ZlModule":
        items = operators.items() if isinstance(operators, Mapping) else operators
        return replace(self, operators=tuple(items))

    def without_operators(self) -> "ZlModule":
        return replace(self, operators=())

    def relation_matrix(self) -> IntMatrix:
        """Relations of the module as a Z-module presentation (torsion columns only)."""
        return IntMatrix.diagonal([self.l ** a for a in self.torsion_exponents], rows=self.rank)

    # -- finite quotients ------------------------------------------------------

    def quotient_group(self, power: int) -> FinAbGroup:
        """The finite group  self / l^power  on the module's own generators."""
        if power < 1:
            raise ValueError("quotient power must be >= 1")
        return _quotient_group(self, power)

    def quotient_projection(self, power_src: int, power_tgt: int) -> GroupHom:
        """Canonical projection  self/l^power_src -> self/l^power_tgt."""
        if power_tgt > power_src:
            raise ValueError("projection must decrease the power")
        return _quotient_projection(self, power_src, power_tgt)

    def direct_sum(self, other: "ZlModule") -> tuple["ZlModule", list[int], list[int]]:
        """(sum, index_self, index_other): positions of each summand's generators."""
        if other.l != self.l:
            raise PrimeMismatch("direct sum of modules over different primes")
        tagged = [(a, 0, i) for i, a in enumerate(self.torsion_exponents)] + \
                 [(a, 1, i) for i, a in enumerate(other.torsion_exponents)]
        order = sorted(range(len(tagged)), key=lambda t: (tagged[t][0], tagged[t][1], tagged[t][2]))
        exps = tuple(tagged[t][0] for t in order)
        rho = self.free_rank + other.free_rank
        total = len(exps) + rho
        idx_self = [0] * self.rank
        idx_other = [0] * other.rank
        for pos, t in enumerate(order):
            _, side, i = tagged[t]
            (idx_self if side == 0 else idx_other)[i] = pos
        for i in range(self.free_rank):
            idx_self[len(self.torsion_exponents) + i] = len(exps) + i
        for i in range(other.free_rank):
            idx_other[len(other.torsion_exponents) + i] = len(exps) + self.free_rank + i
        summed = ZlModule(self.l, exps, rho)
        labels = [lab for lab in self.operator_labels() if lab in other.operator_labels()]
        if labels:
            ops = []
            for label in labels:
                m = [[0] * total for _ in range(total)]
                for part, idx in ((self, idx_self), (other, idx_other)):
                    sigma = dict(part.operators)[label]
                    for i in range(part.rank):
                        for j in range(part.rank):
                            m[idx[i]][idx[j]] = sigma.entries[i][j]
                ops.append((label, IntMatrix.from_rows(m, cols=total)))
            summed = summed.with_operators(ops)
        return summed, idx_self, idx_other

    # -- text form ---------------------------------------------------------------

    def describe(self) -> str:
        parts = []
        if self.free_rank:
            parts.append(f"Zl^{self.free_rank}")
        for a in reversed(self.torsion_exponents):
            parts.append("Z/l" if a == 1 else f"Z/l^{a}")
        return " + ".join(parts) if parts else "0"

    @staticmethod
    def parse(text: str, l: int) -> "ZlModule":
        text = text.strip()
        if text == "0":
            return ZlModule(l, ())
        exps = []
        rho = 0
        for term in text.split("+"):
            term = term.strip()
            m = re.fullmatch(r"Zl(?:\^(\d+))?", term)
            if m:
                rho += int(m.group(1) or "1")
                continue
            m = re.fullmatch(r"Z/l(?:\^(\d+))?", term)
            if m:
                exps.append(int(m.group(1) or "1"))
                continue
            raise ValueError(f"cannot parse module term {term!r}")
        return ZlModule(l, tuple(sorted(exps)), rho)


# Finite quotients are pure functions of frozen values, and towers ask for the
# same few over and over; bounded memos share them (see intmat._snf_cached).
QUOTIENT_MEMO_SIZE = 16


@lru_cache(maxsize=QUOTIENT_MEMO_SIZE)
def _quotient_group(module: ZlModule, power: int) -> FinAbGroup:
    factors = [module.l ** min(a, power) for a in module.torsion_exponents]
    factors += [module.l ** power] * module.free_rank
    # sorted exponents >= 1 capped at power >= 1: a chain of powers of l >= 2.
    # The module's operators are sorted by label and checked module
    # endomorphisms (ZlModule.__post_init__), so each preserves l^power M and
    # induces a well-defined endomorphism of M/l^power; reduced modulo the
    # factors, its matrix is the one that validation would store
    return FinAbGroup._of(tuple(factors), module.l, tuple(
        (lab, reduce_matrix(mat, factors)) for lab, mat in module.operators))


@lru_cache(maxsize=QUOTIENT_MEMO_SIZE)
def _quotient_projection(module: ZlModule, power_src: int, power_tgt: int) -> GroupHom:
    src = module.quotient_group(power_src)
    tgt = module.quotient_group(power_tgt)
    # power_tgt <= power_src, so each target factor divides its source factor
    # and the identity is a reduced, well-defined hom; both ends carry the
    # module's operators, which it commutes with
    return GroupHom._of(src, tgt, IntMatrix.identity(module.rank))


def check_module_hom(mat: IntMatrix, source: ZlModule, target: ZlModule,
                     what: str = "module hom"):
    """Validate that mat defines a Z_l-module map source -> target."""
    if source.l != target.l:
        raise PrimeMismatch(f"{what} across different primes")
    if mat.rows != target.rank or mat.cols != source.rank:
        raise ValueError(f"{what} has wrong shape")
    l = source.l
    kt = len(target.torsion_exponents)
    for j, aj in enumerate(source.torsion_exponents):
        for i in range(target.rank):
            if i < kt:
                need = target.torsion_exponents[i] - aj
                if need > 0 and mat.entries[i][j] % l ** need != 0:
                    raise ValueError(f"{what} not well-defined at ({i},{j})")
            elif mat.entries[i][j] != 0:
                raise ValueError(f"{what} maps torsion into the free part")


def zl_canonicalize(relations: IntMatrix, l: int) -> tuple[ZlModule, IntMatrix, IntMatrix]:
    """Canonical form of Z^n / col-span(relations) as a Z_l-module, with maps.

    Prime-to-l parts of the invariant factors are units over Z_l and are
    absorbed (a factor coprime to l contributes nothing).  Returns
    (module, proj, lift) like the group presentation: proj maps ambient
    coordinates to module coordinates (torsion generators first, then free),
    and proj @ lift is the identity.
    """
    factors, u, ui = modular_smith(relations, 0)
    torsion, free = [], []
    for i, val in enumerate(factors):
        if val == 0:
            free.append(i)
            continue
        v = valuation(val, l)
        if v > 0:
            torsion.append((v, i))
    torsion.sort()
    keep = [i for _, i in torsion] + free
    module = ZlModule(l, tuple(v for v, _ in torsion), len(free))
    proj = u.take_rows(keep)
    lift = ui.take_columns(keep)
    return module, proj, lift


def module_cokernel(mat: IntMatrix, source: ZlModule, target: ZlModule,
                    ) -> tuple[ZlModule, IntMatrix, IntMatrix]:
    """(coker, proj, lift) of a module map, with operators transported."""
    check_module_hom(mat, source, target)
    rel = mat.hstack(target.relation_matrix())
    coker, proj, lift = zl_canonicalize(rel, target.l)
    labels = [lab for lab in source.operator_labels() if lab in target.operator_labels()]
    if labels:
        ops = [(lab, proj @ mat @ lift) for lab, mat in target.operators if lab in labels]
        coker = coker.with_operators(ops)
    return coker, proj, lift
