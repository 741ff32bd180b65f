"""Reference towers for the zero-system certificates of a tower hom.

``towers.kernel_is_zero_system`` and ``towers.cokernel_is_zero_system``
decide whether a tower hom's levelwise kernel and cokernel are zero systems
from the level maps' lattices, without building either tower.  The builders
here construct both towers level by level, through the validating
``GroupHom(...)``, ``Tower(...)`` and ``TowerHom(...)``, so that every level
map, transition, naturality square and attached tail is checked, and the
property tests compare each certificate with ``is_zero_system`` of the
tower built here.

Unlike ``oracles.py``, these use the library's group kernels, cokernels and
normal forms: they are independent of the certificates, not of the library.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from arl.groups import (
    GroupHom,
    corestrict,
    hom_cokernel,
    hom_kernel,
    identity_hom,
    section,
)
from arl.intmat import IntMatrix
from arl.towers import TailRule, Tower, TowerHom, classify_tail, eventually_module
from arl.zlmod import module_cokernel


def _checked(h: GroupHom) -> GroupHom:
    return GroupHom(h.source, h.target, h.matrix)


def _tail_from(tower: Tower, start: int, top: int) -> Optional[TailRule]:
    """tower's verified tail moved up to start, for a tower with levels
    0..top that equals it from start on; None when it starts too late."""
    tail = classify_tail(tower)
    return None if tail is None else replace(tail, start=max(start, tail.start)).fit(top)


def levelwise_kernel(f: TowerHom) -> tuple[Tower, TowerHom]:
    """(K, incl) with K_n = ker(f_n), the transitions restricted from the
    source's, and from a zero rule's start on the source's tail."""
    data = [(fn.source, identity_hom(fn.source)) if fn.is_zero() else hom_kernel(fn)
            for fn in f.levels]
    groups = tuple(k for k, _ in data)
    incls = tuple(_checked(i) for _, i in data)
    maps = []
    for n in range(1, len(data)):
        u = corestrict(incls[n - 1], f.source.transition(n).compose(incls[n]))
        assert u is not None, f"kernel not closed under transition {n}"
        maps.append(GroupHom(groups[n], groups[n - 1], u.matrix))
    zero_rule = f.tail is not None and f.tail.matrix is None
    tail = _tail_from(f.source, f.tail.start, f.top) if zero_rule else None
    kernel = Tower(f.source.l, groups, tuple(maps), tail=tail)
    return kernel, TowerHom(kernel, f.source, incls)


def levelwise_cokernel(f: TowerHom) -> tuple[Tower, TowerHom]:
    """(C, proj) with C_n = coker(f_n) and the induced transitions.  From a
    zero rule's start on C is the target, with its tail; from a matrix
    rule's start on (at target offset 0) C_n is coker/l^{n+1} for the module
    cokernel of the rule's matrix, with that tail."""
    rule, tail, closed = f.tail, None, None
    if rule is not None and rule.matrix is None:
        tail = _tail_from(f.target, rule.start, f.top)
    elif rule is not None and classify_tail(f.target).offset == 0:
        coker, proj_mat, lift_mat = module_cokernel(
            rule.matrix, eventually_module(f.source), eventually_module(f.target))
        start = max(rule.start, classify_tail(f.source).start, classify_tail(f.target).start)
        tail = TailRule(start, coker).fit(f.top)
        closed = (start, coker, proj_mat, lift_mat)
    data = []
    for n, fn in enumerate(f.levels):
        if closed is not None and n >= closed[0]:
            cq = closed[1].quotient_group(n + 1)
            data.append((cq, GroupHom(fn.target, cq, closed[2]), closed[3]))
        elif fn.is_zero():
            data.append((fn.target, identity_hom(fn.target), IntMatrix.identity(fn.target.rank)))
        else:
            c, proj = hom_cokernel(fn)
            data.append((c, _checked(proj), section(proj)))
    groups, projs, lifts = zip(*data)
    # projs[n] kills exactly im(f_n) and f is natural, so the transition
    # u_n of C sends generator j to the image of its lift
    maps = tuple(GroupHom(groups[n], groups[n - 1],
                          projs[n - 1].matrix @ f.target.transition(n).matrix @ lifts[n])
                 for n in range(1, len(data)))
    cokernel = Tower(f.target.l, groups, maps, tail=tail)
    return cokernel, TowerHom(f.target, cokernel, projs)
