"""Projective systems of finite abelian groups over a fixed prime l.

A tower is an explicit prefix F_0, ..., F_L with transition maps
u_n : F_n -> F_{n-1}, together with a tail that pins down every level beyond
L, or None when nothing is known there: such a tower is truncated, its
quantified claims are checked up to L and its search results carry a
"prefix" scope.  A tail is one record, ``TailRule(start, module, offset)``:
F_n = module/l^{n+1+offset} with canonical projections for n >= start,
module a finitely generated Z_l-module (offset 0 unless it has a free part),
or F_n trivial for n >= start when module is None (a zero tail).  Its
``check`` verifies the record on the prefix, ``level`` and ``transition``
build the levels beyond it, and ``classify_tail`` reports it with its start
walked down as far as the prefix allows.

A tail is data: it refers to no other tower.  ``shift``, ``direct_sum``
and ``mod_power`` read their prefix through their parents, move the parents'
verified tail by the closed form of the construction and attach it, or no
tail where no such form is known or the prefix departs from it.

A tower hom carries its tail the same way, as one record
``HomRule(start, matrix)``, or None when it is truncated: from ``start`` on
the level maps are zero when matrix is None, else induced by a module map
from the source's tail module to the target's.  ``HomRule.check`` verifies
the record on the represented levels, ``compose_rules`` holds every rule for
composites, and the levelwise kernel of a zero rule and the cokernel of a
zero or matrix rule inherit a tail.  A tower hom is only ever read on its
represented levels.

Levels beyond the prefix of a non-truncated tower can be materialized on
demand; predicates combine exact prefix computation with tail reasoning and
report three-valued verdicts with certificates or witnesses.  Whether a
tower, or a tower hom's levelwise kernel or cokernel, is a zero system is
answered by one search over the tail (``_zero_radius``); the kernel and
cokernel are read off the level maps' lattices and their inherited tail,
and no kernel or cokernel tower is built.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from .errors import (
    BadSetting,
    PrimeMismatch,
    TruncatedTower,
)
from .groups import (
    FinAbGroup,
    GroupHom,
    direct_sum_hom,
    direct_sum_with_maps,
    hom_is_isomorphism,
    hom_on_quotients,
    identity_hom,
    induced_on_quotient,
    is_matrix_of,
    lies_in_image,
    quotient_with_maps,
    vanishes_on_kernel,
    zero_hom,
)
from .intmat import IntMatrix
from .zlmod import ZlModule, check_module_hom, module_cokernel


DEFAULT_BOUND_ENV = "ARL_DEFAULT_BOUND"


# -- three-valued verdicts ---------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    """Result of a semi-decidable check: yes with a certificate, no with a
    witness, or unknown with the reason the search was abandoned."""

    status: str
    certificate: object = None
    witness: object = None
    note: str = ""

    def __bool__(self) -> bool:
        return self.status == "yes"

    @property
    def is_no(self) -> bool:
        return self.status == "no"

    @property
    def is_unknown(self) -> bool:
        return self.status == "unknown"

    @staticmethod
    def yes(certificate=None, note="") -> "Verdict":
        return Verdict("yes", certificate=certificate, note=note)

    @staticmethod
    def no(witness=None, note="") -> "Verdict":
        return Verdict("no", witness=witness, note=note)

    @staticmethod
    def unknown(note="") -> "Verdict":
        return Verdict("unknown", note=note)


@dataclass(frozen=True)
class ZeroCertificate:
    """F[radius] -> F vanishes on all represented levels; scope records
    whether the tail rule forces it beyond the prefix."""

    radius: int
    scope: str = "tail"  # "tail" (forced beyond) or "prefix" (checked up to L)


@dataclass(frozen=True)
class LAdicCert:
    scope: str = "tail"


@dataclass(frozen=True)
class MLBound:
    bound: int
    scope: str = "tail"


# -- tail rules ---------------------------------------------------------------

def _departure(level, transition, tail: TailRule, levels: range,
               transitions: range) -> Optional[tuple]:
    """Where a tower, read through ``level`` and ``transition``, leaves the
    normal form of ``tail``: the first of ``levels`` that differs, else the
    first of ``transitions`` that is not the canonical projection, as
    ("level", n) or ("transition", n); None when it follows the tail.
    Transitions between trivial levels are zero, so they are not checked.
    Ranks are compared before M/l^k is built, so a huge module fails cheaply."""
    m, off = tail.module, tail.offset
    for n in levels:
        g = level(n)
        if (not g.is_trivial()) if m is None else (
                g.rank != m.rank or g != m.quotient_group(n + 1 + off)):
            return "level", n
    for n in transitions if m is not None else ():
        if transition(n) != m.quotient_projection(n + 1 + off, n + off):
            return "transition", n
    return None


@dataclass(frozen=True)
class TailRule:
    """How a tower continues beyond its prefix: for all n >= start the level
    is module/l^{n+1+offset} with the canonical projections as transitions,
    or trivial when module is None (a zero tail).  A module with no
    generators is stored as None, so the zero tail has one spelling."""

    start: int
    module: Optional[ZlModule] = None
    offset: int = 0

    def __post_init__(self):
        if self.module is not None and self.module.is_trivial():
            object.__setattr__(self, "module", None)

    def fit(self, top: int) -> Optional["TailRule"]:
        """This rule for a tower with levels 0..top, or None when it starts
        too late: a module tail must start inside the prefix and a zero tail
        at most one level above it, else a level is pinned down by neither."""
        return self if self.start <= top + (self.module is None) else None

    def check(self, tower: "Tower") -> None:
        """Raise ValueError when the prefix contradicts the rule."""
        m = self.module
        if m is not None and m.l != tower.l:
            raise PrimeMismatch("tail module prime differs from tower prime")
        if self.offset < 0:
            raise ValueError(f"negative tail offset {self.offset}")
        if self.offset and (m is None or not m.free_rank):
            # quotients of a torsion module stabilize, so its tail sits at offset 0
            raise ValueError(f"tail offset {self.offset} on a module with no free part")
        if self.start < 0 or self.fit(tower.top) is None:
            raise ValueError(f"tail start {self.start} out of range for levels 0..{tower.top}")
        miss = _departure(tower.level, tower.transition, self,
                          range(self.start, tower.top + 1), range(self.start + 1, tower.top + 1))
        if miss:
            kind, n = miss
            raise ValueError(f"tail does not match level {n}" if kind == "level"
                             else f"transition {n} is not the canonical projection")

    def level(self, tower: "Tower", n: int) -> FinAbGroup:
        if self.module is None:
            # the trivial group is a valid l-local group for the tower's prime
            return FinAbGroup._of((), tower.l)
        return self.module.quotient_group(n + 1 + self.offset)

    def transition(self, tower: "Tower", n: int) -> GroupHom:
        if self.module is None:
            return zero_hom(tower.level(n), tower.level(n - 1))
        return self.module.quotient_projection(n + 1 + self.offset, n + self.offset)


# -- towers -------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Tower:
    l: int
    groups: tuple[FinAbGroup, ...]
    maps: tuple[GroupHom, ...]
    tail: Optional[TailRule] = None     # None: truncated, nothing known beyond top
    starred: bool = False
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if not self.groups:
            raise ValueError("a tower needs at least one represented level")
        if len(self.maps) != len(self.groups) - 1:
            raise ValueError("need exactly one transition map per adjacent level pair")
        for g in self.groups:
            if g.prime_support != self.l:
                raise ValueError("tower levels must be l-local for the tower's prime")
        for n, u in enumerate(self.maps, start=1):
            if u.source != self.groups[n] or u.target != self.groups[n - 1]:
                raise ValueError(f"transition {n} does not connect level {n} to level {n - 1}")
        if self.tail is not None:
            self.tail.check(self)

    @classmethod
    def _of(cls, l: int, groups: tuple[FinAbGroup, ...], maps: tuple[GroupHom, ...],
            tail: Optional[TailRule], starred: bool = False) -> "Tower":
        """Trusted constructor: skips ``__post_init__``, the tail check
        included.  Only for l-local groups joined by their transitions and a
        tail already checked against them, as ``_derived`` builds them."""
        tower = object.__new__(cls)
        tower.__dict__.update(l=l, groups=groups, maps=maps, tail=tail, starred=starred,
                              _cache={})
        return tower

    # -- level access --------------------------------------------------------

    @property
    def top(self) -> int:
        return len(self.groups) - 1

    def can_extend(self) -> bool:
        return self.tail is not None

    def level(self, n: int) -> FinAbGroup:
        if n < 0:
            raise ValueError("negative level")
        if n <= self.top:
            return self.groups[n]
        if self.tail is None:
            raise TruncatedTower(f"level {n} beyond truncated prefix (top={self.top})")
        key = ("level", n)
        if key not in self._cache:
            self._cache[key] = self.tail.level(self, n)
        return self._cache[key]

    def transition(self, n: int) -> GroupHom:
        """u_n : F_n -> F_{n-1} for n >= 1."""
        if n < 1:
            raise ValueError("transitions start at level 1")
        if n <= self.top:
            return self.maps[n - 1]
        if self.tail is None:
            raise TruncatedTower(f"transition {n} beyond truncated prefix")
        key = ("transition", n)
        if key not in self._cache:
            self._cache[key] = self.tail.transition(self, n)
        return self._cache[key]

    def composite(self, n: int, r: int) -> GroupHom:
        """The composed transition F_{n+r} -> F_n (identity for r = 0)."""
        if r == 0:
            return identity_hom(self.level(n))
        key = ("composite", n, r)
        if key not in self._cache:
            self._cache[key] = self.composite(n, r - 1).compose(self.transition(n + r))
        return self._cache[key]

    # -- comparisons and caching ----------------------------------------------

    def levelwise_equal(self, other: "Tower", upto: Optional[int] = None) -> bool:
        """Exact equality of groups and transition matrices on a common prefix."""
        if self is other:
            return True
        if self.l != other.l:
            return False
        hi = min(self.top, other.top) if upto is None else upto
        for n in range(hi + 1):
            if self.level(n) != other.level(n):
                return False
        for n in range(1, hi + 1):
            if self.transition(n) != other.transition(n):
                return False
        return True

    def cached(self, key, compute: Callable[[], object]):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def describe_levels(self, upto: Optional[int] = None) -> list[str]:
        hi = self.top if upto is None else upto
        return [self.level(n).describe() for n in range(hi + 1)]


def default_bound() -> Optional[int]:
    """ARL_DEFAULT_BOUND as a non-negative integer, None when it is unset."""
    env = os.environ.get(DEFAULT_BOUND_ENV)
    if env is None:
        return None
    try:
        value = int(env)
    except ValueError:
        value = -1
    if value < 0:
        raise BadSetting(f"{DEFAULT_BOUND_ENV} must be a non-negative integer, got {env!r}")
    return value


def resolve_bound(tower: "Tower | TowerHom", bound: Optional[int]) -> int:
    """An explicit bound, else ARL_DEFAULT_BOUND, else the top level of the
    tower (or of the tower hom, whose kernel has its levels)."""
    if bound is not None:
        return bound
    value = default_bound()
    return tower.top if value is None else value


def constant_tower(l: int, group: FinAbGroup, levels: int, transition: Optional[GroupHom] = None,
                   tail: Optional[TailRule] = None) -> Tower:
    """A tower with the same group at every represented level."""
    u = transition if transition is not None else identity_hom(group)
    if u.source != group or u.target != group:
        raise ValueError("constant tower transition must be an endomorphism")
    return Tower(l, (group,) * levels, (u,) * (levels - 1), tail)


def classify_tail(tower: Tower) -> Optional[TailRule]:
    """The tower's tail, which its check verified on the prefix, with its
    start walked down while the level below still follows it; None when the
    tower is truncated."""
    def compute():
        tail = tower.tail
        if tail is None:
            return None
        start = tail.start
        while start > 0 and _departure(tower.level, tower.transition, tail,
                                       range(start - 1, start), range(start, start + 1)) is None:
            start -= 1
        return replace(tail, start=start)
    return tower.cached(("tail",), compute)


# -- tower homomorphisms --------------------------------------------------------

@dataclass(frozen=True)
class HomRule:
    """What a tower hom is beyond its represented levels: for all n >= start
    the level map is zero when matrix is None, else induced by matrix, a
    module map from the source's tail module to the target's."""

    start: int
    matrix: Optional[IntMatrix] = None

    def check(self, hom: "TowerHom") -> None:
        """Raise ValueError when the represented levels contradict the rule."""
        for n in range(self.start, len(hom.levels)):
            f = hom.levels[n]
            if not (f.is_zero() if self.matrix is None else is_matrix_of(f, self.matrix)):
                raise ValueError(f"{self!r} contradicted at level {n}")
        if self.matrix is None:
            return
        a, b = classify_tail(hom.source), classify_tail(hom.target)
        if a is None or b is None:
            raise ValueError("a matrix hom rule needs towers with a tail")
        if a.offset < b.offset:
            # M/l^{n+1+a} -> N/l^{n+1+b} is induced by a module map only when a >= b
            raise ValueError(f"source tail offset {a.offset} below the target's {b.offset}")
        check_module_hom(self.matrix, eventually_module(hom.source), eventually_module(hom.target))


def compose_rules(outer: Optional[HomRule], inner: Optional[HomRule],
                  inner_shift: int) -> Optional[HomRule]:
    """The rule of outer after inner, where level n of the composite uses
    inner's level n + inner_shift."""
    if outer is not None and outer.matrix is None:
        return outer
    if inner is not None and inner.matrix is None:
        return HomRule(max(0, inner.start - inner_shift))
    if outer is None or inner is None:
        return None
    return HomRule(max(outer.start, inner.start - inner_shift, 0), outer.matrix @ inner.matrix)


def eventually_module(tower: Tower) -> Optional[ZlModule]:
    """The module M of the tower's tail, with level n equal to
    M/l^{n+1+offset} from the tail start on (the trivial module for a zero
    tail), or None for a truncated tower."""
    tail = classify_tail(tower)
    if tail is None:
        return None
    return ZlModule(tower.l, ()) if tail.module is None else tail.module


def _tail_from(f: Tower, start: int, top: int) -> Optional[TailRule]:
    """The tail of a kernel or cokernel with levels 0..top that equals f from level
    start on: f's verified tail re-anchored at start."""
    tail = classify_tail(f)
    return None if tail is None else replace(tail, start=max(start, tail.start)).fit(top)


def _natural_rule(f: Tower) -> Optional[HomRule]:
    """The rule of the identity of f and of the natural maps F[r] -> F: from
    f's tail start on they are zero on a zero tail and induced by the
    identity of f's tail module otherwise."""
    tail = classify_tail(f)
    if tail is None:
        return None
    if tail.module is None:
        return HomRule(tail.start)
    return HomRule(tail.start, IntMatrix.identity(tail.module.rank))


@dataclass(frozen=True, eq=False)
class TowerHom:
    """A morphism of towers, given on its represented levels plus a tail rule.

    The public constructor checks the endpoints and every naturality square.
    Identities and zeros, the natural maps F[r] -> F, the embeddings of a
    direct sum and the inclusion of a stable-image tower are natural by
    construction and use the trusted :meth:`_of`, which still runs the tail
    check.  So are the representatives the shift-class calculus builds
    (``arcat.reshift``, ``arcat.ar_compose``, both morphisms of
    ``arcat.canonical_l_adic`` and ``upsilon.ar_canonical_rep``): they rely
    on the invariant that ``arcat.ARMor`` checks once, that a
    representative's source reads as its source shifted by the shift amount.
    Every other tower hom, the generator's included, goes through the public
    constructor.  Only the represented levels can be read: the tail records
    what is known beyond them.
    """

    source: Tower
    target: Tower
    levels: tuple[GroupHom, ...]
    tail: Optional[HomRule] = None      # None: truncated, nothing known beyond top

    def __post_init__(self):
        if self.source.l != self.target.l:
            raise PrimeMismatch("tower hom across different primes")
        if not self.levels:
            raise ValueError("a tower hom needs at least one represented level")
        for n, f in enumerate(self.levels):
            if f.source != self.source.level(n) or f.target != self.target.level(n):
                raise ValueError(f"level {n} map endpoints do not match the towers")
        for n in range(len(self.levels) - 1):
            left = self.levels[n].compose(self.source.transition(n + 1))
            right = self.target.transition(n + 1).compose(self.levels[n + 1])
            if left != right:
                raise ValueError(f"square at levels {n + 1} -> {n} does not commute")
        if self.tail is not None:
            self.tail.check(self)

    @classmethod
    def _of(cls, source: Tower, target: Tower, levels: tuple[GroupHom, ...],
            tail: Optional[HomRule]) -> "TowerHom":
        """Trusted constructor: skips the endpoint and naturality checks of
        ``__post_init__`` but keeps the tail check.  Only for levels that are
        natural maps between the levels of source and target."""
        hom = object.__new__(cls)
        hom.__dict__.update(source=source, target=target, levels=levels, tail=tail)
        if tail is not None:
            tail.check(hom)
        return hom

    @property
    def top(self) -> int:
        return len(self.levels) - 1

    def level(self, n: int) -> GroupHom:
        if n <= self.top:
            return self.levels[n]
        raise TruncatedTower(f"hom level {n} beyond represented data (top={self.top})")

    def is_levelwise_zero(self) -> bool:
        return all(f.is_zero() for f in self.levels)


def identity_tower_hom(f: Tower) -> TowerHom:
    levels = tuple(identity_hom(f.level(n)) for n in range(f.top + 1))
    return TowerHom._of(f, f, levels, _natural_rule(f))


def zero_tower_hom(source: Tower, target: Tower) -> TowerHom:
    if source.l != target.l:
        raise PrimeMismatch("tower hom across different primes")
    k = min(source.top, target.top)
    levels = tuple(zero_hom(source.level(n), target.level(n)) for n in range(k + 1))
    return TowerHom._of(source, target, levels, HomRule(0))


# -- elementary tower operations -------------------------------------------------

def _derived(l: int, level: Callable[[int], FinAbGroup], transition: Callable[[int], GroupHom],
             hi: int, tail: Optional[TailRule], starred: bool = False) -> Tower:
    """The tower with levels level(0..hi) and transitions transition(1..hi),
    read through its parents, carrying ``tail``: the parents' verified tail
    moved by the construction.  The prefix is read further where the tail
    must meet it, and a prefix that departs from the tail leaves the tower
    truncated.

    Built with the trusted ``Tower._of``: each caller proves in a comment
    that transition(n)'s target is transition(n - 1)'s source, that the
    levels carry the prime l, and that ``tail`` has the prime l, a start of
    at least 0 and an offset that ``TailRule.check`` accepts.  The departure
    check below is the rest of that check, made once."""
    if tail is not None:
        m = tail.module
        # a module tail starts inside the prefix, a zero tail at most one level above it
        hi = max(hi, tail.start - (m is None))
        if m is not None and m.torsion_exponents:
            # a sum's generator order settles once every torsion exponent is
            # reached and the free ones have passed them
            hi = max(hi, m.max_exponent() - (tail.offset if m.free_rank else 1))
    maps = tuple(transition(n) for n in range(1, hi + 1))
    groups = (maps[0].target if maps else level(0),) + tuple(u.source for u in maps)
    if tail is not None and _departure(groups.__getitem__, lambda n: maps[n - 1], tail,
                                       range(tail.start, hi + 1), range(tail.start + 1, hi + 1)):
        tail = None
    # hi >= tail.start - (m is None) above, so the tail fits levels 0..hi
    return Tower._of(l, groups, maps, tail, starred)


def shift(f: Tower, r: int) -> Tower:
    """The tower with level n equal to F_{n+r}."""
    if r < 0:
        raise ValueError("shift amount must be >= 0")
    if r == 0:
        return f
    if not f.can_extend() and r > f.top:
        raise TruncatedTower("shift exceeds the represented prefix")
    p = classify_tail(f)
    tail = None
    if p is not None and p.module is None:
        tail = TailRule(max(0, p.start - r))
    elif p is not None and p.module.free_rank == 0:
        # pure torsion: quotients stabilize, re-anchor at offset 0
        tail = TailRule(max(0, p.start - r, p.module.max_exponent() - 1), p.module)
    elif p is not None:
        tail = TailRule(max(0, p.start - r), p.module, p.offset + r)
    hi = f.top if f.can_extend() else f.top - r
    # transition n is f's u_{n+r} : F_{n+r} -> F_{n+r-1}, so its target is
    # transition n - 1's source F_{n+r-1}, and every level is one of f's,
    # l-local for f.l.  The tail is f's verified one: its module has the
    # prime f.l, every start is clamped to 0, and the offset moves only on a
    # module with a free part, by r >= 1 from f's verified offset >= 0
    return _derived(f.l, lambda n: f.level(n + r), lambda n: f.transition(n + r), hi, tail,
                    f.starred)


def natural_map(f: Tower, r: int) -> TowerHom:
    """The canonical morphism F[r] -> F given by composed transitions."""
    if r == 0:
        return identity_tower_hom(f)
    src = shift(f, r)
    k = min(src.top, f.top)
    # level n is the composite F_{n+r} -> F_n, and both sides of each square
    # are the composite F_{n+1+r} -> F_n, whose reduced matrix is unique
    levels = tuple(f.composite(n, r) for n in range(k + 1))
    return TowerHom._of(src, f, levels, _natural_rule(f))


def mod_power(f: Tower, k: int) -> Tower:
    """Levelwise quotient by l^k with the induced transitions."""
    if k < 0:
        raise ValueError("power must be >= 0")
    p = classify_tail(f)
    tail = None if p is None else TailRule(p.start)
    if p is not None and p.module is not None and k > 0:
        # F_n / l^k = M / l^{min(n+1+offset, k)} is m / l^{n+1} for the m below;
        # at offset 0 from the tail start on, else (M has a free part) once n + 1 >= k
        m = ZlModule(f.l, tuple(sorted([min(a, k) for a in p.module.torsion_exponents]
                                       + [k] * p.module.free_rank)))
        tail = TailRule(max(p.start, k - 1 if p.offset else 0), m)
    q = f.l ** k
    # transition n is hom_on_quotients(u_n, q, q) : F_n/q -> F_{n-1}/q, each
    # end quotient_with_maps(-, q)[0] of f's level, so its target is
    # transition n - 1's source, and a quotient keeps its group's prime f.l.
    # The tail starts at f's verified start or later, its module is built
    # over f.l, and its offset is 0
    return _derived(f.l, lambda n: quotient_with_maps(f.level(n), q)[0],
                    lambda n: hom_on_quotients(f.transition(n), q, q), f.top, tail)


def ladic_truncation(f: Tower) -> Tower:
    """The tower with level n equal to F_n / l^{n+1}."""
    tail = classify_tail(f)
    # M / l^{n+1+offset} truncates to M / l^{n+1} from the same start on,
    # with the canonical projections between those levels
    m = None if tail is None else tail.module
    start = f.top + 1 if m is None else tail.start
    groups = tuple(quotient_with_maps(f.level(n), f.l ** (n + 1))[0] if n < start
                   else m.quotient_group(n + 1) for n in range(f.top + 1))
    maps = tuple(hom_on_quotients(f.transition(n), f.l ** (n + 1), f.l ** n) if n <= start
                 else m.quotient_projection(n + 1, n) for n in range(1, f.top + 1))
    return Tower(f.l, groups, maps, tail=None if tail is None else replace(tail, offset=0))


def direct_sum(f: Tower, g: Tower) -> Tower:
    """Levelwise direct sum with componentwise transitions."""
    if f.l != g.l:
        raise PrimeMismatch("direct sum of towers over different primes")
    a, b = classify_tail(f), classify_tail(g)
    tail = None
    if a is not None and b is not None:
        start = max(a.start, b.start)
        # a zero tail always has offset 0
        if a.module is None:
            tail = replace(b, start=start)
        elif b.module is None:
            tail = replace(a, start=start)
        elif a.offset == b.offset:
            tail = TailRule(start, a.module.direct_sum(b.module)[0], a.offset)
    # a truncated summand caps the prefix; two extendable ones fill the longer
    truncated_tops = [t.top for t in (f, g) if not t.can_extend()]
    hi = min(truncated_tops) if truncated_tops else max(f.top, g.top)
    # transition n is direct_sum_hom(u^f_n, u^g_n), whose target is
    # direct_sum_with_maps(F_{n-1}, G_{n-1})[0], transition n - 1's source,
    # and a sum of two f.l-local groups is f.l-local.  The tail starts at the
    # later of the verified starts; a summand's verified tail keeps its
    # prime and offset, and the module sum of two tails over f.l is over f.l
    # with their common offset, which is 0 unless both have a free part
    return _derived(f.l, lambda n: direct_sum_with_maps(f.level(n), g.level(n))[0],
                    lambda n: direct_sum_hom(f.transition(n), g.transition(n)), hi, tail)


def sum_embeddings(f: Tower, g: Tower) -> tuple[Tower, TowerHom, TowerHom, TowerHom, TowerHom]:
    """(summed, incl_f, incl_g, proj_f, proj_g) for summed = direct_sum(f, g)."""
    summed = direct_sum(f, g)
    # summed has level n = f_n + g_n and transition u^f_n + u^g_n, so with
    # incl_f.proj_f = id, incl_g.proj_f = 0 (and the same for g) every square
    # commutes: (u^f + u^g).incl_f = incl_f.u^f, proj_f.(u^f + u^g) = u^f.proj_f
    incl_f, incl_g, proj_f, proj_g = zip(*(direct_sum_with_maps(f.level(n), g.level(n))[1:]
                                           for n in range(summed.top + 1)))
    return (summed,
            TowerHom._of(f, summed, incl_f, None),
            TowerHom._of(g, summed, incl_g, None),
            TowerHom._of(summed, f, proj_f, None),
            TowerHom._of(summed, g, proj_g, None))


# -- predicates -------------------------------------------------------------------

def _zero_radius(vanishes: Callable[[int, int], bool], top: int, bound: int,
                 tail: Optional[TailRule]) -> Verdict:
    """The least r with every composite X_{n+r} -> X_n zero, of a tower X
    with levels 0..top and tail ``tail``; vanishes(n, r) says whether one
    composite is zero.  Past a module tail's start every composite surjects
    onto a nonzero group, so X is no zero system.  Past a zero tail's start
    the composites are zero for free and the finitely many below are tested;
    the radius tail.start always works, so that search never comes back
    empty, and as composites out of trivial levels vanish its radius does not
    depend on how far the start walks down.  A truncated X is searched on
    its prefix up to bound."""
    if tail is not None and tail.module is not None:
        return Verdict.no(witness=("level", tail.start),
                          note="tail levels are nonzero module quotients with surjective transitions")
    if tail is not None:
        for r in range(0, max(bound, tail.start) + 1):
            if all(vanishes(n, r) for n in range(max(0, tail.start - r))):
                return Verdict.yes(ZeroCertificate(r, scope="tail"))
    for r in range(0, min(bound, top) + 1):
        if all(vanishes(n, r) for n in range(top - r + 1)):
            return Verdict.yes(ZeroCertificate(r, scope="prefix"))
    return Verdict.unknown(note=f"bound {bound} exhausted on a truncated tail")


def is_zero_system(f: Tower, bound: Optional[int] = None) -> Verdict:
    """Whether some F[r] -> F vanishes; yes-certificates carry the radius."""
    bound = resolve_bound(f, bound)
    return f.cached(("zero_system", bound), lambda: _zero_radius(
        lambda n, r: f.composite(n, r).is_zero(), f.top, bound, classify_tail(f)))


def kernel_is_zero_system(h: TowerHom, bound: Optional[int] = None) -> Verdict:
    """Whether h's levelwise kernel K, K_n = ker(h_n) with the induced
    transitions, is a zero system, read off the level maps' kernel lattices:
    K_{n+r} -> K_n is zero exactly when the source's composite
    F_{n+r} -> F_n vanishes on ker(h_{n+r}).  From a zero rule's start on K
    is the source, whose tail it takes there; otherwise K is truncated.  No
    kernel tower is built, and a no names the rule-anchored start of a
    module tail."""
    bound = resolve_bound(h, bound)
    f, rule = h.source, h.tail
    tail = _tail_from(f, rule.start, h.top) if rule is not None and rule.matrix is None else None
    return _zero_radius(lambda n, r: vanishes_on_kernel(f.composite(n, r), h.levels[n + r]),
                        h.top, bound, tail)


def _cokernel_tail(f: TowerHom) -> Optional[TailRule]:
    """The tail of f's levelwise cokernel: the target's from a zero rule's
    start on, and from a matrix rule's on (at target offset 0) the module
    cokernel of its matrix, whose quotients by l^{n+1} the cokernel's levels
    are past the tails' starts; else None."""
    rule = f.tail
    if rule is not None and rule.matrix is None:
        return _tail_from(f.target, rule.start, f.top)
    if rule is None or classify_tail(f.target).offset != 0:
        return None
    coker_mod = module_cokernel(rule.matrix, eventually_module(f.source),
                                eventually_module(f.target))[0]
    start = max(rule.start, classify_tail(f.source).start, classify_tail(f.target).start)
    return TailRule(start, coker_mod).fit(f.top)


def cokernel_is_zero_system(h: TowerHom, bound: Optional[int] = None) -> Verdict:
    """Whether h's levelwise cokernel C, C_n = coker(h_n) with the induced
    transitions, is a zero system, read off the level maps' image lattices:
    C_{n+r} -> C_n is zero exactly when im(G_{n+r} -> G_n) lies in im(h_n).
    C's tail is :func:`_cokernel_tail`.  No cokernel tower is built, and a
    no names the rule-anchored start of a module tail."""
    bound = resolve_bound(h, bound)
    return _zero_radius(lambda n, r: lies_in_image(h.target.composite(n, r), h.levels[n]),
                        h.top, bound, _cokernel_tail(h))


def is_l_adic(f: Tower) -> Verdict:
    """Annihilation l^{n+1} F_n = 0 plus induced isomorphisms F_{n+1}/l^{n+1} ~ F_n."""

    def compute() -> Verdict:
        tail = classify_tail(f)
        # With a verified tail, check levels up to its start: beyond it the
        # levels are M/l^{n+1+offset} (or trivial) with canonical projections,
        # which pass both checks at offset 0, and level start fails the
        # annihilator at a positive offset
        hi = f.top if tail is None else tail.start
        for n in range(hi + 1):
            e = f.level(n).exponent()
            if e != 1 and (f.l ** (n + 1)) % e != 0:
                return Verdict.no(witness=("annihilator", n),
                                  note=f"l^{n + 1} does not kill level {n}")
        # l^{n+1} F_n = 0 now holds, so u_{n+1}(l^{n+1} F_{n+1}) = 0 and each
        # transition induces its quotient map F_{n+1}/l^{n+1} -> F_n
        for n in range(hi):
            if not hom_is_isomorphism(induced_on_quotient(f.transition(n + 1), f.l ** (n + 1))):
                return Verdict.no(witness=("induced-map", n),
                                  note=f"induced map at level {n} is not an isomorphism")
        if tail is None:
            return Verdict.yes(LAdicCert(scope="prefix"),
                               note="verified on the represented prefix of a truncated tower")
        if tail.module is None:
            return Verdict.yes(LAdicCert(scope="tail"), note="eventually trivial tail")
        return Verdict.yes(LAdicCert(scope="tail"))

    return f.cached(("l_adic",), compute)
