"""Finite abelian groups in invariant-factor form and their homomorphisms.

A group is Z/d_1 + ... + Z/d_k with d_1 | d_2 | ... | d_k, optionally tagged
with a prime l (then every d_i must be a power of l) and with named operator
actions standing in for a Galois action.  Homomorphisms are integer matrices
on the chosen generators, stored with entries reduced modulo the target
factors so that equal maps have equal matrices.

Kernels, images and cokernels are computed exactly, modulo the exponent e of
the groups involved: every lattice they need contains e*Z^n, so it is solved,
intersected and presented over Z/e with entries kept in [0, e) (see
``intmat.modular_smith``).  Subgroups are presented on the Hermite basis of
their preimage lattice, computed modulo the exponent on the Smith form's
workspace, which makes every computed object canonical: two generating sets
of the same subgroup give the same presentation.

Every lattice question and linear system of the layers above is answered
here: images, membership in n*G, whether a hom kills n*A or another hom's
kernel, whether its image lies in another's, whether a matrix is a hom's,
and three universal properties -- ``corestrict`` (maps into a subgroup),
``induced_on_quotient`` (maps out of A/nA) and ``section`` (lifts along a
surjection) -- each built by construction under one proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterable, Mapping, Optional, Sequence

from .errors import CompositionMismatch, InfiniteGroup, PrimeMismatch
from .intmat import (
    IntMatrix,
    exact_int,
    hermite_normal_form,
    modular_kernel,
    modular_smith,
    modular_solve,
)


# Miller-Rabin on the first 13 primes as bases decides primality exactly below
# PRIME_LIMIT (Sorenson & Webster 2017); a larger prime is refused, not guessed.
# The first 12 alone are fooled by 318665857834031151167461.
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Whether n is prime; exact for n < PRIME_LIMIT, and two tuple lookups
    for the small primes every validated group carries."""
    if n < 2 or n in PRIME_BASES or any(n % p == 0 for p in PRIME_BASES):
        return n in PRIME_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in PRIME_BASES:
        x = pow(a, d, n)
        # a witnesses that n is composite unless a^d = 1 or a^(d 2^r) = -1
        if x != 1 and all(pow(x, 2 ** r, n) != n - 1 for r in range(s)):
            return False
    return True


def check_prime(p: int) -> int:
    """p as an int, or a ValueError naming it unless it is a certified prime."""
    p = exact_int(p, "prime")
    if not (is_prime(p) and p < PRIME_LIMIT):
        raise ValueError(f"prime {p} is not a certified prime (a prime below {PRIME_LIMIT})")
    return p


def valuation(n: int, l: int) -> int:
    """The exponent of l in the nonzero integer n."""
    v = 0
    while n % l == 0:
        n //= l
        v += 1
    return v


@dataclass(frozen=True)
class FinAbGroup:
    """A finite abelian group in canonical invariant-factor form.

    The public constructor checks the divisibility chain, the prime and the
    operators.  Direct sums, quotients ``g / n*g`` with their induced
    operators, presentations modulo a power of the prime and the quotients
    M/l^k of a Z_l-module with its operators are valid by construction and
    use the trusted :meth:`_of`.
    """

    invariant_factors: tuple[int, ...]
    prime_support: Optional[int] = None
    operators: tuple[tuple[str, IntMatrix], ...] = ()

    def __post_init__(self):
        factors = tuple(exact_int(d, "invariant factor") for d in self.invariant_factors)
        object.__setattr__(self, "invariant_factors", factors)
        for i, d in enumerate(factors):
            if d < 2:
                raise ValueError(f"invariant factor {d} < 2")
            if i > 0 and d % factors[i - 1] != 0:
                raise ValueError(f"divisibility chain broken: {factors}")
        if self.prime_support is not None:
            object.__setattr__(self, "prime_support", check_prime(self.prime_support))
            for d in factors:
                if d != self.prime_support ** valuation(d, self.prime_support):
                    raise ValueError(
                        f"factor {d} is not a power of {self.prime_support} in an l-local group"
                    )
        ops = []
        for label, mat in sorted(self.operators, key=lambda kv: kv[0]):
            if mat.rows != self.rank or mat.cols != self.rank:
                raise ValueError(f"operator {label!r} has wrong shape")
            ops.append((label, reduce_matrix(mat, factors)))
        object.__setattr__(self, "operators", tuple(ops))
        for label, mat in ops:
            _check_well_defined(mat, factors, factors, what=f"operator {label!r}")

    @classmethod
    def _of(cls, invariant_factors: tuple[int, ...], prime_support: Optional[int],
            operators: tuple[tuple[str, IntMatrix], ...] = ()) -> "FinAbGroup":
        """Trusted constructor: skips ``__post_init__``.  Only for a tuple of
        ints >= 2 that form a divisibility chain of powers of prime_support
        (when it is set), and operators sorted by label, each a well-defined
        endomorphism with its matrix reduced modulo the factors."""
        g = object.__new__(cls)
        g.__dict__.update(invariant_factors=invariant_factors, prime_support=prime_support,
                          operators=operators)
        return g

    # -- structure ---------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    def order(self) -> int:
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def is_trivial(self) -> bool:
        return not self.invariant_factors

    def operator_labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.operators)

    def operator(self, label: str) -> IntMatrix:
        for lab, mat in self.operators:
            if lab == label:
                return mat
        if self.rank == 0:
            # the trivial group carries every action, uniquely
            return IntMatrix.zeros(0, 0)
        raise KeyError(label)

    def with_operators(self, operators: Mapping[str, IntMatrix] | Sequence[tuple[str, IntMatrix]]) -> "FinAbGroup":
        items = operators.items() if isinstance(operators, Mapping) else operators
        return replace(self, operators=tuple(items))

    def relation_matrix(self) -> IntMatrix:
        """diag(d_1, ..., d_k), built once per group: a constant of a frozen value."""
        mat = self.__dict__.get("_relation_matrix")
        if mat is None:
            n = self.rank
            mat = IntMatrix._of(n, n, tuple(
                tuple(d if i == j else 0 for j in range(n)) for i, d in enumerate(self.invariant_factors)))
            self.__dict__["_relation_matrix"] = mat
        return mat

    def describe(self) -> str:
        if not self.invariant_factors:
            return "0"
        return " + ".join(f"Z/{d}" for d in self.invariant_factors)


def trivial_group(prime: Optional[int] = None) -> FinAbGroup:
    return FinAbGroup((), prime_support=prime)


def cyclic(n: int, prime: Optional[int] = None) -> FinAbGroup:
    if n == 1:
        return trivial_group(prime)
    return FinAbGroup((n,), prime_support=prime)


def reduce_matrix(mat: IntMatrix, target_factors: Sequence[int]) -> IntMatrix:
    """mat with row i reduced modulo target_factors[i]: how a hom matrix is stored."""
    return IntMatrix._of(len(target_factors), mat.cols, tuple(
        tuple([x % d for x in row]) for row, d in zip(mat.entries, target_factors)
    ))


def _selection(rows: int, cols: int, ones: Iterable[tuple[int, int]]) -> IntMatrix:
    """The 0/1 matrix with a 1 at each (row, col) of ones."""
    m = [[0] * cols for _ in range(rows)]
    for i, j in ones:
        m[i][j] = 1
    return IntMatrix._of(rows, cols, tuple(map(tuple, m)))


def _check_well_defined(mat: IntMatrix, source_factors: Sequence[int],
                        target_factors: Sequence[int], what: str = "hom"):
    # d_j * column_j must lie in the target relation lattice, componentwise.
    for j, dj in enumerate(source_factors):
        for i, di in enumerate(target_factors):
            if (dj * mat.entries[i][j]) % di != 0:
                raise ValueError(
                    f"{what} not well-defined at row {i}, col {j}: "
                    f"{di} does not divide {dj}*{mat.entries[i][j]}"
                )


def common_labels(g: FinAbGroup, h: FinAbGroup) -> tuple[str, ...]:
    if g.is_trivial():
        return h.operator_labels()
    if h.is_trivial():
        return g.operator_labels()
    return tuple(lab for lab in g.operator_labels() if lab in h.operator_labels())


@dataclass(frozen=True)
class GroupHom:
    """A homomorphism source -> target given by a matrix on generators.

    The public constructor checks the shape, well-definedness and commutation
    with every common operator, and reduces the matrix.  Composites, sums,
    differences, identities, zeros, quotient projections and direct sums of
    valid homs are valid by construction and use the trusted :meth:`_of`.
    """

    source: FinAbGroup
    target: FinAbGroup
    matrix: IntMatrix

    def __post_init__(self):
        if self.matrix.rows != self.target.rank or self.matrix.cols != self.source.rank:
            raise ValueError(
                f"hom matrix is {self.matrix.rows}x{self.matrix.cols}, expected "
                f"{self.target.rank}x{self.source.rank}"
            )
        _check_well_defined(self.matrix, self.source.invariant_factors,
                            self.target.invariant_factors)
        object.__setattr__(self, "matrix", reduce_matrix(self.matrix, self.target.invariant_factors))
        for label in common_labels(self.source, self.target):
            left = reduce_matrix(self.target.operator(label) @ self.matrix,
                                  self.target.invariant_factors)
            right = reduce_matrix(self.matrix @ self.source.operator(label),
                                   self.target.invariant_factors)
            if left != right:
                raise ValueError(f"hom does not commute with operator {label!r}")

    @classmethod
    def _of(cls, source: FinAbGroup, target: FinAbGroup, matrix: IntMatrix) -> "GroupHom":
        """Trusted constructor: skips ``__post_init__``.  Only for a matrix that
        is already reduced modulo the target factors and defines a
        well-defined hom commuting with every common operator."""
        hom = object.__new__(cls)
        hom.__dict__.update(source=source, target=target, matrix=matrix)
        return hom

    # -- basics ------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.matrix.is_zero()

    def kernel_generators(self) -> IntMatrix:
        """Generators of ker's preimage lattice in Z^rank(source), built once
        per hom: a constant of a frozen value, as ``relation_matrix`` is."""
        gens = self.__dict__.get("_kernel_generators")
        if gens is None:
            gens = preimage_lattice(self.matrix, self.target.invariant_factors)
            self.__dict__["_kernel_generators"] = gens
        return gens

    def compose(self, first: "GroupHom") -> "GroupHom":
        """self after first."""
        if first.target != self.source:
            raise CompositionMismatch("hom composition endpoints do not match")
        matrix = reduce_matrix(self.matrix @ first.matrix, self.target.invariant_factors)
        # the composite commutes with every operator both factors commute with
        return _through(first.source, first.target, self.target, matrix)

    def __sub__(self, other: "GroupHom") -> "GroupHom":
        if (other.source, other.target) != (self.source, self.target):
            raise ValueError("hom subtraction endpoints do not match")
        return GroupHom._of(self.source, self.target, reduce_matrix(
            self.matrix - other.matrix, self.target.invariant_factors))


def _through(source: FinAbGroup, middle: FinAbGroup, target: FinAbGroup,
             matrix: IntMatrix) -> GroupHom:
    """The hom source -> target with a reduced, well-defined matrix known to commute
    with the operators of all three groups; one that middle lacks is checked."""
    labels = common_labels(source, target)
    if labels and not set(labels) <= set(common_labels(source, middle)) \
            & set(common_labels(middle, target)):
        return GroupHom(source, target, matrix)
    return GroupHom._of(source, target, matrix)


def identity_hom(g: FinAbGroup) -> GroupHom:
    # every invariant factor is >= 2, so the identity matrix is already reduced
    return GroupHom._of(g, g, IntMatrix.identity(g.rank))

def zero_hom(source: FinAbGroup, target: FinAbGroup) -> GroupHom:
    return GroupHom._of(source, target, IntMatrix.zeros(target.rank, source.rank))


# -- presentations ----------------------------------------------------------

def presentation_with_maps(relations: IntMatrix, modulus: int, prime: Optional[int] = None,
                           ) -> tuple[FinAbGroup, IntMatrix, IntMatrix]:
    """Canonical form of Z^n / L, L = col-span(relations), with coordinate maps.

    modulus is a multiple e of the group's exponent, so that e*Z^n lies in L:
    the presentation is computed over Z/e.  Returns (group, proj, lift): proj
    maps ambient Z^n coordinates onto the group's generator coordinates, lift
    sends each group generator to an ambient representative, and proj @ lift
    is the identity modulo the group's factors.
    """
    factors, u, ui = modular_smith(relations, modulus)
    keep = [i for i, d in enumerate(factors) if d != 1]
    kept = tuple(factors[i] for i in keep)
    if modulus > 0 and (prime is None or modulus == prime ** valuation(modulus, prime)):
        # the factors are a divisibility chain of divisors of modulus, so the
        # kept ones are ints >= 2, and powers of the prime when it is set
        group = FinAbGroup._of(kept, prime)
    else:
        group = FinAbGroup(kept, prime_support=prime)
    return group, u.take_rows(keep), ui.take_columns(keep)


def canonicalize(relations: IntMatrix, prime: Optional[int] = None) -> FinAbGroup:
    """Invariant-factor form of Z^n / col-span(relations), unit factors dropped.

    The factors are those of the Smith form over Z (modulus 0), where a
    factor 0 is a free generator.
    """
    factors, _, _ = modular_smith(relations, 0)
    if 0 in factors:
        raise InfiniteGroup("presentation has positive free rank")
    return FinAbGroup(tuple(d for d in factors if d != 1), prime_support=prime)


def _scaled_rows(mat: IntMatrix, factors: Sequence[int]) -> tuple[IntMatrix, int]:
    # row i holds modulo d_i exactly when (e / d_i) * row i holds modulo e
    if len(factors) != mat.rows:
        raise ValueError(f"{mat.rows} rows against {len(factors)} factors")
    e = math.lcm(*factors)
    return IntMatrix._of(mat.rows, mat.cols, tuple(
        tuple([e // d * x for x in row]) for row, d in zip(mat.entries, factors))), e


def preimage_lattice(mat: IntMatrix, target_factors: Sequence[int]) -> IntMatrix:
    """Generators of {x in Z^m : mat @ x = 0 modulo the target factors}.

    The lattice contains e*Z^m for e the lcm of the factors, and the
    generators include e times the unit vectors.
    """
    return modular_kernel(*_scaled_rows(mat, target_factors))


def sublattice_basis(ambient: FinAbGroup, gens: IntMatrix) -> IntMatrix:
    """Canonical HNF basis of span(gens) + relation lattice inside Z^rank."""
    if not ambient.rank:
        return IntMatrix.zeros(0, 0)
    # every factor divides the exponent, so exponent*Z^rank is in the lattice
    lat = gens.hstack(ambient.relation_matrix())
    return hermite_normal_form(lat, ambient.exponent())


def solve_mod(mat: IntMatrix, target_factors: Sequence[int], ys: IntMatrix,
              ) -> list[tuple[int, ...] | None]:
    """For each column y of ys, some x with mat @ x = y modulo the target
    factors, or None when there is none.  One elimination serves them all."""
    scaled, e = _scaled_rows(mat, target_factors)
    return modular_solve(scaled, e, _scaled_rows(ys, target_factors)[0])


# -- subgroups and quotients -------------------------------------------------

def subgroup_from_lattice(ambient: FinAbGroup, gens: IntMatrix,
                          transport_labels: Sequence[str] = (),
                          ) -> tuple[FinAbGroup, GroupHom]:
    """The subgroup of ambient generated by the columns of gens.

    The result is presented on the Hermite-normal-form basis of its lattice,
    so it depends only on the subgroup, not on the generating set.  Operators
    named in transport_labels (which must preserve the subgroup) are
    restricted to it.
    """
    h = sublattice_basis(ambient, gens)
    if h.is_identity():
        return ambient, identity_hom(ambient)
    rel = preimage_lattice(h, ambient.invariant_factors)
    sub, _, lift = presentation_with_maps(rel, ambient.exponent(), prime=ambient.prime_support)
    # normalize generator signs: of g and -g keep the lexicographically
    # smaller reduced embedding, so equal subgroups embed identically
    incl_matrix = _reduced_columns([
        min(col, tuple(-x % d for x, d in zip(col, ambient.invariant_factors)))
        for col in reduce_matrix(h @ lift, ambient.invariant_factors).columns()],
        ambient.invariant_factors)
    # sub = Z^k / (preimage of the relations under h), read through lift, so
    # incl is a well-defined injective hom whatever the generator signs
    incl = GroupHom._of(sub, ambient, incl_matrix)
    if transport_labels:
        ops = []
        for label in transport_labels:
            moved = GroupHom._of(sub, ambient, reduce_matrix(ambient.operator(label) @ incl_matrix,
                                                             ambient.invariant_factors))
            restricted = corestrict(incl, moved)
            if restricted is None:
                raise ValueError(f"operator {label!r} does not preserve the subgroup")
            ops.append((label, restricted.matrix))
        sub = sub.with_operators(ops)
        # each restriction solves incl.s_sub = s.incl: incl commutes with them
        incl = GroupHom._of(sub, ambient, incl_matrix)
    return sub, incl


def hom_kernel(f: GroupHom) -> tuple[FinAbGroup, GroupHom]:
    """(K, incl) with K the kernel of f and incl its inclusion into the source."""
    labels = common_labels(f.source, f.target)
    return subgroup_from_lattice(f.source, f.kernel_generators(), transport_labels=labels)


def hom_image(f: GroupHom) -> tuple[FinAbGroup, GroupHom]:
    """(I, incl) with I the image of f and incl its inclusion into the target."""
    labels = common_labels(f.source, f.target)
    return subgroup_from_lattice(f.target, f.matrix, transport_labels=labels)


def hom_cokernel(f: GroupHom) -> tuple[FinAbGroup, GroupHom]:
    """(C, proj) with C the cokernel of f and proj the projection from the target."""
    rel = f.matrix.hstack(f.target.relation_matrix())
    coker, proj, lift = presentation_with_maps(rel, f.target.exponent(),
                                               prime=f.target.prime_support)
    labels = common_labels(f.source, f.target)
    if labels:
        coker = coker.with_operators([(label, proj @ f.target.operator(label) @ lift)
                                      for label in labels])
    return coker, GroupHom(f.target, coker, proj)


def quotient_with_maps(g: FinAbGroup, n: int) -> tuple[FinAbGroup, GroupHom, IntMatrix]:
    """(Q, proj, lift) for Q = g / n*g, computed on g's own generators.

    Because g is already in invariant-factor form, Q is presented on the
    surviving generators directly: factor d_i becomes gcd(d_i, n).  This
    keeps canonical towers literally canonical level by level.
    """
    if n < 1:
        raise ValueError("quotient modulus must be >= 1")
    new = [math.gcd(d, n) for d in g.invariant_factors]
    keep = [i for i, d in enumerate(new) if d != 1]
    factors = tuple(new[i] for i in keep)
    proj_matrix = _selection(len(keep), g.rank, enumerate(keep))
    lift = proj_matrix.transpose()
    # d_i | d_{i+1} gives gcd(d_i, n) | gcd(d_{i+1}, n), and each gcd divides
    # d_i, so the kept factors form a chain of powers of g's prime, each >= 2,
    # and proj_matrix is reduced.  An operator s preserves n*g, the kernel of
    # the projection p, so it induces the endomorphism p.s.lift of the
    # quotient, with p.s = (p.s.lift).p: p commutes with it.  g's operators
    # are sorted by label, and each induced matrix is reduced here
    q = FinAbGroup._of(factors, g.prime_support, tuple(
        (label, reduce_matrix(proj_matrix @ mat @ lift, factors)) for label, mat in g.operators))
    return q, GroupHom._of(g, q, proj_matrix), lift


def quotient_by_integer(g: FinAbGroup, n: int) -> FinAbGroup:
    """g / n*g in invariant-factor form."""
    q, _, _ = quotient_with_maps(g, n)
    return q


def hom_on_quotients(f: GroupHom, n_source: int, n_target: int) -> GroupHom:
    """The map source/n_source -> target/n_target induced by f.  f must carry
    n_source-multiples into n_target-multiples, as it does when n_target | n_source."""
    _, proj_t, _ = quotient_with_maps(f.target, n_target)
    induced = induced_on_quotient(proj_t.compose(f), n_source)
    if induced is None:
        raise ValueError(f"hom does not carry {n_source}-multiples into {n_target}-multiples")
    return induced


# -- universal properties: maps into a subgroup, out of a quotient, and lifts --
# each owner builds its hom by construction under the proof in its body

def _reduced_columns(cols: Sequence[Sequence[int]], factors: Sequence[int]) -> IntMatrix:
    """The matrix with the given columns, row i reduced modulo factors[i]."""
    return IntMatrix._of(len(factors), len(cols), tuple(
        tuple([c[i] % d for c in cols]) for i, d in enumerate(factors)))


def corestrict(incl: GroupHom, f: GroupHom) -> Optional[GroupHom]:
    """The unique g with incl.g = f, or None when im f does not lie in im incl.

    incl must be injective; that is not checked.
    """
    if f.target != incl.target:
        raise CompositionMismatch("corestriction: f and incl have different targets")
    if incl.source == incl.target and incl.matrix.is_identity():
        return f
    cols = solve_mod(incl.matrix, incl.target.invariant_factors, f.matrix)
    if None in cols:
        return None
    # For a generator a of order s, incl(s.g(a)) = s.f(a) = 0 and incl is
    # injective, so s.g(a) = 0: g is well defined.  For an operator t of
    # g's ends that incl's target shares, incl.g.t = f.t = t.f = t.incl.g =
    # incl.t.g, so g.t = t.g by injectivity.
    return _through(f.source, incl.target, incl.source,
                    _reduced_columns(cols, incl.source.invariant_factors))


def induced_on_quotient(f: GroupHom, n: int) -> Optional[GroupHom]:
    """The map source/n*source -> target that f induces, or None when f does
    not kill n*source."""
    if not kills_multiples(f, n):
        return None
    q, _, lift = quotient_with_maps(f.source, n)
    # f kills the kernel n*source of the projection p onto q, so it induces
    # the hom i with i.p = f; its matrix is f's on the generators that lift
    # selects, already reduced.  For an operator s of both ends,
    # i.s.p = i.p.s = f.s = s.f = s.i.p, and p is onto, so i commutes with s.
    return GroupHom._of(q, f.target, f.matrix @ lift)


def section(p: GroupHom) -> Optional[IntMatrix]:
    """Lifts of the target's generators along p: column j, reduced modulo the
    source factors, is sent by p to generator j.  None when p is not onto."""
    cols = solve_mod(p.matrix, p.target.invariant_factors, IntMatrix.identity(p.target.rank))
    if None in cols:
        return None
    return _reduced_columns(cols, p.source.invariant_factors)


# -- lattice questions: the layers above ask these, never the matrix entries --

def image_lattice(f: GroupHom) -> IntMatrix:
    return sublattice_basis(f.target, f.matrix)

def kernel_lattice(f: GroupHom) -> IntMatrix:
    return sublattice_basis(f.source, f.kernel_generators())

def vanishes_on_kernel(g: GroupHom, f: GroupHom) -> bool:
    """Whether g vanishes on ker f, for g and f with a common source: g sends
    every generator of ker f's preimage lattice into the target relations.
    No subgroup is presented and no Hermite form is built."""
    if g.source != f.source:
        raise CompositionMismatch("vanishes_on_kernel: g and f have different sources")
    if g.is_zero() or f.is_zero():
        # the kernel of a zero map is the whole source
        return g.is_zero()
    image = g.matrix @ f.kernel_generators()
    return all(x % d == 0 for row, d in zip(image.entries, g.target.invariant_factors) for x in row)


def lies_in_image(g: GroupHom, f: GroupHom) -> bool:
    """Whether im g lies in im f, for g and f with a common target: every
    column of g's matrix solves f x = y modulo the target factors.  No
    subgroup is presented and no Hermite form is built."""
    if g.target != f.target:
        raise CompositionMismatch("lies_in_image: g and f have different targets")
    if g.is_zero():
        return True
    return None not in solve_mod(f.matrix, f.target.invariant_factors, g.matrix)


def is_surjective(f: GroupHom) -> bool:
    return image_lattice(f).is_identity()

def is_injective(f: GroupHom) -> bool:
    if f.source.rank == 0:
        return True
    # diag(d_1, ..., d_k) is its own Hermite normal form
    return kernel_lattice(f) == f.source.relation_matrix()


def hom_is_isomorphism(f: GroupHom) -> bool:
    return (f.source.invariant_factors == f.target.invariant_factors
            and is_surjective(f))


def is_exact_at(f: GroupHom, g: GroupHom) -> bool:
    """Whether image(f) = kernel(g) as subgroups of the middle group."""
    if f.target != g.source:
        raise CompositionMismatch("exactness check: target(f) != source(g)")
    return image_lattice(f) == kernel_lattice(g)


def element_in_multiples(g: FinAbGroup, coords: Sequence[int], n: int) -> bool:
    """Whether the element lies in n*g: n*(Z/d) = gcd(n, d)*(Z/d) summand by summand."""
    return all(x % math.gcd(n, d) == 0 for x, d in zip(coords, g.invariant_factors))


def kills_multiples(f: GroupHom, n: int) -> bool:
    """Whether f vanishes on n*f.source: d_i | n*m_ij for every entry."""
    return all(n * x % d == 0 for row, d in zip(f.matrix.entries, f.target.invariant_factors)
               for x in row)


def is_matrix_of(f: GroupHom, mat: IntMatrix) -> bool:
    """Whether mat, read modulo the target factors, is f's matrix.  f is a valid
    hom, so when it is, mat defines that same hom."""
    return (mat.rows, mat.cols) == (f.matrix.rows, f.matrix.cols) and all(
        x % d == y for row, f_row, d in zip(mat.entries, f.matrix.entries, f.target.invariant_factors)
        for x, y in zip(row, f_row))


# Direct sums are pure functions of frozen values, and the levels of a sum
# tower ask for the same few over and over; bounded memos share them (see
# intmat._snf_cached).
DIRECT_SUM_MEMO_SIZE = 16


def _chain_merge(g: FinAbGroup, h: FinAbGroup,
                 ) -> Optional[tuple[tuple[int, ...], list[int], list[int]]]:
    """(merged, pos_g, pos_h): the factors of g and h merged by a stable sort,
    with the position in merged of each generator of g and of h; None when
    the merged factors are not a divisibility chain."""
    tagged = [(d, 0, i) for i, d in enumerate(g.invariant_factors)] + \
             [(d, 1, i) for i, d in enumerate(h.invariant_factors)]
    tagged.sort()
    merged = tuple(d for d, _, _ in tagged)
    if any(merged[i + 1] % merged[i] for i in range(len(merged) - 1)):
        return None
    pos = ([0] * g.rank, [0] * h.rank)
    for p, (_, side, i) in enumerate(tagged):
        pos[side][i] = p
    return merged, pos[0], pos[1]


@lru_cache(maxsize=DIRECT_SUM_MEMO_SIZE)
def direct_sum_with_maps(g: FinAbGroup, h: FinAbGroup,
                         ) -> tuple[FinAbGroup, GroupHom, GroupHom, GroupHom, GroupHom]:
    """(S, incl_g, incl_h, proj_g, proj_h) for S = g + h.

    When the factors merge as a chain (always for l-local groups) S has the
    merged factors and all four maps are 0/1 selection matrices; otherwise
    S comes from a presentation.
    """
    if g.prime_support is not None and h.prime_support is not None \
            and g.prime_support != h.prime_support:
        raise PrimeMismatch(f"direct sum of {g.prime_support}- and {h.prime_support}-local groups")
    prime = g.prime_support if g.prime_support is not None else h.prime_support
    chain = _chain_merge(g, h)
    if chain is not None:
        merged, pos_g, pos_h = chain
        # the merged factors are a chain of the summands' own factors, which
        # are powers of the prime when both summands carry it
        s = FinAbGroup._of(merged, prime) if g.prime_support == h.prime_support \
            else FinAbGroup(merged, prime_support=prime)
        mg = _selection(s.rank, g.rank, [(p, i) for i, p in enumerate(pos_g)])
        mh = _selection(s.rank, h.rank, [(p, i) for i, p in enumerate(pos_h)])
        pg, ph = mg.transpose(), mh.transpose()
    else:
        factors = g.invariant_factors + h.invariant_factors
        s, proj, lift = presentation_with_maps(IntMatrix.diagonal(factors), math.lcm(*factors),
                                               prime=prime)
        mg = reduce_matrix(proj.take_columns(range(g.rank)), s.invariant_factors)
        mh = reduce_matrix(proj.take_columns(range(g.rank, g.rank + h.rank)), s.invariant_factors)
        pg = reduce_matrix(lift.take_rows(range(g.rank)), g.invariant_factors)
        ph = reduce_matrix(lift.take_rows(range(g.rank, g.rank + h.rank)), h.invariant_factors)
    labels = common_labels(g, h)
    if labels:
        s = s.with_operators([(label, mg @ g.operator(label) @ pg + mh @ h.operator(label) @ ph)
                              for label in labels])
    # The selections, or the presentation's isomorphism g + h -> S and its
    # inverse, are homs with pg.mg = id_g and ph.mg = 0 (likewise for h).  An
    # operator s of S is mg.s_g.pg + mh.s_h.ph, so s.mg = mg.s_g and
    # pg.s = s_g.pg: all four commute with it.
    return (s,
            GroupHom._of(g, s, mg), GroupHom._of(h, s, mh),
            GroupHom._of(s, g, pg), GroupHom._of(s, h, ph))


@lru_cache(maxsize=DIRECT_SUM_MEMO_SIZE)
def direct_sum_hom(f: GroupHom, g: GroupHom) -> GroupHom:
    """The map f + g : f.source + g.source -> f.target + g.target."""
    s, _, _, pf, pg = direct_sum_with_maps(f.source, g.source)
    t, incl_f, incl_g, _, _ = direct_sum_with_maps(f.target, g.target)
    cols, rows = _chain_merge(f.source, g.source), _chain_merge(f.target, g.target)
    if cols is None or rows is None:
        mat = reduce_matrix(incl_f.matrix @ f.matrix @ pf.matrix
                            + incl_g.matrix @ g.matrix @ pg.matrix, t.invariant_factors)
    else:
        # incl.f.proj moves f's entry (i, j) to (row position of i, column
        # position of j) and leaves zeros elsewhere; that row's factor in t is
        # f's target factor i, modulo which the entry is already reduced
        m = [[0] * s.rank for _ in range(t.rank)]
        for h, row_pos, col_pos in ((f, rows[1], cols[1]), (g, rows[2], cols[2])):
            for i, row in zip(row_pos, h.matrix.entries):
                for j, x in zip(col_pos, row):
                    m[i][j] = x
        mat = IntMatrix._of(t.rank, s.rank, tuple(map(tuple, m)))
    # a sum of composites of valid homs; an operator of both s and t is one of
    # every nontrivial summand group, so f and g commute with it
    return GroupHom._of(s, t, mat)
