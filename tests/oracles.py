"""Independent brute-force oracles used to pin expected values.

Nothing here touches the library's normal-form machinery: invariant factors
are recovered from element counting, matrix invariants from gcds of minors,
exactness from literal set comparison.  Keep it that way so the oracles stay
meaningful.
"""

from __future__ import annotations

import itertools
from math import gcd, prod


def minors_gcd(matrix: list[list[int]], k: int) -> int:
    """gcd of all k x k minors (0 if all vanish)."""
    rows, cols = len(matrix), len(matrix[0]) if matrix else 0
    g = 0
    for rsel in itertools.combinations(range(rows), k):
        for csel in itertools.combinations(range(cols), k):
            sub = [[matrix[i][j] for j in csel] for i in rsel]
            g = gcd(g, _det(sub))
    return abs(g)


def _det(m: list[list[int]]) -> int:
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        sign = -1 if j % 2 else 1
        total += sign * m[0][j] * _det(minor)
    return total


def elementary_divisors_by_minors(matrix: list[list[int]]) -> list[int]:
    """Nonzero invariant factors of an integer matrix via determinantal
    divisors: d_k = gcd(k-minors) / gcd((k-1)-minors)."""
    rows = len(matrix)
    cols = len(matrix[0]) if matrix else 0
    divisors = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = minors_gcd(matrix, k)
        if g == 0:
            break
        divisors.append(g // prev)
        prev = g
    return divisors


def group_elements(factors: tuple[int, ...]) -> list[tuple[int, ...]]:
    return [tuple(t) for t in itertools.product(*[range(d) for d in factors])]


def hom_apply(matrix: list[list[int]], target_factors: tuple[int, ...],
              x: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(
        sum(matrix[i][j] * x[j] for j in range(len(x))) % target_factors[i]
        for i in range(len(target_factors))
    )


def scalar_mult(factors: tuple[int, ...], c: int, x: tuple[int, ...]) -> tuple[int, ...]:
    return tuple((c * v) % d for v, d in zip(x, factors))


def _primes_of(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _ilog(n: int, p: int) -> int:
    k = 0
    while n > 1:
        assert n % p == 0, "count is not a p-power"
        n //= p
        k += 1
    return k


def _invariants_from_torsion_logs(per_prime: dict[int, list[int]]) -> list[int]:
    # per_prime[p] = exponent multiset sorted descending; CRT-merge by position
    width = max((len(v) for v in per_prime.values()), default=0)
    invariants = []
    for pos in range(width):
        val = 1
        for p, exps in per_prime.items():
            if pos < len(exps):
                val *= p ** exps[pos]
        invariants.append(val)
    return sorted(v for v in invariants if v > 1)


def _exponents_from_counts(counts_log: list[int]) -> list[int]:
    # counts_log[k] = log_p #{x : p^k x = 0} = sum_i min(a_i, k), so the
    # difference counts_log[k] - counts_log[k-1] is #{i : a_i >= k}
    geq = [counts_log[k] - counts_log[k - 1] for k in range(1, len(counts_log))]
    exps = []
    for k in range(1, len(geq) + 1):
        exact = geq[k - 1] - (geq[k] if k < len(geq) else 0)
        exps.extend([k] * exact)
    return sorted(exps, reverse=True)


def invariants_from_subgroup(factors: tuple[int, ...],
                             elements: set[tuple[int, ...]]) -> list[int]:
    """Invariant factors of a subgroup given as an explicit element set,
    recovered from counts of elements killed by prime powers."""
    if len(elements) == 1:
        return []
    per_prime: dict[int, list[int]] = {}
    for p in _primes_of(len(elements)):
        logs = [0]
        k = 1
        while True:
            killed = sum(
                1 for x in elements
                if all((p ** k * v) % d == 0 for v, d in zip(x, factors))
            )
            logs.append(_ilog(killed, p))
            if logs[k] == logs[k - 1]:
                break
            k += 1
        per_prime[p] = _exponents_from_counts(logs)
    return _invariants_from_torsion_logs(per_prime)


def quotient_invariants(factors: tuple[int, ...],
                        image: set[tuple[int, ...]]) -> list[int]:
    """Invariant factors of (group / image subgroup) by coset counting."""
    total = prod(factors) if factors else 1
    order = total // len(image)
    if order == 1:
        return []
    elements = group_elements(factors)
    per_prime: dict[int, list[int]] = {}
    for p in _primes_of(order):
        logs = [0]
        k = 1
        while True:
            killed = sum(
                1 for x in elements
                if scalar_mult(factors, p ** k, x) in image
            ) // len(image)
            logs.append(_ilog(killed, p))
            if logs[k] == logs[k - 1]:
                break
            k += 1
        per_prime[p] = _exponents_from_counts(logs)
    return _invariants_from_torsion_logs(per_prime)


def span_mod(columns, k: int, e: int) -> set[tuple[int, ...]]:
    """The subgroup of (Z/e)^k that the columns generate, by closure under
    adding each generator (in a finite group that reaches the negatives)."""
    gens = [tuple(x % e for x in col) for col in columns]
    seen = {(0,) * k}
    frontier = list(seen)
    while frontier:
        v = frontier.pop()
        for g in gens:
            w = tuple((a + b) % e for a, b in zip(v, g))
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen
