"""Output checks computed apart from `arl`: no function of the program is used.

Groups and modules are compared on invariant factors (sorted), never on the
order in which the program prints them.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter

from towergen import quotient_factors


def parse_group(text: str) -> list[int]:
    """Invariant factors of a printed finite group: ``0`` or ``Z/a + Z/b``."""
    text = text.strip()
    if text == "0":
        return []
    factors = []
    for term in text.split("+"):
        m = re.fullmatch(r"Z/(\d+)", term.strip())
        if not m:
            raise ValueError(f"not a group term: {term!r}")
        factors.append(int(m.group(1)))
    return sorted(factors)


def parse_module(text: str) -> tuple[tuple[int, ...], int]:
    """(sorted torsion exponents, free rank) of a printed ``Zl^r + Z/l^a`` module."""
    text = text.strip()
    if text == "0":
        return (), 0
    exps, rank = [], 0
    for term in text.split("+"):
        term = term.strip()
        m = re.fullmatch(r"Zl(?:\^(\d+))?", term)
        if m:
            rank += int(m.group(1) or 1)
            continue
        m = re.fullmatch(r"Z/l(?:\^(\d+))?", term)
        if not m:
            raise ValueError(f"not a module term: {term!r}")
        exps.append(int(m.group(1) or 1))
    return tuple(sorted(exps)), rank


# -- verify-torsion -----------------------------------------------------------------

def torsion_grid_pairs() -> Counter:
    """The exhaustive grid: 2 primes x 30 modules squared, as parsed keys.

    A module is Zl^rho + sum Z/l^a with rho in 0..2 and at most two torsion
    exponents in 1..3: 1 + 3 + 6 exponent multisets times 3 ranks = 30.
    """
    exps = [()] + [tuple(sorted(c)) for k in (1, 2)
                   for c in itertools.combinations_with_replacement((1, 2, 3), k)]
    modules = [(e, rho) for e in exps for rho in range(3)]
    return Counter((l, a, b) for l in (2, 3) for a in modules for b in modules)


def check_torsion_case(cert: dict) -> str | None:
    """The torsion criterion: l-adic exactly when mod_next has no torsion summand."""
    torsion, _ = parse_module(cert["mod_next"])
    torsion_free = not torsion
    if cert["torsion_free"] != torsion_free:
        return f"torsion_free={cert['torsion_free']} for {cert['mod_next']}"
    if (cert["l_adic"] == "yes") != torsion_free:
        return f"l_adic={cert['l_adic']} for mod_next={cert['mod_next']}"
    return None


def torsion_key(cert: dict):
    return (cert["l"], parse_module(cert["mod_i"]), parse_module(cert["mod_next"]))


# -- cli-towerfile ------------------------------------------------------------------

def _lines(out: str, prefix: str) -> list[tuple[str, str]]:
    """(label, value) for every ``<prefix> <label>: <value>`` line."""
    got = []
    for line in out.splitlines():
        if line.startswith(prefix):
            label, _, value = line[len(prefix):].partition(": ")
            got.append((label, value))
    return got


def check_command(command: str, out: str, expect: dict) -> str | None:
    """None when the output of one CLI command agrees with the known module M."""
    l, torsion, rank = expect["l"], tuple(expect["torsion"]), expect["rank"]

    def level_mismatch(prefix: str, to_power) -> str | None:
        rows = _lines(out, prefix)
        if not rows:
            return f"{command}: no '{prefix}' lines"
        for label, value in rows:
            k = to_power(label)
            want = quotient_factors(l, torsion, rank, k)
            if parse_group(value) != want:
                return f"{command}: {prefix}{label} is {value}, expected factors {want}"
        return None

    if command == "limit":
        rows = _lines(out, "limit")
        if not rows:
            return "limit: no 'limit:' line"
        got = parse_module(rows[0][1])
        return None if got == (torsion, rank) else f"limit: {rows[0][1]} != M"
    if command in ("normalize", "psi"):
        bad = level_mismatch("level ", lambda label: int(label) + 1)
        if bad or command == "psi":
            return bad
        return None if "iso-check: yes" in out.splitlines() else "normalize: iso-check is not yes"
    if command == "upsilon":
        return level_mismatch("quotient mod l^", int)
    return f"unknown command {command!r}"
