"""Symbolic hypernatural index terms.

A term is a finite offset plus non-negative multiples of declared infinite
symbols (h, d1, d2, ...).  A term is infinite when any symbol coefficient is
positive; comparisons are defined only when the coefficient vectors are
componentwise comparable, and any infinite excess dominates every finite
offset.  Textual syntax: ``h``, ``h-1``, ``h+d1+d2``, ``42``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import NegativeResult


SYMBOL = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_TOKEN = re.compile(rf"\s*(?:(?P<num>\d+)|(?P<sym>{SYMBOL.pattern})|(?P<op>[+-]))")


@dataclass(frozen=True)
class HyperNat:
    offset: int = 0
    infinite_part: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        clean = []
        for name, coeff in sorted(self.infinite_part):
            if coeff < 0:
                raise NegativeResult(f"negative coefficient for symbol {name!r}")
            if coeff:
                clean.append((name, coeff))
        object.__setattr__(self, "infinite_part", tuple(clean))
        if not clean and self.offset < 0:
            raise NegativeResult(f"finite hypernatural {self.offset} is negative")

    @staticmethod
    def finite(n: int) -> "HyperNat":
        return HyperNat(n, ())

    @staticmethod
    def symbol(name: str) -> "HyperNat":
        return HyperNat(0, ((name, 1),))

    @property
    def is_infinite(self) -> bool:
        return bool(self.infinite_part)

    def coefficient(self, name: str) -> int:
        for sym, coeff in self.infinite_part:
            if sym == name:
                return coeff
        return 0

    def symbols(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.infinite_part)

    # -- arithmetic -----------------------------------------------------------

    @staticmethod
    def _coerce(value) -> "HyperNat":
        if isinstance(value, HyperNat):
            return value
        if isinstance(value, int):
            return HyperNat.finite(value)
        return NotImplemented

    def __add__(self, other) -> "HyperNat":
        other = HyperNat._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        names = set(self.symbols()) | set(other.symbols())
        part = tuple((n, self.coefficient(n) + other.coefficient(n)) for n in sorted(names))
        return HyperNat(self.offset + other.offset, part)

    __radd__ = __add__

    def __sub__(self, other) -> "HyperNat":
        other = HyperNat._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        names = set(self.symbols()) | set(other.symbols())
        part = tuple((n, self.coefficient(n) - other.coefficient(n)) for n in sorted(names))
        return HyperNat(self.offset - other.offset, part)

    def compare(self, other) -> str:
        """'LT' | 'EQ' | 'GT' | 'incomparable'."""
        other = HyperNat._coerce(other)
        names = set(self.symbols()) | set(other.symbols())
        diffs = [self.coefficient(n) - other.coefficient(n) for n in sorted(names)]
        if all(d == 0 for d in diffs):
            d = self.offset - other.offset
            return "EQ" if d == 0 else ("GT" if d > 0 else "LT")
        if all(d >= 0 for d in diffs):
            return "GT"
        if all(d <= 0 for d in diffs):
            return "LT"
        return "incomparable"

    # -- text -----------------------------------------------------------------

    def describe(self) -> str:
        if not self.infinite_part:
            return str(self.offset)
        parts = []
        for name, coeff in self.infinite_part:
            parts.extend([name] * coeff)
        text = "+".join(parts)
        if self.offset > 0:
            text += f"+{self.offset}"
        elif self.offset < 0:
            text += str(self.offset)
        return text

    @staticmethod
    def parse(text: str) -> "HyperNat":
        """Parse  term := (symbol | integer) (('+'|'-') (symbol | integer))* ."""
        text, pos = text.strip(), 0
        tokens = []
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None:
                raise ValueError(f"cannot tokenize hypernatural term at {text[pos:]!r}")
            tokens.append(m)
            pos = m.end()
        if not tokens:
            raise ValueError("empty hypernatural term")
        result = HyperNat.finite(0)
        sign = 1
        expect_atom = True
        for m in tokens:
            if m.group("op"):
                if expect_atom:
                    raise ValueError("misplaced operator in hypernatural term")
                sign = 1 if m.group("op") == "+" else -1
                expect_atom = True
                continue
            if not expect_atom:
                raise ValueError("missing operator in hypernatural term")
            if m.group("num"):
                atom = HyperNat.finite(int(m.group("num")))
            else:
                atom = HyperNat.symbol(m.group("sym"))
            result = result + atom if sign == 1 else result - atom
            sign = 1
            expect_atom = False
        if expect_atom:
            raise ValueError("dangling operator in hypernatural term")
        return result
