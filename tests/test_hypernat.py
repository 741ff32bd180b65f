import pytest

from arl.errors import NegativeResult
from arl.hypernat import HyperNat


H = HyperNat.symbol("h")
D1 = HyperNat.symbol("d1")
D2 = HyperNat.symbol("d2")


class TestArithmetic:
    def test_add_symbols(self):
        t = H + D1 + D2
        assert t.coefficient("h") == 1
        assert t.coefficient("d1") == 1
        assert t.describe() == "d1+d2+h"

    def test_sub_cancels(self):
        assert (H + D1) - H == D1

    def test_sub_offset(self):
        t = H - 1
        assert t.offset == -1 and t.is_infinite

    def test_negative_finite_rejected(self):
        with pytest.raises(NegativeResult):
            HyperNat.finite(1) - HyperNat.finite(2)

    def test_negative_coefficient_rejected(self):
        with pytest.raises(NegativeResult):
            HyperNat.finite(1) - H

    def test_int_coercion(self):
        assert (H + 3).offset == 3
        assert (3 + H) == (H + 3)


class TestCompare:
    def test_infinite_beats_finite(self):
        assert H.compare(HyperNat.finite(10**6)) == "GT"
        assert (H - 10**9).compare(HyperNat.finite(5)) == "GT"

    def test_distinct_symbols_incomparable(self):
        assert H.compare(D1) == "incomparable"
        assert (H + D1).compare(D1 + D2) == "incomparable"

    def test_same_part_compares_offsets(self):
        assert H.compare(H - 1) == "GT"
        assert (H - 1).compare(H - 1) == "EQ"
        assert H.compare(H + 1) == "LT"

    def test_dominated_parts(self):
        assert (H + D1).compare(H) == "GT"


class TestParse:
    def test_examples(self):
        assert HyperNat.parse("h") == H
        assert HyperNat.parse("h-1") == H - 1
        assert HyperNat.parse("h+d1+d2") == H + D1 + D2
        assert HyperNat.parse("42") == HyperNat.finite(42)

    def test_roundtrip(self):
        for t in [H, H - 1, H + D1 + D2, HyperNat.finite(7), H + H, H + 2]:
            assert HyperNat.parse(t.describe()) == t

    def test_rejects_malformed(self):
        for bad in ["", "+", "h+", "-h", "h 1", "h*2"]:
            with pytest.raises(ValueError):
                HyperNat.parse(bad)

    def test_repeated_symbols_accumulate(self):
        assert HyperNat.parse("h+h").coefficient("h") == 2


def test_finite_must_be_nonnegative():
    with pytest.raises(NegativeResult):
        HyperNat.finite(-1)
