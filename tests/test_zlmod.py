import pytest

from arl.errors import PrimeMismatch
from arl.intmat import IntMatrix
from arl.zlmod import ZlModule, check_module_hom, module_cokernel, zl_canonicalize


class TestTextForm:
    def test_describe(self):
        assert ZlModule(2, ()).describe() == "0"
        assert ZlModule(2, (), 1).describe() == "Zl^1"
        assert ZlModule(2, (1, 3), 2).describe() == "Zl^2 + Z/l^3 + Z/l"

    def test_parse_roundtrip(self):
        for text in ["0", "Zl^1", "Zl^2 + Z/l^3 + Z/l", "Z/l^2 + Zl^1"]:
            m = ZlModule.parse(text, 3)
            assert ZlModule.parse(m.describe(), 3) == m

    def test_parse_accepts_bare_forms(self):
        assert ZlModule.parse("Zl", 2) == ZlModule(2, (), 1)
        assert ZlModule.parse("Z/l", 2) == ZlModule(2, (1,))

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            ZlModule.parse("Q/Z", 2)


class TestQuotients:
    def test_quotient_factors(self):
        m = ZlModule(2, (2,), 1)
        assert m.quotient_group(1).invariant_factors == (2, 2)
        assert m.quotient_group(3).invariant_factors == (4, 8)

    def test_projection_is_identity_matrix(self):
        m = ZlModule(3, (1, 2), 1)
        p = m.quotient_projection(4, 2)
        assert p.matrix.is_identity()
        assert p.source.invariant_factors == (3, 9, 81)
        assert p.target.invariant_factors == (3, 9, 9)


class TestValidation:
    def test_sorted_exponents_required(self):
        with pytest.raises(ValueError):
            ZlModule(2, (3, 1))

    @pytest.mark.parametrize("exps, rank", [((1.7,), 0), (("1",), 0), ((1,), 1.5)])
    def test_non_integral_numbers_rejected(self, exps, rank):
        with pytest.raises(ValueError, match="non-integer"):
            ZlModule(2, exps, rank)

    def test_operator_torsion_to_free_rejected(self):
        with pytest.raises(ValueError):
            ZlModule(2, (1,), 1, operators=(("f", IntMatrix.from_rows([[1, 0], [1, 1]])),))

    def test_operator_divisibility(self):
        # mapping a low-order generator onto a high-order one needs l-divisibility
        with pytest.raises(ValueError):
            ZlModule(2, (1, 3), operators=(("f", IntMatrix.from_rows([[1, 0], [1, 1]])),))
        ZlModule(2, (1, 3), operators=(("f", IntMatrix.from_rows([[1, 0], [4, 1]])),))


class TestDirectSum:
    def test_merge_and_indexing(self):
        a = ZlModule(2, (3,), 1)
        b = ZlModule(2, (1,), 0)
        s, idx_a, idx_b = a.direct_sum(b)
        assert s == ZlModule(2, (1, 3), 1)
        assert idx_a == [1, 2]
        assert idx_b == [0]

    def test_prime_mismatch(self):
        with pytest.raises(PrimeMismatch):
            ZlModule(2, ()).direct_sum(ZlModule(3, ()))


class TestHomAndCokernel:
    def test_check_module_hom(self):
        src = ZlModule(2, (1,))
        tgt = ZlModule(2, (3,))
        with pytest.raises(ValueError):
            check_module_hom(IntMatrix.from_rows([[1]]), src, tgt)
        check_module_hom(IntMatrix.from_rows([[4]]), src, tgt)

    def test_cokernel_of_multiplication(self):
        zl = ZlModule(2, (), 1)
        coker, proj, lift = module_cokernel(IntMatrix.from_rows([[2]]), zl, zl)
        assert coker == ZlModule(2, (1,))
        assert (proj @ lift).is_identity()

    def test_cokernel_of_projection_is_trivial(self):
        src = ZlModule(2, (), 2)
        tgt = ZlModule(2, (2,))
        coker, _, _ = module_cokernel(IntMatrix.from_rows([[1, 0]]), src, tgt)
        assert coker.is_trivial()

    def test_zl_canonicalize_orders_torsion_then_free(self):
        rel = IntMatrix.from_rows([[4, 0], [0, 0]])
        m, proj, lift = zl_canonicalize(rel, 2)
        assert m == ZlModule(2, (2,), 1)
        assert (proj @ lift).is_identity()

    def test_zl_canonicalize_absorbs_units(self):
        # 6 = 2*3: over Z_2 the 3 is a unit, leaving Z/2
        m, _, _ = zl_canonicalize(IntMatrix.from_rows([[6]]), 2)
        assert m == ZlModule(2, (1,))
        # 3 alone is invertible over Z_2: trivial cokernel
        m2, _, _ = zl_canonicalize(IntMatrix.from_rows([[3]]), 2)
        assert m2.is_trivial()
