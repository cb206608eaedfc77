"""Tests (incl. property-based field axioms) for scalar GF arithmetic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DivisionByZeroError, FieldError
from repro.gf.field import GF4, GF8, GF16, GaloisField, gf

elements8 = st.integers(min_value=0, max_value=255)
nonzero8 = st.integers(min_value=1, max_value=255)


class TestBasics:
    def test_singletons_are_cached(self):
        assert gf(8) is GF8
        assert gf(4) is GF4
        assert gf(16) is GF16

    def test_the_package_gf16_is_the_singleton(self):
        import repro.gf
        from repro.gf import GF16 as package_gf16

        assert package_gf16 is gf(16) is repro.gf.GF16
        with pytest.raises(AttributeError):
            repro.gf.GF32

    def test_equality_and_hash(self):
        assert GaloisField(8) == GF8
        assert hash(GaloisField(8)) == hash(GF8)
        assert GF8 != GF4

    def test_repr(self):
        assert "w=8" in repr(GF8)

    def test_order(self):
        assert GF4.order == 16
        assert GF8.order == 256
        assert GF16.order == 65536

    def test_check_rejects_out_of_range(self):
        with pytest.raises(FieldError):
            GF8.check(256)
        with pytest.raises(FieldError):
            GF8.check(-1)

    def test_add_is_xor(self):
        assert GF8.add(0b1010, 0b0110) == 0b1100

    def test_sub_is_add(self):
        assert GF8.sub(77, 33) == GF8.add(77, 33)

    def test_mul_by_zero_and_one(self):
        assert GF8.mul(0, 123) == 0
        assert GF8.mul(123, 0) == 0
        assert GF8.mul(1, 123) == 123

    def test_known_product_gf8(self):
        # 2 * 128 = 0x100 -> reduced by 0x11d -> 0x1d
        assert GF8.mul(2, 128) == 0x1D

    def test_div_inverse_of_mul(self):
        prod = GF8.mul(57, 99)
        assert GF8.div(prod, 99) == 57

    def test_div_by_zero(self):
        with pytest.raises(DivisionByZeroError):
            GF8.div(5, 0)

    def test_inv_zero(self):
        with pytest.raises(DivisionByZeroError):
            GF8.inv(0)

    def test_pow(self):
        assert GF8.pow(2, 0) == 1
        assert GF8.pow(2, 1) == 2
        assert GF8.pow(2, 8) == GF8.mul(GF8.pow(2, 4), GF8.pow(2, 4))

    def test_pow_negative(self):
        assert GF8.pow(7, -1) == GF8.inv(7)

    def test_pow_zero_base(self):
        assert GF8.pow(0, 0) == 1
        assert GF8.pow(0, 3) == 0
        with pytest.raises(DivisionByZeroError):
            GF8.pow(0, -2)

    def test_generator_pow_cycles(self):
        assert GF8.generator_pow(0) == 1
        assert GF8.generator_pow(255) == 1  # g^(2^8-1) == 1

    def test_dot(self):
        assert GF8.dot([1, 2], [3, 4]) == 3 ^ GF8.mul(2, 4)

    def test_dot_length_mismatch(self):
        with pytest.raises(FieldError):
            GF8.dot([1], [1, 2])


class TestFieldAxioms:
    """Hypothesis: GF(2^8) satisfies the field axioms."""

    @given(elements8, elements8)
    def test_mul_commutative(self, a, b):
        assert GF8.mul(a, b) == GF8.mul(b, a)

    @given(elements8, elements8, elements8)
    def test_mul_associative(self, a, b, c):
        assert GF8.mul(GF8.mul(a, b), c) == GF8.mul(a, GF8.mul(b, c))

    @given(elements8, elements8, elements8)
    def test_distributive(self, a, b, c):
        assert GF8.mul(a, b ^ c) == GF8.mul(a, b) ^ GF8.mul(a, c)

    @given(nonzero8)
    def test_multiplicative_inverse(self, a):
        assert GF8.mul(a, GF8.inv(a)) == 1

    @given(elements8)
    def test_additive_inverse_is_self(self, a):
        assert GF8.add(a, a) == 0

    @given(elements8, nonzero8)
    def test_div_mul_roundtrip(self, a, b):
        assert GF8.mul(GF8.div(a, b), b) == a

    @given(elements8)
    def test_mul_closed(self, a):
        for b in (0, 1, 2, 255):
            assert 0 <= GF8.mul(a, b) < 256


class TestGF16:
    @settings(max_examples=50)
    @given(st.integers(min_value=1, max_value=65535))
    def test_inverse_gf16(self, a):
        assert GF16.mul(a, GF16.inv(a)) == 1

    def test_large_elements(self):
        assert GF16.mul(40000, 1) == 40000
        assert 0 <= GF16.mul(40000, 50000) < 65536


class TestGF4:
    def test_full_multiplication_table_is_a_group(self):
        seen = set()
        for a in range(1, 16):
            row = {GF4.mul(a, b) for b in range(1, 16)}
            assert row == set(range(1, 16))
            seen.add(frozenset(row))
