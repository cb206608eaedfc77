"""Tests for Reed-Solomon codes, including property-based MDS checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    CodingError,
    InsufficientChunksError,
    InvalidCodeParametersError,
)
from repro.erasure.rs import RSCode, default_width_for
from repro.gf.field import GF8


def make_stripe(code, seed=0, size=64):
    rng = np.random.default_rng(seed)
    dtype = np.uint8 if code.w <= 8 else np.uint16
    high = 256 if code.w <= 8 else 65536
    data = [rng.integers(0, high, size, dtype=dtype) for _ in range(code.k)]
    return data, code.encode_stripe(data)


class TestParameters:
    def test_default_width(self):
        assert default_width_for(4, 3) == 8
        assert default_width_for(200, 100) == 16

    def test_default_width_too_large(self):
        with pytest.raises(InvalidCodeParametersError):
            default_width_for(60000, 10000)

    def test_invalid_km(self):
        with pytest.raises(InvalidCodeParametersError):
            RSCode(0, 3)
        with pytest.raises(InvalidCodeParametersError):
            RSCode(3, 0)

    def test_unknown_construction(self):
        with pytest.raises(InvalidCodeParametersError):
            RSCode(4, 2, construction="fountain")

    def test_does_not_fit_field(self):
        with pytest.raises(InvalidCodeParametersError):
            RSCode(200, 100, w=8)

    def test_repr_eq_hash(self):
        a, b = RSCode(4, 2), RSCode(4, 2)
        assert a == b and hash(a) == hash(b)
        assert a != RSCode(4, 2, construction="cauchy")
        assert "k=4" in repr(a)

    def test_n(self):
        assert RSCode(6, 3).n == 9


@pytest.mark.parametrize("construction", ["vandermonde", "cauchy"])
class TestEncodeDecode:
    def test_systematic(self, construction):
        code = RSCode(4, 2, construction=construction)
        data, stripe = make_stripe(code)
        for i in range(4):
            assert np.array_equal(stripe[i], data[i])

    def test_encode_wrong_count(self, construction):
        code = RSCode(4, 2, construction=construction)
        with pytest.raises(CodingError):
            code.encode([np.zeros(4, dtype=np.uint8)] * 3)

    def test_encode_mismatched_sizes(self, construction):
        code = RSCode(2, 1, construction=construction)
        with pytest.raises(CodingError):
            code.encode([np.zeros(4, dtype=np.uint8), np.zeros(8, dtype=np.uint8)])

    def test_encode_wrong_dtype(self, construction):
        code = RSCode(2, 1, construction=construction)
        with pytest.raises(CodingError):
            code.encode([np.zeros(4, dtype=np.uint16)] * 2)

    def test_decode_needs_k(self, construction):
        code = RSCode(4, 2, construction=construction)
        _, stripe = make_stripe(code)
        with pytest.raises(InsufficientChunksError):
            code.decode({0: stripe[0]})

    def test_decode_rejects_bad_index(self, construction):
        code = RSCode(2, 1, construction=construction)
        _, stripe = make_stripe(code)
        with pytest.raises(CodingError):
            code.decode({0: stripe[0], 7: stripe[1]})

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_any_k_chunks_decode(self, construction, data):
        """The MDS property: every k-subset of the stripe decodes."""
        k = data.draw(st.integers(2, 6))
        m = data.draw(st.integers(1, 4))
        code = RSCode(k, m, construction=construction)
        original, stripe = make_stripe(code, seed=data.draw(st.integers(0, 99)))
        subset = data.draw(
            st.permutations(range(k + m)).map(lambda p: sorted(p[:k]))
        )
        decoded = code.decode({i: stripe[i] for i in subset})
        for got, want in zip(decoded, original):
            assert np.array_equal(got, want)

    def test_decode_all_regenerates_parity(self, construction):
        code = RSCode(3, 2, construction=construction)
        _, stripe = make_stripe(code)
        rebuilt = code.decode_all({i: stripe[i] for i in (1, 3, 4)})
        for got, want in zip(rebuilt, stripe):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("construction", ["vandermonde", "cauchy"])
class TestRepair:
    def test_repair_every_chunk(self, construction):
        code = RSCode(6, 3, construction=construction)
        _, stripe = make_stripe(code, seed=5)
        for lost in range(code.n):
            helpers = [i for i in range(code.n) if i != lost][: code.k]
            rebuilt = code.reconstruct(lost, {i: stripe[i] for i in helpers})
            assert np.array_equal(rebuilt, stripe[lost]), lost

    def test_repair_vector_identity_when_data_available(self, construction):
        """Repairing a data chunk from other data chunks + parity."""
        code = RSCode(4, 2, construction=construction)
        y = code.repair_vector(5, [0, 1, 2, 3])
        # Helpers are the k data chunks: y must equal the parity row.
        assert y == [int(v) for v in code.generator.row(5)]

    def test_repair_vector_wrong_helper_count(self, construction):
        code = RSCode(4, 2, construction=construction)
        with pytest.raises(InsufficientChunksError):
            code.repair_vector(5, [0, 1, 2])

    def test_repair_vector_rejects_lost_in_helpers(self, construction):
        code = RSCode(4, 2, construction=construction)
        with pytest.raises(CodingError):
            code.repair_vector(0, [0, 1, 2, 3])

    def test_repair_vector_rejects_duplicates(self, construction):
        code = RSCode(4, 2, construction=construction)
        with pytest.raises(CodingError):
            code.repair_vector(5, [0, 1, 2, 2])

    def test_repair_vector_rejects_bad_lost_index(self, construction):
        code = RSCode(4, 2, construction=construction)
        with pytest.raises(CodingError):
            code.repair_vector(6, [0, 1, 2, 3])

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_repair_any_helper_set(self, construction, data):
        """Any k-subset of survivors repairs any lost chunk byte-exactly."""
        code = RSCode(5, 3, construction=construction)
        _, stripe = make_stripe(code, seed=data.draw(st.integers(0, 99)))
        lost = data.draw(st.integers(0, code.n - 1))
        survivors = [i for i in range(code.n) if i != lost]
        helpers = data.draw(
            st.permutations(survivors).map(lambda p: sorted(p[: code.k]))
        )
        rebuilt = code.reconstruct(lost, {i: stripe[i] for i in helpers})
        assert np.array_equal(rebuilt, stripe[lost])


class TestPolynomialCrossCheck:
    def test_vandermonde_encode_equals_polynomial_evaluation(self):
        """Non-systematic Vandermonde encode == evaluating the message
        polynomial at the row points (the classical RS view)."""
        from repro.erasure.matrix import GFMatrix

        k, n = 3, 6
        message = [7, 130, 9]
        vand = GFMatrix.vandermonde(GF8, n, k)
        encoded = vand.mul_vector(message)
        for point, symbol in enumerate(encoded):
            value = 0
            for coefficient in reversed(message):  # Horner's rule
                value = GF8.add(GF8.mul(value, point), coefficient)
            assert symbol == value


class TestGF16Code:
    def test_wide_stripe_roundtrip(self):
        code = RSCode(20, 10, w=16)
        data, stripe = make_stripe(code, size=32)
        decoded = code.decode({i: stripe[i] for i in range(5, 25)})
        for got, want in zip(decoded, data):
            assert np.array_equal(got, want)


class TestDecodeCache:
    def test_repeated_decode_uses_cache(self, rs63):
        _, stripe = make_stripe(rs63)
        helpers = {i: stripe[i] for i in (1, 2, 3, 4, 5, 6)}
        a = rs63.reconstruct(0, helpers)
        b = rs63.reconstruct(0, helpers)
        assert np.array_equal(a, b)
        # The second reconstruct reuses the cached repair plan outright.
        assert (rs63.decode_table.hits, rs63.decode_table.misses) == (1, 1)
