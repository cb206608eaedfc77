"""The batched repair-vector solve against its per-row references.

``RSCode.repair_vectors`` derives a whole batch of repair vectors in one
vectorised Gauss-Jordan pass (the stacked reduction behind
:func:`~repro.erasure.matrix.solve_right_stack`).  Every row must equal,
bit for bit, both the scalar double loop of ``reference_repair_vector``
and ``g_lost`` times the inverse the scalar Gauss-Jordan reference
(``tests/erasure/_gauss_reference.py``) gives, for Vandermonde and
Cauchy RS codes at w = 8 and RS(20, 10) at w = 16; batches of size 0
and 1 and batches that repeat a row are drawn on purpose.  Singular
systems and malformed rows — for RS and LRC alike — fail the way the
per-row API fails.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.erasure.lrc import LRCCode
from repro.erasure.matrix import GFMatrix, solve_right_stack
from repro.erasure.rs import RSCode
from repro.errors import CodingError, SingularMatrixError
from repro.gf.field import GF8, GF16

from tests.erasure import _gauss_reference as gauss
from tests.erasure.test_repair_cache import reference_repair_vector


def inverse_repair_vector(code, lost, helpers):
    """``g_lost · X`` with ``X`` from the scalar Gauss-Jordan reference."""
    g_lost = GFMatrix(code.field, [code.generator.row(lost)])
    inverse = gauss.invert(code.generator.take_rows(list(helpers)))
    return (g_lost @ inverse).data[0].tolist()


@st.composite
def batches(draw, code, max_rows=6):
    """``(lost, helpers)`` arrays: distinct rows, then some repeated."""
    rows = []
    for _ in range(draw(st.integers(0, max_rows))):
        lost = draw(st.integers(0, code.n - 1))
        survivors = [i for i in range(code.n) if i != lost]
        helpers = draw(st.permutations(survivors))[: code.k]
        if draw(st.booleans()):
            helpers = sorted(helpers)
        rows.append((lost, list(helpers)))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
        rows = draw(st.permutations(rows))
    lost = np.array([r[0] for r in rows], dtype=np.int64)
    helpers = np.array([r[1] for r in rows], dtype=np.int64).reshape(
        len(rows), code.k
    )
    return lost, helpers


def rs_codes_w8():
    return st.builds(
        RSCode,
        k=st.integers(2, 12),
        m=st.integers(1, 4),
        construction=st.sampled_from(["vandermonde", "cauchy"]),
    )


def assert_matches_references(code, lost, helpers):
    got = code.repair_vectors(lost, helpers)
    assert got.shape == helpers.shape
    checked = {}
    for row, l, h in zip(got.tolist(), lost.tolist(), helpers.tolist()):
        # A repeated row must repeat its result; the slow references
        # run once per distinct row.
        key = (l, tuple(h))
        if key not in checked:
            assert row == reference_repair_vector(code, l, h)
            assert row == inverse_repair_vector(code, l, h)
            checked[key] = row
        assert row == checked[key] == code.repair_vector(l, h)


class TestDifferential:
    @settings(deadline=None)
    @given(data=st.data())
    def test_rs_w8_matches_references(self, data):
        code = data.draw(rs_codes_w8())
        assert_matches_references(code, *data.draw(batches(code)))

    # The pure-Python references take ~20 ms a row at k = 20: a fifth of
    # the profile's example budget.
    @settings(max_examples=max(1, settings().max_examples // 5), deadline=None)
    @given(data=st.data())
    def test_rs_20_10_w16_matches_references(self, data):
        code = RSCode(20, 10, w=16)
        assert_matches_references(code, *data.draw(batches(code, max_rows=2)))

    @pytest.mark.parametrize("code", [RSCode(6, 3), RSCode(20, 10, w=16)], ids=repr)
    def test_empty_batch(self, code):
        out = code.repair_vectors(
            np.zeros(0, dtype=np.int64), np.zeros((0, code.k), dtype=np.int64)
        )
        assert out.shape == (0, code.k)

    def test_one_row_is_the_per_row_api(self):
        code = RSCode(10, 4)
        helpers = [13, 1, 2, 3, 4, 5, 6, 7, 8, 9]
        assert code.repair_vectors([0], [helpers]).tolist() == [
            code.repair_vector(0, helpers)
        ]

    def test_default_loops_the_per_row_api(self):
        code = LRCCode(6, 2, 2)
        lost = np.array([0, 4])
        helpers = np.array([[1, 2, 6], [3, 5, 7]])
        assert code.repair_vectors(lost, helpers).tolist() == [
            code.repair_vector(0, [1, 2, 6]),
            code.repair_vector(4, [3, 5, 7]),
        ]


def singular_stack(draw, field, k, rows):
    """Random ``(rows, k, k)`` matrices, some forced singular."""
    stack = np.array(
        draw(
            st.lists(
                st.lists(st.integers(0, field.order - 1), min_size=k * k,
                         max_size=k * k),
                min_size=rows, max_size=rows,
            )
        ),
        dtype=np.int64,
    ).reshape(rows, k, k)
    for s in draw(st.sets(st.integers(0, rows - 1), min_size=1)):
        # Row b becomes c times row a: rank drops below k.
        a, b = draw(st.permutations(range(k)))[:2]
        c = draw(st.integers(0, field.order - 1))
        stack[s, b] = [field.mul(c, int(v)) for v in stack[s, a]]
    return stack


class TestSingular:
    @settings(deadline=None)
    @given(data=st.data())
    def test_names_the_first_singular_system(self, data):
        field = data.draw(st.sampled_from([GF8, GF16]))
        k = data.draw(st.integers(2, 5))
        rows = data.draw(st.integers(1, 6))
        stack = singular_stack(data.draw, field, k, rows)
        rhs = np.ones((rows, k), dtype=np.int64)
        first = next(
            s for s in range(rows) if not gauss.is_invertible(GFMatrix(field, stack[s]))
        )
        with pytest.raises(SingularMatrixError, match=f"^system {first} is singular"):
            solve_right_stack(field, stack, rhs)

    @settings(deadline=None)
    @given(data=st.data())
    def test_invertible_stack_matches_solve_right(self, data):
        field = data.draw(st.sampled_from([GF8, GF16]))
        k = data.draw(st.integers(1, 5))
        rows = data.draw(st.integers(0, 5))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        stack = rng.integers(0, field.order, (rows, k, k))
        rhs = rng.integers(0, field.order, (rows, k))
        keep = [gauss.is_invertible(GFMatrix(field, m)) for m in stack]
        stack, rhs = stack[keep], rhs[keep]
        got = solve_right_stack(field, stack, rhs)
        for y, m, b in zip(got.tolist(), stack, rhs.tolist()):
            assert y == gauss.solve_right(GFMatrix(field, m), b)


def bad_rows(code, prefix=""):
    """One malformed ``(lost, helpers)`` row per check, for RS(6, 3) or
    LRC(6, 2, 2); ``code.n`` is the first index out of range."""
    n = code.n
    return [
        pytest.param(code, 0, [0, 1, 2, 3, 4, 5], "helper set must not contain",
                     id=f"{prefix}lost-in-helpers"),
        pytest.param(code, 0, [1, 2, 3, 4, 5, 5], "helper indices must be distinct",
                     id=f"{prefix}duplicate"),
        pytest.param(code, n, [1, 2, 3, 4, 5, 6], f"lost index {n} out of range",
                     id=f"{prefix}lost-range"),
        pytest.param(code, 0, [1, 2, 3, 4, 5, n], f"helper index {n} out of range",
                     id=f"{prefix}helper-range"),
        pytest.param(code, 0, [1, 2, 3, 4, 5, -1], "helper index -1 out of range",
                     id=f"{prefix}negative"),
    ]


BAD_ROWS = bad_rows(RSCode(6, 3)) + bad_rows(LRCCode(6, 2, 2), prefix="lrc-")
CODES = [RSCode(6, 3), LRCCode(6, 2, 2)]


class TestMalformedRows:
    @pytest.mark.parametrize("code, lost, helpers, message", BAD_ROWS)
    def test_batch_words_errors_like_the_per_row_api(self, code, lost, helpers, message):
        with pytest.raises(CodingError, match=message):
            code.repair_vector(lost, helpers)
        good = [1, 2, 3, 4, 5, 6]
        with pytest.raises(CodingError, match=message):
            code.repair_vectors([0, lost, code.n], [good, helpers, good])

    @pytest.mark.parametrize("code", CODES, ids=repr)
    @pytest.mark.parametrize("index", [-1, "n"])
    def test_decode_rejects_an_index_out_of_range(self, code, index):
        index = code.n if index == "n" else index
        stripe = {i: np.zeros(4, dtype=np.uint8) for i in range(code.k)}
        stripe[index] = np.zeros(4, dtype=np.uint8)
        with pytest.raises(CodingError, match=f"chunk index {index} out of range"):
            code.decode(stripe)

    @pytest.mark.parametrize("index", [-1, 10])
    def test_is_recoverable_rejects_an_index_out_of_range(self, index):
        with pytest.raises(CodingError, match=f"chunk index {index} out of range"):
            LRCCode(6, 2, 2).is_recoverable([0, 1, 2, 3, 4, index])

    def test_names_the_first_bad_row(self):
        code = RSCode(6, 3)
        with pytest.raises(CodingError, match="must be distinct"):
            code.repair_vectors(
                [0, 0, 0], [[1, 2, 3, 4, 5, 6], [1, 1, 2, 3, 4, 5], [0, 1, 2, 3, 4, 5]]
            )

    def test_wrong_helper_count(self):
        code = RSCode(6, 3)
        with pytest.raises(CodingError, match="exactly k=6 helpers, got 5"):
            code.repair_vectors([0], [[1, 2, 3, 4, 5]])
