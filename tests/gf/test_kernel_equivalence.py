"""Property tests: the batched GF kernels equal the scalar reference.

The batched kernels in :mod:`repro.gf.vector` (packed-lane gathers,
word tables, split-nibble GF(2^16) tables) are pure optimisations — for
every field width they must reproduce, bit for bit, the double loop
over :meth:`GaloisField.mul` they replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FieldError
from repro.gf.field import GF4, GF8, GF16, gf
from repro.gf.vector import (
    _SHORT_ROW,
    _TILE,
    _WORD_TABLE_CACHE,
    as_field_buffer,
    batch_dot,
    buffer_dtype,
    dot_rows,
    matrix_apply,
    segment_dot,
    xor_segments,
)
from repro.obs.metrics import cache_stats

FIELDS = (GF4, GF8, GF16)


def reference_batch_dot(field, rows, bufs):
    """The scalar double loop the batched kernel replaces."""
    length = len(bufs[0])
    out = np.zeros((len(rows), length), dtype=buffer_dtype(field))
    for i, row in enumerate(rows):
        for c, buf in zip(row, bufs):
            for j in range(length):
                out[i, j] ^= field.mul(int(c), int(buf[j]))
    return out


@st.composite
def batch_case(draw):
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 5))
    r = draw(st.integers(1, 6))
    length = draw(st.integers(1, 17))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    dtype = buffer_dtype(field)
    rows = rng.integers(0, field.order, (r, n), dtype=np.int64)
    # Bias toward the special coefficients the kernel short-circuits.
    for special in (0, 1):
        if draw(st.booleans()):
            rows[
                rng.integers(0, r), rng.integers(0, n)
            ] = special
    bufs = [
        rng.integers(0, field.order, length, dtype=dtype) for _ in range(n)
    ]
    return field, rows, bufs


class TestBatchDotEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(case=batch_case())
    def test_matches_scalar_reference(self, case):
        field, rows, bufs = case
        got = batch_dot(field, rows, bufs)
        want = reference_batch_dot(field, rows, bufs)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @settings(max_examples=30, deadline=None)
    @given(case=batch_case())
    def test_out_buffer_reused(self, case):
        field, rows, bufs = case
        out = np.ones(
            (rows.shape[0], len(bufs[0])), dtype=buffer_dtype(field)
        )
        got = batch_dot(field, rows, bufs, out=out)
        assert got is out
        assert np.array_equal(out, reference_batch_dot(field, rows, bufs))

    @settings(max_examples=30, deadline=None)
    @given(case=batch_case())
    def test_dot_rows_is_first_row(self, case):
        field, rows, bufs = case
        got = dot_rows(field, [int(v) for v in rows[0]], bufs)
        assert np.array_equal(got, reference_batch_dot(field, rows[:1], bufs)[0])

    @settings(max_examples=30, deadline=None)
    @given(case=batch_case())
    def test_matrix_apply_rows(self, case):
        field, rows, bufs = case
        got = matrix_apply(field, rows, bufs)
        want = reference_batch_dot(field, rows, bufs)
        assert len(got) == rows.shape[0]
        for i, g in enumerate(got):
            assert np.array_equal(g, want[i])

    def test_rejects_out_of_field_coefficients(self):
        bufs = [np.zeros(4, dtype=np.uint8)]
        with pytest.raises(FieldError):
            batch_dot(GF8, np.array([[256]]), bufs)

    def test_gf16_wide_values(self):
        """Exercise both nibbles of GF(2^16) operands explicitly."""
        field = gf(16)
        rows = np.array([[0x1234, 0xFF00], [0x00FF, 0x8001]], dtype=np.int64)
        bufs = [
            np.array([0xFFFF, 0x0100, 0x0001, 0xABCD], dtype=np.uint16),
            np.array([0x8000, 0x7FFF, 0x0002, 0x0000], dtype=np.uint16),
        ]
        assert np.array_equal(
            batch_dot(field, rows, bufs), reference_batch_dot(field, rows, bufs)
        )


def logexp_batch_dot(field, rows, bufs):
    """Vectorised log/exp reference: no product tables, no tiles."""
    t = field.tables
    out = np.zeros((len(rows), len(bufs[0])), dtype=buffer_dtype(field))
    for i, row in enumerate(rows):
        for c, buf in zip(row, bufs):
            if c:
                logs = t.log[buf].astype(np.int64)
                logs[buf == 0] = 0
                out[i] ^= np.where(buf == 0, 0, t.exp[logs + int(t.log[c])])
    return out


def mixed_layout_inputs(field, length, seed):
    """Six inputs, one per memory layout a caller may hand the kernel."""
    dtype = buffer_dtype(field)
    rng = np.random.default_rng(seed)

    def draw(*shape):
        return rng.integers(0, field.order, shape, dtype=dtype)

    return [
        as_field_buffer(field, draw(length).tobytes()),  # read-only view
        draw(2 * length)[::2],  # strided slice
        draw(3, length)[1],  # row of an (n, L) matrix
        draw(length)[::-1],  # negative stride
        draw(length),
        draw(length + 1)[1:],  # at w <= 8, its uint16 words are unaligned
    ]


class TestTileBoundaries:
    """Lengths on and around the kernels' tile edge, every row-group shape."""

    @pytest.mark.parametrize("r", range(1, 7))
    @pytest.mark.parametrize(
        "length",
        [
            _SHORT_ROW + 1,
            _TILE - 1,
            _TILE,
            _TILE + 1,
            2 * _TILE - 1,
            2 * _TILE,
            2 * _TILE + 1,
            2 * _TILE + 3,
        ],
    )
    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"w{f.w}")
    def test_matches_logexp_reference(self, field, length, r):
        bufs = mixed_layout_inputs(field, length, seed=length + r)
        assert not bufs[0].flags.writeable
        assert not bufs[1].flags.c_contiguous
        rng = np.random.default_rng(r)
        rows = rng.integers(2, field.order, (r, len(bufs)))
        rows[0, rng.integers(len(bufs))] = 0
        rows[-1, -1] = 1  # an unpaired unit term when it ends a single row
        before = [buf.copy() for buf in bufs]
        want = logexp_batch_dot(field, rows, bufs)
        assert np.array_equal(batch_dot(field, rows, bufs), want)
        out = np.full((r, length), field.order - 1, dtype=buffer_dtype(field))
        assert batch_dot(field, rows, bufs, out=out) is out
        assert np.array_equal(out, want)
        for buf, original in zip(bufs, before):
            assert np.array_equal(buf, original)

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"w{f.w}")
    def test_matrix_input_and_degenerate_rows(self, field):
        """An ``(n, L)`` matrix as ``bufs``; zero rows, zero row groups and
        lone unit coefficients take the kernels' short-circuits."""
        length = _TILE + 1
        matrix = np.random.default_rng(7).integers(
            0, field.order, (3, length), dtype=buffer_dtype(field)
        )
        rows = np.zeros((9, 3), dtype=np.int64)  # rows 4-7: all-zero groups
        rows[1] = [0, 1, 0]
        rows[2] = [1, 0, field.order - 1]
        rows[8] = [0, 0, 1]  # a group of its own at either lane width
        got = batch_dot(field, rows, matrix)
        assert np.array_equal(got, logexp_batch_dot(field, rows, matrix))
        assert np.array_equal(got[1], matrix[1])
        assert np.array_equal(
            dot_rows(field, [0, 0, 1], matrix), matrix[2]
        )
        assert not dot_rows(field, [0, 0, 0], matrix).any()

    @pytest.mark.parametrize("r", [1, 3])
    def test_out_of_field_byte_raises_in_gf4(self, r):
        """A byte that is not a GF(2^4) element is a FieldError, never a
        wrapped table index: in either slot of a pair index (the second
        slot used to alias into the pair table), in the unpaired tail,
        and in a later tile as much as in the first."""
        bufs = [np.zeros(_TILE + 8, dtype=np.uint8) for _ in range(3)]
        rows = np.arange(2, 2 + 3 * r).reshape(r, 3)
        batch_dot(GF4, rows, bufs)
        for position in (3, _TILE + 5):
            for j in (0, 1, 2):  # both slots of a pair, and the tail
                bufs[j][position] = 0x5A
                with pytest.raises(FieldError):
                    batch_dot(GF4, rows, bufs)
                bufs[j][position] = 0

    def test_rejects_wrong_buffer_dtype(self):
        """The unchecked gathers rely on the buffer dtype bounding the
        index, so a wider buffer must not reach them."""
        bufs = [np.zeros(4, dtype=np.uint8), np.full(4, 0x1FF, dtype=np.uint16)]
        with pytest.raises(FieldError):
            batch_dot(GF8, np.array([[1, 2]]), bufs)
        with pytest.raises(FieldError):
            batch_dot(GF16, np.array([[1, 2]]), bufs)


def per_segment_dot_rows(field, coeffs, rows, starts):
    """What ``segment_dot`` batches: one ``dot_rows`` per segment."""
    bounds = list(starts) + [len(rows)]
    return [
        dot_rows(field, [int(c) for c in coeffs[lo:hi]], rows[lo:hi])
        for lo, hi in zip(bounds, bounds[1:])
    ]


@st.composite
def segment_case(draw):
    field = draw(st.sampled_from(FIELDS))
    # Either side of the table-scheme threshold, and rows so short that
    # one block holds many segments or so long that it holds one.
    length = draw(
        st.sampled_from([1, 9, 256, _SHORT_ROW - 1, _SHORT_ROW, _SHORT_ROW + 8])
    )
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    total = sum(sizes)
    coeffs = rng.integers(0, field.order, total)
    for special in (0, 1):
        if draw(st.booleans()):
            coeffs[rng.integers(total)] = special
    rows = [
        rng.integers(0, field.order, length, dtype=buffer_dtype(field))
        for _ in range(total)
    ]
    starts = np.cumsum([0] + sizes[:-1]).tolist()
    return field, coeffs, rows, starts


class TestSegmentDot:
    """``segment_dot`` is ``dot_rows`` once per segment, whatever route
    (full product table, pair tables, nibble tables) the rows take."""

    @settings(max_examples=80, deadline=None)
    @given(case=segment_case())
    def test_equals_dot_rows_per_segment(self, case):
        field, coeffs, rows, starts = case
        got = segment_dot(field, coeffs, rows, starts)
        want = per_segment_dot_rows(field, coeffs, rows, starts)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)

    @settings(max_examples=40, deadline=None)
    @given(case=segment_case())
    def test_xor_segments_is_the_running_xor(self, case):
        _, _, rows, starts = case
        before = [row.copy() for row in rows]
        got = xor_segments(rows, starts)
        bounds = starts + [len(rows)]
        for g, lo, hi in zip(got, bounds, bounds[1:]):
            assert np.array_equal(g, np.bitwise_xor.reduce(before[lo:hi]))
        for row, original in zip(rows, before):
            assert np.array_equal(row, original)
            assert not any(np.shares_memory(g, row) for g in got)

    @pytest.mark.parametrize("length", [64, _SHORT_ROW, 4 * _SHORT_ROW])
    def test_a_consumed_matrix_leaves_no_sum_inside_it(self, length):
        """A matrix's rows are views of it, so none serves as a sum's
        accumulator: a sum kept after the call would hold the matrix,
        and the matrix itself is left as it was."""
        rows = np.random.default_rng(length).integers(
            0, 256, (7, length), dtype=np.uint8
        )
        before = rows.copy()
        got = xor_segments(rows, [0, 3, 4])
        for g, lo, hi in zip(got, [0, 3, 4], [3, 4, 7]):
            assert np.array_equal(g, np.bitwise_xor.reduce(before[lo:hi]))
            assert not np.shares_memory(g, rows)
        assert np.array_equal(rows, before)

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"w{f.w}")
    @pytest.mark.parametrize("length", [1, 64, _SHORT_ROW - 1, _SHORT_ROW])
    def test_several_blocks_against_logexp(self, field, length):
        """More rows than one block holds (the cut falls at a segment
        boundary), one-row segments, a segment longer than a block."""
        block_rows = max(1, _TILE // length)
        sizes = [1, block_rows + 3, 1, 2, block_rows - 1, 1, 3]
        if length >= 64:
            sizes = [min(size, 40) for size in sizes] * 3
        total = sum(sizes)
        rng = np.random.default_rng(length)
        coeffs = rng.integers(0, field.order, total)
        coeffs[0], coeffs[-1] = 1, 0
        matrix = rng.integers(
            0, field.order, (total, length), dtype=buffer_dtype(field)
        )
        starts = np.cumsum([0] + sizes[:-1])
        got = segment_dot(field, coeffs, matrix, starts)  # rows of a matrix
        for g, lo, size in zip(got, starts, sizes):
            want = logexp_batch_dot(
                field, [coeffs[lo : lo + size]], matrix[lo : lo + size]
            )[0]
            assert np.array_equal(g, want)

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"w{f.w}")
    def test_one_segment_is_dot_rows_on_any_layout(self, field):
        for length in (33, _SHORT_ROW + 1):
            bufs = mixed_layout_inputs(field, length, seed=length)
            coeffs = [2, 0, 1, field.order - 1, 3, 5]
            (got,) = segment_dot(field, coeffs, bufs, [0])
            assert np.array_equal(got, logexp_batch_dot(field, [coeffs], bufs)[0])
            assert np.array_equal(got, dot_rows(field, coeffs, bufs))

    def test_rejects_what_batch_dot_rejects(self):
        rows = [np.zeros(8, dtype=np.uint8) for _ in range(4)]
        starts = [0, 2]
        with pytest.raises(FieldError):  # dtype
            segment_dot(GF8, [1, 2, 3, 4], rows[:3] + [np.zeros(8, np.uint16)], starts)
        with pytest.raises(FieldError):
            segment_dot(GF16, [1, 2, 3, 4], rows, starts)
        for bad in (256, -1):  # coefficient outside the field
            with pytest.raises(FieldError):
                segment_dot(GF8, [1, 2, bad, 4], rows, starts)
        with pytest.raises(FieldError):  # a row of another length
            segment_dot(GF8, [1, 2, 3, 4], rows[:3] + [np.zeros(9, np.uint8)], starts)
        with pytest.raises(FieldError):
            segment_dot(GF8, [1, 2, 3], rows, starts)
        with pytest.raises(FieldError):
            segment_dot(GF8, [], [], [0])
        # A matrix with row ids: np.take would wrap a negative id.
        matrix = np.zeros((4, 8), dtype=np.uint8)
        ids = [3, 0, 2, 1]
        with pytest.raises(FieldError):  # dtype
            segment_dot(GF8, [1, 2, 3, 4], matrix.astype(np.uint16), starts, ids=ids)
        with pytest.raises(FieldError):  # not a matrix
            segment_dot(GF8, [1, 2, 3, 4], matrix[0], starts, ids=ids)
        for bad in (-1, len(matrix)):
            with pytest.raises(FieldError):
                segment_dot(GF8, [1, 2, 3, 4], matrix, starts, ids=[3, bad, 2, 1])

    @pytest.mark.parametrize("position", [0, 1, 2, 3])
    def test_out_of_field_byte_raises_in_gf4(self, position):
        """``c * 16 + x`` with ``x >= 16`` would alias another constant's
        row of the product table: a FieldError wherever the byte sits."""
        rows = [np.zeros(8, dtype=np.uint8) for _ in range(4)]
        segment_dot(GF4, [2, 3, 4, 5], rows, [0, 1, 3])
        rows[position][5] = 0x5A
        with pytest.raises(FieldError):
            segment_dot(GF4, [2, 3, 4, 5], rows, [0, 1, 3])
        with pytest.raises(FieldError):
            dot_rows(GF4, [2, 3, 4, 5], rows)
        with pytest.raises(FieldError):  # the same rows as a matrix, by id
            segment_dot(GF4, [2, 3, 4, 5], np.stack(rows), [0, 1, 3], ids=[0, 1, 2, 3])

    @pytest.mark.parametrize(
        "starts", [[], [1], [0, 0], [0, 2, 1], [0, 4], [[0, 1]]]
    )
    def test_rejects_bad_segment_starts(self, starts):
        rows = [np.zeros(8, dtype=np.uint8) for _ in range(4)]
        with pytest.raises(FieldError):
            segment_dot(GF8, [1, 2, 3, 4], rows, starts)
        with pytest.raises(FieldError):
            xor_segments(rows, starts)

    def test_short_buffers_never_build_a_pair_table(self):
        """A 256-byte buffer is smaller than the 128 KiB word table each
        new coefficient would cost it."""
        bufs = [np.arange(256, dtype=np.uint8), np.arange(256, dtype=np.uint8)[::-1]]
        before = cache_stats()["gf.word_table"]
        for c in range(100):
            got = dot_rows(GF8, [c + 2, 255 - c], bufs)
            assert np.array_equal(
                got, logexp_batch_dot(GF8, [[c + 2, 255 - c]], bufs)[0]
            )
        after = cache_stats()["gf.word_table"]
        assert after["misses"] == before["misses"]
        assert after["entries"] == before["entries"]

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"w{f.w}")
    def test_long_row_builds_one_word_table_per_coefficient(self, field):
        """One table per distinct coefficient outside {0, 1}, and none
        when the same dot runs again."""
        _WORD_TABLE_CACHE.clear()
        bufs = mixed_layout_inputs(field, _SHORT_ROW, seed=3)
        coeffs = [5, 0, 1, 7, 5, 9]
        want = logexp_batch_dot(field, [coeffs], bufs)[0]
        for built in (3, 0):  # 5, 7 and 9; then all three cached
            before = cache_stats()["gf.word_table"]["misses"]
            assert np.array_equal(dot_rows(field, coeffs, bufs), want)
            assert cache_stats()["gf.word_table"]["misses"] - before == built
        assert cache_stats()["gf.word_table"]["entries"] == 3


class TestAsFieldBufferViews:
    def test_bytes_default_is_readonly_view(self):
        raw = b"\x01\x02\x03\x04"
        buf = as_field_buffer(GF8, raw)
        assert not buf.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            buf[0] = 9

    def test_bytes_copy_flag_gives_writable(self):
        buf = as_field_buffer(GF8, b"\x01\x02", copy=True)
        assert buf.flags.writeable
        buf[0] = 7
        assert buf[0] == 7

    def test_ndarray_default_zero_copy(self):
        arr = np.arange(8, dtype=np.uint8)
        buf = as_field_buffer(GF8, arr)
        assert np.shares_memory(arr, buf)

    def test_ndarray_copy_flag_detaches(self):
        arr = np.arange(8, dtype=np.uint8)
        buf = as_field_buffer(GF8, arr, copy=True)
        assert not np.shares_memory(arr, buf)
        buf[0] = 99
        assert arr[0] == 0
