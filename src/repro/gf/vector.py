"""Vectorised GF(2^w) operations on numpy buffers.

These are the hot-path kernels used by erasure encoding/decoding: they
operate element-wise on whole chunk buffers (numpy arrays of ``uint8``
for w <= 8 or ``uint16`` for w == 16).

Four table schemes back the kernels:

- **Multi-output, w <= 8**: one 256-entry product table per constant
  (``t[x] = c*x``), gathered with ``np.take``.  Up to four constants'
  tables are *packed into one uint32 table* so a single gather produces
  four products at once (the byte lanes of the packed accumulator are
  the output rows).
- **Multi-output, w == 16**: *split low/high-nibble tables* —
  ``lo[x] = c * x`` for the low byte and ``hi[x] = c * (x << 8)`` for
  the high byte, 256 entries each, packed two lanes at a time.
  ``c * v == lo[v & 0xFF] ^ hi[v >> 8]``.
- **One output, long rows**: one 65 536-entry *word table* per constant
  (128 KiB), which multiplies a whole 16-bit word per gather — two
  elements at w <= 8, one at w == 16.
- **One output, w <= 8, rows shorter than** ``_SHORT_ROW``: the field's
  one *full product table* (``T[c * order + x] = c * x``, 64 KiB at
  w = 8).  A buffer that is smaller than a word table never pays for
  building one, and rows with different constants share a gather.
  :func:`segment_dot` takes this route for rows of up to a ``_TILE``.

The central batched primitive is :func:`batch_dot`: apply an ``r x n``
coefficient matrix to ``n`` input buffers in one fused pass.  It
resolves every table once per call, then walks the buffers in fixed
``_TILE``-element tiles, so the index, gather and accumulator scratch
is O(tile) whatever the chunk size, stays cache-resident, and is
allocated per call.  :func:`matrix_apply` (the encode/decode kernel)
and :func:`dot_rows` (the paper's Equation-7 partial-decoding
primitive) are thin wrappers over it.  :func:`segment_dot` is
``dot_rows`` for many independent sums at once — a repair window's
per-rack partial decodes — and :func:`xor_segments` is the matching
field addition.

All product-table caches are bounded LRUs (:class:`repro.cache.BoundedCache`)
of read-only tables, and no other state outlives a call, so the kernels
are re-entrant: several threads may run them at once.
"""

from __future__ import annotations

import numpy as np

from repro.cache import BoundedCache
from repro.errors import FieldError
from repro.gf.field import GaloisField
from repro.obs import metrics as _metrics

__all__ = [
    "buffer_dtype",
    "as_field_buffer",
    "xor_into",
    "mul_scalar",
    "axpy",
    "scale_inplace",
    "dot_rows",
    "matrix_apply",
    "batch_dot",
    "segment_dot",
    "xor_segments",
    "rows_equal",
]

#: Per-(w, c) product tables for w <= 8: 256 entries, 256 B each.
_MUL_TABLE_CACHE = BoundedCache(maxsize=1024, name="gf.mul_table")
#: Per-(w, c) split-nibble table pairs for w == 16: 2 x 256 uint16 = 1 KiB each.
_NIBBLE_TABLE_CACHE = BoundedCache(maxsize=1024, name="gf.nibble_table")
#: Per-(w, c) word tables: 2^16 uint16 = 128 KiB each, so <= 8 MiB total.
_WORD_TABLE_CACHE = BoundedCache(maxsize=64, name="gf.word_table")
#: Per-(w, column of constants) packed lane tables: <= 2 KiB each.
_PACKED_TABLE_CACHE = BoundedCache(maxsize=1024, name="gf.packed_table")
#: Per-w full product tables for w <= 8: order^2 entries, <= 64 KiB each.
_PRODUCT_TABLE_CACHE = BoundedCache(maxsize=8, name="gf.product_table")

#: Elements per tile of the batched kernels (docs/PERFORMANCE.md has the
#: sweep that picked it).  One tile of everything the widest kernel
#: touches — uint32 accumulator and gather target, the intp copy of the
#: indices ``np.take`` makes, inputs, outputs — is ~0.6 MiB, inside a
#: per-core L2.  A single-output tile is ``_TILE`` 16-bit words.
_TILE = 1 << 15

#: Rows of fewer elements than this (w <= 8) are multiplied through the
#: field's full product table, a ``_TILE`` of rows per gather; longer
#: rows go through per-constant word tables, which cost 128 KiB each to
#: build (docs/PERFORMANCE.md has the sweep that put the crossover here).
_SHORT_ROW = 1 << 12


def _count_kernel(kernel: str, nbytes: int) -> None:
    """Record one kernel dispatch when a telemetry scope is active.

    The disabled path is the caller's ``_metrics.CURRENT is None``
    check — one module-attribute load, bounded <5% on the kernel bench.
    """
    reg = _metrics.CURRENT
    if reg is None:  # pragma: no cover - callers already check
        return
    reg.counter("gf.kernel.dispatches").inc(kernel=kernel)
    reg.counter("gf.kernel.bytes").inc(nbytes, kernel=kernel)

_LITTLE_ENDIAN = bool(np.little_endian)


def buffer_dtype(field: GaloisField) -> np.dtype:
    """Numpy dtype for buffers over ``field``."""
    return field.tables.dtype


def as_field_buffer(
    field: GaloisField,
    data: bytes | bytearray | np.ndarray,
    copy: bool = False,
) -> np.ndarray:
    """View/convert ``data`` as a 1-D numpy buffer of field elements.

    By default bytes-like inputs are reinterpreted **zero-copy** as a
    read-only view — the common case (encode/decode inputs) never
    mutates its buffers.  Pass ``copy=True`` to get a private writable
    copy instead.  For GF(2^16) the byte length must be even.

    Raises:
        FieldError: if an ndarray input has the wrong dtype, or a bytes
            input has odd length for w=16.
    """
    dtype = buffer_dtype(field)
    if isinstance(data, np.ndarray):
        if data.dtype != dtype:
            raise FieldError(
                f"buffer dtype {data.dtype} does not match GF(2^{field.w}) ({dtype})"
            )
        flat = data.reshape(-1)
        return flat.copy() if copy else flat
    raw = np.frombuffer(data, dtype=np.uint8)
    if dtype != np.uint8:
        if raw.size % 2:
            raise FieldError("GF(2^16) buffers require an even number of bytes")
        raw = raw.view(np.uint16)
    if copy:
        return raw.copy()
    view = raw[:]
    view.setflags(write=False)
    return view


def _products(field: GaloisField, c: int) -> np.ndarray:
    """Read-only ``t[x] = c * x`` over every element ``x`` of the field."""
    t = field.tables
    table = np.zeros(t.order, dtype=t.dtype)
    if c != 0:
        logs = t.log[1:].astype(np.int64) + int(t.log[c])
        table[1:] = t.exp[logs]
    table.setflags(write=False)
    return table


def _mul_table(field: GaloisField, c: int) -> np.ndarray:
    """Full product table ``t[x] = c * x`` for w <= 8 constants (cached)."""
    return _MUL_TABLE_CACHE.get_or_build((field.w, c), lambda: _products(field, c))


def _nibble_tables(field: GaloisField, c: int) -> tuple[np.ndarray, np.ndarray]:
    """Split-nibble tables ``(lo, hi)`` for a GF(2^16) constant (cached).

    ``lo[x] = c * x`` and ``hi[x] = c * (x << 8)`` for ``x`` in 0..255,
    so ``c * v == lo[v & 0xFF] ^ hi[v >> 8]`` by linearity of the field
    multiplication over XOR.  1 KiB per constant instead of the 128 KiB
    a full 2^16-entry table would take.
    """
    def build():
        t = field.tables
        lo = np.zeros(256, dtype=t.dtype)
        hi = np.zeros(256, dtype=t.dtype)
        if c != 0:
            log_c = int(t.log[c])
            low_vals = np.arange(1, 256)
            lo[1:] = t.exp[t.log[low_vals] + log_c]
            high_vals = low_vals << 8
            hi[1:] = t.exp[t.log[high_vals] + log_c]
        lo.setflags(write=False)
        hi.setflags(write=False)
        return lo, hi

    return _NIBBLE_TABLE_CACHE.get_or_build((field.w, c), build)


def _word_table(field: GaloisField, c: int) -> np.ndarray:
    """Products of 16-bit words, ``W[x] = c * x`` for all 2^16 ``x`` (cached).

    At w == 16 a word is one element.  At w <= 8 it is two:
    ``W[x1 * 256 + x0] = (c*x1) << 8 | c*x0``, which is right in either
    byte order — a word's first byte is its low byte on a little-endian
    host and its high byte on a big-endian one, and the entry is stored
    the same way.  Lets a long row multiply two bytes per gather, and
    gather straight from the index its input already is.
    """
    def build():
        if field.w == 16:
            return _products(field, c)
        byte = np.zeros(256, dtype=np.uint16)
        byte[: field.order] = _mul_table(field, c)
        table = (byte[:, None] << 8 | byte).reshape(-1)
        table.setflags(write=False)
        return table

    return _WORD_TABLE_CACHE.get_or_build((field.w, c), build)


def _product_table(field: GaloisField) -> np.ndarray:
    """The whole field's products ``T[c * order + x] = c * x`` for w <= 8 (cached).

    One table serves every constant, so a gather over it multiplies each
    row of a block by its own coefficient.  ``order ** 2`` entries: 64 KiB
    at w = 8, the size of *one* pair table.
    """
    def build():
        table = np.concatenate(
            [_mul_table(field, c) for c in range(field.order)]
        )
        table.setflags(write=False)
        return table

    return _PRODUCT_TABLE_CACHE.get_or_build(field.w, build)


def _packed_tables(field: GaloisField, cs: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Lane-packed tables for one input column of a row group (cached).

    ``cs`` holds the column's constant for each output row of the group;
    lane ``i`` of ``P[x]`` is ``cs[i] * x``, so one gather yields every
    row's product.  One table for w <= 8 (up to four byte lanes), the
    ``(lo, hi)`` nibble pair for w == 16 (up to two 16-bit lanes); two
    lanes' worth of bits pack into uint16, more into uint32.
    """
    def build():
        lane_bits = 8 if field.w <= 8 else 16
        pack_dtype = np.uint16 if len(cs) * lane_bits <= 16 else np.uint32
        per_lane = [
            (_mul_table(field, c),) if field.w <= 8 else _nibble_tables(field, c)
            for c in cs
        ]
        packed_tables = []
        for lane_tables in zip(*per_lane):
            packed = np.zeros(lane_tables[0].size, dtype=pack_dtype)
            for lane, table in enumerate(lane_tables):
                packed |= table.astype(pack_dtype) << (lane_bits * lane)
            packed.setflags(write=False)
            packed_tables.append(packed)
        return tuple(packed_tables)

    return _PACKED_TABLE_CACHE.get_or_build((field.w, cs), build)


def xor_into(dst: np.ndarray, src: np.ndarray) -> None:
    """``dst ^= src`` element-wise (field addition), in place."""
    np.bitwise_xor(dst, src, out=dst)


def _check_buffers(field: GaloisField, bufs) -> None:
    """Every buffer holds field elements.  The gathers are unchecked
    (``mode="wrap"``), so no index may exceed its table: the dtype bounds
    it at w = 8 and 16, and smaller fields are range-checked instead."""
    dtype = buffer_dtype(field)
    for buf in bufs:
        if buf.dtype != dtype:
            raise FieldError(
                f"buffer dtype {buf.dtype} does not match GF(2^{field.w}) ({dtype})"
            )
        if field.w < 8 and buf.size and int(buf.max()) >= field.order:
            raise FieldError(f"buffer holds a byte outside GF(2^{field.w})")


def _scale(field: GaloisField, c: int, x: np.ndarray, out: np.ndarray,
           accumulate: bool = False) -> None:
    """``out = c * x`` — ``out ^= c * x`` when accumulating — as a
    one-term :func:`_dot_single` (two terms, ``out`` the unit first one,
    when accumulating), so scratch is O(tile) and ``out`` may be ``x``."""
    field.check(c)
    coeffs, bufs = ([1, c], [out, x]) if accumulate else ([c], [x])
    _check_buffers(field, bufs)
    if x.ndim != 1 or out.shape != x.shape:
        raise FieldError(f"need 1-D buffers of one length, got {x.shape}, {out.shape}")
    _dot_single(field, np.array(coeffs), bufs, out)


def mul_scalar(field: GaloisField, c: int, buf: np.ndarray) -> np.ndarray:
    """Return a new buffer equal to ``c * buf`` element-wise."""
    if _metrics.CURRENT is not None:
        _count_kernel("mul_scalar", buf.size * buf.itemsize)
    out = np.empty(buf.shape, dtype=buf.dtype)
    _scale(field, c, buf, out)
    return out


def scale_inplace(field: GaloisField, c: int, buf: np.ndarray) -> None:
    """``buf *= c`` element-wise, in place."""
    if _metrics.CURRENT is not None:
        _count_kernel("scale_inplace", buf.size * buf.itemsize)
    _scale(field, c, buf, buf)


def axpy(field: GaloisField, c: int, x: np.ndarray, y: np.ndarray) -> None:
    """``y ^= c * x`` — the fused multiply-accumulate of GF coding loops."""
    if _metrics.CURRENT is not None:
        _count_kernel("axpy", x.size * x.itemsize)
    _scale(field, c, x, y, accumulate=True)


def _unpack_lane(acc: np.ndarray, lane: int, lane_size: int) -> np.ndarray:
    """One output row from a packed accumulator, as a strided view."""
    lanes = acc.itemsize // lane_size
    lane_dtype = np.uint8 if lane_size == 1 else np.uint16
    per_elem = acc.view(lane_dtype).reshape(-1, lanes)
    return per_elem[:, lane if _LITTLE_ENDIAN else lanes - 1 - lane]


def _tiled(tile_fn, xs, out: np.ndarray, scratch_dtypes) -> None:
    """Run ``tile_fn(xs, out, *scratch)`` over ``_TILE``-element tiles.

    ``xs`` are the 1-D inputs; ``out`` is 1-D or ``(lanes, L)`` and is
    tiled along its last axis.  One scratch array of one tile per entry
    of ``scratch_dtypes`` is allocated here, per call — nothing outlives
    the call, which is what makes the kernels re-entrant.  Buffers that
    fit one tile go to ``tile_fn`` whole: no slicing, no loop.
    """
    size = out.shape[-1]
    scratch = [np.empty(min(size, _TILE), dtype=dt) for dt in scratch_dtypes]
    if size <= _TILE:
        tile_fn(xs, out, *scratch)
        return
    for lo in range(0, size, _TILE):
        hi = min(lo + _TILE, size)
        tile_fn(
            [x[lo:hi] for x in xs],
            out[..., lo:hi],
            *[s[: hi - lo] for s in scratch],
        )


def _segment_starts(starts, rows: int) -> np.ndarray:
    """``starts`` as an index array, checked: ``reduceat`` silently
    returns a single row for an empty or out-of-order segment."""
    starts = np.asarray(starts, dtype=np.intp)
    if (
        starts.ndim != 1
        or not starts.size
        or starts[0] != 0
        or starts[-1] >= rows
        or (starts.size > 1 and int(np.diff(starts).min()) < 1)
    ):
        raise FieldError(
            f"segment starts must rise strictly from 0 and stay below {rows}"
        )
    return starts


def _xor_segments(rows: np.ndarray, starts: np.ndarray, out: np.ndarray) -> None:
    """XOR each run of rows of a matrix into a row of ``out`` (unchecked).

    ``reduceat`` pays per element, not per byte, so the rows go through
    as 8-byte words, and whatever is left of each row as elements.
    """
    words = 0
    if rows.strides[1] == rows.itemsize and out.strides[1] == out.itemsize:
        words = rows.shape[1] * rows.itemsize // 8 * 8 // rows.itemsize
    if words:
        np.bitwise_xor.reduceat(
            rows[:, :words].view(np.uint64), starts, axis=0,
            out=out[:, :words].view(np.uint64),
        )
    if words < rows.shape[1]:
        np.bitwise_xor.reduceat(
            rows[:, words:], starts, axis=0, out=out[:, words:]
        )


def xor_segments(rows, starts):
    """Field addition per segment: XOR each run of consecutive buffers.

    Segment ``i`` is ``rows[starts[i]:starts[i + 1]]`` (the last one runs
    to the end) and contributes one buffer to the result.  This is the
    replacement node's final combine (Algorithm 1, line 6) for a whole
    window of stripes at once.  Short rows are reduced in one pass over
    a matrix — ``rows`` as it stands if it is one, else stacked once —
    into the rows of one result matrix; from ``_SHORT_ROW`` elements up a
    pass per row is cheaper than stacking or than ``reduceat`` over long
    rows, and the result is a list.  ``rows`` is left as it was, and no
    sum shares memory with it.

    Args:
        rows: equal-length buffers of one dtype (a list or a matrix).
        starts: first row of each segment, rising strictly from 0.

    Raises:
        FieldError: if ``starts`` does not rise strictly from 0.
    """
    starts = _segment_starts(starts, len(rows))
    size = rows[0].shape[0]
    if size < _SHORT_ROW:
        stacked = np.asarray(rows)
        out = np.empty((len(starts), size), dtype=stacked.dtype)
        _xor_segments(stacked, starts, out)
        return out
    bounds = starts.tolist() + [len(rows)]
    sums = []
    for lo, hi in zip(bounds, bounds[1:]):
        acc = rows[hi - 1].copy()
        for row in rows[lo : hi - 1]:
            np.bitwise_xor(acc, row, out=acc)
        sums.append(acc)
    return sums


def _picked(rows, ids):
    """Rows ``ids`` of ``rows`` as a list of views (``rows`` itself
    without ids): long rows are never copied."""
    return rows if ids is None else [rows[i] for i in ids.tolist()]


def rows_equal(rows: np.ndarray, others, ids) -> list[bool]:
    """Pairwise byte-for-byte equality: ``rows[ids[i]]`` against ``others[i]``.

    A repair window's ground-truth check, with ``rows`` the chunk store's
    matrix and ``ids`` the lost chunks' rows.  Short rows compare as one
    matrix, ``(a == b).all(axis=1)``; from ``_SHORT_ROW`` elements up,
    where gathering them would cost more than the comparison, row by row
    over views, contiguous rows as 8-byte words.
    """
    if not len(others):
        return []
    if others[0].shape[0] < _SHORT_ROW:
        picked = np.take(rows, ids, axis=0)
        return (picked == np.asarray(others)).all(axis=1).tolist()
    return list(map(_row_equal, _picked(rows, ids), others))


def _row_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """``np.array_equal`` of two rows; contiguous ones as 8-byte words."""
    if not (a.dtype == b.dtype and a.shape == b.shape
            and a.flags.c_contiguous and b.flags.c_contiguous):
        return np.array_equal(a, b)
    words = a.nbytes // 8 * 8 // a.itemsize
    return np.array_equal(
        a[:words].view(np.uint64), b[:words].view(np.uint64)
    ) and np.array_equal(a[words:], b[words:])


def _dot_short(
    field: GaloisField, coeffs: np.ndarray, rows, ids, starts: np.ndarray,
    out: np.ndarray,
) -> None:
    """Per-segment w <= 8 dots of short rows: one gather per row block.

    Term ``t`` multiplies row ``ids[t]`` of the matrix ``rows`` (row
    ``t`` of ``rows`` without ids).  Terms are stacked a block at a time
    — about ``_TILE`` elements, cut at a segment boundary — by one
    ``np.take`` over their row ids, indexed into :func:`_product_table`
    by ``coefficient * order + element``, gathered once and XORed down
    to one row per segment, straight into ``out``.  Scratch is O(block)
    whatever the number of segments.  Without ids a block is stacked by
    concatenating its rows, which is also the dtype check:
    ``casting="no"`` lets nothing but the field's dtype into the block
    (a matrix with ids is checked by :func:`_row_ids`).
    """
    size = out.shape[1]
    order = field.order
    table = _product_table(field)
    terms = len(coeffs)
    base = np.multiply(coeffs, order, dtype=np.uint16, casting="unsafe")[:, None]
    # Blocks of whole segments: a new one wherever the term count passes
    # a multiple of a tile's worth of rows.
    block_rows = _TILE // max(size, 1)
    cuts = {0, len(starts)}
    if terms > block_rows:
        every = np.arange(block_rows, terms, block_rows)
        cuts.update(np.searchsorted(starts, every).tolist())
    cuts = sorted(cuts)
    bounds = starts.tolist() + [terms]
    cap = max(bounds[s1] - bounds[s0] for s0, s1 in zip(cuts, cuts[1:]))
    stacked = np.empty((cap, size), dtype=out.dtype)
    index = np.empty((cap, size), dtype=np.uint16)
    product = np.empty((cap, size), dtype=out.dtype)
    for s0, s1 in zip(cuts, cuts[1:]):
        lo, hi = bounds[s0], bounds[s1]
        n = hi - lo
        if ids is not None:
            np.take(rows, ids[lo:hi], axis=0, out=stacked[:n])
        else:
            block = rows[lo:hi]
            if {buf.shape for buf in block} != {(size,)}:
                raise FieldError(f"buffers must all be {size}-element rows")
            try:
                np.concatenate(block, out=stacked[:n].reshape(-1), casting="no")
            except TypeError as exc:
                raise FieldError(
                    f"buffer dtype does not match GF(2^{field.w}) ({out.dtype})"
                ) from exc
        if field.w < 8 and int(stacked[:n].max(initial=0)) >= order:
            raise FieldError(f"buffer holds a byte outside GF(2^{field.w})")
        np.add(stacked[:n], base[lo:hi], out=index[:n])
        # In bounds without a check: uint16 < order^2 at w = 8, and below
        # that every element was just range-checked.
        table.take(index[:n], out=product[:n], mode="wrap")
        _xor_segments(product[:n], starts[s0:s1] - lo, out[s0:s1])


def _dot_words(
    field: GaloisField, coeffs: np.ndarray, bufs, out_row: np.ndarray
) -> None:
    """Single-output dot of long rows: one 16-bit word per gather.

    Each nonzero term gathers its input's ``uint16`` words through
    :func:`_word_table`, ``_TILE`` words at a time: the first product
    lands in the output tile, later ones go through a one-tile scratch
    and are XORed in, and a unit coefficient is a copy or an XOR.  A
    strided input is made contiguous a tile at a time, a strided output
    tile is summed in scratch and copied out, and at w <= 8 an odd last
    byte is one scalar product per term.
    """
    size = out_row.shape[0]
    terms = [(c, bufs[j]) for j, c in enumerate(coeffs.tolist()) if c]
    if not terms:
        out_row[:] = 0
        return
    tables = [None if c == 1 else _word_table(field, c) for c, _ in terms]
    per_word = 2 if field.w <= 8 else 1
    even = size - size % per_word
    span = _TILE * per_word
    gathered, acc = np.empty((2, min(even, span) // per_word), dtype=np.uint16)
    direct = out_row.flags.c_contiguous
    for lo in range(0, even, span):
        hi = min(lo + span, even)
        dst = out_row[lo:hi]
        tile = dst.view(np.uint16) if direct else acc[: (hi - lo) // per_word]
        for i, (table, (_, x)) in enumerate(zip(tables, terms)):
            x = np.ascontiguousarray(x[lo:hi]).view(np.uint16)
            if table is not None:
                x = table.take(x, out=gathered[: tile.size] if i else tile, mode="wrap")
            if i:
                np.bitwise_xor(tile, x, out=tile)
            elif x is not tile:  # a unit first term
                np.copyto(tile, x)
        if not direct:
            dst[:] = tile.view(out_row.dtype)
    if even < size:
        out_row[-1] = np.bitwise_xor.reduce(
            [field.mul(c, int(x[-1])) for c, x in terms]
        )


def _dot_single(
    field: GaloisField, coeffs: np.ndarray, bufs, out_row: np.ndarray
) -> None:
    """Single-output dot, by row length: rows smaller than the word tables
    they would have to build are one segment of :func:`_dot_short` at
    w <= 8, one nibble lane of :func:`_dot_packed` at w == 16.
    ``out_row`` may be the first input: each tile of it is read before
    it is written."""
    if out_row.shape[0] >= _SHORT_ROW:
        _dot_words(field, coeffs, bufs, out_row)
    elif field.w <= 8:
        starts = np.zeros(1, dtype=np.intp)
        _dot_short(field, coeffs, bufs, None, starts, out_row[None])
    else:
        _dot_packed(field, coeffs[None], bufs, out_row[None])


def _dot_packed(
    field: GaloisField, rows: np.ndarray, bufs, out: np.ndarray
) -> None:
    """One row group: a single gather yields every output row's product.

    ``rows`` / ``out`` hold up to four rows (w <= 8, byte lanes) or two
    (w == 16, 16-bit lanes).  Each tile accumulates in a packed scratch
    accumulator whose lanes are then unpacked into the output tile.  At
    w == 16 every input costs two gathers, indexed by its low and high
    bytes (split per tile).
    """
    columns = [tuple(column) for column in rows.T.tolist()]
    used = [j for j, cs in enumerate(columns) if any(cs)]
    if not used:
        out[:] = 0
        return
    tables = [_packed_tables(field, columns[j]) for j in used]
    pack_dtype = tables[0][0].dtype
    split = field.w == 16
    lane_size = 2 if split else 1

    def tile(xs, out_tile, acc, gathered, lo=None, hi=None):
        dst = acc  # the first gather lands in the accumulator itself
        for packed, x in zip(tables, xs):
            if split:
                np.copyto(lo, x, casting="unsafe")
                np.right_shift(x, 8, out=hi, casting="unsafe")
                indices = (lo, hi)
            else:
                indices = (x,)
            for table, index in zip(packed, indices):
                table.take(index, out=dst, mode="wrap")
                if dst is gathered:
                    np.bitwise_xor(acc, gathered, out=acc)
                dst = gathered
        for lane, row in enumerate(out_tile):
            row[:] = _unpack_lane(acc, lane, lane_size)

    scratch = (pack_dtype, pack_dtype) + ((np.uint8, np.uint8) if split else ())
    _tiled(tile, [bufs[j] for j in used], out, scratch)


def batch_dot(
    field: GaloisField,
    rows: np.ndarray,
    bufs,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Apply an ``r x n`` coefficient matrix to ``n`` buffers, batched.

    This is the fused coding kernel: all ``r`` linear combinations
    ``out[i] = sum_j rows[i, j] * bufs[j]`` are produced in one tiled
    pass (see the module docstring).  ``bufs`` may be a list of 1-D
    buffers or an ``(n, L)`` matrix (its rows are the buffers — no copy
    either way); inputs are only read and may be read-only or strided.

    Args:
        field: the coefficient field.
        rows: ``(r, n)`` coefficient matrix.
        bufs: ``n`` equal-length 1-D buffers of the field's dtype.
        out: optional preallocated ``(r, L)`` output (overwritten); it
            must not overlap the inputs.

    Returns:
        ``(r, L)`` array; row ``i`` is the ``i``-th combination.

    Raises:
        FieldError: on shape, dtype, coefficient-range or (w < 8)
            element-range mismatches.
    """
    rows = np.asarray(rows)
    if rows.ndim != 2:
        raise FieldError(f"coefficient matrix must be 2-D, got shape {rows.shape}")
    r, n = rows.shape
    if n != len(bufs):
        raise FieldError(
            f"matrix shape {rows.shape} incompatible with {len(bufs)} buffers"
        )
    if n == 0:
        raise FieldError("batch_dot requires at least one buffer")
    if rows.size and (int(rows.min()) < 0 or int(rows.max()) >= field.order):
        raise FieldError(f"coefficients outside GF(2^{field.w})")
    size = bufs[0].shape[0]
    dtype = buffer_dtype(field)
    _check_buffers(field, bufs)
    if out is None:
        out = np.empty((r, size), dtype=dtype)
    elif out.shape != (r, size) or out.dtype != dtype:
        raise FieldError(
            f"out has shape {out.shape}/{out.dtype}, need {(r, size)}/{dtype}"
        )
    if r == 0:
        return out
    group = 4 if field.w <= 8 else 2
    for g0 in range(0, r, group):
        if g0 == r - 1:
            _dot_single(field, rows[g0], bufs, out[g0])
        else:
            _dot_packed(field, rows[g0 : g0 + group], bufs, out[g0 : g0 + group])
    if _metrics.CURRENT is not None:
        kernel = "batch_dot_u8" if field.w <= 8 else "batch_dot_u16"
        _count_kernel(kernel, n * size * out.itemsize)
    return out


def dot_rows(field: GaloisField, coeffs: list[int] | np.ndarray, bufs: list[np.ndarray]) -> np.ndarray:
    """Linear combination ``sum_i coeffs[i] * bufs[i]`` over the field.

    This is exactly the "partial decoding" primitive of the paper
    (Equation 7): a rack-local delegate combines its retrieved chunks
    with the repair-vector coefficients assigned to them.

    Raises:
        FieldError: if lengths mismatch or no buffers are given.
    """
    if len(coeffs) != len(bufs):
        raise FieldError("coefficient/buffer count mismatch")
    if not len(bufs):
        raise FieldError("dot_rows requires at least one buffer")
    return batch_dot(field, np.asarray(coeffs).reshape(1, -1), bufs)[0]


def _row_ids(field: GaloisField, rows, ids) -> np.ndarray:
    """``ids`` as an index array into the matrix ``rows``, checked:
    ``np.take`` would wrap a negative id and cast another dtype."""
    dtype = buffer_dtype(field)
    if not (isinstance(rows, np.ndarray) and rows.ndim == 2):
        raise FieldError("row ids index the rows of a 2-D matrix")
    if rows.dtype != dtype:
        raise FieldError(
            f"buffer dtype {rows.dtype} does not match GF(2^{field.w}) ({dtype})"
        )
    ids = np.asarray(ids, dtype=np.intp)
    if ids.ndim != 1 or (
        ids.size and (int(ids.min()) < 0 or int(ids.max()) >= len(rows))
    ):
        raise FieldError(f"row ids must be a 1-D index below {len(rows)}")
    return ids


def segment_dot(field: GaloisField, coeffs, rows, starts, ids=None):
    """Many :func:`dot_rows` at once: ``sum_t coeffs[t] * rows[ids[t]]`` per segment.

    Segment ``i`` covers terms ``starts[i]:starts[i + 1]`` (the last one
    runs to the end); row ``i`` of the result is its linear combination,
    so ``dot_rows`` is the one-segment case.  A repair window's per-rack
    partial decodes (Equation 7) are one call, with ``rows`` the chunk
    store's matrix and ``ids`` the helper chunks' rows: rows of up to a
    tile (``_TILE`` elements) of every segment share gathers over the
    full product table (:func:`_dot_short`) and come back as the rows of
    one matrix — a window's constants rarely repeat, so a per-constant
    word table would be built for little more than one row; longer rows
    — and GF(2^16) at every length — go segment by segment through
    :func:`dot_rows` over views, and come back as a list.

    Args:
        field: the coefficient field.
        coeffs: one coefficient per term.
        rows: equal-length 1-D buffers of the field's dtype (a list or
            the rows of a matrix); only read, may be read-only/strided.
        starts: first term of each segment, rising strictly from 0.
        ids: the row each term reads, when ``rows`` is a matrix
            (default: term ``t`` reads row ``t``).

    Returns:
        The per-segment sums, one row each, in segment order.

    Raises:
        FieldError: on count, segment, dtype, row-id, coefficient-range
            or (w < 8) element-range mismatches.
    """
    coeffs = np.asarray(coeffs)
    if ids is not None:
        ids = _row_ids(field, rows, ids)
    terms = len(rows) if ids is None else len(ids)
    if coeffs.ndim != 1 or len(coeffs) != terms:
        raise FieldError("coefficient/buffer count mismatch")
    if not terms:
        raise FieldError("segment_dot requires at least one buffer")
    if int(coeffs.min()) < 0 or int(coeffs.max()) >= field.order:
        raise FieldError(f"coefficients outside GF(2^{field.w})")
    starts = _segment_starts(starts, terms)
    size = rows[0].shape[0]
    if field.w == 16 or size > _TILE:
        bufs = _picked(rows, ids)
        bounds = starts.tolist() + [terms]
        coeffs = coeffs.tolist()
        return [
            dot_rows(field, coeffs[lo:hi], bufs[lo:hi])
            for lo, hi in zip(bounds, bounds[1:])
        ]
    out = np.empty((len(starts), size), dtype=buffer_dtype(field))
    _dot_short(field, coeffs, rows, ids, starts, out)
    if _metrics.CURRENT is not None:
        _count_kernel("segment_dot", terms * size * out.itemsize)
    return out


def matrix_apply(field: GaloisField, rows: np.ndarray, bufs: list[np.ndarray]) -> list[np.ndarray]:
    """Apply an ``r x n`` coefficient matrix to ``n`` buffers.

    Returns ``r`` output buffers; row ``i`` of the result is
    ``sum_j rows[i, j] * bufs[j]``.  This is the encode kernel: ``rows``
    is the parity part of the generator matrix.  Delegates to the
    batched :func:`batch_dot` kernel.
    """
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape[1] != len(bufs):
        raise FieldError(
            f"matrix shape {rows.shape} incompatible with {len(bufs)} buffers"
        )
    result = batch_dot(field, rows, list(bufs))
    return [result[i] for i in range(result.shape[0])]
