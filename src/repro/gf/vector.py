"""Vectorised GF(2^w) operations on numpy buffers.

These are the hot-path kernels used by erasure encoding/decoding: they
operate element-wise on whole chunk buffers (numpy arrays of ``uint8``
for w <= 8 or ``uint16`` for w == 16).

Three table schemes back the kernels:

- **w <= 8**: one 256-entry product table per constant (``t[x] = c*x``),
  gathered with ``np.take``.  For multi-output kernels up to four
  constants' tables are *packed into one uint32 table* so a single
  gather produces four products at once (the byte lanes of the packed
  accumulator are the output rows).
- **w <= 8, rows shorter than** ``_SHORT_ROW``: the field's one *full
  product table* (``T[c * order + x] = c * x``, 64 KiB at w = 8).  A
  buffer that is smaller than a per-constant-pair table never pays for
  building one, and rows with different constants share a gather.
- **w == 16**: *split low/high-nibble tables* — ``lo[x] = c * x`` for
  the low byte and ``hi[x] = c * (x << 8)`` for the high byte, 256
  entries each (1 KiB per constant instead of the 128 KiB a full
  2^16-entry table would cost).  ``c * v == lo[v & 0xFF] ^ hi[v >> 8]``.

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
]

#: Per-(w, c) product tables for w <= 8: 256 entries, 256 B each.
_MUL_TABLE_CACHE = BoundedCache(maxsize=1024, name="gf.mul_table")
#: Per-(w, c) split-nibble table pairs for w == 16: 2 x 256 uint16 = 1 KiB each.
_NIBBLE_TABLE_CACHE = BoundedCache(maxsize=1024, name="gf.nibble_table")
#: Per-(w, c1, c2) fused pair tables for w <= 8: 64 KiB each, so <= 4 MiB total.
_PAIR_TABLE_CACHE = BoundedCache(maxsize=64, name="gf.pair_table")
#: Per-(w, column of constants) packed lane tables: <= 2 KiB each.
_PACKED_TABLE_CACHE = BoundedCache(maxsize=1024, name="gf.packed_table")
#: Per-w full product tables for w <= 8: order^2 entries, <= 64 KiB each.
_PRODUCT_TABLE_CACHE = BoundedCache(maxsize=8, name="gf.product_table")

#: Elements per tile of the batched kernels (docs/PERFORMANCE.md has the
#: sweep that picked it).  One tile of everything the widest kernel
#: touches — uint32 accumulator and gather target, the intp copy of the
#: indices ``np.take`` makes, inputs, outputs — is ~0.6 MiB, inside a
#: per-core L2 with room left for a 64 KiB pair table.
_TILE = 1 << 15

#: Rows of fewer elements than this (w <= 8) are multiplied through the
#: field's full product table, a ``_TILE`` of rows per gather; longer
#: rows go through per-constant pair tables, which cost 64 KiB each to
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


def _mul_table(field: GaloisField, c: int) -> np.ndarray:
    """Full product table ``t[x] = c * x`` for w <= 8 constants (cached)."""
    key = (field.w, c)
    table = _MUL_TABLE_CACHE.get(key)
    if table is None:
        t = field.tables
        table = np.zeros(t.order, dtype=t.dtype)
        if c != 0:
            logs = t.log[1:].astype(np.int64) + int(t.log[c])
            table[1:] = t.exp[logs]
        table.setflags(write=False)
        _MUL_TABLE_CACHE.put(key, table)
    return table


def _nibble_tables(field: GaloisField, c: int) -> tuple[np.ndarray, np.ndarray]:
    """Split-nibble tables ``(lo, hi)`` for a GF(2^16) constant (cached).

    ``lo[x] = c * x`` and ``hi[x] = c * (x << 8)`` for ``x`` in 0..255,
    so ``c * v == lo[v & 0xFF] ^ hi[v >> 8]`` by linearity of the field
    multiplication over XOR.  1 KiB per constant instead of the 128 KiB
    a full 2^16-entry table would take.
    """
    key = (field.w, c)
    tables = _NIBBLE_TABLE_CACHE.get(key)
    if tables is None:
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
        tables = (lo, hi)
        _NIBBLE_TABLE_CACHE.put(key, tables)
    return tables


def _pair_table(field: GaloisField, c1: int, c2: int) -> np.ndarray:
    """Fused table ``P[x1 * 256 + x2] = c1*x1 ^ c2*x2`` for w <= 8 (cached).

    Lets a two-term GF multiply-accumulate run as a *single* gather over
    a combined 16-bit index — the dominant cost of the repair kernel is
    gathers, so halving their count nearly halves its runtime.
    """
    key = (field.w, c1, c2)
    table = _PAIR_TABLE_CACHE.get(key)
    if table is None:
        t1 = _mul_table(field, c1)
        t2 = _mul_table(field, c2)
        table = (t1[:, None] ^ t2[None, :]).reshape(-1)
        table.setflags(write=False)
        _PAIR_TABLE_CACHE.put(key, table)
    return table


def _product_table(field: GaloisField) -> np.ndarray:
    """The whole field's products ``T[c * order + x] = c * x`` for w <= 8 (cached).

    One table serves every constant, so a gather over it multiplies each
    row of a block by its own coefficient.  ``order ** 2`` entries: 64 KiB
    at w = 8, the size of *one* pair table.
    """
    table = _PRODUCT_TABLE_CACHE.get(field.w)
    if table is None:
        table = np.concatenate(
            [_mul_table(field, c) for c in range(field.order)]
        )
        table.setflags(write=False)
        _PRODUCT_TABLE_CACHE.put(field.w, table)
    return table


def _packed_tables(field: GaloisField, cs: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Lane-packed tables for one input column of a row group (cached).

    ``cs`` holds the column's constant for each output row of the group;
    lane ``i`` of ``P[x]`` is ``cs[i] * x``, so one gather yields every
    row's product.  One table for w <= 8 (up to four byte lanes), the
    ``(lo, hi)`` nibble pair for w == 16 (up to two 16-bit lanes); two
    lanes' worth of bits pack into uint16, more into uint32.
    """
    key = (field.w, cs)
    tables = _PACKED_TABLE_CACHE.get(key)
    if tables is None:
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
        tables = _PACKED_TABLE_CACHE.put(key, tuple(packed_tables))
    return tables


def xor_into(dst: np.ndarray, src: np.ndarray) -> None:
    """``dst ^= src`` element-wise (field addition), in place."""
    np.bitwise_xor(dst, src, out=dst)


def _scaled(field: GaloisField, c: int, buf: np.ndarray) -> np.ndarray:
    """New buffer ``c * buf`` for a constant other than 0 and 1."""
    if field.w <= 8:
        return np.take(_mul_table(field, c), buf)
    lo, hi = _nibble_tables(field, c)
    out = lo[buf & 0xFF]
    out ^= hi[buf >> 8]
    return out


def mul_scalar(field: GaloisField, c: int, buf: np.ndarray) -> np.ndarray:
    """Return a new buffer equal to ``c * buf`` element-wise."""
    field.check(c)
    if _metrics.CURRENT is not None:
        _count_kernel("mul_scalar", buf.size * buf.itemsize)
    if c == 0:
        return np.zeros_like(buf)
    if c == 1:
        return buf.copy()
    return _scaled(field, c, buf)


def scale_inplace(field: GaloisField, c: int, buf: np.ndarray) -> None:
    """``buf *= c`` element-wise, in place."""
    field.check(c)
    if _metrics.CURRENT is not None:
        _count_kernel("scale_inplace", buf.size * buf.itemsize)
    if c == 1:
        return
    if c == 0:
        buf[:] = 0
        return
    buf[:] = _scaled(field, c, buf)


def axpy(field: GaloisField, c: int, x: np.ndarray, y: np.ndarray) -> None:
    """``y ^= c * x`` — the fused multiply-accumulate of GF coding loops."""
    field.check(c)
    if _metrics.CURRENT is not None:
        _count_kernel("axpy", x.size * x.itemsize)
    if c == 0:
        return
    np.bitwise_xor(y, x if c == 1 else _scaled(field, c, x), out=y)


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


def _short_rows(field: GaloisField, size: int) -> bool:
    """Whether ``size``-element rows use the full product table.

    The one place the single-output table scheme is chosen by length.
    """
    return field.w <= 8 and size < _SHORT_ROW


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


def xor_segments(rows, starts, *, consume: bool = False) -> list[np.ndarray]:
    """Field addition per segment: XOR each run of consecutive buffers.

    Segment ``i`` is ``rows[starts[i]:starts[i + 1]]`` (the last one runs
    to the end) and contributes one buffer to the result.  This is the
    replacement node's final combine (Algorithm 1, line 6) for a whole
    window of stripes at once.  Short rows are stacked and reduced in
    one pass; from ``_SHORT_ROW`` elements up a pass per row is cheaper
    than stacking.

    Args:
        rows: equal-length buffers of one dtype.
        starts: first row of each segment, rising strictly from 0.
        consume: the caller is done with ``rows``, so one buffer of each
            segment may serve as its accumulator instead of a copy — at
            chunk sizes where a fresh buffer costs as much as the XORs.

    Raises:
        FieldError: if ``starts`` does not rise strictly from 0.
    """
    starts = _segment_starts(starts, len(rows))
    size = rows[0].shape[0]
    if size < _SHORT_ROW:
        stacked = np.concatenate(rows).reshape(len(rows), size)
        out = np.empty((len(starts), size), dtype=stacked.dtype)
        _xor_segments(stacked, starts, out)
        return list(out)
    bounds = starts.tolist() + [len(rows)]
    sums = []
    for lo, hi in zip(bounds, bounds[1:]):
        # Into the segment's last buffer: the most recently allocated one
        # outlives the call, so the ones freed sit below it on the heap
        # and are reused by the next window instead of trimmed away.
        acc = rows[hi - 1] if consume else rows[hi - 1].copy()
        for row in rows[lo : hi - 1]:
            np.bitwise_xor(acc, row, out=acc)
        sums.append(acc)
    return sums


def _dot_short(
    field: GaloisField, coeffs: np.ndarray, bufs, starts: np.ndarray,
    out: np.ndarray,
) -> None:
    """Per-segment w <= 8 dots of short rows: one gather per row block.

    Rows are stacked a block at a time — about ``_TILE`` elements, cut at
    a segment boundary — indexed into :func:`_product_table` by
    ``coefficient * order + element``, gathered once and XORed down to
    one row per segment, straight into ``out``.  Scratch is O(block)
    whatever the number of segments.  Stacking is also the dtype check:
    ``casting="no"`` lets nothing but the field's dtype into the block.
    """
    size = out.shape[1]
    order = field.order
    table = _product_table(field)
    base = np.multiply(coeffs, order, dtype=np.uint16, casting="unsafe")[:, None]
    # Blocks of whole segments: a new one wherever the row count passes a
    # multiple of a tile's worth of rows.
    block_rows = _TILE // max(size, 1)
    cuts = {0, len(starts)}
    if len(bufs) > block_rows:
        every = np.arange(block_rows, len(bufs), block_rows)
        cuts.update(np.searchsorted(starts, every).tolist())
    cuts = sorted(cuts)
    bounds = starts.tolist() + [len(bufs)]
    cap = max(bounds[s1] - bounds[s0] for s0, s1 in zip(cuts, cuts[1:]))
    stacked = np.empty((cap, size), dtype=out.dtype)
    index = np.empty((cap, size), dtype=np.uint16)
    product = np.empty((cap, size), dtype=out.dtype)
    for s0, s1 in zip(cuts, cuts[1:]):
        lo, hi = bounds[s0], bounds[s1]
        n = hi - lo
        block = bufs[lo:hi]
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


def _dot_single_u8(
    field: GaloisField, coeffs: np.ndarray, bufs, out_row: np.ndarray
) -> None:
    """Single-output w <= 8 dot: fused pair-table gathers.

    Consecutive nonzero terms are consumed two at a time through
    :func:`_pair_table`, so ``k`` inputs cost ``ceil(k/2)`` gathers
    instead of ``k``.  The first gather lands in the output tile; later
    ones go through a one-tile scratch and are XORed in.  Rows smaller
    than the pair tables they would have to build are one segment of
    :func:`_dot_short` instead.
    """
    if _short_rows(field, out_row.shape[0]):
        _dot_short(field, coeffs, bufs, np.zeros(1, dtype=np.intp), out_row[None])
        return
    terms = [(c, bufs[j]) for j, c in enumerate(coeffs.tolist()) if c]
    if not terms:
        out_row[:] = 0
        return
    tables = [
        _pair_table(field, terms[i][0], terms[i + 1][0])
        for i in range(0, len(terms) - 1, 2)
    ]
    if len(terms) % 2:
        c = terms[-1][0]
        tables.append(None if c == 1 else _mul_table(field, c))
    stride = np.uint16(field.order)

    def tile(xs, out, idx, s):
        dst = out
        # Inputs two at a time; an odd one out is the unpaired tail.
        for table, x, x2 in zip(tables, xs[::2], xs[1::2] + [None]):
            if x2 is not None:
                np.multiply(x, stride, out=idx)
                np.bitwise_or(idx, x2, out=idx)
                x = idx
            if table is None:  # unit coefficient: the product is x itself
                if dst is out:
                    out[:] = x
                else:
                    np.bitwise_xor(out, x, out=out)
            else:
                table.take(x, out=dst, mode="wrap")
                if dst is s:
                    np.bitwise_xor(out, s, out=out)
            dst = s

    _tiled(tile, [x for _, x in terms], out_row, (np.uint16, np.uint8))


def _dot_packed(
    field: GaloisField, rows: np.ndarray, bufs, out: np.ndarray
) -> None:
    """One row group: a single gather yields every output row's product.

    ``rows`` / ``out`` hold up to four rows (w <= 8, byte lanes) or two
    (w == 16, 16-bit lanes).  Each tile accumulates in a packed scratch
    accumulator whose lanes are then unpacked into the output tile.  At
    w == 16 every input costs two gathers, indexed by its low and high
    bytes (split per tile), and a lone row needs no packing, so it
    accumulates in the output tile itself.
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
    packed_lanes = len(out) > 1

    def tile(xs, out_tile, acc, gathered, lo=None, hi=None):
        if not packed_lanes:
            acc = out_tile[0]
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
        if packed_lanes:
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
    for buf in bufs:
        # The gathers are unchecked (``mode="wrap"`` lets ``np.take`` write
        # straight into ``out``), so no index may exceed its table: the
        # dtype bounds it at w = 8 (uint8 / paired uint16 indices) and
        # w = 16 (byte indices into the nibble tables); smaller fields
        # share the byte dtype and are range-checked here instead.
        if buf.dtype != dtype:
            raise FieldError(
                f"buffer dtype {buf.dtype} does not match GF(2^{field.w}) ({dtype})"
            )
        if field.w < 8 and buf.size and int(buf.max()) >= field.order:
            raise FieldError(f"buffer holds a byte outside GF(2^{field.w})")
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
        if field.w <= 8 and g0 == r - 1:
            _dot_single_u8(field, rows[g0], bufs, out[g0])
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


def segment_dot(field: GaloisField, coeffs, rows, starts) -> list[np.ndarray]:
    """Many :func:`dot_rows` at once: ``sum_t coeffs[t] * rows[t]`` per segment.

    Segment ``i`` covers ``rows[starts[i]:starts[i + 1]]`` (the last one
    runs to the end) with the matching coefficients; row ``i`` of the
    result is its linear combination, so ``dot_rows`` is the one-segment
    case.  A repair window's per-rack partial decodes (Equation 7) are
    one call: short rows of every segment share gathers over the full
    product table (:func:`_dot_short`), longer rows — and GF(2^16) at
    every length — go segment by segment through :func:`dot_rows`.

    Args:
        field: the coefficient field.
        coeffs: one coefficient per row.
        rows: equal-length 1-D buffers of the field's dtype (a list or
            the rows of a matrix); only read, may be read-only/strided.
        starts: first row of each segment, rising strictly from 0.

    Returns:
        The per-segment sums, one buffer each, in segment order.

    Raises:
        FieldError: on count, segment, dtype, coefficient-range or
            (w < 8) element-range mismatches.
    """
    coeffs = np.asarray(coeffs)
    if coeffs.ndim != 1 or len(coeffs) != len(rows):
        raise FieldError("coefficient/buffer count mismatch")
    if not len(rows):
        raise FieldError("segment_dot requires at least one buffer")
    if int(coeffs.min()) < 0 or int(coeffs.max()) >= field.order:
        raise FieldError(f"coefficients outside GF(2^{field.w})")
    starts = _segment_starts(starts, len(rows))
    size = rows[0].shape[0]
    if not _short_rows(field, size):
        bounds = starts.tolist() + [len(rows)]
        coeffs = coeffs.tolist()
        return [
            dot_rows(field, coeffs[lo:hi], rows[lo:hi])
            for lo, hi in zip(bounds, bounds[1:])
        ]
    out = np.empty((len(starts), size), dtype=buffer_dtype(field))
    _dot_short(field, coeffs, rows, starts, out)
    if _metrics.CURRENT is not None:
        _count_kernel("segment_dot", len(rows) * size * out.itemsize)
    return list(out)


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
