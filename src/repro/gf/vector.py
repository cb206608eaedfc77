"""Vectorised GF(2^w) operations on numpy buffers.

These are the hot-path kernels used by erasure encoding/decoding: they
operate element-wise on whole chunk buffers (numpy arrays of ``uint8``
for w <= 8 or ``uint16`` for w == 16).

Two table schemes back the kernels:

- **w <= 8**: one 256-entry product table per constant (``t[x] = c*x``),
  gathered with ``np.take``.  For multi-output kernels up to four
  constants' tables are *packed into one uint32 table* so a single
  gather produces four products at once (the byte lanes of the packed
  accumulator are the output rows).
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
primitive) are thin wrappers over it.

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
]

#: Per-(w, c) product tables for w <= 8: 256 entries, 256 B each.
_MUL_TABLE_CACHE = BoundedCache(maxsize=1024, name="gf.mul_table")
#: Per-(w, c) split-nibble table pairs for w == 16: 2 x 256 uint16 = 1 KiB each.
_NIBBLE_TABLE_CACHE = BoundedCache(maxsize=1024, name="gf.nibble_table")
#: Per-(w, c1, c2) fused pair tables for w <= 8: 64 KiB each, so <= 4 MiB total.
_PAIR_TABLE_CACHE = BoundedCache(maxsize=64, name="gf.pair_table")
#: Per-(w, column of constants) packed lane tables: <= 2 KiB each.
_PACKED_TABLE_CACHE = BoundedCache(maxsize=1024, name="gf.packed_table")

#: Elements per tile of the batched kernels (docs/PERFORMANCE.md has the
#: sweep that picked it).  One tile of everything the widest kernel
#: touches — uint32 accumulator and gather target, the intp copy of the
#: indices ``np.take`` makes, inputs, outputs — is ~0.6 MiB, inside a
#: per-core L2 with room left for a 64 KiB pair table.
_TILE = 1 << 15


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


def _dot_single_u8(
    field: GaloisField, coeffs: np.ndarray, bufs, out_row: np.ndarray
) -> None:
    """Single-output w <= 8 dot: fused pair-table gathers.

    Consecutive nonzero terms are consumed two at a time through
    :func:`_pair_table`, so ``k`` inputs cost ``ceil(k/2)`` gathers
    instead of ``k``.  The first gather lands in the output tile; later
    ones go through a one-tile scratch and are XORed in.
    """
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
