"""The batched kernels' working memory is O(tile), not O(chunk).

Whatever the chunk size, a call allocates its output plus a few
tile-sized scratch arrays, and leaves nothing chunk-sized behind in the
module.  Deterministic: ``tracemalloc`` counts numpy's allocations.
"""

import tracemalloc

import numpy as np

import repro.gf.vector as vector
from repro.cache import BoundedCache
from repro.gf.field import GF8

MB = 1 << 20
COEFFS = [3, 7, 11, 19, 29, 53]
ROWS = np.arange(1, 19).reshape(3, 6)


def _inputs(size):
    rng = np.random.default_rng(size)
    return [rng.integers(0, 256, size, dtype=np.uint8) for _ in range(6)]


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, BoundedCache):
        yield from _arrays(list(value._data.values()))
    elif isinstance(value, dict):
        yield from _arrays(list(value.values()))
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _arrays(item)


def _module_array_bytes():
    """Bytes held by arrays reachable from ``repro.gf.vector`` globals."""
    return sum(a.nbytes for v in vars(vector).values() for a in _arrays(v))


def _peak_beyond_output(call):
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - sum(a.nbytes for a in _arrays(result))


def test_scratch_is_bounded_and_nothing_chunk_sized_is_retained():
    small = _inputs(4096)
    vector.dot_rows(GF8, COEFFS, small)  # build and cache the tables
    vector.matrix_apply(GF8, ROWS, small)
    retained = _module_array_bytes()

    bufs = _inputs(8 * MB)
    assert _peak_beyond_output(lambda: vector.dot_rows(GF8, COEFFS, bufs)) < MB
    bufs = _inputs(4 * MB)
    assert _peak_beyond_output(lambda: vector.matrix_apply(GF8, ROWS, bufs)) < MB

    assert _module_array_bytes() == retained


def test_segment_dot_scratch_is_bounded_by_the_block_not_the_window():
    """256 stripes x 10 helpers just under the short-row threshold: 10 MiB
    of rows go through index and product scratch of one block."""
    size = vector._SHORT_ROW - 8
    rng = np.random.default_rng(0)
    rows = list(rng.integers(0, 256, (2560, size), dtype=np.uint8))
    coeffs = rng.integers(0, 256, len(rows))
    starts = [10 * stripe + first for stripe in range(256) for first in (0, 3, 7)]
    vector.segment_dot(GF8, coeffs[:10], rows[:10], [0])  # build the table
    retained = _module_array_bytes()
    peak = _peak_beyond_output(
        lambda: vector.segment_dot(GF8, coeffs, rows, starts)
    )
    assert peak < MB
    assert _module_array_bytes() == retained
