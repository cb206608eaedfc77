"""The batched GF kernels are re-entrant.

The service runs them on two threads at once (a degraded read's partial
decode on the coordinator's event loop while the repair thread computes
a window), so two threads hammering ``dot_rows`` / ``batch_dot`` on
distinct inputs must each get exactly their single-threaded result.
"""

import sys
import threading
from collections import OrderedDict

import numpy as np
import pytest

from repro.cache import BoundedCache
from repro.gf.field import GF8, GF16
from repro.gf.vector import batch_dot, buffer_dtype, dot_rows, segment_dot

CALLS = 200
CHUNK_BYTES = 1 << 20
JOIN_TIMEOUT_S = 120.0


def _inputs(field, n, seed):
    dtype = buffer_dtype(field)
    rng = np.random.default_rng(seed)
    length = CHUNK_BYTES // dtype.itemsize
    return [rng.integers(0, field.order, length, dtype=dtype) for _ in range(n)]


def _kernel(field, r, seed):
    """A zero-argument kernel call on inputs private to one thread."""
    bufs = _inputs(field, 4, seed)
    rows = np.random.default_rng(seed).integers(1, field.order, (r, 4))
    if r == 1:
        coeffs = [int(c) for c in rows[0]]
        return lambda: dot_rows(field, coeffs, bufs)
    return lambda: batch_dot(field, rows, bufs)


def _window_kernel(seed):
    """A ``segment_dot`` call over a window of short rows (the full
    product table route), private to one thread."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 256, (640, 256), dtype=np.uint8)
    coeffs = rng.integers(0, 256, len(rows))
    starts = np.arange(0, len(rows), 3)
    return lambda: np.stack(segment_dot(GF8, coeffs, rows, starts))


@pytest.mark.parametrize("field", [GF8, GF16], ids=["w8", "w16"])
@pytest.mark.parametrize("r", [1, 3])
def test_two_threads_get_their_own_bytes(field, r):
    _assert_threads_agree([_kernel(field, r, seed) for seed in (1, 2)])


def test_two_threads_in_segment_dot():
    _assert_threads_agree([_window_kernel(seed) for seed in (1, 2)])


def _assert_threads_agree(kernels):
    references = [kernel() for kernel in kernels]
    mismatches = [0, 0]
    errors = []

    def worker(slot):
        try:
            for _ in range(CALLS):
                if not np.array_equal(kernels[slot](), references[slot]):
                    mismatches[slot] += 1
        except Exception as exc:  # surfaced through the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(slot,)) for slot in (0, 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(JOIN_TIMEOUT_S)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert mismatches == [0, 0]


def test_cache_hit_survives_a_concurrent_eviction():
    """The kernels share table caches across threads: an entry another
    thread evicts between a lookup and its recency update is still a hit."""
    class EvictedAfterLookup(OrderedDict):
        def get(self, key, default=None):
            value = super().get(key, default)
            self.pop(key, None)  # what another thread's put() may do here
            return value

    cache = BoundedCache(maxsize=2)
    cache._data = EvictedAfterLookup(table="value")
    assert cache.get("table") == "value"
    cache._data["table"] = "value"
    assert cache.get_or_build("table", lambda: "rebuilt") == "value"
