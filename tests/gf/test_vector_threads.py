"""The batched GF kernels are re-entrant.

The service runs them on two threads at once (a degraded read's partial
decode on the coordinator's event loop while the repair thread computes
a window), so two threads hammering ``dot_rows`` / ``batch_dot`` on
distinct inputs must each get exactly their single-threaded result.
"""

import sys
import threading
import time
from collections import Counter, OrderedDict

import numpy as np
import pytest

from repro.cache import BoundedCache
from repro.gf import vector
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


def test_cache_counts_every_lookup_under_contention():
    """Stage-A threads share the repair and table caches: no hit or miss
    is lost to a race, and the bound holds throughout."""
    cache = BoundedCache(maxsize=8)
    threads, lookups, keys = 4, 5000, 24
    oversize = []

    def worker(seed):
        for i in range(lookups):
            cache.get_or_build((seed * 7 + i) % keys, lambda: i)
            if len(cache) > cache.maxsize:
                oversize.append(len(cache))

    pool = [threading.Thread(target=worker, args=(t,)) for t in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(JOIN_TIMEOUT_S)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in pool)
    assert cache.hits + cache.misses == threads * lookups
    assert cache.evictions <= cache.misses - len(cache)
    assert len(cache) <= cache.maxsize and not oversize


def test_no_key_is_built_by_two_threads_at_once():
    """A thread that misses a key another thread is building waits for
    that build and counts a hit, so every miss is exactly one build."""
    cache = BoundedCache(maxsize=8)
    threads, lookups, keys = 4, 2000, 24
    guard = threading.Lock()
    in_flight, builds, overlaps = Counter(), Counter(), []

    def builder(key):
        with guard:
            in_flight[key] += 1
            builds[key] += 1
            if in_flight[key] > 1:
                overlaps.append(key)
        time.sleep(0)  # let another thread miss the key meanwhile
        with guard:
            in_flight[key] -= 1
        return key

    def worker(seed):
        for i in range(lookups):
            key = (seed * 7 + i) % keys
            assert cache.get_or_build(key, lambda: builder(key)) == key

    pool = [threading.Thread(target=worker, args=(t,)) for t in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(JOIN_TIMEOUT_S)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in pool)
    assert not overlaps
    assert cache.misses == sum(builds.values())
    assert cache.hits + cache.misses == threads * lookups


def _wait_on_a_blocked_build(cache, first_builder):
    """Start a build of ``"key"`` that blocks, then look the key up from a
    second thread; returns what each thread got once the first build is
    let go, and the second thread's build count."""
    started, release = threading.Event(), threading.Event()
    results, second_builds = {}, []

    def first():
        try:
            results["first"] = cache.get_or_build(
                "key", first_builder(started, release)
            )
        except RuntimeError as exc:
            results["first"] = exc

    def second():
        def build():
            second_builds.append(1)
            return "second"

        results["second"] = cache.get_or_build("key", build)

    pool = [threading.Thread(target=first, daemon=True)]
    try:
        pool[0].start()
        assert started.wait(JOIN_TIMEOUT_S)
        pool.append(threading.Thread(target=second, daemon=True))
        pool[1].start()
        time.sleep(0.05)  # the second lookup now waits on the first build
    finally:
        release.set()
    for thread in pool:
        thread.join(JOIN_TIMEOUT_S)
    assert not any(thread.is_alive() for thread in pool)
    return results, len(second_builds)


def test_a_waiter_gets_the_build_it_waited_for():
    def blocked(started, release):
        def build():
            started.set()
            release.wait()
            return "first"

        return build

    cache = BoundedCache(maxsize=2)
    results, second_builds = _wait_on_a_blocked_build(cache, blocked)
    assert results == {"first": "first", "second": "first"}
    assert second_builds == 0
    assert (cache.misses, cache.hits) == (1, 1)


def test_a_failed_build_caches_nothing_and_a_waiter_builds_anew():
    def failing(started, release):
        def build():
            started.set()
            release.wait()
            raise RuntimeError("builder failed")

        return build

    cache = BoundedCache(maxsize=2)
    results, second_builds = _wait_on_a_blocked_build(cache, failing)
    assert isinstance(results["first"], RuntimeError)
    assert results["second"] == "second" and second_builds == 1
    assert cache.get("key") == "second"

    lone, released = BoundedCache(maxsize=2), threading.Event()
    released.set()
    with pytest.raises(RuntimeError):
        lone.get_or_build("key", failing(threading.Event(), released))
    assert "key" not in lone and lone.misses == 1


#: How long the first table build waits for the other threads to miss
#: its key; a lookup that waits on that build never arrives.
GATE_S = 1.0


def _packed_route():
    rows = np.random.default_rng(3).integers(1, 256, (4, 10))
    bufs = _inputs(GF8, 10, 3)
    return (
        "_PACKED_TABLE_CACHE",
        lambda: batch_dot(GF8, rows, bufs),
        len({tuple(column) for column in rows.T.tolist()}),
    )


def _product_route():
    return "_PRODUCT_TABLE_CACHE", _window_kernel(4), 1


@pytest.mark.parametrize(
    "route", [_packed_route, _product_route], ids=["packed", "product"]
)
def test_a_table_missed_by_every_thread_is_built_once(monkeypatch, route):
    """Threads racing one kernel call build each table once: the first
    build blocks until every thread has missed its key (or the gate's
    timeout), and the cache still counts one miss per distinct key."""
    name, kernel, keys = route()
    reference = kernel()
    cache = BoundedCache(maxsize=1024)
    monkeypatch.setattr(vector, name, cache)
    threads = 4
    arrived, guard, gate = set(), threading.Lock(), threading.Event()
    mul_table = vector._mul_table

    def gated(field, c):
        with guard:
            arrived.add(threading.get_ident())
            if len(arrived) == threads:
                gate.set()
        gate.wait(GATE_S)
        gate.set()  # one wait opens the gate for every later build
        return mul_table(field, c)

    monkeypatch.setattr(vector, "_mul_table", gated)
    results, errors = [None] * threads, []

    def worker(slot):
        try:
            results[slot] = kernel()
        except Exception as exc:  # surfaced through the assertion below
            errors.append(exc)

    pool = [threading.Thread(target=worker, args=(t,)) for t in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join(JOIN_TIMEOUT_S)
    assert not any(thread.is_alive() for thread in pool)
    assert not errors
    assert all(np.array_equal(got, reference) for got in results)
    assert cache.misses == keys
