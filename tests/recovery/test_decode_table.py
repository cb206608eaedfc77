"""The decode table: one per code, columns keyed by (lost, helper set).

A :class:`~repro.erasure.code.DecodeTable` holds one sorted key array
and one coefficient matrix, published as one tuple and replaced whole.
These tests pin what that design promises: threads that miss the same
keys at once merge each key once; the table keeps its bound and counts
what it drops; a window whose keys all hit runs no Python step per
stripe or per key; a table lives exactly as long as its code; and a
window and ``code.repair_vector`` (a degraded read's one row) read the
same entries, whichever asks first and on whichever thread.
"""

import gc
import itertools
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.cluster.failure import FailureInjector
from repro.cluster.placement import RandomPlacementPolicy
from repro.cluster.state import ClusterState, DataStore
from repro.cluster.topology import ClusterTopology
from repro.erasure import code as code_module
from repro.erasure.code import DecodeTable
from repro.erasure.lrc import LRCCode
from repro.erasure.rs import RSCode
from repro.errors import ConfigurationError
from repro.experiments.configs import CFS1, CFS3, build_state
from repro.obs.metrics import cache_stats
from repro.recovery import streaming
from repro.recovery.baselines import CarStrategy
from repro.recovery.lrc import LrcLocalRecoveryStrategy
from repro.recovery.planner import plan_recovery_streaming
from repro.recovery.solution import NO_HELPER
from repro.recovery.streaming import compute_window, thread_stage, window_coefficients


def repairs(code, count, seed):
    """``count`` random (lost, helpers) rows of an MDS code, helpers sorted."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        lost = int(rng.integers(code.n))
        others = [c for c in range(code.n) if c != lost]
        helpers = rng.choice(others, code.k, replace=False).tolist()
        out.append((lost, tuple(sorted(helpers))))
    return out


def all_repairs(code):
    """Every (lost, helpers) row of an MDS code, in a fixed order."""
    return [
        (lost, helpers)
        for lost in range(code.n)
        for helpers in itertools.combinations(
            [c for c in range(code.n) if c != lost], code.k
        )
    ]


def keys_of(code, rows):
    return np.array(
        [(lost << code.n) | sum(1 << c for c in helpers) for lost, helpers in rows],
        dtype=np.int64,
    )


def assert_rows_are_repair_vectors(code, table, rows):
    """``table``'s rows of ``rows`` are the uncached solve's."""
    got = table.rows(code, keys_of(code, rows))
    for row, (lost, helpers) in zip(got, rows):
        expected = np.zeros(code.n, dtype=np.int64)
        expected[list(helpers)] = code.repair_vectors([lost], [list(helpers)])[0]
        assert row.tolist() == expected.tolist()


class CountingLock:
    """A lock that counts the times it is asked for; ``asked`` is set at
    the ``asks``-th."""

    def __init__(self, asks=2):
        self._lock = threading.Lock()
        self._asks = itertools.count(1)
        self.count = 0
        self.asks = asks
        self.asked = threading.Event()

    def __enter__(self):
        self.count = next(self._asks)
        if self.count == self.asks:
            self.asked.set()
        self._lock.acquire()

    def __exit__(self, *exc):
        self._lock.release()


class TestUnderThreads:
    def test_two_threads_missing_one_key_set_merge_it_once(self, monkeypatch):
        code = RSCode(6, 3)
        table = DecodeTable(code.n)
        lock = table._lock = CountingLock()
        rows = repairs(code, 60, seed=1)
        keys = keys_of(code, rows)
        distinct = len(set(rows))
        calls = []
        batched = RSCode.repair_vectors

        def slow_repair_vectors(self, lost, helpers):
            # Solve only once the second thread, having missed every key
            # itself, waits for the lock.
            assert lock.asked.wait(10)
            calls.append(len(lost))
            return batched(self, lost, helpers)

        monkeypatch.setattr(RSCode, "repair_vectors", slow_repair_vectors)
        start = threading.Barrier(2)
        got = [None, None]

        def look_up(i):
            start.wait()
            got[i] = table.rows(code, keys)

        threads = [threading.Thread(target=look_up, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert not any(t.is_alive() for t in threads)
        monkeypatch.undo()

        assert calls == [distinct]
        table_keys, _ = table.entries
        assert len(table_keys) == distinct
        assert (np.diff(table_keys) > 0).all()  # sorted, each key once
        assert (table.hits, table.misses) == (distinct, distinct)
        assert np.array_equal(got[0], got[1])
        assert_rows_are_repair_vectors(code, table, rows)


class TestBound:
    def test_a_code_too_wide_for_the_key_is_refused(self):
        # lost << n | helper_mask needs n + bit_length(n) bits of 63.
        fits, wide = RSCode(50, 7, w=16), RSCode(50, 8, w=16)
        assert (fits.n, wide.n) == (57, 58)
        helpers = list(range(1, 51))
        assert fits.repair_vector(0, helpers) == (
            fits.repair_vectors([0], [helpers])[0].tolist()
        )
        # The wide code builds, encodes and decodes ...
        data = np.arange(50 * 8, dtype=np.uint16).reshape(50, 8)
        stripe = wide.encode_stripe(list(data))
        decoded = wide.decode({i: stripe[i] for i in range(8, 58)})
        assert np.array_equal(np.array(decoded), data)
        # ... and its first table lookup refuses, naming n.
        with pytest.raises(ConfigurationError, match="n=58"):
            wide.repair_vector(0, helpers)
        assert len(wide.decode_table) == 0

    def test_never_past_the_bound_and_counts_evictions(self):
        code = RSCode(12, 4)
        rows = all_repairs(code)
        assert len(rows) > DecodeTable.maxsize + 3000
        table = DecodeTable(code.n)
        hot = rows[:10]  # looked up by every window, so never evicted
        for lo in range(10, len(rows), 1000):
            window = hot + rows[lo : lo + 1000]
            table.rows(code, keys_of(code, window))
            assert len(table) <= table.maxsize
            assert set(keys_of(code, window).tolist()) <= set(table.entries[0].tolist())
        assert len(table) == table.maxsize == 4096
        assert table.evictions == len(rows) - table.maxsize
        assert table.misses == len(rows)
        assert cache_stats()["exec.repair_groups"]["evictions"] >= table.evictions
        assert_rows_are_repair_vectors(code, table, hot + rows[-50:])

    def test_a_window_wider_than_the_bound_decodes(self):
        code = RSCode(12, 4)
        rows = all_repairs(code)[:5000]
        table = DecodeTable(code.n)
        got = table.rows(code, keys_of(code, rows))
        assert len(table) == table.maxsize
        assert table.evictions == len(rows) - table.maxsize
        for row, (lost, helpers) in zip(got[::97], rows[::97]):
            expected = code.repair_vectors([lost], [list(helpers)])[0]
            assert row[list(helpers)].tolist() == expected.tolist()


#: Where stage A and its decode table run.
TRACED = {streaming.__file__, code_module.__file__}


def line_events(fn, *args, **kwargs):
    """Lines run in stage A's module and the code's while ``fn`` runs."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        if frame.f_code.co_filename not in TRACED:
            return None
        if event == "line":
            count += 1
        return tracer

    sys.settrace(tracer)
    try:
        fn(*args, **kwargs)
    finally:
        sys.settrace(None)
    return count


class TestHitsRunNoLoop:
    def test_a_table_hit_runs_no_python_step_per_key(self, monkeypatch):
        code = RSCode(10, 4)
        table = DecodeTable(code.n)
        rows = repairs(code, 3000, seed=2)
        table.rows(code, keys_of(code, rows))
        lock = table._lock = CountingLock()
        calls = []
        monkeypatch.setattr(
            RSCode, "repair_vectors", lambda *a: calls.append(a) or None
        )
        lines = []
        for size in (5, 500, 3000):
            before = lock.count
            lines.append(line_events(table.rows, code, keys_of(code, rows[:size])))
            assert lock.count - before == 1
        assert calls == []
        assert len(set(lines)) == 1, lines

    def test_a_warm_window_runs_no_python_step_per_stripe(self, monkeypatch):
        state = build_state(CFS3, 0, with_data=True, chunk_size=64, num_stripes=600)
        event = FailureInjector(rng=0).fail_random_node(state)
        solution = CarStrategy().solve(state)
        small, large = (
            next(plan_recovery_streaming(state, event, solution).iter_windows(size))
            for size in (3, 200)
        )
        code = state.code
        for win in (small, large):
            compute_window(code, state.data, win)  # warm
        table = code.decode_table
        calls = []
        monkeypatch.setattr(
            RSCode, "repair_vectors", lambda *a: calls.append(a) or None
        )
        misses = table.misses
        counts = [
            line_events(compute_window, code, state.data, win)
            for win in (small, large)
        ]
        assert calls == [] and table.misses == misses
        assert counts[0] == counts[1]


class TestLifetime:
    def test_a_code_and_its_table_are_freed_together(self):
        code = LRCCode(6, 2, 2)
        topology = ClusterTopology.from_rack_sizes([4, 3, 3, 3])
        placement = RandomPlacementPolicy(rng=3).place(
            topology, 12, code.k, code.n - code.k
        )
        state = ClusterState(
            topology, code, placement, DataStore(code, 12, chunk_size=64, seed=3)
        )
        event = FailureInjector(rng=3).fail_random_node(state)
        plan = plan_recovery_streaming(
            state, event, LrcLocalRecoveryStrategy().solve(state)
        )
        for win in plan.iter_windows(5):
            assert all(compute_window(code, state.data, win).ok)
        table = code.decode_table
        assert len(table)
        refs = weakref.ref(code), weakref.ref(table)
        del code, table, state, event, plan, win, placement
        gc.collect()
        assert [ref() for ref in refs] == [None, None]


def one_stripe_window(seed):
    """A CFS1 failure's first window of one stripe, on a fresh code: the
    state, the window, and the stripe's lost chunk and helpers in the
    window's decode order."""
    state = build_state(CFS1, seed, with_data=True, chunk_size=64, num_stripes=8)
    event = FailureInjector(rng=seed).fail_random_node(state)
    plan = plan_recovery_streaming(state, event, CarStrategy().solve(state))
    win = next(plan.iter_windows(1))
    helpers = [c for c in win.chunk[0].tolist() if c != NO_HELPER]
    return state, win, int(win.lost_chunk[0]), helpers


def count_solves(monkeypatch):
    """Replace ``RSCode.repair_vectors`` by one that records its calls."""
    calls = []
    monkeypatch.setattr(RSCode, "repair_vectors", lambda *a: calls.append(a))
    return calls


class TestOneTableForWindowsAndRows:
    def test_a_window_decode_warms_repair_vector(self, monkeypatch):
        state, win, lost, helpers = one_stripe_window(0)
        code, table = state.code, state.code.decode_table
        expected = code.repair_vectors([lost], [helpers])[0].tolist()
        assert compute_window(code, state.data, win).ok == [True]
        assert (table.hits, table.misses) == (0, 1)
        calls = count_solves(monkeypatch)
        assert code.repair_vector(lost, helpers) == expected
        # One entry, read in the order asked for.
        assert code.repair_vector(lost, helpers[::-1]) == expected[::-1]
        assert calls == [] and (table.hits, table.misses) == (2, 1)

    def test_repair_vector_warms_the_window_that_needs_it(self, monkeypatch):
        state, win, lost, helpers = one_stripe_window(1)
        code, table = state.code, state.code.decode_table
        y = code.repair_vector(lost, helpers)
        assert (table.hits, table.misses) == (0, 1)
        calls = count_solves(monkeypatch)
        assert compute_window(code, state.data, win).ok == [True]
        used = win.chunk[0] != NO_HELPER
        assert window_coefficients(code, win)[0][used].tolist() == y
        assert calls == [] and (table.hits, table.misses) == (2, 1)

    def test_a_read_and_two_stage_a_threads_missing_one_key_solve_it_once(
        self, monkeypatch
    ):
        state, win, lost, helpers = one_stripe_window(2)
        code, table = state.code, state.code.decode_table
        expected = code.repair_vectors([lost], [helpers])[0].tolist()
        lock = table._lock = CountingLock(asks=3)
        calls = []
        batched = RSCode.repair_vectors

        def slow_repair_vectors(self, lost, helpers):
            # Solve only once all three lookups have missed the key and
            # asked for the lock.
            assert lock.asked.wait(10)
            calls.append(len(lost))
            return batched(self, lost, helpers)

        monkeypatch.setattr(RSCode, "repair_vectors", slow_repair_vectors)
        with thread_stage(code, state.data, keep_partials=False, workers=2) as submit:
            futures = [submit(win) for _ in range(2)]
            y = code.repair_vector(lost, helpers)
            outcomes = [future.result(30) for future in futures]
        monkeypatch.undo()

        assert calls == [1]
        assert lock.count == 3
        assert (table.hits, table.misses, len(table)) == (2, 1, 1)
        assert sorted(outcome.thread for outcome in outcomes) == [0, 1]
        assert [outcome.ok for outcome in outcomes] == [[True], [True]]
        assert y == expected
