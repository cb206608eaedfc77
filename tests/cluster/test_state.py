"""Tests for cluster state, data store, and stripe views."""

import functools
import os
import pickle
import threading
import tracemalloc

import numpy as np
import pytest

from repro.cluster.filestore import FileStore
from repro.cluster.placement import RandomPlacementPolicy
from repro.cluster.state import BLOCK_BYTES, ClusterState, DataStore
from repro.cluster.topology import ClusterTopology
from repro.erasure.lrc import LRCCode
from repro.erasure.rs import RSCode
from repro.experiments.configs import CFS1, CFS2, CFS3
from repro.gf.field import gf
from repro.gf.vector import buffer_dtype
from repro.errors import (
    NoFailureError,
    PlacementError,
    UnknownChunkError,
    UnknownNodeError,
)


class TestDataStore:
    def test_stripes_are_consistent(self, rs63):
        store = DataStore(rs63, 3, chunk_size=256, seed=1)
        for s in range(3):
            chunks = {i: store.chunk(s, i) for i in range(rs63.n)}
            # Any k chunks decode back to the stored data chunks.
            decoded = rs63.decode({i: chunks[i] for i in range(3, 9)})
            for i, buf in enumerate(decoded):
                assert np.array_equal(buf, chunks[i])

    def test_deterministic_by_seed(self, rs63):
        a = DataStore(rs63, 1, 64, seed=9)
        b = DataStore(rs63, 1, 64, seed=9)
        assert np.array_equal(a.chunk(0, 0), b.chunk(0, 0))

    def test_unknown_chunk(self, rs63):
        store = DataStore(rs63, 1, 64)
        with pytest.raises(UnknownChunkError):
            store.chunk(5, 0)

    def test_matches(self, rs63):
        store = DataStore(rs63, 1, 64)
        assert store.matches(0, 0, store.chunk(0, 0))
        assert not store.matches(0, 0, store.chunk(0, 1))

    def test_gf16_chunks(self):
        code = RSCode(3, 2, w=16)
        store = DataStore(code, 1, chunk_size=64)
        assert store.chunk(0, 0).dtype == np.uint16
        assert store.chunk(0, 0).nbytes == 64


def dict_store(code, num_stripes, chunk_size, seed):
    """The bytes as the store built them when it was a ``(stripe, chunk)
    -> buffer`` dict: k draws per stripe, then ``encode_stripe``."""
    dtype = buffer_dtype(gf(code.w))
    rng = np.random.default_rng(seed)
    high = int(np.iinfo(dtype).max) + 1
    elements = chunk_size if dtype == np.uint8 else chunk_size // 2
    chunks = {}
    for stripe in range(num_stripes):
        data = [
            rng.integers(0, high, elements, dtype=dtype) for _ in range(code.k)
        ]
        for idx, buf in enumerate(code.encode_stripe(data)):
            chunks[(stripe, idx)] = buf
    return chunks


def assert_same_bytes(store, chunks):
    assert store.num_stripes * store.code.n == len(chunks)
    for (stripe, idx), buf in chunks.items():
        got = store.chunk(stripe, idx)
        assert got.dtype == buf.dtype
        assert got.tobytes() == buf.tobytes()


class TestStoreBytes:
    """The array store holds, byte for byte, what the dict store held."""

    @pytest.mark.parametrize("chunk_size", [64, 66])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("config", [CFS1, CFS2, CFS3], ids=lambda c: c.name)
    def test_cfs_stores(self, config, seed, chunk_size):
        code = config.code()
        store = DataStore(code, 12, chunk_size, seed=seed)
        assert_same_bytes(store, dict_store(code, 12, chunk_size, seed))

    @pytest.mark.parametrize("chunk_size", [64, 66])
    def test_gf16_store(self, chunk_size):
        code = RSCode(6, 3, w=16)
        store = DataStore(code, 5, chunk_size, seed=4)
        assert_same_bytes(store, dict_store(code, 5, chunk_size, 4))

    @pytest.mark.parametrize("w", [8, 16])
    def test_large_chunks(self, w):
        code = RSCode(6, 3, w=w)
        store = DataStore(code, 2, (1 << 16) + 4, seed=6)
        assert_same_bytes(store, dict_store(code, 2, (1 << 16) + 4, 6))

    @pytest.mark.parametrize(
        "chunk_size", [*range(1, 10), 12, 14, 256, 1030, 4102]
    )
    @pytest.mark.parametrize("w", [8, 16])
    def test_word_draws_keep_the_element_draws(self, w, chunk_size):
        """Data chunks drawn as 32-bit words hold the bytes the
        per-element draw gave, whatever the chunk's length mod 4."""
        code = RSCode(3, 2, w=w)
        store = DataStore(code, 4, chunk_size, seed=chunk_size)
        assert_same_bytes(store, dict_store(code, 4, chunk_size, chunk_size))

    def test_lrc_store(self):
        code = LRCCode(6, 2, 2)
        store = DataStore(code, 5, 64, seed=8)
        assert_same_bytes(store, dict_store(code, 5, 64, 8))

    def test_filestore_grown_by_add_stripe(self):
        code = RSCode(6, 3)
        topology = ClusterTopology.from_rack_sizes([4, 3, 3, 3])
        files = FileStore(topology, code, chunk_size=32, rng=3)
        rng = np.random.default_rng(5)
        payloads = [rng.bytes(size) for size in (1, 500, 191, 192, 1000)]
        chunks, stripe = {}, 0
        for i, payload in enumerate(payloads):
            files.write(f"f{i}", payload)
            per_stripe = code.k * 32
            padded = payload + b"\0" * (-len(payload) % per_stripe)
            for offset in range(0, len(padded), per_stripe):
                data = [
                    np.frombuffer(
                        padded[offset + j * 32 : offset + (j + 1) * 32],
                        dtype=np.uint8,
                    ).copy()
                    for j in range(code.k)
                ]
                for idx, buf in enumerate(code.encode_stripe(data)):
                    chunks[(stripe, idx)] = buf
                stripe += 1
        assert_same_bytes(files.cluster_state().data, chunks)
        for i, payload in enumerate(payloads):
            assert files.read(f"f{i}") == payload


@functools.lru_cache(maxsize=1)
def cached_dict_store(w, num_stripes, chunk_size, seed):
    """:func:`dict_store` of an RS(10, 4) store, kept while consecutive
    cases share it."""
    return dict_store(RSCode(10, 4, w=w), num_stripes, chunk_size, seed)


def build_scratch(monkeypatch, cpus, code, stripes, chunk_size):
    """Peak traced memory of a store build on ``cpus`` beyond the store
    itself, the kernel's tables already built."""
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: set(cpus), raising=False
    )
    DataStore(code, 2, chunk_size)
    tracemalloc.start()
    try:
        store = DataStore(code, stripes, chunk_size, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert store.rows().nbytes > 16 * BLOCK_BYTES
    return peak - store.rows().nbytes


def block_stripes(code, chunk_size):
    """Stripes per block of the store build at this chunk size."""
    words = -(-chunk_size // 4)
    return max(1, BLOCK_BYTES // (code.k * words * 4))


class TestBlockBuild:
    """The store is drawn and encoded a block of stripes at a time, on
    the usable CPUs' threads; its bytes do not depend on either."""

    #: CFS3-shaped stores of several blocks with a ragged last block.
    SHAPES = [(66, 1700), (256, 700), (1030, 725)]

    @pytest.mark.parametrize("cpus", [{0}, {0, 1, 2}], ids=len)
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}B")
    @pytest.mark.parametrize("w", [8, 16])
    def test_multi_block_stores_keep_their_bytes(self, monkeypatch, w, shape, cpus):
        chunk_size, stripes = shape
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(cpus), raising=False
        )
        code = RSCode(10, 4, w=w)
        per_block = block_stripes(code, chunk_size)
        assert stripes > 2 * per_block and stripes % per_block
        store = DataStore(code, stripes, chunk_size, seed=5)
        assert_same_bytes(store, cached_dict_store(w, stripes, chunk_size, 5))

    @pytest.mark.parametrize("chunk_size", [(200 << 10) + 2, 1 << 20])
    @pytest.mark.parametrize("w", [8, 16])
    def test_a_stripe_larger_than_a_block_keeps_its_bytes(self, w, chunk_size):
        """A stripe over :data:`BLOCK_BYTES` is drawn a few chunks per
        call (two, then one, here) and holds the per-chunk draw's bytes."""
        code = RSCode(6, 3, w=w)
        assert code.k * chunk_size > BLOCK_BYTES
        store = DataStore(code, 2, chunk_size, seed=3)
        assert_same_bytes(store, dict_store(code, 2, chunk_size, 3))

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=len)
    def test_the_build_holds_a_few_blocks_per_thread(self, monkeypatch, cpus):
        """Peak traced memory is the store plus a few blocks of scratch
        per encode thread, not a second copy of the store."""
        scratch = build_scratch(monkeypatch, cpus, CFS3.code(), 725, 1030)
        assert scratch < (2 + 4 * len(cpus)) * BLOCK_BYTES

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=len)
    def test_a_stripe_over_a_block_holds_a_few_chunks_per_thread(
        self, monkeypatch, cpus
    ):
        """Where one stripe's data is larger than a block, the scratch
        is a few chunks per encode thread, not a few stripes."""
        chunk_size = 1 << 20
        scratch = build_scratch(monkeypatch, cpus, RSCode(6, 3), 3, chunk_size)
        assert scratch < (2 + 4 * len(cpus)) * chunk_size

    def test_an_empty_store_starts_no_thread(self, monkeypatch, rs63):
        def refuse(thread):
            raise AssertionError(f"started {thread}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert DataStore.empty(rs63, 64).num_stripes == 0
        assert DataStore(rs63, 0, 64).rows().shape == (0, 64)


class TestStoreArray:
    def test_readers_get_read_only_views(self, rs63):
        store = DataStore(rs63, 3, 64, seed=1)
        with pytest.raises(ValueError):
            store.chunk(1, 2)[0] = 7
        with pytest.raises(ValueError):
            store.rows()[0, 0] = 7
        assert store.rows().shape == (3 * rs63.n, 64)
        assert np.shares_memory(store.chunk(1, 2), store.rows())

    def test_rows_are_indexed_by_row_ids(self, rs63):
        store = DataStore(rs63, 3, 64, seed=1)
        ids = store.row_ids([0, 2, 1], [8, 0, 3])
        assert ids.tolist() == [8, 2 * rs63.n, rs63.n + 3]
        for row, (stripe, idx) in zip(ids, [(0, 8), (2, 0), (1, 3)]):
            assert np.array_equal(store.rows()[row], store.chunk(stripe, idx))

    @pytest.mark.parametrize(
        "pair", [(3, 0), (-1, 0), (0, 9), (0, -1)], ids=str
    )
    def test_row_ids_name_the_first_unknown_chunk(self, rs63, pair):
        store = DataStore(rs63, 3, 64)
        with pytest.raises(UnknownChunkError) as info:
            store.row_ids([1, pair[0], 5], [1, pair[1], 99])
        assert info.value.args[0] == pair
        with pytest.raises(UnknownChunkError):
            store.chunk(*pair)

    def test_corrupt_flips_in_place_and_returns_the_original(self, rs63):
        store = DataStore(rs63, 2, 64, seed=3)
        before = store.chunk(1, 4)
        pristine = before.copy()
        original = store.corrupt(1, 4, seed=2)
        assert np.array_equal(original, pristine)
        assert not np.shares_memory(original, store.rows())
        # The view taken before the call sees the flip.
        assert (before != pristine).sum() == 1
        assert np.array_equal(before, store.chunk(1, 4))

    def test_overwrite_writes_into_the_array(self, rs63):
        store = DataStore(rs63, 2, 64, seed=3)
        before = store.chunk(0, 0)
        store.overwrite(0, 0, np.arange(64, dtype=np.uint8))
        assert np.array_equal(before, np.arange(64))

    def test_add_stripe_grows_and_keeps_what_it_held(self, rs63):
        store = DataStore.empty(rs63, 16)
        rng = np.random.default_rng(0)
        stripes = [
            list(rng.integers(0, 256, (rs63.n, 16), dtype=np.uint8))
            for _ in range(9)
        ]
        for sid, chunks in enumerate(stripes):
            store.add_stripe(sid, chunks)
        assert store.num_stripes == 9
        assert store.rows().shape == (9 * rs63.n, 16)
        for sid, chunks in enumerate(stripes):
            for idx, buf in enumerate(chunks):
                assert np.array_equal(store.chunk(sid, idx), buf)
        with pytest.raises(UnknownChunkError):
            store.add_stripe(10, stripes[0])
        with pytest.raises(UnknownChunkError):  # another dtype
            store.add_stripe(9, [b.astype(np.uint16) for b in stripes[0]])

    def test_pickles_as_one_array(self, rs63):
        store = DataStore(rs63, 3, 64, seed=1)
        copy = pickle.loads(pickle.dumps(store))
        assert np.array_equal(copy.rows(), store.rows())
        assert copy.chunk_size == store.chunk_size
        assert copy.code == store.code


class TestStateConstruction:
    def test_mismatched_code_rejected(self, small_topology):
        code = RSCode(6, 3)
        placement = RandomPlacementPolicy(rng=0).place(small_topology, 2, 4, 3)
        with pytest.raises(PlacementError):
            ClusterState(small_topology, code, placement)

    def test_mismatched_topology_rejected(self, rs63, small_topology):
        other = ClusterTopology.from_rack_sizes([4, 3, 3, 3])
        placement = RandomPlacementPolicy(rng=0).place(other, 2, 6, 3)
        with pytest.raises(PlacementError):
            ClusterState(small_topology, rs63, placement)

    def test_short_data_store_rejected(self, rs63, small_topology):
        placement = RandomPlacementPolicy(rng=0).place(small_topology, 5, 6, 3)
        data = DataStore(rs63, 2, 64)
        with pytest.raises(PlacementError):
            ClusterState(small_topology, rs63, placement, data)


class TestFailures:
    def test_fail_node_reports_lost_chunks(self, small_state):
        node = small_state.placement.node_of(0, 0)
        event = small_state.fail_node(node)
        assert event.failed_node == node
        assert (0, 0) in event.lost_chunks
        assert event.replacement_node == node
        assert event.failed_rack == small_state.topology.rack_of(node)

    def test_one_stripe_loses_at_most_one_chunk(self, small_state):
        event = small_state.fail_node(0)
        assert len(set(event.stripes)) == len(event.stripes)

    def test_double_failure_rejected(self, small_state):
        small_state.fail_node(0)
        with pytest.raises(NoFailureError):
            small_state.fail_node(1)

    def test_refailing_same_node_is_idempotent(self, small_state):
        a = small_state.fail_node(0)
        b = small_state.fail_node(0)
        assert a.lost_chunks == b.lost_chunks

    def test_heal_allows_new_failure(self, small_state):
        small_state.fail_node(0)
        small_state.heal()
        small_state.fail_node(1)

    def test_unknown_node_rejected(self, small_state):
        with pytest.raises(UnknownNodeError):
            small_state.fail_node(999)


class TestFailureColumnsRows:
    def test_one_row_is_the_full_failure_row(self, failed_state):
        full = failed_state.failure_columns(dead_nodes={5})
        for i, stripe in enumerate(full.stripe_id.tolist()):
            one = failed_state.failure_columns(dead_nodes={5}, stripes=[stripe])
            assert one.stripe_id.tolist() == [stripe]
            for name in ("lost_chunk", "chunk_rack", "alive", "counts"):
                assert np.array_equal(
                    getattr(one, name), getattr(full, name)[[i]]
                ), name

    @pytest.mark.parametrize("stripe", [-1, 20, 10**6])
    def test_unplaced_stripe_rejected(self, failed_state, stripe):
        with pytest.raises(UnknownChunkError, match=f"stripe {stripe}"):
            failed_state.failure_columns(stripes=[stripe])
        # A KeyError too, as a missing placement always was.
        with pytest.raises(KeyError):
            failed_state.placement.stripe_layout(stripe)

    def test_duplicate_stripe_rejected(self, failed_state):
        stripe = failed_state.affected_stripes()[0]
        with pytest.raises(UnknownChunkError, match="requested twice"):
            failed_state.failure_columns(stripes=[stripe, stripe])

    def test_unaffected_stripe_rejected(self, failed_state):
        affected = set(failed_state.affected_stripes())
        spare = next(s for s in range(20) if s not in affected)
        with pytest.raises(UnknownChunkError, match="has no chunk on node"):
            failed_state.failure_columns(stripes=[spare])


class TestStripeView:
    def test_requires_failure(self, small_state):
        with pytest.raises(NoFailureError):
            small_state.stripe_view(0)
        with pytest.raises(NoFailureError):
            small_state.affected_stripes()

    def test_view_consistency(self, failed_state):
        for view in failed_state.views():
            # rack_counts is the survivors-per-rack histogram.
            assert sum(view.rack_counts) == failed_state.code.n - 1
            assert view.lost_chunk not in view.surviving
            assert len(view.surviving) == failed_state.code.n - 1
            assert view.failed_rack == failed_state.topology.rack_of(
                failed_state.failed_node
            )

    def test_unaffected_stripe_rejected(self, small_state):
        small_state.fail_node(0)
        unaffected = [
            s
            for s in range(small_state.placement.num_stripes)
            if s not in small_state.affected_stripes()
        ]
        if unaffected:  # layout-dependent; usually non-empty
            with pytest.raises(UnknownChunkError):
                small_state.stripe_view(unaffected[0])

    def test_chunks_in_rack(self, failed_state):
        """A row's alive chunks per rack are its counts, and each sits
        on a node of that rack."""
        failure = failed_state.failure_columns()
        topo = failed_state.topology
        stripe = int(failure.stripe_id[0])
        for rack in range(topo.num_racks):
            chunks = [
                c for c in range(failed_state.code.n)
                if failure.alive[0, c] and failure.chunk_rack[0, c] == rack
            ]
            assert len(chunks) == failure.counts[0, rack]
            for c in chunks:
                node = failed_state.placement.node_of(stripe, c)
                assert topo.rack_of(node) == rack

    def test_failed_rack_counts_exclude_lost_chunk(self, rs63):
        """c'_{f,j} = c_{f,j} - 1 when the failed node held a chunk (Eq. 1)."""
        topo = ClusterTopology.from_rack_sizes([4, 3, 3, 3])
        placement = RandomPlacementPolicy(rng=0).place(topo, 10, 6, 3)
        state = ClusterState(topo, rs63, placement)
        node = placement.node_of(0, 0)
        state.fail_node(node)
        view = state.stripe_view(0)
        f = topo.rack_of(node)
        assert view.rack_counts[f] == placement.rack_chunk_count(f, 0) - 1
