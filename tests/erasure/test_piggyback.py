"""Tests for the piggybacked RS code (structure, errors, pickling).

Byte-identity and bound-compliance properties live in
``tests/analysis/test_regen_bounds.py``; this file covers the
structural API — group partitioning, source lists, validation and
error paths, and the ``__reduce__`` pickle round trip.
"""

import pickle

import numpy as np
import pytest

from repro.erasure.piggyback import PiggybackRSCode, balanced_groups
from repro.errors import (
    CodingError,
    InsufficientChunksError,
    InvalidCodeParametersError,
)


def _halves(k, size=32, seed=0):
    rng = np.random.default_rng(seed)
    make = lambda: rng.integers(0, 256, size, dtype=np.uint8)
    return [make() for _ in range(k)], [make() for _ in range(k)]


class TestBalancedGroups:
    def test_partition_covers_all_indices(self):
        groups = balanced_groups(10, 4)
        assert sorted(i for g in groups for i in g) == list(range(10))
        assert len(groups) == 3

    def test_sizes_differ_by_at_most_one(self):
        for k, m in [(10, 4), (6, 3), (4, 3), (7, 4)]:
            sizes = [len(g) for g in balanced_groups(k, m)]
            assert max(sizes) - min(sizes) <= 1

    def test_larger_groups_come_first(self):
        sizes = [len(g) for g in balanced_groups(7, 4)]
        assert sizes == sorted(sizes, reverse=True)

    def test_m_too_small(self):
        with pytest.raises(InvalidCodeParametersError):
            balanced_groups(4, 1)

    def test_k_smaller_than_group_count(self):
        with pytest.raises(InvalidCodeParametersError):
            balanced_groups(2, 4)


class TestStructure:
    @pytest.fixture(scope="class")
    def code(self):
        return PiggybackRSCode(6, 3)

    def test_group_of_consistent_with_groups(self, code):
        for g, members in enumerate(code.groups):
            for i in members:
                assert code.group_of(i) == g

    def test_group_of_out_of_range(self, code):
        with pytest.raises(CodingError):
            code.group_of(code.k)

    def test_piggy_parity_index_skips_clean_parity(self, code):
        # Parity k is clean; group t's piggyback lives at k + 1 + t.
        assert code.piggy_parity_index(0) == code.k + 1
        with pytest.raises(CodingError):
            code.piggy_parity_index(len(code.groups))

    def test_is_data(self, code):
        assert code.is_data(0) and code.is_data(code.k - 1)
        assert not code.is_data(code.k) and not code.is_data(-1)

    def test_data_sources_are_half_chunks(self, code):
        for i in range(code.k):
            sources = code.data_repair_sources(i)
            assert (i, "a") not in sources and (i, "b") not in sources
            assert len(set(sources)) == len(sources)
            # k - 1 data b-halves + clean parity + group parity + peers.
            group = code.groups[code.group_of(i)]
            assert len(sources) == (code.k - 1) + 2 + (len(group) - 1)

    def test_parity_sources_cost_k_chunks(self, code):
        sources = code.parity_repair_sources()
        assert len(sources) == 2 * code.k
        assert 0.5 * len(sources) == pytest.approx(float(code.k))

    def test_repr_shows_group_sizes(self, code):
        assert "groups=[3, 3]" in repr(code)


class TestErrorPaths:
    @pytest.fixture(scope="class")
    def code(self):
        return PiggybackRSCode(4, 3)

    def test_encode_wrong_count(self, code):
        a, b = _halves(code.k)
        with pytest.raises(CodingError):
            code.encode(a[:-1], b)

    def test_encode_mismatched_shapes(self, code):
        a, b = _halves(code.k)
        a[1] = np.zeros(7, dtype=np.uint8)
        with pytest.raises(CodingError):
            code.encode(a, b)

    def test_data_repair_missing_half(self, code):
        a, b = _halves(code.k)
        encoded = code.encode(a, b)
        store = {
            (i, h): encoded[i][0 if h == "a" else 1]
            for i in range(code.n)
            for h in code.HALVES
        }
        sources = code.data_repair_sources(0)
        partial = {src: store[src] for src in sources[:-1]}
        with pytest.raises(InsufficientChunksError):
            code.repair_data(0, partial)

    def test_parity_repair_missing_half(self, code):
        with pytest.raises(InsufficientChunksError):
            code.repair_parity(code.k, {})

    def test_parity_repair_index_out_of_range(self, code):
        with pytest.raises(CodingError):
            code.repair_parity(0, {})
        with pytest.raises(CodingError):
            code.repair_parity(code.n, {})


class TestPickling:
    def test_reduce_roundtrip_preserves_geometry(self):
        code = PiggybackRSCode(10, 4)
        clone = pickle.loads(pickle.dumps(code))
        assert clone.groups == code.groups
        assert repr(clone) == repr(code)

    def test_clone_repairs_original_encoding(self):
        code = PiggybackRSCode(4, 3)
        clone = pickle.loads(pickle.dumps(code))
        a, b = _halves(code.k, seed=5)
        encoded = code.encode(a, b)
        store = {
            (i, h): encoded[i][0 if h == "a" else 1]
            for i in range(code.n)
            for h in code.HALVES
        }
        got_a, got_b = clone.repair_data(
            1, {src: store[src] for src in clone.data_repair_sources(1)}
        )
        assert np.array_equal(got_a, a[1])
        assert np.array_equal(got_b, b[1])
