"""Differential suite: ``compute_window`` against a per-row reference.

Stage A decodes a window as matrices — helper and lost chunks are row
ids into the chunk store's one array, and the kernels gather, decode
and check short rows without a Python step per row.  The reference here
is the per-row form of the same work: every chunk gathered from a
``(stripe, chunk) -> buffer`` dict, one :func:`dot_rows` per rack group,
the groups XORed together and the result compared with the truth as
bytes.  The two must agree on every rebuilt byte, every verdict, every
kept partial and every stripe's first partial, on either side of the
kernels' short-row threshold, for aggregated and direct repairs, a
locally repairable code (whose windows have unused helper slots),
GF(2^16), and windows planned around dead helpers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.failure import FailureInjector
from repro.cluster.placement import RandomPlacementPolicy
from repro.cluster.state import ClusterState, DataStore
from repro.cluster.topology import ClusterTopology
from repro.erasure.lrc import LRCCode
from repro.erasure.repair import split_repair_vector
from repro.erasure.rs import RSCode
from repro.experiments.configs import CFS1, CFS2, CFS3, build_state
from repro.gf import vector
from repro.gf.field import gf
from repro.gf.vector import _SHORT_ROW, dot_rows
from repro.recovery.baselines import CarStrategy
from repro.recovery.lrc import LrcLocalRecoveryStrategy
from repro.recovery.planner import plan_window
from repro.recovery.solution import NO_HELPER
from repro.recovery.streaming import compute_window

STRIPES = 24
CHUNK_SIZES = [64, 256, _SHORT_ROW - 1, _SHORT_ROW]


def small_cluster(code, seed, chunk_size):
    topology = ClusterTopology.from_rack_sizes([4, 3, 3, 3])
    placement = RandomPlacementPolicy(rng=seed).place(
        topology, STRIPES, code.k, code.n - code.k
    )
    data = DataStore(code, STRIPES, chunk_size=chunk_size, seed=seed)
    return ClusterState(topology, code, placement, data)


#: case -> (cluster builder, takes dead helpers).  The configs repair
#: with CAR; the GF(2^16) code too; the LRC with its local groups.
CASES = {
    **{
        name: (
            lambda seed, size, config=config: build_state(
                config, seed, with_data=True, chunk_size=size,
                num_stripes=STRIPES,
            ),
            True,
        )
        for name, config in (("cfs1", CFS1), ("cfs2", CFS2), ("cfs3", CFS3))
    },
    "rs-gf16": (
        lambda seed, size: small_cluster(RSCode(6, 3, w=16), seed, size), True
    ),
    "lrc-local": (
        lambda seed, size: small_cluster(LRCCode(6, 2, 2), seed, size), False
    ),
}


def window(case, seed, chunk_size, aggregated, dead_count, draw):
    """The whole failure as one window, planned around dead helpers."""
    build, takes_dead = CASES[case]
    state = build(seed, chunk_size)
    event = FailureInjector(rng=seed).fail_random_node(state)
    dead = frozenset()
    if takes_dead and dead_count:
        others = [
            n.node_id for n in state.topology.nodes
            if n.node_id != event.failed_node
        ]
        dead = frozenset(
            draw(st.lists(st.sampled_from(others), min_size=dead_count,
                          max_size=dead_count, unique=True))
        )
    if case == "lrc-local":
        columns = LrcLocalRecoveryStrategy().solve(state).columns()
    else:
        columns = CarStrategy().solve_failure(
            state.topology, state.code.k,
            state.failure_columns(dead_nodes=dead),
        ).columns()
    win = plan_window(
        state, event.replacement_node, columns,
        aggregated=aggregated, dead_nodes=dead,
    )
    return state, win


def reference(state, win, keep_partials):
    """Stage A row by row: dict gather, ``dot_rows`` per group, XOR,
    ``tobytes`` compare."""
    code, data = state.code, state.data
    field = gf(code.w)
    store = {
        (s, c): data.chunk(s, c).copy()
        for s in range(data.num_stripes)
        for c in range(code.n)
    }
    rebuilt, ok, partials, first_partial = [], [], [], []
    for i, (stripe, lost) in enumerate(
        zip(win.stripe_id.tolist(), win.lost_chunk.tolist())
    ):
        helpers = [c for c in win.chunk[i].tolist() if c != NO_HELPER]
        racks = win.rack[i][: len(helpers)].tolist()
        plan = split_repair_vector(
            code, lost, sorted(helpers),
            dict(zip(helpers, racks)) if win.aggregated
            else dict.fromkeys(helpers),
        )
        first_partial.append(len(partials))
        groups = [
            dot_rows(
                field, list(g.coefficients),
                [store[(stripe, c)] for c in g.helper_indices],
            )
            for g in plan.groups
        ]
        partials += groups
        total = np.bitwise_xor.reduce(groups)
        rebuilt.append(total)
        ok.append(store[(stripe, lost)].tobytes() == total.tobytes())
    return rebuilt, ok, partials if keep_partials else None, first_partial


class TestWindowMatrix:
    @settings(deadline=None)
    @given(
        case=st.sampled_from(sorted(CASES)),
        chunk_size=st.sampled_from(CHUNK_SIZES),
        aggregated=st.booleans(),
        keep_partials=st.booleans(),
        dead_count=st.integers(0, 2),
        seed=st.integers(0, 300),
        data=st.data(),
    )
    def test_equals_the_per_row_reference(
        self, case, chunk_size, aggregated, keep_partials, dead_count, seed,
        data,
    ):
        state, win = window(
            case, seed, chunk_size, aggregated, dead_count, data.draw
        )
        if data.draw(st.booleans()):  # a wrong truth byte, somewhere
            victim = data.draw(st.integers(0, len(win) - 1))
            state.data.corrupt(
                int(win.stripe_id[victim]), int(win.lost_chunk[victim]), seed
            )
        got = compute_window(
            state.code, state.data, win, keep_partials=keep_partials
        )
        rebuilt, ok, partials, first_partial = reference(
            state, win, keep_partials
        )
        assert len(got.rebuilt) == len(rebuilt) == len(win)
        for mine, theirs in zip(got.rebuilt, rebuilt):
            assert mine.dtype == theirs.dtype
            assert mine.tobytes() == theirs.tobytes()
        assert got.ok == ok
        assert all(type(verdict) is bool for verdict in got.ok)
        assert got.first_partial == first_partial
        if partials is None:
            assert got.partials is None
            return
        assert len(got.partials) == len(partials)
        for mine, theirs in zip(got.partials, partials):
            assert mine.tobytes() == theirs.tobytes()
        # A kept partial is shipped as decoded: never the accumulator.
        if isinstance(got.partials, np.ndarray):
            assert not np.shares_memory(got.partials, got.rebuilt)
        bounds = first_partial + [len(partials)]
        for i, row in enumerate(got.rebuilt):
            for partial in got.partials[bounds[i] : bounds[i + 1]]:
                assert not np.shares_memory(partial, row)


class TestRowsUpToATile:
    """Rows up to a kernel tile decode through the field's product table,
    a window at a time: no per-constant word table is looked up (a
    window's constants rarely repeat, so each would be built for little
    more than one row)."""

    @pytest.mark.parametrize("keep_partials", [False, True])
    @pytest.mark.parametrize("chunk_size", [4 << 10, 16 << 10])
    def test_no_word_table_and_the_per_row_bytes(
        self, chunk_size, keep_partials
    ):
        state, win = window("cfs3", 3, chunk_size, True, 0, None)
        words = vector._WORD_TABLE_CACHE
        before = words.hits, words.misses
        got = compute_window(
            state.code, state.data, win, keep_partials=keep_partials
        )
        assert (words.hits, words.misses) == before
        rebuilt, ok, partials, _ = reference(state, win, keep_partials)
        assert all(ok) and got.ok == ok
        for mine, theirs in zip(got.rebuilt, rebuilt):
            assert mine.tobytes() == theirs.tobytes()
        if keep_partials:
            for mine, theirs in zip(got.partials, partials):
                assert mine.tobytes() == theirs.tobytes()

    @pytest.mark.parametrize("chunk_size", [4 << 10, 16 << 10])
    def test_rebuilt_rows_hold_no_partials_matrix(self, chunk_size):
        """The partials come back as one matrix, and the combine reduces
        it into a fresh one: a rebuilt row kept after the window is not a
        view that holds every partial of the window alive."""
        state, win = window("cfs3", 3, chunk_size, True, 0, None)
        got = compute_window(state.code, state.data, win, keep_partials=False)
        _, _, partials, _ = reference(state, win, True)
        assert len(partials) > len(win)  # some stripe has several partials
        rebuilt = sum(row.nbytes for row in got.rebuilt)
        for row in got.rebuilt:
            owner = row if row.base is None else row.base
            assert owner.nbytes <= rebuilt
