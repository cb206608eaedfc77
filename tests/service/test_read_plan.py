"""A degraded read is a one-row repair window.

The coordinator plans a read as :func:`~repro.recovery.planner.plan_window`
over CAR's one-row solve and takes its coefficients from the code's
decode table (:func:`~repro.recovery.streaming.window_coefficients`).
These properties hold that plan, with no sockets, to the per-rack split
of :func:`~repro.erasure.repair.split_repair_vector` and to the same
stripe's row of a repair window over the whole failure.

Select a larger example budget with ``HYPOTHESIS_PROFILE=thorough``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.erasure.repair import (
    AggregationGroup,
    PartialDecodePlan,
    combine_partials,
    execute_partial_decode,
    split_repair_vector,
)
from repro.experiments.configs import CFS1, CFS2, CFS3, build_state
from repro.recovery.baselines import CarStrategy
from repro.recovery.planner import plan_window
from repro.recovery.solution import NO_HELPER
from repro.recovery.streaming import window_coefficients
from repro.service.admission import AdmissionController, ModeledLink, ServiceClock
from repro.service.coordinator import Coordinator

CHUNK = 8
STRIPES = 24


def coordinator(config, seed) -> Coordinator:
    """A coordinator over a fresh cluster, never started: no socket."""
    state = build_state(
        config, seed, with_data=True, chunk_size=CHUNK, num_stripes=STRIPES
    )
    clock = ServiceClock()
    return Coordinator(
        state, clock, AdmissionController(ModeledLink(1e9), clock),
        journal_path="never-opened.journal",
    )


@st.composite
def degraded_reads(draw):
    """``(coordinator, stripe, dead)``: a failed node, one stripe it cost
    a chunk, and up to ``m - 1`` more dead nodes, so every stripe still
    has ``k`` live chunks."""
    config = draw(st.sampled_from([CFS1, CFS2, CFS3]))
    co = coordinator(config, draw(st.integers(0, 500)))
    state = co.state
    nodes = range(state.topology.num_nodes)
    failed = draw(st.sampled_from(
        [n for n in nodes if state.placement.chunks_on_node(n)]
    ))
    state.fail_node(failed)
    stripe = draw(st.sampled_from(sorted(state.affected_stripes())))
    dead = draw(st.lists(
        st.sampled_from([n for n in nodes if n != failed]),
        max_size=state.code.m - 1, unique=True,
    ))
    return co, stripe, frozenset(dead)


def flat(groups) -> list[tuple]:
    """``(rack, chunk, node, coefficient)`` per helper, in decode order."""
    return [(rack, *helper) for rack, helpers in groups for helper in helpers]


class TestReadIsAOneRowWindow:
    @settings(deadline=None)
    @given(degraded_reads())
    def test_groups_equal_the_split_repair_vector(self, read):
        co, stripe, dead = read
        state = co.state
        win = co._solve_read(stripe, dead)
        groups = co._read_groups(win)
        solution = CarStrategy(load_balance=False).solve_failure(
            state.topology, state.code.k,
            state.failure_columns(dead_nodes=dead, stripes=[stripe]),
        ).solutions[0]
        oracle = split_repair_vector(
            state.code, solution.lost_chunk, solution.helpers,
            solution.rack_map(),
        )
        assert groups == [
            (g.group_key, [
                (c, state.placement.node_of(stripe, c), y)
                for c, y in zip(g.helper_indices, g.coefficients)
            ])
            for g in oracle.groups
        ]
        assert int(win.lost_chunk[0]) == solution.lost_chunk
        assert int(win.cross[0]) == len(solution.intact_racks_accessed)
        assert win.ledger(CHUNK, slice(0, 1))[0] == win.cross[0] * CHUNK
        # The library's own partial decode of those groups rebuilds the
        # lost chunk.
        plan = PartialDecodePlan(solution.lost_chunk, tuple(
            AggregationGroup(
                rack, tuple(c for c, _, _ in helpers),
                tuple(y for _, _, y in helpers),
            )
            for rack, helpers in groups
        ))
        chunks = {c: state.data.chunk(stripe, c) for c in solution.helpers}
        rebuilt = combine_partials(
            state.code, execute_partial_decode(state.code, plan, chunks)
        )
        assert state.data.matches(stripe, solution.lost_chunk, rebuilt)

    @settings(deadline=None)
    @given(degraded_reads())
    def test_groups_are_the_stripes_row_of_the_whole_failure(self, read):
        co, stripe, dead = read
        state = co.state
        win = co._solve_read(stripe, dead)
        whole = CarStrategy(load_balance=False).solve_failure(
            state.topology, state.code.k, state.failure_columns(dead_nodes=dead)
        )
        repair = plan_window(
            state, state.failed_node, whole.columns(), aggregated=True,
            dead_nodes=dead,
        )
        (i,) = np.flatnonzero(repair.stripe_id == stripe)
        used = repair.chunk[i] != NO_HELPER
        columns = (
            repair.rack, repair.chunk, repair.node,
            window_coefficients(state.code, repair),
        )
        row = list(zip(*(column[i, used].tolist() for column in columns)))
        assert flat(co._read_groups(win)) == row
        assert win.cross[0] == repair.cross[i]
        assert win.ledger(CHUNK, slice(0, 1)) == repair.ledger(
            CHUNK, slice(i, i + 1)
        )
