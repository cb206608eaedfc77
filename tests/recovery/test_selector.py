"""Tests for Theorem 1 and the chunk-take rule, one row at a time.

Includes the brute-force minimality check: the sorted-prefix rule of
Theorem 1 must agree with exhaustive search over all rack subsets.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.placement import RandomPlacementPolicy
from repro.cluster.state import ClusterState, FailureColumns
from repro.cluster.topology import ClusterTopology
from repro.erasure.rs import RSCode
from repro.errors import NoValidSolutionError, RecoveryError
from repro.recovery.selector import (
    pick_racks,
    racks_needed,
    substitutable,
    take_chunks,
)
from repro.recovery.solution import SolutionColumns


def make_failure(rack_counts, failed_rack=0, stripe_id=0):
    """A one-row failure with ``rack_counts[i]`` alive chunks in rack ``i``.

    Alive chunks are numbered densely rack by rack; the lost chunk, in
    the failed rack, comes last.
    """
    racks = [r for r, c in enumerate(rack_counts) for _ in range(c)]
    alive = np.ones((1, len(racks) + 1), dtype=bool)
    alive[0, -1] = False
    return FailureColumns(
        stripe_id=np.array([stripe_id], dtype=np.intp),
        lost_chunk=np.array([len(racks)], dtype=np.intp),
        chunk_rack=np.array([racks + [failed_rack]], dtype=np.intp),
        alive=alive,
        counts=np.array([rack_counts], dtype=np.intp),
        failed_rack=failed_rack,
    )


def d_of(failure, k):
    return int(racks_needed(failure, k)[0])


def build(failure, racks, k):
    """The take rule's solution for one row and an intact-rack set."""
    used = np.zeros((1, failure.num_racks), dtype=bool)
    used[0, list(racks)] = True
    return SolutionColumns.from_mask(
        failure, take_chunks(failure, used, k)
    ).solution(0)


def initial(failure, k):
    """Algorithm 2's step 2 pick for one row."""
    used = pick_racks(failure, racks_needed(failure, k))
    return SolutionColumns.from_mask(
        failure, take_chunks(failure, used, k)
    ).solution(0)


def valid_sets(failure, k):
    """Every ``d_j``-sized intact-rack set the take rule accepts."""
    failed, d = failure.failed_rack, d_of(failure, k)
    intact = [r for r in range(failure.num_racks) if r != failed]
    out = []
    for combo in itertools.combinations(intact, d):
        try:
            build(failure, combo, k)
        except RecoveryError:
            continue
        out.append(combo)
    return out


class TestTheorem1:
    def test_worked_example_from_paper(self):
        """Figure 4: counts (3 local after failure, 1, 3, 2, 4), k=8 -> d=2."""
        failure = make_failure([3, 1, 3, 2, 4], failed_rack=0)
        assert d_of(failure, k=8) == 2

    def test_zero_racks_when_local_suffices(self):
        failure = make_failure([4, 1, 1], failed_rack=0)
        assert d_of(failure, k=4) == 0

    def test_unrecoverable_raises(self):
        failure = make_failure([1, 1, 1], failed_rack=0)
        with pytest.raises(NoValidSolutionError):
            d_of(failure, k=5)

    def test_exactly_k_survivors(self):
        failure = make_failure([0, 2, 2], failed_rack=0)
        assert d_of(failure, k=4) == 2

    @settings(max_examples=100, deadline=None)
    @given(
        counts=st.lists(st.integers(0, 4), min_size=2, max_size=6),
        k=st.integers(1, 12),
        data=st.data(),
    )
    def test_matches_bruteforce_minimum(self, counts, k, data):
        """Theorem 1's d equals exhaustive search over rack subsets."""
        failed = data.draw(st.integers(0, len(counts) - 1))
        failure = make_failure(counts, failed_rack=failed)
        intact = [i for i in range(len(counts)) if i != failed]
        local = counts[failed]
        feasible = local + sum(counts[i] for i in intact) >= k
        if not feasible:
            with pytest.raises(NoValidSolutionError):
                d_of(failure, k)
            return
        d = d_of(failure, k)
        brute = next(
            size
            for size in range(len(intact) + 1)
            if any(
                local + sum(counts[i] for i in combo) >= k
                for combo in itertools.combinations(intact, size)
            )
        )
        assert d == brute


class TestValidRackSets:
    def test_paper_example_has_two_valid_sets(self):
        """Figure 4 discussion: {A3, A5} and {A3, A4} are both valid."""
        failure = make_failure([3, 1, 3, 2, 4], failed_rack=0)
        sets = valid_sets(failure, k=8)
        assert (2, 4) in sets
        assert (2, 3) in sets
        # {A2, anything smaller} cannot reach 8.
        assert (1, 3) not in sets
        with pytest.raises(RecoveryError):
            build(failure, (1, 3), 8)

    def test_all_sets_have_min_size_and_suffice(self):
        counts = [2, 3, 1, 2, 2]
        failure = make_failure(counts, failed_rack=1)
        k = 6
        d = d_of(failure, k)
        sets = valid_sets(failure, k)
        assert sets
        for rs in sets:
            assert len(rs) == d
            assert counts[1] + sum(counts[r] for r in rs) >= k
            assert 1 not in rs
        # The take rule accepts exactly the sets that reach k.
        for combo in itertools.combinations([0, 2, 3, 4], d):
            reach = counts[1] + sum(counts[r] for r in combo) >= k
            assert (combo in sets) == reach

    def test_local_only_yields_empty_set(self):
        failure = make_failure([4, 1], failed_rack=0)
        assert valid_sets(failure, k=3) == [()]
        assert build(failure, (), 3).intact_racks_accessed == ()


class TestBuildSolution:
    def make_state(self, seed=0):
        code = RSCode(6, 3)
        topo = ClusterTopology.from_rack_sizes([4, 3, 3, 3])
        placement = RandomPlacementPolicy(rng=seed).place(topo, 10, 6, 3)
        state = ClusterState(topo, code, placement)
        state.fail_node(placement.node_of(0, 0))
        return state

    def rows(self, state):
        failure = state.failure_columns()
        return [failure.rows([i]) for i in range(len(failure))]

    def test_solution_has_exactly_k_helpers(self):
        state = self.make_state()
        for row in self.rows(state):
            s = initial(row, state.code.k)
            assert s.helper_count == state.code.k

    def test_solution_uses_min_racks(self):
        state = self.make_state()
        for row in self.rows(state):
            s = initial(row, state.code.k)
            assert s.num_intact_racks == d_of(row, state.code.k)

    def test_local_chunks_always_used_first(self):
        state = self.make_state()
        for row in self.rows(state):
            s = initial(row, state.code.k)
            local = int(row.counts[0, row.failed_rack])
            if local and s.num_intact_racks > 0:
                assert len(s.chunks_from_rack(row.failed_rack)) == min(
                    local, state.code.k
                )

    def test_every_valid_solution_is_buildable(self):
        state = self.make_state(seed=3)
        for row in self.rows(state):
            sets = valid_sets(row, state.code.k)
            assert sets
            for rs in sets:
                s = build(row, rs, state.code.k)
                assert s.helper_count == state.code.k
                assert set(s.intact_racks_accessed).isdisjoint(
                    {row.failed_rack}
                )

    def test_rejects_failed_rack_in_set(self):
        state = self.make_state()
        row = self.rows(state)[0]
        with pytest.raises(RecoveryError):
            build(row, [row.failed_rack], state.code.k)

    def test_rejects_insufficient_rack_set(self):
        failure = make_failure([0, 1, 5], failed_rack=0)
        with pytest.raises(RecoveryError):
            build(failure, [1], 6)

    def test_rejects_superfluous_rack_set(self):
        failure = make_failure([6, 2, 2], failed_rack=0)
        with pytest.raises(RecoveryError):
            build(failure, [1], 4)  # local already covers k


def substitute(failure, current, avoid, use, k):
    """Algorithm 2's step 8 on one row: the take rule over the swapped
    rack set, or None if :func:`substitutable` refuses it."""
    used = np.zeros((1, failure.num_racks), dtype=bool)
    used[0, list(current.intact_racks_accessed)] = True
    counts = failure.counts
    supply = counts[:, failure.failed_rack] + (counts * used).sum(axis=1)
    if not substitutable(counts, used, supply, avoid, use, k)[0]:
        return None
    used[0, [avoid, use]] = False, True
    return SolutionColumns.from_mask(
        failure, take_chunks(failure, used, k)
    ).solution(0)


class TestSubstitute:
    def test_substitute_moves_one_rack(self):
        failure = make_failure([1, 3, 3, 3], failed_rack=0)
        current = initial(failure, k=4)
        used = current.intact_racks_accessed[0]
        unused = next(
            r for r in (1, 2, 3) if r not in current.intact_racks_accessed
        )
        replacement = substitute(failure, current, used, unused, 4)
        assert replacement is not None
        assert not replacement.uses_rack(used)
        assert replacement.uses_rack(unused)
        assert replacement.num_intact_racks == current.num_intact_racks

    def test_substitute_refuses_invalid_target(self):
        failure = make_failure([1, 4, 1, 1], failed_rack=0)
        current = initial(failure, k=5)  # must use rack 1
        # Swapping rack 1 (4 chunks) for rack 2 (1 chunk) cannot reach k.
        assert substitute(failure, current, 1, 2, 5) is None

    def test_substitute_noop_when_racks_not_applicable(self):
        failure = make_failure([1, 3, 3, 3], failed_rack=0)
        current = initial(failure, k=4)
        used = current.intact_racks_accessed[0]
        unused = next(
            r for r in (1, 2, 3) if r not in current.intact_racks_accessed
        )
        assert substitute(failure, current, unused, 1, 4) is None  # not used
        assert substitute(failure, current, used, used, 4) is None
        # The failed rack is never a substitute: the take rule refuses a
        # rack set that lists it.
        with pytest.raises(RecoveryError):
            build(failure, [0], 4)
