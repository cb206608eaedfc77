"""Property-based checks of Theorem 1 against exhaustive search.

The sorted-prefix rule computes ``d_j`` in O(r log r); these tests
compare it with brute force over *all* rack subsets on hundreds of
random stripe layouts, and check every materialised solution supplies
exactly ``k`` chunks.
"""

import itertools

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cluster.state import FailureColumns
from repro.errors import RecoveryError
from repro.recovery.selector import pick_racks, racks_needed, take_chunks
from repro.recovery.solution import SolutionColumns


def make_failure(rack_counts, failed_rack=0):
    """A one-row failure with ``rack_counts[i]`` survivors in rack ``i``
    (numbered densely rack by rack; the lost chunk comes last)."""
    racks = [r for r, c in enumerate(rack_counts) for _ in range(c)]
    alive = np.ones((1, len(racks) + 1), dtype=bool)
    alive[0, -1] = False
    return FailureColumns(
        stripe_id=np.zeros(1, dtype=np.intp),
        lost_chunk=np.array([len(racks)], dtype=np.intp),
        chunk_rack=np.array([racks + [failed_rack]], dtype=np.intp),
        alive=alive,
        counts=np.array([rack_counts], dtype=np.intp),
        failed_rack=failed_rack,
    )


def solve_row(failure, used, k):
    """The take rule's solution for one row's racks-used mask."""
    helper = take_chunks(failure, used, k)
    return SolutionColumns.from_mask(failure, helper).solution(0), helper


def brute_force_min_racks(counts, failed_rack, k: int) -> int:
    """Smallest intact-rack subset that, with the local survivors,
    reaches ``k`` chunks — by trying every subset size in order."""
    local = counts[failed_rack]
    intact = [c for rack, c in enumerate(counts) if rack != failed_rack]
    for d in range(len(intact) + 1):
        for combo in itertools.combinations(intact, d):
            if local + sum(combo) >= k:
                return d
    raise AssertionError("caller must ensure feasibility")


@st.composite
def feasible_rows(draw):
    num_racks = draw(st.integers(2, 6))
    counts = [draw(st.integers(0, 6)) for _ in range(num_racks)]
    failed_rack = draw(st.integers(0, num_racks - 1))
    k = draw(st.integers(1, 12))
    assume(sum(counts) >= k)
    return counts, failed_rack, k


class TestTheorem1Properties:
    @settings(max_examples=200, deadline=None)
    @given(feasible_rows())
    def test_d_j_matches_brute_force(self, case):
        counts, failed, k = case
        d = int(racks_needed(make_failure(counts, failed), k)[0])
        assert d == brute_force_min_racks(counts, failed, k)

    @settings(max_examples=200, deadline=None)
    @given(feasible_rows())
    def test_every_valid_rack_set_supplies_k_chunks(self, case):
        counts, failed, k = case
        failure = make_failure(counts, failed)
        d = int(racks_needed(failure, k)[0])
        local = counts[failed]
        intact = [r for r in range(len(counts)) if r != failed]
        valid = 0
        for rack_set in itertools.combinations(intact, d):
            used = np.zeros((1, len(counts)), dtype=bool)
            used[0, list(rack_set)] = True
            available = local + sum(counts[r] for r in rack_set)
            if available < k:
                # The take rule refuses a set that cannot reach k.
                try:
                    solve_row(failure, used, k)
                except RecoveryError:
                    continue
                raise AssertionError(f"{rack_set} accepted short of k")
            valid += 1
            sol, helper = solve_row(failure, used, k)
            assert sol.helper_count == k
            assert sol.num_intact_racks == d
            # Helpers must be real survivors.
            assert not (helper & ~failure.alive).any()
        assert valid, "at least one valid rack set must exist"

    @settings(max_examples=200, deadline=None)
    @given(feasible_rows())
    def test_initial_solution_is_minimal_and_complete(self, case):
        counts, failed, k = case
        failure = make_failure(counts, failed)
        used = pick_racks(failure, racks_needed(failure, k))
        sol, helper = solve_row(failure, used, k)
        assert sol.helper_count == k
        assert sol.num_intact_racks == brute_force_min_racks(counts, failed, k)
        assert not (helper & ~failure.alive).any()
        # No solution over any rack subset can touch fewer intact racks.
        for d in range(sol.num_intact_racks):
            local = counts[failed]
            intact = [c for rack, c in enumerate(counts) if rack != failed]
            assert all(
                local + sum(combo) < k
                for combo in itertools.combinations(intact, d)
            )
