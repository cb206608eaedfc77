"""The paper's worked examples, reproduced exactly.

Figure 3: two recovery solutions for the (8, 6) code on the Figure 1
cluster — retrieving from five racks ships four cross-rack chunks,
retrieving from three ships two.

Figure 4: Theorem 1 on surviving counts (3, 1, 3, 2, 4) with k = 8
gives d = 2, with both {A3, A5} and {A3, A4} valid.

Figure 6: a four-stripe solution with per-rack traffic (4, 1, 2, 2)
has λ = 16/9; one Algorithm 2 substitution (A2 → A3) lowers it to
λ = 12/9.
"""

import itertools

import numpy as np
import pytest

from repro.cluster.state import FailureColumns, StripeView
from repro.cluster.topology import ClusterTopology
from repro.errors import RecoveryError
from repro.recovery.balancer import GreedyLoadBalancer
from repro.recovery.selector import CarSelector, racks_needed, take_chunks
from repro.recovery.solution import MultiStripeSolution, PerStripeSolution

K = 8  # the running example's (k=8, m=6) RS code


def view_with_counts(counts, failed_rack, topology, stripe_id=0):
    """A StripeView over ``topology`` with given surviving counts."""
    surviving = {}
    chunk = 0
    for rack, count in enumerate(counts):
        nodes = topology.nodes_in_rack(rack)
        assert count <= len(nodes)
        for i in range(count):
            surviving[chunk] = nodes[i]
            chunk += 1
    return StripeView(
        stripe_id=stripe_id,
        lost_chunk=99,
        surviving=surviving,
        rack_counts=tuple(counts),
        failed_rack=failed_rack,
    )


def row_with_counts(counts, failed_rack):
    """A one-row failure with ``counts[i]`` survivors in rack ``i``."""
    racks = [r for r, c in enumerate(counts) for _ in range(c)]
    alive = np.ones((1, len(racks) + 1), dtype=bool)
    alive[0, -1] = False
    return FailureColumns(
        stripe_id=np.zeros(1, dtype=np.intp),
        lost_chunk=np.array([len(racks)], dtype=np.intp),
        chunk_rack=np.array([racks + [failed_rack]], dtype=np.intp),
        alive=alive,
        counts=np.array([counts], dtype=np.intp),
        failed_rack=failed_rack,
    )


def chunks_in_rack(view, rack, topology):
    """A view's surviving chunk indices stored in ``rack``, ascending."""
    return sorted(
        c for c, node in view.surviving.items()
        if topology.rack_of(node) == rack
    )


@pytest.fixture
def figure1_topology():
    """Five racks of four nodes (Figure 1)."""
    return ClusterTopology.from_rack_sizes([4, 4, 4, 4, 4])


class TestFigure3:
    """Aggregated cross-rack traffic = number of intact racks accessed."""

    def make_solution(self, chunks_by_rack):
        return PerStripeSolution(
            stripe_id=0,
            lost_chunk=99,
            failed_rack=0,
            chunks_by_rack=chunks_by_rack,
        )

    def test_five_rack_solution_ships_four_chunks(self):
        # Figure 3(a): chunks from A1 (failed, local) and A2..A5.
        sol = self.make_solution(
            {0: (0, 1), 1: (2,), 2: (3, 4), 3: (5,), 4: (6, 7)}
        )
        assert sol.helper_count == K
        assert sum(sol.cross_rack_chunks(aggregated=True).values()) == 4

    def test_three_rack_solution_ships_two_chunks(self):
        # Figure 3(b): chunks from A1 (local), A2 and A5 only.
        sol = self.make_solution({0: (0, 1, 2), 1: (3, 4), 4: (5, 6, 7)})
        assert sol.helper_count == K
        assert sum(sol.cross_rack_chunks(aggregated=True).values()) == 2

    def test_without_aggregation_both_ship_more(self):
        sol_a = self.make_solution(
            {0: (0, 1), 1: (2,), 2: (3, 4), 3: (5,), 4: (6, 7)}
        )
        sol_b = self.make_solution({0: (0, 1, 2), 1: (3, 4), 4: (5, 6, 7)})
        assert sum(sol_a.cross_rack_chunks(aggregated=False).values()) == 6
        assert sum(sol_b.cross_rack_chunks(aggregated=False).values()) == 5


class TestFigure4:
    """Theorem 1's worked example."""

    def test_d_is_two(self, figure1_topology):
        row = row_with_counts([3, 1, 3, 2, 4], 0)
        assert racks_needed(row, K)[0] == 2

    def test_valid_sets_match_paper(self, figure1_topology):
        row = row_with_counts([3, 1, 3, 2, 4], 0)
        sets = set()
        for combo in itertools.combinations(range(1, 5), 2):
            used = np.zeros((1, 5), dtype=bool)
            used[0, list(combo)] = True
            try:
                take_chunks(row, used, K)
            except RecoveryError:
                continue
            sets.add(combo)
        # The paper names {A3, A5} (i.e. racks 2 and 4) and {A3, A4}
        # (racks 2 and 3); Equation 2 also admits {A2, A5} (1 + 4 + 3 =
        # 8) and {A4, A5}.
        assert sets == {(1, 4), (2, 3), (2, 4), (3, 4)}

    def test_initial_pick_takes_largest_racks(self, figure1_topology):
        view = view_with_counts([3, 1, 3, 2, 4], 0, figure1_topology)
        sol = CarSelector(figure1_topology, K).initial_solution(view)
        # Largest intact racks: A5 (4 chunks) and A3 (3 chunks).
        assert sol.intact_racks_accessed == (2, 4)


class TestFigure6:
    """Algorithm 2's worked substitution: λ 16/9 → 12/9."""

    def build(self, figure1_topology):
        # Four stripes, failed rack A1 (rack 0).  The initial solutions
        # produce per-rack traffic t = (0, 4, 1, 2, 2) as in Fig. 6(a):
        # every stripe reads from A2; stripes also read from A3/A4/A5.
        # Surviving counts are arranged so stripe 3 can swap A2 for A3.
        views = {}
        solutions = []
        layouts = [
            # (counts per rack, racks used by the initial solution)
            # Together these give t = (4, 1, 2, 2) over A2..A5, the
            # paper's Figure 6(a) histogram.
            ([2, 4, 2, 4, 0], (1, 3)),
            ([2, 4, 2, 0, 4], (1, 4)),
            ([2, 4, 2, 0, 4], (1, 4)),
            ([2, 2, 2, 2, 2], (1, 2, 3)),
        ]
        for stripe_id, (counts, racks) in enumerate(layouts):
            view = view_with_counts(
                counts, 0, figure1_topology, stripe_id=stripe_id
            )
            views[stripe_id] = view
            chunks_by_rack = {}
            # local chunks first
            chunks = chunks_in_rack(view, 0, figure1_topology)
            need = K - len(chunks)
            chunks_by_rack[0] = tuple(chunks)
            for rack in racks:
                take = min(counts[rack], need)
                rack_chunks = chunks_in_rack(view, rack, figure1_topology)
                chunks_by_rack[rack] = tuple(rack_chunks[:take])
                need -= take
            assert need == 0
            solutions.append(
                PerStripeSolution(
                    stripe_id=stripe_id,
                    lost_chunk=99,
                    failed_rack=0,
                    chunks_by_rack=chunks_by_rack,
                )
            )
        initial = MultiStripeSolution(
            solutions, num_racks=5, aggregated=True
        )
        return views, initial

    def test_initial_lambda_is_sixteen_ninths(self, figure1_topology):
        _, initial = self.build(figure1_topology)
        assert initial.traffic_by_rack() == [0, 4, 1, 2, 2]
        assert initial.load_balancing_rate() == pytest.approx(16 / 9)

    def test_one_substitution_gives_twelve_ninths(self, figure1_topology):
        views, initial = self.build(figure1_topology)
        selector = CarSelector(figure1_topology, K)
        balancer = GreedyLoadBalancer(iterations=1)
        balanced, trace = balancer.balance(views, initial, selector)
        assert trace.substitutions == 1
        after = balanced.traffic_by_rack()
        # One per-stripe solution moved off A2 (paper: onto A3): the max
        # drops 4 -> 3 and λ = 12/9 exactly.
        assert max(after[1:]) == 3
        assert balanced.load_balancing_rate() == pytest.approx(12 / 9)
        assert sum(after) == sum(initial.traffic_by_rack())

    def test_convergence_matches_equation8(self, figure1_topology):
        """Running to convergence: no pair of intact racks differs by 2+
        unless no valid substitution exists."""
        views, initial = self.build(figure1_topology)
        selector = CarSelector(figure1_topology, K)
        balanced, trace = GreedyLoadBalancer(iterations=50).balance(
            views, initial, selector
        )
        assert trace.converged_at is not None
        t = balanced.traffic_by_rack()
        assert max(t[1:]) - min(t[1:]) <= 2
