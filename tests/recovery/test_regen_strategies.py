"""Tests for the regenerating-code recovery strategies.

Strategy-level behaviour of :class:`RackAwareMSRStrategy` and
:class:`PiggybackStrategy`: parameter derivation, weighted solutions,
planner volume accounting, :class:`StrategyError` naming (including the
``__init_subclass__`` annotation of foreign errors), and that the
strategies pickle as built.
"""

import pickle

import pytest

from repro.cluster.failure import FailureInjector
from repro.cluster.placement import Placement
from repro.cluster.state import ClusterState
from repro.cluster.topology import ClusterTopology
from repro.erasure.rs import RSCode
from repro.errors import (
    NoValidSolutionError,
    RecoveryError,
    StrategyError,
    annotate_strategy,
)
from repro.experiments.configs import CFS1, CFS2, build_state
from repro.recovery.baselines import RecoveryStrategy
from repro.recovery.planner import plan_recovery
from repro.recovery.regenerating import (
    PiggybackStrategy,
    RackAwareMSRStrategy,
    rack_msr_params,
)
from repro.recovery.solution import WeightedStripeSolution


def aligned_failed_state(config=CFS1, seed=0, stripes=12):
    state = build_state(
        config, seed, num_stripes=stripes, placement_policy="rack_aligned"
    )
    event = FailureInjector(rng=seed).fail_random_node(state)
    return state, event


class TestRackMsrParams:
    @pytest.mark.parametrize(
        "racks,expected", [(3, (2, 2)), (4, (2, 2)), (5, (3, 4)), (7, (4, 6))]
    )
    def test_derivation(self, racks, expected):
        assert rack_msr_params(racks) == expected

    def test_too_few_racks(self):
        with pytest.raises(StrategyError) as exc:
            rack_msr_params(2)
        assert exc.value.strategy == "RackMSR"
        assert "[RackMSR]" in str(exc.value)


class TestRackAwareMSRStrategy:
    def test_per_stripe_units_equal_bound(self):
        state, _ = aligned_failed_state()
        strategy = RackAwareMSRStrategy()
        solution = strategy.solve(state)
        kbar, dbar = strategy.last_params
        expected = dbar / (kbar - 1)
        for sol in solution:
            assert isinstance(sol, WeightedStripeSolution)
            units = sol.cross_rack_chunks(True)
            assert len(units) == dbar
            assert sum(units.values()) == pytest.approx(expected)
            assert sol.failed_rack not in units

    def test_helpers_balanced_across_racks(self):
        state, _ = aligned_failed_state(config=CFS2, seed=3, stripes=30)
        solution = RackAwareMSRStrategy().solve(state)
        assert solution.load_balancing_rate() == pytest.approx(1.0)

    def test_explicit_kbar_respected(self):
        state, _ = aligned_failed_state(config=CFS2, seed=1)
        strategy = RackAwareMSRStrategy(kbar=2)
        strategy.solve(state)
        assert strategy.last_params == (2, 2)

    def test_kbar_below_two_rejected(self):
        with pytest.raises(StrategyError) as exc:
            RackAwareMSRStrategy(kbar=1)
        assert exc.value.strategy == "RackMSR"

    def test_kbar_too_large_for_topology(self):
        # CFS1 has 3 racks; kbar=3 needs dbar=4 helper racks.
        state, _ = aligned_failed_state()
        with pytest.raises(StrategyError) as exc:
            RackAwareMSRStrategy(kbar=3).solve(state)
        assert "helper racks" in str(exc.value)
        assert exc.value.strategy == "RackMSR"

    def test_too_few_survivor_racks(self):
        # Concentrate a stripe on two of three racks: after losing a
        # node of the first, only one intact rack holds survivors —
        # below dbar=2.
        code = RSCode(2, 2)
        topo = ClusterTopology.from_rack_sizes([2, 2, 2])
        placement = Placement(
            topo, 2, 2, {(0, 0): 0, (0, 1): 1, (0, 2): 2, (0, 3): 3}
        )
        cluster = ClusterState(topo, code, placement)
        cluster.fail_node(0)
        with pytest.raises(StrategyError) as exc:
            RackAwareMSRStrategy().solve(cluster)
        assert exc.value.strategy == "RackMSR"
        assert "rack-aligned" in str(exc.value)


class TestPiggybackStrategy:
    def test_data_repair_costs_half_chunks(self):
        state, _ = aligned_failed_state(seed=2)
        solution = PiggybackStrategy().solve(state)
        k = state.code.k
        for sol in solution:
            total = sum(sol.cross_rack_chunks(False).values())
            # Never worse than RS's k chunk units, even counting the
            # failed rack's free intra-rack halves.
            assert total <= k + 1e-9
            if sol.lost_chunk < k:
                assert total < k

    def test_m_below_two_rejected(self):
        code = RSCode(4, 1)
        topo = ClusterTopology.from_rack_sizes([1, 1, 1, 1, 1])
        placement = Placement(
            topo, 4, 1, {(0, c): c for c in range(5)}
        )
        state = ClusterState(topo, code, placement)
        state.fail_node(0)
        with pytest.raises(StrategyError) as exc:
            PiggybackStrategy().solve(state)
        assert exc.value.strategy == "Piggyback"
        assert "m >= 2" in str(exc.value)


class TestPlannerVolumes:
    @pytest.mark.parametrize(
        "strategy", [RackAwareMSRStrategy(), PiggybackStrategy()],
        ids=["rackmsr", "piggyback"],
    )
    def test_plan_volume_matches_solution_units(self, strategy):
        state, event = aligned_failed_state(seed=4)
        solution = strategy.solve(state)
        plan = plan_recovery(state, event, solution)
        expected = sum(
            sum(s.cross_rack_chunks(solution.aggregated).values())
            for s in solution
        )
        assert plan.cross_rack_volume() == pytest.approx(expected)

    def test_volume_by_rack_matches_solution(self):
        state, event = aligned_failed_state(seed=6)
        solution = RackAwareMSRStrategy().solve(state)
        plan = plan_recovery(state, event, solution)
        num_racks = state.topology.num_racks
        per_rack = [0.0] * num_racks
        for s in solution:
            for rack, units in s.cross_rack_chunks(True).items():
                per_rack[rack] += units
        got = plan.cross_rack_volume_by_rack(num_racks)
        assert got == pytest.approx(per_rack)


class TestWeightedSolutionValidation:
    def _kwargs(self, **overrides):
        base = dict(
            stripe_id=0,
            lost_chunk=0,
            failed_rack=0,
            chunks_by_rack={1: (1, 2), 2: (3,)},
            rack_units={1: 0.5, 2: 0.5},
        )
        base.update(overrides)
        return base

    def test_valid(self):
        sol = WeightedStripeSolution(**self._kwargs())
        assert sol.cross_rack_chunks(True) == {1: 0.5, 2: 0.5}
        assert sol.cross_rack_chunks(False) == {1: 0.5, 2: 0.5}

    def test_failed_rack_cannot_ship(self):
        with pytest.raises(RecoveryError):
            WeightedStripeSolution(**self._kwargs(rack_units={0: 1.0, 1: 0.5}))

    def test_units_require_retrieved_chunks(self):
        with pytest.raises(RecoveryError):
            WeightedStripeSolution(**self._kwargs(rack_units={3: 0.5}))

    def test_negative_units_rejected(self):
        with pytest.raises(RecoveryError):
            WeightedStripeSolution(**self._kwargs(rack_units={1: -0.5}))


class TestStrategyErrorPlumbing:
    def test_strategy_error_pickles(self):
        err = StrategyError("boom", strategy="RackMSR")
        clone = pickle.loads(pickle.dumps(err))
        assert clone.strategy == "RackMSR"
        assert "[RackMSR]" in str(clone)

    def test_annotate_strategy_adds_note_once(self):
        err = NoValidSolutionError("nope")
        annotate_strategy(err, "Foo")
        annotate_strategy(err, "Bar")  # first annotation wins
        assert err.strategy == "Foo"
        assert getattr(err, "__notes__", []) == ["strategy: Foo"]

    def test_subclass_hook_annotates_foreign_errors(self):
        class Exploding(RecoveryStrategy):
            name = "Exploding"
            aggregated = False

            def solve(self, state):
                raise NoValidSolutionError("nothing to do")

        state, _ = aligned_failed_state()
        with pytest.raises(NoValidSolutionError) as exc:
            Exploding().solve(state)
        assert exc.value.strategy == "Exploding"
        assert getattr(exc.value, "__notes__", []) == ["strategy: Exploding"]


class TestFactories:
    """A sweep builds these per run; the instances are plain data."""

    @pytest.mark.parametrize(
        "cls", [RackAwareMSRStrategy, PiggybackStrategy],
        ids=["rackmsr", "piggyback"],
    )
    def test_pickle_and_build(self, cls):
        state, _ = aligned_failed_state()
        clone = pickle.loads(pickle.dumps(cls()))
        assert isinstance(clone, cls)
        assert (clone.solve(state).traffic_by_rack()
                == cls().solve(state).traffic_by_rack())

    def test_rackmsr_factory_forwards_kbar(self):
        clone = pickle.loads(pickle.dumps(RackAwareMSRStrategy(kbar=2)))
        assert clone.kbar == 2
