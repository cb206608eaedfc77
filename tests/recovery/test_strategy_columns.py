"""Every strategy's column solve against an independent per-view reference.

The reference below is a self-contained transcription of the per-stripe
solves the column solves replaced: RR and Random+Agg sample ``k`` of a
view's sorted survivors, LRC-local reads the lost chunk's minimal local
helpers, rack-MSR takes each intact rack's lowest survivor least-loaded
first, piggyback reads every half-chunk source, and Enumeration scores
the full cross product of per-stripe options one candidate at a time.
Traffic is re-counted from the reference objects, one rack at a time.
It shares nothing with :mod:`repro.recovery.baselines`,
:mod:`repro.recovery.lrc` or :mod:`repro.recovery.regenerating` beyond
the solution dataclasses it fills.

Select a larger example budget with ``HYPOTHESIS_PROFILE=thorough``.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.failure import FailureInjector
from repro.cluster.placement import GroupAlignedPlacementPolicy
from repro.cluster.state import ClusterState
from repro.cluster.topology import ClusterTopology
from repro.erasure.lrc import LRCCode
from repro.erasure.piggyback import PiggybackRSCode
from repro.errors import (
    NoValidSolutionError,
    RecoveryError,
    ReproError,
    StrategyError,
)
from repro.experiments.configs import CFS1, CFS2, CFS3, build_state
from repro.obs.metrics import MetricsRegistry, telemetry_scope
from repro.recovery.baselines import (
    EnumerationBalancedStrategy,
    RandomAggregatedStrategy,
    RandomRecoveryStrategy,
)
from repro.recovery.lrc import LrcLocalRecoveryStrategy, lrc_groups_for_placement
from repro.recovery.regenerating import PiggybackStrategy, RackAwareMSRStrategy
from repro.recovery.selector import CarSelector
from repro.recovery.solution import PerStripeSolution, WeightedStripeSolution


# -- the per-view reference ------------------------------------------------


def ref_views(state):
    views = state.views()
    if not views:
        raise NoValidSolutionError("the failed node stored no chunks")
    return views


def ref_group(state, view, helpers):
    by_rack = {}
    for c in helpers:
        by_rack.setdefault(state.topology.rack_of(view.surviving[c]), []).append(c)
    return PerStripeSolution(
        stripe_id=view.stripe_id,
        lost_chunk=view.lost_chunk,
        failed_rack=view.failed_rack,
        chunks_by_rack={r: tuple(sorted(cs)) for r, cs in by_rack.items()},
    )


def ref_random(state, rng, check_k):
    k, out = state.code.k, []
    for view in ref_views(state):
        survivors = sorted(view.surviving)
        if check_k and len(survivors) < k:
            raise NoValidSolutionError(
                f"stripe {view.stripe_id} has {len(survivors)} < k survivors"
            )
        out.append(ref_group(state, view, rng.sample(survivors, k)))
    return out


def ref_lrc(state):
    code, out = state.code, []
    for view in ref_views(state):
        helpers = list(code.minimal_repair_helpers(view.lost_chunk))
        missing = [h for h in helpers if h not in view.surviving]
        if missing:
            raise RecoveryError(
                f"stripe {view.stripe_id}: local helpers {missing} are "
                f"unavailable (not a single-failure scenario)"
            )
        out.append(ref_group(state, view, helpers))
    return out


def ref_msr(state):
    views = ref_views(state)
    num_racks = state.topology.num_racks
    kbar = (num_racks + 1) // 2
    if kbar < 2:
        raise StrategyError(
            f"rack-aware MSR needs >= 3 racks, topology has {num_racks}",
            strategy="RackMSR",
        )
    dbar, beta = 2 * kbar - 2, 1.0 / (kbar - 1)
    running, out = [0.0] * num_racks, []
    for view in views:
        members = view.rack_members(state.topology)
        candidates = [
            r for r, cs in members.items() if r != view.failed_rack and cs
        ]
        if len(candidates) < dbar:
            raise StrategyError(
                f"stripe {view.stripe_id}: only {len(candidates)} "
                f"intact racks hold survivors, repair needs "
                f"dbar={dbar} (use a rack-aligned placement)",
                strategy="RackMSR",
            )
        candidates.sort(key=lambda r: (running[r], r))
        for r in candidates[:dbar]:
            running[r] += beta
        out.append(
            WeightedStripeSolution(
                stripe_id=view.stripe_id,
                lost_chunk=view.lost_chunk,
                failed_rack=view.failed_rack,
                chunks_by_rack={
                    r: (min(members[r]),) for r in candidates[:dbar]
                },
                rack_units={r: beta for r in candidates[:dbar]},
            )
        )
    return out


def ref_piggyback(state):
    k, m = state.code.k, state.code.m
    if m < 2:
        raise StrategyError(
            f"piggybacking needs m >= 2 parities, code has m={m}",
            strategy="Piggyback",
        )
    pb, out = PiggybackRSCode(k, m), []
    for view in ref_views(state):
        sources = (
            pb.data_repair_sources(view.lost_chunk)
            if pb.is_data(view.lost_chunk)
            else pb.parity_repair_sources()
        )
        per_chunk = {}
        for c, _half in sources:
            per_chunk[c] = per_chunk.get(c, 0.0) + 0.5
        missing = sorted(c for c in per_chunk if c not in view.surviving)
        if missing:
            raise StrategyError(
                f"stripe {view.stripe_id}: piggyback sources "
                f"{missing} are not surviving",
                strategy="Piggyback",
            )
        by_rack, units = {}, {}
        for c, u in per_chunk.items():
            rack = state.topology.rack_of(view.surviving[c])
            by_rack.setdefault(rack, []).append(c)
            if rack != view.failed_rack:
                units[rack] = units.get(rack, 0.0) + u
        out.append(
            WeightedStripeSolution(
                stripe_id=view.stripe_id,
                lost_chunk=view.lost_chunk,
                failed_rack=view.failed_rack,
                chunks_by_rack={r: tuple(sorted(cs)) for r, cs in by_rack.items()},
                rack_units=units,
            )
        )
    return out


def ref_traffic(solutions, num_racks, aggregated):
    t = [0] * num_racks
    for s in solutions:
        for rack, amount in s.cross_rack_chunks(aggregated).items():
            t[rack] += amount
    return t


def ref_lambda(traffic, failed_rack):
    intact = [t for rack, t in enumerate(traffic) if rack != failed_rack]
    total = sum(intact)
    if total == 0:
        return 1.0
    return max(intact) / (total / len(intact))


def ref_enumeration(state, limit):
    selector = CarSelector(state.topology, state.code.k)
    options = [selector.all_valid_solutions(v) for v in ref_views(state)]
    total = 1
    for opts in options:
        if not opts:
            raise NoValidSolutionError("a stripe has no valid solution")
        total *= len(opts)
    if total > limit:
        raise RecoveryError(f"enumeration space {total} exceeds {limit}")
    failed = options[0][0].failed_rack
    best = best_key = None
    for combo in itertools.product(*options):
        t = ref_traffic(combo, state.topology.num_racks, True)
        key = (ref_lambda(t, failed), max(t))
        if best_key is None or key < best_key:
            best, best_key = list(combo), key
    return best


def ref_columns(solutions):
    """The five integer columns of the reference objects."""
    rows = [
        sorted((c, r) for r, cs in s.chunks_by_rack.items() for c in cs)
        for s in solutions
    ]
    width = max(len(row) for row in rows)
    pad = lambda row, i: [p[i] for p in row] + [-1] * (width - len(row))
    return {
        "stripe_id": [s.stripe_id for s in solutions],
        "lost_chunk": [s.lost_chunk for s in solutions],
        "failed_rack": [s.failed_rack for s in solutions],
        "chunk": [pad(row, 0) for row in rows],
        "rack": [pad(row, 1) for row in rows],
    }


# -- the comparison ----------------------------------------------------------


def outcome(solve):
    try:
        return solve(), None
    except ReproError as exc:
        return None, (type(exc), str(exc))


def assert_same_solve(state, strategy, reference, aggregated, rng=None):
    before = rng.getstate() if rng is not None else None
    expected, expected_error = outcome(reference)
    ref_state = rng.getstate() if rng is not None else None
    if rng is not None:
        rng.setstate(before)
    registry = MetricsRegistry()
    with telemetry_scope(registry):
        got, error = outcome(lambda: strategy.solve(state))
    assert error == expected_error
    if rng is not None:
        assert rng.getstate() == ref_state
    if expected is None:
        return
    columns = got.columns()
    for name, values in ref_columns(expected).items():
        assert getattr(columns, name).tolist() == values, name
    num_racks = state.topology.num_racks
    traffic = ref_traffic(expected, num_racks, aggregated)
    assert got.traffic_by_rack() == traffic
    assert [float(t).hex() for t in got.traffic_by_rack()] == [
        float(t).hex() for t in traffic
    ]
    assert float(got.total_cross_rack_traffic()).hex() == float(sum(traffic)).hex()
    assert got.load_balancing_rate().hex() == ref_lambda(
        traffic, expected[0].failed_rack
    ).hex()
    assert list(got.solutions) == expected
    for ours, theirs in zip(got.solutions, expected):
        assert getattr(ours, "rack_units", None) == getattr(
            theirs, "rack_units", None
        )
    if isinstance(expected[0], WeightedStripeSolution):
        # The regenerating strategies count what crosses the core.
        assert registry.counter("strategy.regen.stripes").total == len(expected)
        assert registry.counter(
            "strategy.regen.cross_rack_units"
        ).total == pytest.approx(
            sum(sum(s.rack_units.values()) for s in expected)
        )


CONFIGS = st.sampled_from([CFS1, CFS2, CFS3])
PLACEMENTS = st.sampled_from(["random", "rack_aligned"])


def failed_state(config, seed, placement, stripes):
    state = build_state(
        config, seed, num_stripes=stripes, placement_policy=placement
    )
    FailureInjector(rng=seed).fail_random_node(state)
    return state


class TestStrategiesSolveAsTheReference:
    @settings(deadline=None)
    @given(CONFIGS, st.integers(0, 10_000), PLACEMENTS, st.integers(1, 60))
    def test_rr(self, config, seed, placement, stripes):
        state = failed_state(config, seed, placement, stripes)
        rng = random.Random(seed)
        assert_same_solve(
            state, RandomRecoveryStrategy(rng=rng),
            lambda: ref_random(state, rng, check_k=True), False, rng,
        )

    @settings(deadline=None)
    @given(CONFIGS, st.integers(0, 10_000), PLACEMENTS, st.integers(1, 60))
    def test_random_aggregated(self, config, seed, placement, stripes):
        state = failed_state(config, seed, placement, stripes)
        rng = random.Random(seed)
        assert_same_solve(
            state, RandomAggregatedStrategy(rng=rng),
            lambda: ref_random(state, rng, check_k=False), True, rng,
        )

    @settings(deadline=None)
    @given(CONFIGS, st.integers(0, 10_000), PLACEMENTS, st.integers(1, 60))
    def test_rack_msr(self, config, seed, placement, stripes):
        state = failed_state(config, seed, placement, stripes)
        assert_same_solve(
            state, RackAwareMSRStrategy(), lambda: ref_msr(state), True
        )

    @settings(deadline=None)
    @given(CONFIGS, st.integers(0, 10_000), PLACEMENTS, st.integers(1, 60))
    def test_piggyback(self, config, seed, placement, stripes):
        state = failed_state(config, seed, placement, stripes)
        assert_same_solve(
            state, PiggybackStrategy(), lambda: ref_piggyback(state), False
        )

    @settings(deadline=None)
    @given(st.integers(0, 10_000), st.booleans(), st.integers(1, 40))
    def test_lrc_local_on_group_aligned_placement(self, seed, aggregated, stripes):
        code = LRCCode(k=6, l=2, g=2)
        topo = ClusterTopology.from_rack_sizes([5, 5, 4, 4])
        placement = GroupAlignedPlacementPolicy(
            lrc_groups_for_placement(code), rng=seed
        ).place(topo, stripes, code.k, code.m)
        state = ClusterState(topo, code, placement)
        FailureInjector(rng=seed).fail_random_node(state)
        assert_same_solve(
            state, LrcLocalRecoveryStrategy(aggregated=aggregated),
            lambda: ref_lrc(state), aggregated,
        )

    @settings(deadline=None, max_examples=25)
    @given(CONFIGS, st.integers(0, 10_000), PLACEMENTS, st.integers(1, 8))
    def test_enumeration(self, config, seed, placement, stripes):
        state = failed_state(config, seed, placement, stripes)
        strategy = EnumerationBalancedStrategy(max_combinations=20_000)
        assert_same_solve(
            state, strategy, lambda: ref_enumeration(state, 20_000), True
        )


def test_random_aggregated_names_a_stripe_short_of_k(monkeypatch):
    """Random+Agg refuses a stripe with fewer than ``k`` survivors the
    way RR does, instead of a bare ``random.sample`` error."""
    state = failed_state(CFS2, 0, "random", 10)
    # Every other node lost too: no stripe keeps a survivor.
    everyone = set(range(state.topology.num_nodes))
    columns = state.failure_columns(dead_nodes=everyone)
    monkeypatch.setattr(state, "failure_columns", lambda: columns)
    with pytest.raises(NoValidSolutionError, match="has 0 < k survivors"):
        RandomAggregatedStrategy(rng=0).solve(state)
