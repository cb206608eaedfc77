"""A window is columns from planner to ledger.

The executor charges traffic and compute from a window's integer columns
and never builds a stripe's :class:`Transfer` objects unless something
reads them.  These tests hold the columns to figures computed three
other ways — the materialised plan's objects
(:func:`~repro.recovery.streaming.stripe_accounting`), the solution's
own traffic model (:func:`~repro.recovery.metrics.traffic_report`) and
the eager :func:`plan_recovery` — and count the objects a quiet run
builds.
"""

from collections import Counter
from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.failure import FailureInjector, degraded_view
from repro.errors import PlanError
from repro.experiments.configs import CFS1, CFS2, CFS3, build_state
from repro.obs.metrics import MetricsRegistry, telemetry_scope
from repro.recovery import planner
from repro.recovery.baselines import CarStrategy, _solution_from_helpers
from repro.recovery.executor import PlanExecutor
from repro.recovery.metrics import traffic_report
from repro.recovery.replacement import eligible_replacements, with_replacement
from repro.recovery.planner import (
    plan_recovery,
    plan_recovery_streaming,
    plan_window,
)
from repro.recovery.solution import MultiStripeSolution
from repro.recovery.streaming import stripe_accounting

CHUNK = 256


def solve_around(state, dead, aggregated):
    """CAR (re-planned over the survivors) or RR-style direct recovery
    that reads nothing from ``dead``."""
    if aggregated:
        return CarStrategy().solve_failure(
            state.topology, state.code.k,
            state.failure_columns(dead_nodes=dead),
        )
    views = [
        degraded_view(state.stripe_view(s), dead, state.topology)
        for s in state.affected_stripes()
    ]
    return MultiStripeSolution(
        [
            _solution_from_helpers(
                state, view, sorted(view.surviving)[: state.code.k]
            )
            for view in views
        ],
        num_racks=state.topology.num_racks,
        aggregated=False,
    )


def row_figures(win, i):
    """Stripe ``i``'s ``(cross, intra, charges)`` from the columns alone."""
    c1, i1, ch1 = win.ledger(CHUNK, i + 1)
    c0, i0, ch0 = win.ledger(CHUNK, i)
    return c1 - c0, i1 - i0, {
        node: b - ch0.get(node, 0)
        for node, b in ch1.items()
        if b != ch0.get(node, 0)
    }


class TestColumnsAgreeWithObjects:
    @settings(max_examples=40, deadline=None)
    @given(
        config=st.sampled_from([CFS1, CFS2, CFS3]),
        aggregated=st.booleans(),
        window=st.sampled_from([1, 3, 256]),
        seed=st.integers(0, 500),
        dead_count=st.integers(0, 2),
        data=st.data(),
    )
    def test_three_figures_per_stripe(
        self, config, aggregated, window, seed, dead_count, data
    ):
        state = build_state(config, seed, num_stripes=30)
        event = FailureInjector(rng=seed).fail_random_node(state)
        others = [
            n.node_id for n in state.topology.nodes
            if n.node_id != event.failed_node
        ]
        dead = frozenset(
            data.draw(
                st.lists(st.sampled_from(others), max_size=dead_count,
                         unique=True)
            )
        )
        sol = solve_around(state, dead, aggregated)
        eager = plan_recovery(state, event, sol, dead_nodes=dead)
        by_id = {sp.stripe_id: sp for sp in eager.stripe_plans}
        lazy = plan_recovery_streaming(state, event, sol, dead_nodes=dead)
        seen = 0
        for win in lazy.iter_windows(window):
            assert len(win) <= window
            for i, s in enumerate(win.solutions):
                sp = lazy.stripe_plan(s)
                # Built on demand, field for field the eager object.
                assert sp == by_id[s.stripe_id]
                columns = row_figures(win, i)
                assert columns == stripe_accounting(sp, CHUNK)
                single = MultiStripeSolution(
                    [s], num_racks=state.topology.num_racks,
                    aggregated=aggregated,
                )
                assert columns[0] == traffic_report(single, CHUNK).total_bytes
                seen += 1
        assert seen == len(sol)

    @settings(max_examples=15, deadline=None)
    @given(
        config=st.sampled_from([CFS1, CFS2, CFS3]),
        aggregated=st.booleans(),
        seed=st.integers(0, 500),
    )
    def test_window_ledger_is_the_sum_of_its_rows(
        self, config, aggregated, seed
    ):
        state = build_state(config, seed, num_stripes=30)
        event = FailureInjector(rng=seed).fail_random_node(state)
        sol = solve_around(state, frozenset(), aggregated)
        win = plan_window(
            state, event.replacement_node, sol.solutions,
            aggregated=aggregated,
        )
        cross = intra = 0
        charges = Counter()
        for sp in plan_recovery(state, event, sol).stripe_plans:
            c, i, ch = stripe_accounting(sp, CHUNK)
            cross, intra = cross + c, intra + i
            charges.update(ch)
        assert win.ledger(CHUNK) == (cross, intra, dict(charges))
        assert cross == traffic_report(sol, CHUNK).total_bytes

    def test_a_dead_helper_fails_the_same_stripe_with_the_same_words(self):
        state = build_state(CFS2, 3, num_stripes=30)
        event = FailureInjector(rng=3).fail_random_node(state)
        sol = CarStrategy().solve(state)
        victim = sol.solutions[len(sol) // 2]
        dead = {state.placement.node_of(victim.stripe_id, victim.helpers[-1])}
        first = next(
            s for s in sol.solutions
            if any(
                state.placement.node_of(s.stripe_id, c) in dead
                for c in s.helpers
            )
        )
        lazy = plan_recovery_streaming(state, event, sol, dead_nodes=dead)
        with pytest.raises(PlanError) as per_stripe:
            lazy.stripe_plan(first)
        with pytest.raises(PlanError) as columns:
            next(lazy.iter_windows(len(sol)))
        assert str(columns.value) == str(per_stripe.value)
        assert f"stripe {first.stripe_id}: " in str(columns.value)


class TestQuietRunBuildsNoObjects:
    @pytest.fixture
    def made(self, monkeypatch):
        counts = Counter()
        for cls in (planner.Transfer, planner.ComputeTask, planner.StripePlan):
            def counting(self, *args, _init=cls.__init__, _name=cls.__name__,
                         **kwargs):
                counts[_name] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        return counts

    @pytest.mark.parametrize("registry", [False, True])
    def test_fleet_shape_execute_streaming(self, made, registry):
        state = build_state(CFS3, 0, with_data=True, chunk_size=CHUNK,
                            num_stripes=400)
        event = FailureInjector(rng=0).fail_random_node(state)
        sol = CarStrategy().solve(state)
        with telemetry_scope(MetricsRegistry()) if registry else nullcontext():
            result = PlanExecutor(state).execute_streaming(
                plan_recovery_streaming(state, event, sol), window=256,
                sink=lambda stripe, rebuilt, ok: None,
            )
        assert len(result.per_stripe_ok) == len(sol) > 256
        assert result.verified
        assert made == Counter()
        # The counting wrapper does count what a materialised plan builds.
        plan_recovery(state, event, sol)
        assert made["Transfer"] > 0 and made["StripePlan"] == len(sol)


def test_ledger_charges_match_the_executor_for_a_moved_replacement():
    """A replacement outside the failed rack turns its survivors' flows
    cross-rack; the columns count flows by their endpoints, as the
    objects do."""
    for seed in range(50):
        state = build_state(
            CFS2, seed, with_data=True, chunk_size=64, num_stripes=2
        )
        event = FailureInjector(rng=seed).fail_random_node(state)
        elsewhere = [
            n for n in eligible_replacements(state, event)
            if state.topology.rack_of(n) != event.failed_rack
        ]
        if elsewhere:
            break
    moved = with_replacement(event, elsewhere[0])
    sol = CarStrategy().solve(state)
    plan = plan_recovery(state, moved, sol)
    result = PlanExecutor(state).execute(plan, sol)
    assert result.verified
    assert result.cross_rack_bytes == plan.cross_rack_chunks() * 64
    assert result.intra_rack_bytes == plan.intra_rack_chunks() * 64
    compute = Counter()
    for task in plan.all_compute():
        compute[task.node] += task.input_chunks * 64
    assert result.bytes_computed_by_node == dict(compute)
