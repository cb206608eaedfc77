"""CAR's column solve against an independent per-stripe reference.

The reference below is a self-contained transcription of the per-stripe
algorithm the column solve replaced: one view per stripe, Theorem 1 as a
sorted prefix, the initial pick and every Algorithm-2 substitution built
rack by rack, traffic re-counted from the solutions at every step.  It
shares nothing with :mod:`repro.recovery.selector` or
:mod:`repro.recovery.balancer` beyond the solution dataclass it fills.

Select a larger example budget with ``HYPOTHESIS_PROFILE=thorough``.
"""

import dataclasses
import itertools
from collections import Counter
from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.failure import FailureInjector
from repro.cluster.state import StripeView
from repro.cluster.topology import BandwidthProfile
from repro.errors import NoValidSolutionError
from repro.experiments.configs import CFS1, CFS2, CFS3, build_state
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricsRegistry, telemetry_scope
from repro.recovery import solution as solution_module
from repro.recovery.baselines import CarStrategy
from repro.recovery.executor import PlanExecutor
from repro.recovery.planner import plan_recovery_streaming
from repro.recovery.selector import iter_valid_rack_sets
from repro.recovery.solution import PerStripeSolution, balancing_rate


# -- the per-stripe reference ---------------------------------------------


def ref_views(state, dead):
    """One view per affected stripe, in stripe order, dead nodes removed."""
    topo, failed = state.topology, state.failed_node
    views = []
    for stripe in range(state.placement.num_stripes):
        layout = state.placement.stripe_layout(stripe)
        lost = [c for c, node in sorted(layout.items()) if node == failed]
        if not lost:
            continue
        surviving = {
            c: node for c, node in layout.items()
            if c != lost[0] and node not in dead
        }
        counts = [0] * topo.num_racks
        for node in surviving.values():
            counts[topo.rack_of(node)] += 1
        views.append(
            StripeView(
                stripe_id=stripe,
                lost_chunk=lost[0],
                surviving=surviving,
                rack_counts=tuple(counts),
                failed_rack=topo.rack_of(failed),
            )
        )
    return views


def ref_intact(view):
    return [
        (rack, count) for rack, count in enumerate(view.rack_counts)
        if rack != view.failed_rack and count > 0
    ]


def ref_min_racks(view, k):
    local = view.rack_counts[view.failed_rack]
    if local >= k:
        return 0
    acc = local
    counts = sorted((c for _, c in ref_intact(view)), reverse=True)
    for d, c in enumerate(counts, start=1):
        acc += c
        if acc >= k:
            return d
    raise NoValidSolutionError(
        f"stripe {view.stripe_id}: only {acc} survivors, need {k}"
    )


def ref_chunks_in_rack(view, rack, topo):
    return sorted(
        c for c, node in view.surviving.items() if topo.rack_of(node) == rack
    )


def ref_build(view, racks, k, topo):
    local = ref_chunks_in_rack(view, view.failed_rack, topo)
    by_rack = {}
    take = min(len(local), k)
    if take:
        by_rack[view.failed_rack] = tuple(local[:take])
    needed = k - take
    per_rack = {r: ref_chunks_in_rack(view, r, topo) for r in racks}
    for rack in sorted(racks, key=lambda r: len(per_rack[r]), reverse=True):
        take = min(len(per_rack[rack]), needed)
        assert take > 0, "reference picked a non-minimal rack set"
        by_rack[rack] = tuple(per_rack[rack][:take])
        needed -= take
    assert needed == 0
    return PerStripeSolution(
        stripe_id=view.stripe_id,
        lost_chunk=view.lost_chunk,
        failed_rack=view.failed_rack,
        chunks_by_rack=by_rack,
    )


def ref_initial(view, k, topo, hint=None, reg=None):
    d = ref_min_racks(view, k)
    if reg is not None:
        reg.counter("selector.solutions").inc()
        reg.histogram(
            "selector.racks_accessed", buckets=obs_metrics.COUNT_BUCKETS
        ).observe(d)
    intact = ref_intact(view)
    if hint is None:
        intact.sort(key=lambda rc: (-rc[1], rc[0]))
    else:
        up = topo.bandwidth.uplink_for
        intact.sort(key=lambda rc: (-rc[1], hint[rc[0]] / up(rc[0]), rc[0]))
    return ref_build(view, sorted(r for r, _ in intact[:d]), k, topo)


def ref_traffic(solutions, num_racks):
    t = [0] * num_racks
    for sol in solutions.values():
        for rack in sol.chunks_by_rack:
            if rack != sol.failed_rack:
                t[rack] += 1
    return t


def ref_substitute(view, sol, avoid, use, k, topo):
    if avoid not in sol.chunks_by_rack or use in sol.chunks_by_rack:
        return None
    new = sorted(
        [r for r in sol.chunks_by_rack if r not in (avoid, view.failed_rack)]
        + [use]
    )
    supply = sum(view.rack_counts[r] for r in new)
    if view.rack_counts[use] == 0 or (
        view.rack_counts[view.failed_rack] + supply < k
    ):
        return None
    return ref_build(view, new, k, topo)


def ref_balance(views, solutions, k, topo, failed, iterations, baseline):
    num_racks = topo.num_racks
    uplink = [topo.bandwidth.uplink_for(r) for r in range(num_racks)]
    intact = [r for r in range(num_racks) if r != failed]

    def loaded():
        t = ref_traffic(solutions, num_racks)
        return t if baseline is None else [a + b for a, b in zip(t, baseline)]

    lambdas, substitutions, converged = [balancing_rate(loaded(), failed)], 0, None
    for it in range(iterations):
        load = loaded()
        l_rack = intact[0]
        for r in intact[1:]:
            if load[r] * uplink[l_rack] > load[l_rack] * uplink[r]:
                l_rack = r
        candidates = sorted(
            (
                r for r in intact
                if r != l_rack
                and (load[r] + 1) * uplink[l_rack] < load[l_rack] * uplink[r]
            ),
            key=lambda r: ((load[r] + 1) / uplink[r], r),
        )
        move = next(
            (
                new
                for i_rack in candidates
                for stripe in sorted(solutions)
                if l_rack in solutions[stripe].chunks_by_rack
                for new in [
                    ref_substitute(
                        views[stripe], solutions[stripe], l_rack, i_rack, k,
                        topo,
                    )
                ]
                if new is not None
            ),
            None,
        )
        if move is None:
            converged = it
            break
        solutions[move.stripe_id] = move
        substitutions += 1
        lambdas.append(balancing_rate(loaded(), failed))
    return lambdas, substitutions, converged


def ref_solve(state, dead, load_balance, warm_start, baseline, reg=None):
    """``(solutions by stripe, traffic, (lambdas, substitutions,
    converged_at))`` of the per-stripe algorithm."""
    topo, k = state.topology, state.code.k
    views = {v.stripe_id: v for v in ref_views(state, dead)}
    solutions = {}
    running = list(baseline) if baseline is not None else [0] * topo.num_racks
    for stripe, view in views.items():
        sol = ref_initial(
            view, k, topo, hint=running if warm_start else None, reg=reg
        )
        if warm_start:
            for rack in sol.chunks_by_rack:
                if rack != sol.failed_rack:
                    running[rack] += 1
        solutions[stripe] = sol
    failed = topo.rack_of(state.failed_node)
    if load_balance:
        trace = ref_balance(
            views, solutions, k, topo, failed, 50, baseline
        )
    else:
        trace = (
            [balancing_rate(ref_traffic(solutions, topo.num_racks), failed)],
            0,
            None,
        )
    return solutions, ref_traffic(solutions, topo.num_racks), trace


# -- the column solve ------------------------------------------------------


def column_solve(state, dead, **options):
    strategy = CarStrategy(**options)
    if dead:
        sol = strategy.solve_failure(
            state.topology, state.code.k,
            state.failure_columns(dead_nodes=dead),
        )
    else:
        sol = strategy.solve(state)
    return sol, strategy.last_trace


@st.composite
def scenarios(draw):
    config = draw(st.sampled_from([CFS1, CFS2, CFS3]))
    seed = draw(st.integers(0, 10_000))
    racks = config.num_racks
    if draw(st.booleans()):
        uplinks = tuple(
            draw(st.sampled_from([0.25, 0.5, 1.0, 2.0])) for _ in range(racks)
        )
        config = dataclasses.replace(
            config, bandwidth=BandwidthProfile(per_rack_uplink_gbps=uplinks)
        )
    state = build_state(config, seed, num_stripes=draw(st.integers(4, 80)))
    event = FailureInjector(rng=seed).fail_random_node(state)
    others = [
        n.node_id for n in state.topology.nodes
        if n.node_id != event.failed_node
    ]
    dead = frozenset(
        draw(st.lists(st.sampled_from(others), max_size=2, unique=True))
    )
    baseline = draw(
        st.none() | st.lists(st.integers(0, 30), min_size=racks, max_size=racks)
    )
    options = dict(
        load_balance=draw(st.booleans()),
        warm_start=draw(st.booleans()),
        baseline_traffic=baseline,
    )
    return state, dead, options


class TestColumnsMatchTheReference:
    @settings(deadline=None)
    @given(scenarios())
    def test_same_solutions_trace_and_traffic(self, scenario):
        state, dead, options = scenario
        try:
            expected, traffic, trace = ref_solve(
                state, dead, options["load_balance"], options["warm_start"],
                options["baseline_traffic"],
            )
        except NoValidSolutionError as exc:
            with pytest.raises(NoValidSolutionError) as raised:
                column_solve(state, dead, **options)
            assert str(raised.value) == str(exc)
            return
        sol, got = column_solve(state, dead, **options)
        assert sol.stripe_ids() == tuple(expected)
        for stripe, ref in expected.items():
            mine = sol.solution_for(stripe)
            assert list(mine.chunks_by_rack.items()) == list(
                ref.chunks_by_rack.items()
            )
            assert mine == ref
        assert (got.lambdas, got.substitutions, got.converged_at) == trace
        assert sol.traffic_by_rack() == traffic

    @settings(deadline=None)
    @given(scenarios())
    def test_every_row_is_theorem1_minimal(self, scenario):
        state, dead, options = scenario
        views = {v.stripe_id: v for v in ref_views(state, dead)}
        try:
            sol, _ = column_solve(state, dead, **options)
        except NoValidSolutionError:
            return
        k = state.code.k
        for stripe, view in views.items():
            mine = sol.solution_for(stripe)
            valid = list(iter_valid_rack_sets(view, k))
            assert mine.intact_racks_accessed in valid
            assert mine.helper_count == k
            # No smaller rack set reaches k: d_j is the minimum.
            local = view.rack_counts[view.failed_rack]
            if mine.num_intact_racks:
                assert not any(
                    local + sum(view.rack_counts[r] for r in combo) >= k
                    for combo in itertools.combinations(
                        [r for r, _ in ref_intact(view)],
                        mine.num_intact_racks - 1,
                    )
                )


def _selector_metrics(reg):
    return {
        name: value
        for name, value in reg.snapshot()["metrics"].items()
        if name.startswith("selector.")
    }


@pytest.mark.parametrize("warm_start", [False, True])
def test_selector_metrics_match_per_stripe_counting(warm_start):
    """One solve records ``selector.*`` from its ``d`` column, with the
    totals the per-stripe ``inc()`` / ``observe()`` left."""
    state = build_state(CFS3, 0, num_stripes=600)
    FailureInjector(rng=0).fail_random_node(state)
    columns, per_stripe = MetricsRegistry(), MetricsRegistry()
    with telemetry_scope(columns):
        CarStrategy(warm_start=warm_start).solve(state)
    ref_solve(state, frozenset(), True, warm_start, None, reg=per_stripe)
    assert _selector_metrics(columns) == _selector_metrics(per_stripe)
    assert _selector_metrics(columns)["selector.solutions"]["series"][0][
        "value"
    ] == len(state.affected_stripes())


class TestQuietSolveBuildsNoObjects:
    @pytest.fixture
    def made(self, monkeypatch):
        counts = Counter()
        for cls in (StripeView, solution_module.PerStripeSolution):
            def counting(self, *args, _init=cls.__init__, _name=cls.__name__,
                         **kwargs):
                counts[_name] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        return counts

    @pytest.mark.parametrize("registry", [False, True])
    def test_fleet_shape_solve_and_execute(self, made, registry):
        state = build_state(CFS3, 0, with_data=True, chunk_size=256,
                            num_stripes=400)
        event = FailureInjector(rng=0).fail_random_node(state)
        with telemetry_scope(MetricsRegistry()) if registry else nullcontext():
            sol = CarStrategy().solve(state)
            result = PlanExecutor(state).execute_streaming(
                plan_recovery_streaming(state, event, sol), window=256,
                sink=lambda stripe, rebuilt, ok: None,
            )
        assert len(result.per_stripe_ok) == len(sol) > 256
        assert result.verified
        assert made == Counter()
        # The counting wrapper does count what the per-stripe API builds.
        sol.solution_for(sol.stripe_ids()[0])
        state.stripe_view(sol.stripe_ids()[0])
        assert made == Counter(PerStripeSolution=1, StripeView=1)
