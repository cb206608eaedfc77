"""End-to-end telemetry through the recovery pipeline.

The ISSUE acceptance scenario: one fault-injected, cache-warm recovery
run produces a single JSONL trace whose per-stage spans, fault events,
retry counts, and cache hit rates can all be correlated by stripe id —
and instrumentation is inert when telemetry is off.
"""

import pytest

from repro.cluster import (
    ClusterState,
    ClusterTopology,
    DataStore,
    FailureInjector,
    RandomPlacementPolicy,
)
from repro.erasure import RSCode
from repro.faults import (
    BackoffPolicy,
    FaultInjector,
    FaultKind,
    FaultSpec,
    PipelineStage,
    RobustExecutor,
)
from repro.obs import (
    MetricsRegistry,
    Tracer,
    cache_stats,
    render_metrics,
    render_trace,
    telemetry_scope,
    validate_events,
)
from repro.recovery import CarStrategy, PlanExecutor, plan_recovery
from repro.sim import RecoverySimulator

CHUNK = 256


def build(seed=42, stripes=8):
    code = RSCode(6, 3)
    topo = ClusterTopology.from_rack_sizes([4, 3, 3, 3])
    placement = RandomPlacementPolicy(rng=seed).place(
        topo, stripes, code.k, code.m
    )
    data = DataStore(code, stripes, chunk_size=CHUNK, seed=seed)
    state = ClusterState(topo, code, placement, data)
    event = FailureInjector(rng=seed).fail_random_node(state)
    return state, event


def faulty_recovery(tracer, registry):
    """One cache-warm fault-injected recovery + its timing simulation."""
    state, event = build()
    injector = FaultInjector(
        [
            FaultSpec(kind=FaultKind.FLOW_DROP,
                      stage=PipelineStage.INTRA_TRANSFER, max_fires=2),
            FaultSpec(kind=FaultKind.HELPER_CRASH,
                      stage=PipelineStage.CROSS_TRANSFER),
        ],
        seed=7,
    )
    with telemetry_scope(registry):
        solution = CarStrategy().solve(state)
        plan = plan_recovery(state, event, solution)
        # Warm the repair-vector caches with a first plain execution.
        PlanExecutor(state).execute(plan, solution)
        executor = RobustExecutor(
            state, injector=injector, backoff=BackoffPolicy(max_attempts=4),
            tracer=tracer,
        )
        robust = executor.run(event, solution, plan)
        sim = RecoverySimulator(state, tracer=tracer)
        timing = sim.simulate(
            robust.final_plan, CHUNK, timeline=robust.timeline
        )
    # Return the state too: it keeps the code's named caches alive for
    # the cache-stats assertions (registration is by weak reference).
    return state, robust, timing


class TestAcceptanceScenario:
    @pytest.fixture(scope="class")
    def run(self):
        tracer = Tracer()
        registry = MetricsRegistry()
        state, robust, timing = faulty_recovery(tracer, registry)
        return tracer, registry, state, robust, timing

    def test_trace_validates_as_one_stream(self, run, tmp_path):
        tracer, *_ = run
        from repro.obs import read_jsonl

        path = tracer.write_jsonl(tmp_path / "run.jsonl")
        events = read_jsonl(path)
        assert validate_events(events) == len(events) > 0

    def test_exec_spans_and_stage_events_correlate_by_stripe(self, run):
        tracer, _, _, robust, _ = run
        spans = [e for e in tracer.events if e["type"] == "span"]
        exec_spans = [s for s in spans if s["name"] == "exec.stripe"]
        stages = [
            e for e in tracer.events
            if e["type"] == "event" and e["name"] == "exec.stage"
        ]
        assert exec_spans and stages
        recovered = set(robust.result.reconstructed)
        assert recovered <= {s["attrs"]["stripe_id"] for s in exec_spans}
        # Every stage checkpoint names a stripe and a rack.
        for e in stages:
            assert "stripe_id" in e["attrs"] and "rack" in e["attrs"]
        # Stage events nest under some exec.stripe span of their stripe.
        span_stripe = {s["span_id"]: s["attrs"]["stripe_id"]
                       for s in exec_spans}
        nested = [e for e in stages if e["span_id"] in span_stripe]
        assert nested
        for e in nested:
            assert span_stripe[e["span_id"]] == e["attrs"]["stripe_id"]

    def test_fault_events_share_the_stream(self, run):
        tracer, _, _, robust, _ = run
        fault_events = [
            e for e in tracer.events if e["name"].startswith("fault.")
        ]
        action_events = [
            e for e in tracer.events if e["name"].startswith("action.")
        ]
        assert len(fault_events) == len(robust.log.faults)
        assert len(action_events) == len(robust.log.actions)
        retries = [e for e in action_events if e["name"] == "action.retry"]
        assert len(retries) == sum(
            1 for a in robust.log.actions if a.action.value == "retry"
        )

    def test_sim_spans_break_down_sim_time(self, run):
        tracer, _, _, robust, timing = run
        sim_spans = [
            e for e in tracer.events
            if e["type"] == "span" and e["name"] == "sim.stripe"
        ]
        assert len(sim_spans) == len(robust.final_plan.stripe_plans)
        for s in sim_spans:
            assert s["end"] >= s["start"]
            attrs = s["attrs"]
            assert attrs["read_s"] > 0
            assert attrs["transfer_s"] > 0
        # The injected retries show up as per-stripe fault time.
        assert sum(s["attrs"]["fault_s"] for s in sim_spans) > 0
        assert timing.fault_time > 0

    def test_metrics_cover_kernels_faults_and_plans(self, run):
        _, registry, _, robust, _ = run
        snap = registry.snapshot()["metrics"]
        assert snap["gf.kernel.bytes"]["series"]
        assert registry.counter("faults.injected").total == len(
            robust.log.faults
        )
        assert registry.counter("plan.stripes").total > 0
        assert registry.histogram("plan.racks_accessed").count() > 0
        assert registry.counter("exec.stage.checkpoints").total > 0

    def test_cache_warm_run_shows_hits(self, run):
        stats = cache_stats()
        # The per-signature repair plans sit in front of the code's own
        # repair-vector cache, so a warm run hits them first.
        assert stats["exec.repair_groups"]["hits"] > 0
        assert stats["gf.mul_table"]["hits"] > 0

    def test_render_trace_summarises(self, run):
        tracer, registry, *_ = run
        text = render_trace(tracer.events)
        assert "Spans" in text
        assert "exec.stage" in text
        assert "Faults & responses" in text
        assert "Simulated time breakdown" in text
        metrics_text = render_metrics(registry.snapshot(include_caches=True))
        assert "Counters" in metrics_text and "Caches" in metrics_text


class TestDisabledTelemetry:
    def test_pipeline_emits_nothing_by_default(self):
        state, event = build(stripes=4)
        solution = CarStrategy().solve(state)
        plan = plan_recovery(state, event, solution)
        result = PlanExecutor(state).execute(plan, solution)
        assert result.verified
        timing = RecoverySimulator(state).simulate(plan, CHUNK)
        assert timing.total_time > 0
        from repro.obs import current_registry

        assert current_registry() is None

    def test_robust_executor_works_without_tracer(self):
        state, event = build(stripes=4)
        solution = CarStrategy().solve(state)
        robust = RobustExecutor(state).run(event, solution)
        assert robust.verified
