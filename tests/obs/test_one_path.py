"""Telemetry does not change which code path runs.

A tracer and a metrics registry record what a repair did; they act on
no stripe.  So a run with both takes the quiet run's path — stage A
keeps no partials, no stripe is walked — and returns the quiet run's
figures, and a journalled session writes the same journal either way.
"""

import pytest

from repro.cluster.failure import FailureInjector
from repro.durable.session import RecoverySession
from repro.experiments.configs import CFS2, build_state
from repro.obs import MetricsRegistry, Tracer, telemetry_scope
from repro.recovery import PlanExecutor, plan_recovery_streaming
from repro.recovery import streaming as _streaming
from repro.recovery.baselines import (
    CarStrategy,
    MinRackNoAggregationStrategy,
    RandomAggregatedStrategy,
    RandomRecoveryStrategy,
)

STRATEGIES = {
    "car": CarStrategy,
    "car-direct": MinRackNoAggregationStrategy,
    "rr": lambda: RandomRecoveryStrategy(rng=3),
    "rr-aggregated": lambda: RandomAggregatedStrategy(rng=3),
}


def failed(seed=3, stripes=30):
    state = build_state(CFS2, seed, with_data=True, chunk_size=64,
                        num_stripes=stripes)
    return state, FailureInjector(rng=seed).fail_random_node(state)


def figures(result):
    return (
        {s: bytes(buf) for s, buf in result.reconstructed.items()},
        result.per_stripe_ok,
        result.cross_rack_bytes,
        result.intra_rack_bytes,
        result.bytes_computed_by_node,
    )


@pytest.mark.parametrize("name", list(STRATEGIES))
def test_telemetry_takes_the_quiet_path(monkeypatch, name):
    state, event = failed()
    solution = STRATEGIES[name]().solve(state)
    stage = _streaming.thread_stage
    keeps = []

    def watched(code, data, *, keep_partials):
        keeps.append(keep_partials)
        return stage(code, data, keep_partials=keep_partials)

    def walked(*args, **kwargs):
        raise AssertionError("a stripe was walked")

    monkeypatch.setattr(_streaming, "thread_stage", watched)
    monkeypatch.setattr(PlanExecutor, "_walk_stripe", walked)

    def run(tracer):
        plan = plan_recovery_streaming(state, event, solution)
        return PlanExecutor(state, tracer).execute(plan, window=7)

    quiet = run(None)
    tracer = Tracer()
    with telemetry_scope(MetricsRegistry()) as registry:
        observed = run(tracer)
    assert keeps == [False, False]
    assert quiet.verified
    assert figures(observed) == figures(quiet)
    # The telemetry was recorded all the same.
    assert registry.counter("exec.stripes").total == len(solution)
    assert {e["name"] for e in tracer.events} == {
        "exec.stream.aggregate", "exec.stream.ship",
    }


@pytest.mark.parametrize("name", ["car", "rr"])
def test_a_tracer_leaves_the_journal_as_it_is(tmp_path, name):
    journals = []
    for tracer in (None, Tracer()):
        state, event = failed(stripes=16)
        path = tmp_path / f"{len(journals)}.journal"
        session = RecoverySession(
            state, event, STRATEGIES[name](), path, tracer=tracer, window=3,
        )
        assert session.run().verified
        journals.append(path.read_bytes())
    assert journals[0] == journals[1]
