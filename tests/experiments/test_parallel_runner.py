"""The experiment runner's batch is its run loop, and nothing else.

Every run is a pure function of ``(config, base_seed + i, factories)``,
so ``run_all`` must equal the runs taken one by one, two batches must
agree, and the telemetry a batch persists must match its in-memory
merge.  Fault-layer objects still pickle, for callers that ship them.
"""

import pytest

from repro.experiments import CFS1, ExperimentRunner
from repro.recovery.baselines import CarStrategy, RandomRecoveryStrategy


def _runner(runs=3):
    return ExperimentRunner(CFS1, runs=runs, num_stripes=12)


def _fingerprint(results):
    """Everything observable about a result list, as plain data."""
    out = []
    for r in results:
        per_strategy = {}
        for name, sol in sorted(r.solutions.items()):
            per_strategy[name] = (
                tuple(sol.traffic_by_rack()),
                sol.load_balancing_rate(),
                tuple(
                    (s.stripe_id, tuple(sorted(s.chunks_by_rack.items())))
                    for s in sol.solutions
                ),
            )
        out.append((r.run_index, r.event.failed_node, per_strategy))
    return out


FACTORIES = {"CAR": lambda seed: CarStrategy(), "RR": RandomRecoveryStrategy}


class TestParallelIdentity:
    def test_workers_none_is_serial_default(self):
        runner = _runner()
        assert _fingerprint(runner.run_all(FACTORIES)) == _fingerprint(
            [runner.run_one(i, FACTORIES) for i in range(runner.runs)]
        )

    def test_parallel_preserves_strategy_artifacts(self):
        """Each run keeps its strategy instances and their balance traces."""
        results = _runner(runs=2).run_all(
            {"CAR": lambda seed: CarStrategy()}
        )
        for r in results:
            trace = r.strategies["CAR"].last_trace
            assert trace is not None
            assert trace.lambdas


class TestTelemetryAggregation:
    """Merged metrics are a function of the runs, not of the batch."""

    def _merged_snapshot(self, tmp_path, tag):
        runner = ExperimentRunner(
            CFS1, runs=4, num_stripes=12, telemetry=tmp_path / tag
        )
        results = runner.run_all(FACTORIES)
        return runner.merged_metrics(results).snapshot()

    def test_metric_aggregate_identical_for_any_worker_count(self, tmp_path):
        first = self._merged_snapshot(tmp_path, "first")
        second = self._merged_snapshot(tmp_path, "second")
        assert first["metrics"]
        assert first == second

    def test_written_metrics_match_in_memory_merge(self, tmp_path):
        import json

        runner = ExperimentRunner(
            CFS1, runs=2, num_stripes=12, telemetry=tmp_path / "out"
        )
        results = runner.run_all(FACTORIES)
        written = json.loads((tmp_path / "out" / "metrics.json").read_text())
        merged = runner.merged_metrics(results).snapshot(include_caches=True)
        # The written file additionally carries the batch's
        # resource-profile gauges.
        profile = {
            k: v for k, v in written["metrics"].items()
            if k.startswith("profile.")
        }
        assert profile["profile.samples"]["kind"] == "gauge"
        written["metrics"] = {
            k: v for k, v in written["metrics"].items()
            if not k.startswith("profile.")
        }
        assert written == json.loads(json.dumps(merged))

    def test_trace_records_annotated_with_run_index(self, tmp_path):
        from repro.obs import read_jsonl, validate_events

        runner = ExperimentRunner(
            CFS1, runs=3, num_stripes=12, telemetry=tmp_path / "out"
        )
        runner.run_all(FACTORIES)
        events = read_jsonl(tmp_path / "out" / "trace.jsonl")
        assert validate_events(events) == len(events) > 0
        assert {e["run"] for e in events} == {0, 1, 2}

    def test_no_telemetry_attribute_without_directory(self):
        results = _runner(runs=1).run_all(FACTORIES)
        assert results[0].telemetry is None


class TestParallelValidation:
    def test_lambdas_still_fine_serially(self):
        results = _runner(runs=1).run_all(
            {"CAR": lambda seed: CarStrategy()}
        )
        assert len(results) == 1


class TestFaultArtifactPickling:
    """Fault-layer objects must survive a process boundary.

    Regression suite: ``RecoveryAbort``/``InjectedCrashError`` carry
    required constructor arguments, and exceptions with such signatures
    break default exception pickling unless ``__reduce__`` replays the
    constructor.  A worker process raising (or returning) any of these
    used to kill the whole parallel experiment with an opaque
    ``TypeError`` instead of propagating the typed failure.
    """

    @staticmethod
    def round_trip(obj):
        import pickle

        return pickle.loads(pickle.dumps(obj))

    def test_fault_injector_round_trips(self):
        from repro.faults import (
            FaultInjector,
            FaultKind,
            FaultSpec,
            PipelineStage,
        )

        injector = FaultInjector(
            [FaultSpec(kind=FaultKind.FLOW_DROP,
                       stage=PipelineStage.CROSS_TRANSFER, max_fires=2)],
            seed=9,
        )
        clone = self.round_trip(injector)
        assert clone._specs == injector._specs
        assert clone.rng.getstate() == injector.rng.getstate()

    def test_recovery_abort_round_trips(self):
        from repro.faults import RecoveryAbort
        from repro.faults.events import FaultLog

        abort = RecoveryAbort("out of replans", FaultLog(),
                              dead_nodes=frozenset({3, 5}))
        clone = self.round_trip(abort)
        assert clone.reason == "out of replans"
        assert clone.dead_nodes == frozenset({3, 5})

    def test_injected_crash_error_round_trips(self):
        from repro.faults import FaultKind, InjectedCrashError, PipelineStage
        from repro.faults.events import FaultEvent

        event = FaultEvent(
            kind=FaultKind.HELPER_CRASH,
            stage=PipelineStage.DISK_READ,
            stripe_id=2, node=4, rack=1, attempt=0,
        )
        clone = self.round_trip(InjectedCrashError(event))
        assert clone.event == event

    def test_coordinator_crash_error_round_trips(self):
        from repro.errors import CoordinatorCrashError

        err = CoordinatorCrashError("died", records_written=17)
        clone = self.round_trip(err)
        assert clone.records_written == 17
        assert str(clone) == "died"

    def test_robust_result_round_trips_from_worker(self):
        """A full RobustExecutionResult crosses a real process boundary."""
        from concurrent.futures import ProcessPoolExecutor

        result = _robust_result_in_worker(0)  # sanity: works in-process
        assert result.verified
        with ProcessPoolExecutor(max_workers=1) as pool:
            shipped = pool.submit(_robust_result_in_worker, 0).result()
        assert shipped.verified
        assert shipped.result.cross_rack_bytes == result.result.cross_rack_bytes
        assert [f.kind for f in shipped.log.faults] == [
            f.kind for f in result.log.faults
        ]

    def test_abort_propagates_from_worker(self):
        """A worker's typed abort arrives intact, not as a pickle error."""
        from concurrent.futures import ProcessPoolExecutor

        from repro.faults import RecoveryAbort

        with ProcessPoolExecutor(max_workers=1) as pool:
            future = pool.submit(_abort_in_worker)
            with pytest.raises(RecoveryAbort, match="unbounded") as excinfo:
                future.result()
        assert excinfo.value.log.faults


def _robust_result_in_worker(seed):
    """Module-level so ProcessPoolExecutor can pickle the callable."""
    from repro.experiments.configs import build_state
    from repro.cluster.failure import FailureInjector
    from repro.faults import (
        BackoffPolicy,
        FaultInjector,
        FaultKind,
        FaultSpec,
        recover_with_faults,
    )
    from repro.faults import PipelineStage
    from repro.recovery import CarStrategy

    state = build_state(CFS1, seed=seed, with_data=True, num_stripes=8)
    event = FailureInjector(rng=seed).fail_random_node(state)
    injector = FaultInjector(
        [FaultSpec(kind=FaultKind.FLOW_DROP,
                   stage=PipelineStage.CROSS_TRANSFER, max_fires=1)],
        seed=5,
    )
    return recover_with_faults(
        state, event, CarStrategy(), injector=injector,
        backoff=BackoffPolicy(max_attempts=3),
    )


def _abort_in_worker():
    from repro.faults import FaultKind, FaultLog, PipelineStage, RecoveryAbort
    from repro.faults.events import FaultEvent

    log = FaultLog()
    log.record(FaultEvent(
        kind=FaultKind.HELPER_CRASH, stage=PipelineStage.DISK_READ,
        stripe_id=0, node=1, rack=0, attempt=0,
    ))
    raise RecoveryAbort("unbounded fault pressure", log,
                        dead_nodes=frozenset({1}))
