"""Experiment driver: repeated randomised runs and averaging.

The paper's methodology: random placement of 100 stripes, a random
failed node, recover with each strategy, average over 50 runs.  The
:class:`ExperimentRunner` reproduces that loop; each run derives its own
seed so results are reproducible end to end, and within a run every
strategy sees the *same* placement and failure (paired comparison, as
on the testbed).
"""

from __future__ import annotations

import json
import math
import pickle
import statistics
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from repro.cluster.failure import FailureInjector
from repro.cluster.state import ClusterState, FailureEvent
from repro.errors import ConfigurationError
from repro.experiments.configs import CFSConfig, build_state, config_by_name
from repro.obs.metrics import MetricsRegistry, telemetry_scope
from repro.obs.tracer import Tracer
from repro.recovery.baselines import RecoveryStrategy, strategy_from_label
from repro.recovery.solution import MultiStripeSolution

__all__ = [
    "RunTelemetry", "RunResult", "Series", "ExperimentRunner", "mean_std",
    "run_durable_recovery", "resume_durable_recovery",
]

#: Reusable no-op context for the telemetry-disabled run path.
_NULL_CTX = nullcontext()


@dataclass(frozen=True)
class RunTelemetry:
    """Telemetry captured by one run, serialisable across processes.

    Attributes:
        events: the run's JSONL-ready trace records (spans + events).
        metrics: the run's registry snapshot (no cache section — cache
            stats are process-local and would not aggregate
            deterministically across worker counts).
    """

    events: tuple[dict, ...]
    metrics: dict


@dataclass(frozen=True)
class RunResult:
    """Everything produced by one (placement, failure) run.

    Attributes:
        run_index: which repetition.
        state: the cluster (still failed) the run used.
        event: the injected failure.
        solutions: strategy name -> its solution.
        strategies: strategy name -> the strategy instance (so callers
            can read per-strategy artefacts such as balance traces).
        telemetry: the run's captured trace + metrics when the runner
            was constructed with a ``telemetry`` directory, else None.
    """

    run_index: int
    state: ClusterState
    event: FailureEvent
    solutions: dict[str, MultiStripeSolution]
    strategies: dict[str, RecoveryStrategy]
    telemetry: RunTelemetry | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Series:
    """A labelled sequence of (x, mean, std) points — one figure line."""

    label: str
    xs: tuple[float, ...]
    means: tuple[float, ...]
    stds: tuple[float, ...]

    def point(self, x: float) -> tuple[float, float]:
        """(mean, std) at a given x.

        Raises:
            ConfigurationError: if ``x`` is not one of the series' x
                values (a :class:`ValueError`, for compatibility).
        """
        try:
            idx = self.xs.index(x)
        except ValueError:
            raise ConfigurationError(
                f"series {self.label!r} has no point at x={x} "
                f"(xs={self.xs})"
            ) from None
        return self.means[idx], self.stds[idx]


def mean_std(values: Sequence[float]) -> tuple[float, float]:
    """Mean and (population-0-safe) standard deviation of a sample."""
    if not values:
        raise ConfigurationError("cannot summarise an empty sample")
    mean = statistics.fmean(values)
    std = statistics.stdev(values) if len(values) > 1 else 0.0
    if math.isnan(std):  # pragma: no cover - stdev never returns NaN here
        std = 0.0
    return mean, std


class ExperimentRunner:
    """Repeats the paper's run loop for one CFS configuration.

    Args:
        config: the CFS setting.
        runs: repetitions to average (paper: 50).
        base_seed: root seed; run ``i`` uses ``base_seed + i`` for both
            placement and failure choice.
        num_stripes: stripes per run (paper: 100).
        telemetry: optional directory.  When set, every run records a
            span trace and a fresh per-run metrics registry (shipped
            back from worker processes as plain dicts), and
            :meth:`run_all` persists ``trace.jsonl`` (each record
            annotated with its run index), ``metrics.json`` (the
            per-run registries merged in run order — identical for any
            worker count), and ``profile.jsonl`` (coordinator resource
            samples over the batch) into the directory.
        placement_policy: forwarded to
            :func:`~repro.experiments.configs.build_state` — the regen
            experiment runs its rack-aware MSR arm on the
            ``"rack_aligned"`` layout.
        profile_interval: seconds between resource samples of the
            batch-wide :class:`~repro.obs.profile.ResourceSampler`
            (only active when ``telemetry`` is set).  The sampler runs
            in the coordinator process only and folds into
            ``metrics.json`` as ``profile.*`` gauges *after* workers
            finish, so the snapshot stays worker-count invariant.
    """

    def __init__(
        self,
        config: CFSConfig,
        runs: int = 50,
        base_seed: int = 20160628,
        num_stripes: int | None = None,
        telemetry: str | Path | None = None,
        placement_policy: str = "random",
        profile_interval: float = 0.05,
    ) -> None:
        self.config = config
        self.runs = runs
        self.base_seed = base_seed
        self.num_stripes = num_stripes
        self.telemetry = Path(telemetry) if telemetry is not None else None
        self.placement_policy = placement_policy
        self.profile_interval = profile_interval

    def run_all(
        self,
        strategy_factories: dict[str, Callable[[int], RecoveryStrategy]],
        workers: int | None = None,
    ) -> list[RunResult]:
        """Execute every run with freshly built strategies.

        Args:
            strategy_factories: name -> factory taking the run seed and
                returning a strategy instance (strategies with RNGs must
                be re-seeded per run for reproducibility).
            workers: number of worker processes.  ``None`` or ``1`` runs
                serially in-process; larger values fan the independent
                runs out over a :class:`ProcessPoolExecutor`.  Each run
                is a pure function of ``(config, base_seed + i,
                factories)``, and results are gathered in run order, so
                the output is identical for every worker count.

        Raises:
            ConfigurationError: if ``workers`` is not positive, or the
                factories cannot be pickled for worker processes (use
                the classes in :mod:`repro.experiments.factories`
                instead of lambdas when parallelising).
        """
        if workers is not None and workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        sampler = None
        if self.telemetry is not None:
            from repro.obs.profile import ResourceSampler

            sampler = ResourceSampler(interval=self.profile_interval).start()
        try:
            if workers is None or workers == 1 or self.runs <= 1:
                results = [
                    self.run_one(i, strategy_factories)
                    for i in range(self.runs)
                ]
                return self._persist_telemetry(results, sampler)
            # Probe picklability exactly once and keep the payload: every
            # submit ships the already-serialised bytes instead of
            # re-pickling the factory dict per run.
            try:
                payload = pickle.dumps(strategy_factories)
            except Exception as exc:
                raise ConfigurationError(
                    "strategy factories must be picklable for workers > 1 "
                    "(lambdas are not; use repro.experiments.factories)"
                ) from exc
            with ProcessPoolExecutor(
                max_workers=min(workers, self.runs)
            ) as pool:
                futures = [
                    pool.submit(_run_one_from_payload, self, i, payload)
                    for i in range(self.runs)
                ]
                results = [f.result() for f in futures]
            return self._persist_telemetry(results, sampler)
        finally:
            if sampler is not None:
                sampler.stop()

    def _persist_telemetry(
        self, results: list[RunResult], sampler=None
    ) -> list[RunResult]:
        """Write the aggregate trace + metrics of a telemetry-enabled batch.

        Per-run snapshots merge in run order, so the ``metrics.json``
        aggregate is bit-identical for any worker count; the cache
        section reflects this (parent) process only.  The batch-wide
        resource sampler (coordinator process only) lands as
        ``profile.jsonl`` plus ``profile.*`` gauges in the merged
        snapshot — gauges are last-write-wins on merge, so they too are
        identical for any worker count.
        """
        if self.telemetry is None:
            return results
        self.telemetry.mkdir(parents=True, exist_ok=True)
        merged = MetricsRegistry()
        trace_path = self.telemetry / "trace.jsonl"
        with trace_path.open("w", encoding="utf-8") as fh:
            for r in results:
                if r.telemetry is None:  # pragma: no cover - defensive
                    continue
                merged.merge(r.telemetry.metrics)
                for record in r.telemetry.events:
                    fh.write(
                        json.dumps({**record, "run": r.run_index},
                                   sort_keys=True)
                        + "\n"
                    )
        if sampler is not None:
            sampler.stop()
            sampler.merge_into(merged)
            sampler.write_jsonl(self.telemetry / "profile.jsonl")
        merged.write_json(self.telemetry / "metrics.json")
        return results

    def merged_metrics(self, results: Sequence[RunResult]) -> MetricsRegistry:
        """Fold the per-run snapshots of ``results`` into one registry."""
        merged = MetricsRegistry()
        for r in results:
            if r.telemetry is not None:
                merged.merge(r.telemetry.metrics)
        return merged

    def run_one(
        self,
        run_index: int,
        strategy_factories: dict[str, Callable[[int], RecoveryStrategy]],
    ) -> RunResult:
        """One (placement, failure, solve-with-every-strategy) run.

        With telemetry enabled the run gets its own tracer and a fresh
        :class:`MetricsRegistry` installed as the current registry for
        its duration — runs are then self-contained telemetry units
        that aggregate identically regardless of which process (or how
        many workers) executed them.
        """
        seed = self.base_seed + run_index
        if self.telemetry is None:
            return self._solve_run(run_index, seed, strategy_factories)
        tracer = Tracer()
        registry = MetricsRegistry()
        with telemetry_scope(registry):
            result = self._solve_run(
                run_index, seed, strategy_factories, tracer
            )
        telemetry = RunTelemetry(
            events=tuple(tracer.events),
            metrics=registry.snapshot(include_caches=False),
        )
        return RunResult(
            run_index=result.run_index,
            state=result.state,
            event=result.event,
            solutions=result.solutions,
            strategies=result.strategies,
            telemetry=telemetry,
        )

    def _solve_run(
        self,
        run_index: int,
        seed: int,
        strategy_factories: dict[str, Callable[[int], RecoveryStrategy]],
        tracer: Tracer | None = None,
    ) -> RunResult:
        span = (
            tracer.span(
                "run", run_index=run_index, config=self.config.name, seed=seed
            )
            if tracer is not None
            else _NULL_CTX
        )
        with span:
            state = build_state(
                self.config, seed, num_stripes=self.num_stripes,
                placement_policy=self.placement_policy,
            )
            injector = FailureInjector(rng=seed)
            event = injector.fail_random_node(state)
            solutions: dict[str, MultiStripeSolution] = {}
            strategies: dict[str, RecoveryStrategy] = {}
            for name, factory in strategy_factories.items():
                strategy = factory(seed)
                if tracer is not None:
                    with tracer.span("solve", strategy=name,
                                     run_index=run_index):
                        solutions[name] = strategy.solve(state)
                else:
                    solutions[name] = strategy.solve(state)
                strategies[name] = strategy
        return RunResult(
            run_index=run_index,
            state=state,
            event=event,
            solutions=solutions,
            strategies=strategies,
        )


def _run_one_from_payload(
    runner: ExperimentRunner, run_index: int, payload: bytes
) -> RunResult:
    """Worker entry point: rebuild the factories from the probe payload.

    Module-level so it pickles by reference; the factories cross the
    process boundary as the bytes the picklability probe already
    produced, not as a fresh serialisation per run.
    """
    return runner.run_one(run_index, pickle.loads(payload))


# -- durable (crash-resumable) single runs --------------------------------

def _durable_strategy(label: str, seed: int):
    """The strategy a durable run executes for ``label``.

    The label (not the instance) is persisted in the journal header, so
    a resuming process rebuilds the *same deterministic* strategy from
    it and the run seed.  ``rack-msr`` is refused with the unknown
    labels: a durable run rebuilds bytes, and that one only models
    traffic (:func:`~repro.recovery.baselines.strategy_from_label`).
    """
    if label not in ("car", "direct", "rr"):
        raise ConfigurationError(
            f"unknown durable strategy {label!r} "
            "(expected 'car', 'direct' or 'rr')"
        )
    return strategy_from_label(label, seed)


def run_durable_recovery(
    config: CFSConfig,
    journal_path: str | Path,
    *,
    strategy: str = "car",
    seed: int = 0,
    num_stripes: int | None = None,
    chunk_size: int = 4096,
    injector=None,
    backoff=None,
    crash_after_records: int | None = None,
    window: int | None = None,
    progress=None,
):
    """One journalled recovery run on ``config`` (paper methodology).

    Builds the cluster, fails a random node, and executes the whole
    recovery inside a :class:`~repro.durable.session.RecoverySession`.
    The journal's session header is self-describing — config name, run
    seed, stripe count, chunk size, strategy label, failed node — so
    :func:`resume_durable_recovery` can reconstruct the identical
    cluster from the journal alone, in a fresh process.

    Raises:
        CoordinatorCrashError: when ``crash_after_records`` (or an armed
            COORDINATOR_CRASH fault) kills the run; the journal at
            ``journal_path`` is the resume point.
    """
    from repro.durable.session import RecoverySession

    state = build_state(
        config, seed=seed, with_data=True,
        chunk_size=chunk_size, num_stripes=num_stripes,
    )
    event = FailureInjector(rng=seed).fail_random_node(state)
    session = RecoverySession(
        state, event, _durable_strategy(strategy, seed), journal_path,
        injector=injector, backoff=backoff,
        crash_after_records=crash_after_records,
        window=window, progress=progress,
        session_meta={
            "config": config.name,
            "seed": seed,
            "num_stripes": state.placement.num_stripes,
            "strategy_label": strategy,
        },
    )
    return session.run()


def resume_durable_recovery(
    journal_path: str | Path,
    *,
    crash_after_records: int | None = None,
    window: int | None = None,
    progress=None,
):
    """Resume a crashed durable run from its journal, in any process.

    Rebuilds the cluster (placement, data, failure) purely from the
    journal's session header, then replays committed stripes and
    executes pending ones.  Secondary-fault injection does not survive
    the coordinator: the resumed incarnation runs fault-free unless the
    caller arms ``crash_after_records`` again.

    Raises:
        JournalError: malformed journal, or a header missing the
            self-description written by :func:`run_durable_recovery`.
    """
    from repro.durable.journal import JournalReplay
    from repro.durable.session import RecoverySession
    from repro.errors import JournalError

    replay = JournalReplay.load(journal_path)
    header = replay.session
    missing = [
        key for key in ("config", "seed", "num_stripes", "chunk_size",
                        "strategy_label", "failed_node")
        if key not in header
    ]
    if missing:
        raise JournalError(
            f"journal header is not self-describing: missing {missing}"
        )
    try:
        config = config_by_name(header["config"])
    except ConfigurationError as exc:
        raise JournalError(f"journal names an {exc}") from exc
    state = build_state(
        config, seed=header["seed"], with_data=True,
        chunk_size=header["chunk_size"], num_stripes=header["num_stripes"],
    )
    event = FailureInjector().fail_node(state, header["failed_node"])
    session = RecoverySession(
        state, event,
        _durable_strategy(header["strategy_label"], header["seed"]),
        journal_path,
        crash_after_records=crash_after_records,
        window=window, progress=progress,
    )
    return session.resume()
