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
import statistics
from collections.abc import Callable, Sequence
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
    "run_durable_recovery", "resume_durable_recovery", "write_telemetry",
]

#: Reusable no-op context for the telemetry-disabled run path.
_NULL_CTX = nullcontext()


@dataclass(frozen=True)
class RunTelemetry:
    """Telemetry captured by one run, as plain data.

    Attributes:
        events: the run's JSONL-ready trace records (spans + events).
        metrics: the run's registry snapshot (no cache section — caches
            live for the whole process, so they are not one run's).
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


def write_telemetry(
    directory: Path,
    runs: Sequence[tuple[int, RunTelemetry]],
    sampler=None,
) -> None:
    """Persist a batch's telemetry into ``directory``.

    Writes ``trace.jsonl`` (every record tagged with its run index),
    ``metrics.json`` (the runs' snapshots merged in run order; the cache
    section is the process's) and, given the batch's resource
    ``sampler``, ``profile.jsonl`` plus ``profile.*`` gauges in the
    merged snapshot.
    """
    directory.mkdir(parents=True, exist_ok=True)
    merged = MetricsRegistry()
    with (directory / "trace.jsonl").open("w", encoding="utf-8") as fh:
        for index, telemetry in runs:
            merged.merge(telemetry.metrics)
            for record in telemetry.events:
                fh.write(json.dumps({**record, "run": index}, sort_keys=True))
                fh.write("\n")
    if sampler is not None:
        sampler.stop()
        sampler.merge_into(merged)
        sampler.write_jsonl(directory / "profile.jsonl")
    merged.write_json(directory / "metrics.json")


class ExperimentRunner:
    """Repeats the paper's run loop for one CFS configuration.

    Args:
        config: the CFS setting.
        runs: repetitions to average (paper: 50).
        base_seed: root seed; run ``i`` uses ``base_seed + i`` for both
            placement and failure choice.
        num_stripes: stripes per run (paper: 100).
        telemetry: optional directory.  When set, every run records a
            span trace and a fresh per-run metrics registry, and
            :meth:`run_all` persists ``trace.jsonl`` (each record
            annotated with its run index), ``metrics.json`` (the
            per-run registries merged in run order, plus the batch's
            ``profile.*`` resource gauges), and ``profile.jsonl``
            (resource samples over the batch) into the directory.
        placement_policy: forwarded to
            :func:`~repro.experiments.configs.build_state` — the regen
            experiment runs its rack-aware MSR arm on the
            ``"rack_aligned"`` layout.
    """

    def __init__(
        self,
        config: CFSConfig,
        runs: int = 50,
        base_seed: int = 20160628,
        num_stripes: int | None = None,
        telemetry: str | Path | None = None,
        placement_policy: str = "random",
    ) -> None:
        self.config = config
        self.runs = runs
        self.base_seed = base_seed
        self.num_stripes = num_stripes
        self.telemetry = Path(telemetry) if telemetry is not None else None
        self.placement_policy = placement_policy

    def run_all(
        self,
        strategy_factories: dict[str, Callable[[int], RecoveryStrategy]],
    ) -> list[RunResult]:
        """Execute every run, in order, with freshly built strategies.

        Args:
            strategy_factories: name -> callable taking the run seed and
                returning a strategy instance (strategies with RNGs must
                be re-seeded per run for reproducibility), e.g.
                ``RandomRecoveryStrategy`` itself or
                ``lambda seed: CarStrategy(iterations=20)``.
        """
        sampler = None
        if self.telemetry is not None:
            from repro.obs.profile import ResourceSampler

            sampler = ResourceSampler().start()
        try:
            results = [
                self.run_one(i, strategy_factories) for i in range(self.runs)
            ]
            if self.telemetry is not None:
                write_telemetry(
                    self.telemetry,
                    [(r.run_index, r.telemetry) for r in results],
                    sampler,
                )
            return results
        finally:
            if sampler is not None:
                sampler.stop()

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
        its duration, so each run is a self-contained telemetry unit.
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


# -- durable (crash-resumable) single runs --------------------------------

#: The journal-header keys a durable run writes so that any process can
#: rebuild its cluster, failure and strategy from the journal alone.
_SELF_DESCRIBING = ("config", "seed", "num_stripes", "chunk_size",
                    "strategy_label", "failed_node")


def _durable_session(
    journal_path, *, config, seed, num_stripes, chunk_size, strategy_label,
    failed_node=None, **session_kwargs,
):
    """The session of the durable run the :data:`_SELF_DESCRIBING` keys
    name (``failed_node=None`` fails a random node, as a fresh run does).

    The strategy *label*, not the instance, is persisted, so a resuming
    process rebuilds the same deterministic strategy from it and the
    run seed.  ``rack-msr`` is refused with the unknown labels: a
    durable run rebuilds bytes, and that one only models traffic
    (:func:`~repro.recovery.baselines.strategy_from_label`).
    """
    from repro.durable.session import RecoverySession

    if strategy_label not in ("car", "direct", "rr"):
        raise ConfigurationError(
            f"unknown durable strategy {strategy_label!r} "
            "(expected 'car', 'direct' or 'rr')"
        )
    state = build_state(
        config, seed=seed, with_data=True,
        chunk_size=chunk_size, num_stripes=num_stripes,
    )
    injector = FailureInjector(rng=seed)
    event = (
        injector.fail_random_node(state)
        if failed_node is None
        else injector.fail_node(state, failed_node)
    )
    return RecoverySession(
        state, event, strategy_from_label(strategy_label, seed), journal_path,
        session_meta={
            "config": config.name,
            "seed": seed,
            "num_stripes": state.placement.num_stripes,
            "strategy_label": strategy_label,
        },
        **session_kwargs,
    )


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
    return _durable_session(
        journal_path, config=config, seed=seed, num_stripes=num_stripes,
        chunk_size=chunk_size, strategy_label=strategy,
        injector=injector, backoff=backoff,
        crash_after_records=crash_after_records,
        window=window, progress=progress,
    ).run()


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
    from repro.errors import JournalError

    replay = JournalReplay.load(journal_path)
    header = replay.session
    missing = [key for key in _SELF_DESCRIBING if key not in header]
    if missing:
        raise JournalError(
            f"journal header is not self-describing: missing {missing}"
        )
    described = {key: header[key] for key in _SELF_DESCRIBING}
    try:
        described["config"] = config_by_name(header["config"])
    except ConfigurationError as exc:
        raise JournalError(f"journal names an {exc}") from exc
    return _durable_session(
        journal_path, **described,
        crash_after_records=crash_after_records,
        window=window, progress=progress,
    ).resume(replay)
