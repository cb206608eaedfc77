"""Long-horizon maintenance simulation: a quarter of failures, repaired.

Replays a :class:`~repro.workloads.traces.FailureTrace` against a
cluster: for every event, fail the node, solve the recovery with the
strategy under test, account the cross-rack traffic and the repair
wall-clock (serialized timing model), heal, continue.  The result is
the *operational* view of the paper's claim — cumulative cross-rack
terabytes and repair hours saved over months, and how evenly the repair
burden spread across racks (a long-run λ).

Stripes lost to an event are re-placed at heal time exactly where they
were (the paper's same-node replacement), so consecutive events see a
consistent layout.

Reached by ``repro-car longrun``: EXPERIMENTS.md "Long-run replay".
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.cluster.state import ClusterState
from repro.errors import ConfigurationError
from repro.recovery.baselines import RecoveryStrategy
from repro.recovery.planner import plan_recovery
from repro.sim.hardware import HardwareModel
from repro.sim.timing import StripeSerialTimingModel
from repro.workloads.traces import FailureTrace

__all__ = ["EventOutcome", "LongRunReport", "LongRunSimulator"]


@dataclass(frozen=True)
class EventOutcome:
    """Accounting for one repaired failure.

    Attributes:
        time_hours: when the failure occurred.
        failed_node: which node failed.
        stripes_repaired: lost chunks rebuilt.
        cross_rack_chunks: cross-rack repair traffic (chunk units).
        repair_seconds: serialized repair wall-clock for the event.
        lambda_rate: the event's load balancing rate.
    """

    time_hours: float
    failed_node: int
    stripes_repaired: int
    cross_rack_chunks: int
    repair_seconds: float
    lambda_rate: float


@dataclass
class LongRunReport:
    """Aggregate of a whole trace replay.

    Attributes:
        strategy: name of the strategy under test.
        chunk_size: bytes per chunk (for byte totals).
        outcomes: per-event accounting, time-ordered.
        per_rack_chunks: cross-rack chunks sourced per rack, cumulative.
    """

    strategy: str
    chunk_size: int
    outcomes: list[EventOutcome] = field(default_factory=list)
    per_rack_chunks: list[int] = field(default_factory=list)

    @property
    def failures(self) -> int:
        """Number of failures repaired."""
        return len(self.outcomes)

    @property
    def total_cross_rack_bytes(self) -> int:
        """Cumulative cross-rack repair traffic in bytes."""
        return sum(o.cross_rack_chunks for o in self.outcomes) * self.chunk_size

    @property
    def total_repair_hours(self) -> float:
        """Cumulative repair wall-clock, hours."""
        return sum(o.repair_seconds for o in self.outcomes) / 3600.0

    @property
    def mean_lambda(self) -> float:
        """Mean per-event load balancing rate."""
        if not self.outcomes:
            return 1.0
        return sum(o.lambda_rate for o in self.outcomes) / len(self.outcomes)

    def long_run_lambda(self) -> float:
        """λ of the *cumulative* per-rack cross-rack traffic.

        Long-horizon balance: even if single events are skewed, the sum
        over many events (with failures landing in different racks)
        should even out; this measures how well.
        """
        loaded = [c for c in self.per_rack_chunks if c > 0]
        if not loaded:
            return 1.0
        return max(loaded) / (sum(loaded) / len(loaded))


class LongRunSimulator:
    """Replays a failure trace against one cluster + strategy pair.

    Args:
        state_factory: builds a fresh :class:`ClusterState` (no failure)
            — called once; the same cluster is reused across events.
        strategy_factory: builds the strategy for each event.  It is
            called with the *cumulative per-rack cross-rack traffic* so
            far (a tuple of chunk counts), enabling history-aware
            variants — e.g. ``lambda hist: CarStrategy(
            baseline_traffic=hist)``; plain strategies just ignore it.
        chunk_size: chunk bytes for traffic/time accounting.
    """

    def __init__(
        self,
        state_factory: Callable[[], ClusterState],
        strategy_factory: Callable[[tuple[int, ...]], RecoveryStrategy],
        chunk_size: int = 4 << 20,
    ) -> None:
        if chunk_size <= 0:
            raise ConfigurationError("chunk_size must be positive")
        self.state_factory = state_factory
        self.strategy_factory = strategy_factory
        self.chunk_size = chunk_size

    def replay(self, trace: FailureTrace) -> LongRunReport:
        """Replay every event of ``trace`` and return the report."""
        state = self.state_factory()
        hardware = HardwareModel(state.topology)
        timing_model = StripeSerialTimingModel(state, hardware=hardware)
        strategy = self.strategy_factory(
            tuple([0] * state.topology.num_racks)
        )
        report = LongRunReport(
            strategy=strategy.name,
            chunk_size=self.chunk_size,
            per_rack_chunks=[0] * state.topology.num_racks,
        )
        for spec in trace:
            if not state.placement.chunks_on_node(spec.node_id):
                continue  # empty node: failure is a no-op for repair
            event = state.fail_node(spec.node_id)
            strategy = self.strategy_factory(tuple(report.per_rack_chunks))
            solution = strategy.solve(state)
            plan = plan_recovery(state, event, solution)
            timing = timing_model.evaluate(plan, self.chunk_size)
            for rack, chunks in enumerate(solution.traffic_by_rack()):
                report.per_rack_chunks[rack] += chunks
            report.outcomes.append(
                EventOutcome(
                    time_hours=spec.time_hours,
                    failed_node=spec.node_id,
                    stripes_repaired=len(solution),
                    cross_rack_chunks=solution.total_cross_rack_traffic(),
                    repair_seconds=timing.total_time,
                    lambda_rate=solution.load_balancing_rate(),
                )
            )
            state.heal()  # same-node replacement restores the layout
        return report
