"""Fault vocabulary: kinds, specs, events, actions, and the FaultLog.

A :class:`FaultSpec` *arms* the injector ("crash a helper at the first
cross-rack transfer of stripe 3"); a :class:`FaultEvent` records that a
fault actually *fired* at a concrete pipeline checkpoint; a
:class:`RecoveryAction` records how the robust executor responded
(retry with backoff, wait out a stall, re-plan, degrade, abort).  The
:class:`FaultLog` interleaves both in execution order, giving a single
deterministic, serialisable account of a faulty recovery that the
tests, benchmarks, and timing model all consume.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, field

from repro.errors import RecoveryError
from repro.recovery.executor import PipelineStage

__all__ = [
    "FaultKind",
    "ActionKind",
    "FaultSpec",
    "FaultEvent",
    "RecoveryAction",
    "FaultLog",
    "InjectedCrashError",
    "RecoveryAbort",
]


class FaultKind(str, enum.Enum):
    """The failure modes the injector can produce."""

    #: A node holding a retrieved chunk dies (permanent, secondary failure).
    HELPER_CRASH = "helper_crash"
    #: A rack delegate dies while partially decoding or shipping its partial.
    DELEGATE_CRASH = "delegate_crash"
    #: A disk read hangs for ``stall_seconds`` before completing.
    DISK_STALL = "disk_stall"
    #: A network flow is dropped and must be retransmitted.
    FLOW_DROP = "flow_drop"
    #: The recovery coordinator itself dies mid-session.  Only the
    #: write-ahead journal survives; a new incarnation resumes from it.
    COORDINATOR_CRASH = "coordinator_crash"
    #: A flow's payload is silently corrupted in transit; the receiver's
    #: checksum verification detects it before decode (value ``corrupt``
    #: so telemetry events are named ``fault.corrupt``).
    IN_FLIGHT_CORRUPT = "corrupt"


#: Stages each fault kind may be injected at.  ``CROSS_TRANSFER`` is
#: shared: a helper crash hits a raw-chunk flow (direct/RR recovery),
#: a delegate crash hits a partial-payload flow (aggregated/CAR).
VALID_STAGES: dict[FaultKind, frozenset[PipelineStage]] = {
    FaultKind.HELPER_CRASH: frozenset(
        {
            PipelineStage.DISK_READ,
            PipelineStage.INTRA_TRANSFER,
            PipelineStage.CROSS_TRANSFER,
        }
    ),
    FaultKind.DELEGATE_CRASH: frozenset(
        {PipelineStage.PARTIAL_DECODE, PipelineStage.CROSS_TRANSFER}
    ),
    FaultKind.DISK_STALL: frozenset({PipelineStage.DISK_READ}),
    FaultKind.FLOW_DROP: frozenset(
        {PipelineStage.INTRA_TRANSFER, PipelineStage.CROSS_TRANSFER}
    ),
    # The coordinator can die at any checkpoint of any stage.
    FaultKind.COORDINATOR_CRASH: frozenset(PipelineStage),
    FaultKind.IN_FLIGHT_CORRUPT: frozenset(
        {PipelineStage.INTRA_TRANSFER, PipelineStage.CROSS_TRANSFER}
    ),
}


class ActionKind(str, enum.Enum):
    """Responses the robust executor takes to injected faults."""

    RETRY = "retry"          # dropped flow retransmitted after backoff
    WAIT = "wait"            # stalled disk waited out
    ESCALATE = "escalate"    # transient fault exhausted retries -> crash
    REPLAN = "replan"        # selector/planner re-invoked without dead nodes
    DEGRADE = "degrade"      # aggregation abandoned, direct recovery
    ABORT = "abort"          # recovery impossible, typed failure raised


@dataclass(frozen=True)
class FaultSpec:
    """An armed fault: what to inject, where, and how often.

    Attributes:
        kind: the failure mode.
        stage: the pipeline checkpoint it fires at.
        node / rack / stripe_id: optional filters; ``None`` matches any.
        max_fires: how many checkpoints this spec triggers at before it
            is spent (``None`` = unlimited, e.g. a permanently flaky
            link or a crash storm).
        probability: chance of firing at each matching checkpoint,
            evaluated on the injector's seeded RNG (deterministic).
        stall_seconds: stall duration, for :attr:`FaultKind.DISK_STALL`.
    """

    kind: FaultKind
    stage: PipelineStage
    node: int | None = None
    rack: int | None = None
    stripe_id: int | None = None
    max_fires: int | None = 1
    probability: float = 1.0
    stall_seconds: float = 1.0

    def __post_init__(self) -> None:
        if self.stage not in VALID_STAGES[self.kind]:
            raise RecoveryError(
                f"{self.kind.value} cannot be injected at {self.stage.value}"
            )
        if not 0.0 < self.probability <= 1.0:
            raise RecoveryError("probability must be in (0, 1]")
        if self.max_fires is not None and self.max_fires < 1:
            raise RecoveryError("max_fires must be >= 1 (or None)")
        if self.stall_seconds <= 0:
            raise RecoveryError("stall_seconds must be positive")


@dataclass(frozen=True)
class FaultEvent:
    """One fault that actually fired at a pipeline checkpoint."""

    kind: FaultKind
    stage: PipelineStage
    stripe_id: int
    node: int
    rack: int
    attempt: int = 0
    stall_seconds: float = 0.0


@dataclass(frozen=True)
class RecoveryAction:
    """One response of the robust executor, in execution order."""

    action: ActionKind
    stripe_id: int | None = None
    node: int | None = None
    wait_seconds: float = 0.0
    detail: str = ""


@dataclass
class FaultLog:
    """Ordered, comparable record of faults and responses.

    Two runs with the same seed and cluster produce byte-identical
    logs — the determinism contract the fault tests assert.
    """

    records: list[FaultEvent | RecoveryAction] = field(default_factory=list)

    def record(self, entry: FaultEvent | RecoveryAction) -> None:
        """Append one record."""
        self.records.append(entry)

    @property
    def faults(self) -> tuple[FaultEvent, ...]:
        """Only the injected fault events, in order."""
        return tuple(r for r in self.records if isinstance(r, FaultEvent))

    @property
    def actions(self) -> tuple[RecoveryAction, ...]:
        """Only the executor's responses, in order."""
        return tuple(r for r in self.records if isinstance(r, RecoveryAction))

    @property
    def injected_delay_seconds(self) -> float:
        """Total simulated wall-clock added by stalls and backoff."""
        return sum(a.wait_seconds for a in self.actions)

    def count(self, kind: FaultKind) -> int:
        """Number of fired faults of one kind."""
        return sum(1 for f in self.faults if f.kind is kind)

    def to_dicts(self) -> list[dict]:
        """JSON-ready representation (enums flattened to strings)."""
        out = []
        for r in self.records:
            d = asdict(r)
            d["record"] = "fault" if isinstance(r, FaultEvent) else "action"
            for key, value in d.items():
                if isinstance(value, enum.Enum):
                    d[key] = value.value
            out.append(d)
        return out

    def __len__(self) -> int:
        return len(self.records)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultLog):
            return NotImplemented
        return self.records == other.records


class InjectedCrashError(RecoveryError):
    """A helper or delegate crash fired; the current plan is void.

    Internal control flow of :class:`~repro.faults.robust.RobustExecutor`
    (caught and turned into a re-plan); escapes only if a crash fires
    under the plain :class:`~repro.recovery.executor.PlanExecutor`.
    """

    def __init__(self, event: FaultEvent) -> None:
        super().__init__(
            f"{event.kind.value} at {event.stage.value}: node {event.node} "
            f"(stripe {event.stripe_id})"
        )
        self.event = event
        self.node = event.node

    def __reduce__(self):
        # Exception.__reduce__ replays __init__ with self.args — here the
        # formatted message, not the event — so a pickled or copied
        # instance would carry a string where a FaultEvent belongs.
        return (self.__class__, (self.event,))


class RecoveryAbort(RecoveryError):
    """Recovery could not complete; carries the full :class:`FaultLog`.

    Raised when fewer than ``k`` chunks survive for some stripe, when
    the crash/re-plan cycle exceeds its round budget, or when the
    replacement node itself is killed.  Never raised with a partial
    answer: callers get either a verified reconstruction or this.
    """

    def __init__(self, reason: str, log: FaultLog, dead_nodes=frozenset()) -> None:
        super().__init__(reason)
        self.reason = reason
        self.log = log
        self.dead_nodes = frozenset(dead_nodes)

    def __reduce__(self):
        # self.args holds only (reason,); the default reduce would call
        # __init__ without the required log argument, so a pickled or
        # copied abort would fail to rebuild.
        return (self.__class__, (self.reason, self.log, self.dead_nodes))
