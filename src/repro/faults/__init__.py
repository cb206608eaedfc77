"""Fault injection and degraded-mode recovery.

The paper (and the seed reproduction) only ever exercises recovery on a
*healthy* remainder of the cluster.  This package makes the repair
itself survivable:

- :mod:`repro.faults.events` — fault/action vocabulary, the structured
  :class:`FaultLog`, and the typed :class:`RecoveryAbort`;
- :mod:`repro.faults.injector` — deterministic, seedable
  :class:`FaultInjector` polled at named pipeline stages;
- :mod:`repro.faults.backoff` — capped exponential retry schedule;
- :mod:`repro.faults.robust` — :class:`RobustExecutor`, the
  aggregated → re-planned → direct → abort degradation ladder;
- :mod:`repro.faults.timeline` — :class:`FaultTimeline`, threading
  stalls and retransmissions into the timing simulator.
"""

from repro.errors import CoordinatorCrashError
from repro.faults.backoff import BackoffPolicy
from repro.faults.events import (
    ActionKind,
    FaultEvent,
    FaultKind,
    FaultLog,
    FaultSpec,
    InjectedCrashError,
    RecoveryAbort,
    RecoveryAction,
)
from repro.faults.injector import FaultInjector
from repro.faults.robust import (
    RobustExecutionResult,
    RobustExecutor,
    recover_with_faults,
)
from repro.faults.timeline import FaultTimeline
from repro.recovery.executor import PipelineStage

__all__ = [
    "ActionKind",
    "BackoffPolicy",
    "CoordinatorCrashError",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultLog",
    "FaultSpec",
    "FaultTimeline",
    "InjectedCrashError",
    "PipelineStage",
    "RecoveryAbort",
    "RecoveryAction",
    "RobustExecutionResult",
    "RobustExecutor",
    "recover_with_faults",
]
