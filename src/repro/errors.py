"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch a single base class at API boundaries.  Sub-hierarchies
mirror the package layout: field arithmetic, erasure coding, cluster
modelling, recovery planning, and network simulation each get their own
branch.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "FieldError",
    "DivisionByZeroError",
    "CodingError",
    "SingularMatrixError",
    "InvalidCodeParametersError",
    "InsufficientChunksError",
    "ClusterError",
    "PlacementError",
    "UnknownNodeError",
    "UnknownChunkError",
    "NoFailureError",
    "RecoveryError",
    "NoValidSolutionError",
    "StrategyError",
    "annotate_strategy",
    "PlanError",
    "IntegrityError",
    "JournalError",
    "CoordinatorCrashError",
    "ServiceError",
    "ProtocolError",
    "SimulationError",
    "FlowError",
    "ConfigurationError",
]


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class ConfigurationError(ReproError, ValueError):
    """A user-supplied configuration value is invalid or inconsistent."""


# ---------------------------------------------------------------------------
# Galois-field arithmetic
# ---------------------------------------------------------------------------


class FieldError(ReproError):
    """Base class for finite-field arithmetic errors."""


class DivisionByZeroError(FieldError, ZeroDivisionError):
    """Division (or inversion) of the zero element was requested."""


# ---------------------------------------------------------------------------
# Erasure coding
# ---------------------------------------------------------------------------


class CodingError(ReproError):
    """Base class for erasure-coding errors."""


class SingularMatrixError(CodingError):
    """A matrix that must be invertible turned out to be singular."""


class InvalidCodeParametersError(CodingError, ValueError):
    """The requested (k, m, w) combination cannot form a valid code."""


class InsufficientChunksError(CodingError):
    """Fewer than ``k`` chunks were supplied where ``k`` are required."""


# ---------------------------------------------------------------------------
# Cluster modelling
# ---------------------------------------------------------------------------


class ClusterError(ReproError):
    """Base class for cluster / topology errors."""


class PlacementError(ClusterError):
    """Chunk placement could not satisfy its constraints."""


class UnknownNodeError(ClusterError, KeyError):
    """A node id does not exist in the topology."""


class UnknownChunkError(ClusterError, KeyError):
    """A chunk id does not exist in the cluster state."""


class NoFailureError(ClusterError):
    """A recovery was requested but no node is marked failed."""


# ---------------------------------------------------------------------------
# Recovery planning
# ---------------------------------------------------------------------------


class RecoveryError(ReproError):
    """Base class for recovery planning/execution errors."""


class NoValidSolutionError(RecoveryError):
    """No valid per-stripe recovery solution exists (data loss)."""


class StrategyError(RecoveryError):
    """A recovery strategy cannot run on the given cluster state.

    Raised when a strategy's structural requirements are violated (for
    example a rack-aware regenerating strategy on a placement that is
    not rack-aligned).  Always carries the strategy name so failures in
    multi-strategy experiments are diagnosable.

    Attributes:
        strategy: name of the strategy that failed.
    """

    def __init__(self, message: str, strategy: str = "") -> None:
        super().__init__(
            f"[{strategy}] {message}" if strategy else message
        )
        self.strategy = strategy

    def __reduce__(self):
        # Re-running __init__ with self.args would re-prefix the name;
        # rebuild from the formatted message with no strategy and
        # restore the attribute via state instead.
        return (_rebuild_strategy_error, (self.args[0], self.strategy))


def _rebuild_strategy_error(message: str, strategy: str) -> StrategyError:
    err = StrategyError(message)
    err.strategy = strategy
    return err


def annotate_strategy(exc: BaseException, strategy: str) -> None:
    """Attach a strategy name to an in-flight exception.

    Every :meth:`RecoveryStrategy.solve` routes escaping
    :class:`ReproError`\\ s through here, so a failure inside a
    multi-strategy experiment always names the strategy that raised it
    (as an ``strategy`` attribute and an exception note) without
    changing the exception's type or message.
    """
    if not getattr(exc, "strategy", ""):
        exc.strategy = strategy  # type: ignore[attr-defined]
        exc.add_note(f"strategy: {strategy}")


class PlanError(RecoveryError):
    """A recovery plan is malformed or cannot be executed."""


class IntegrityError(RecoveryError):
    """An in-flight buffer failed checksum verification on receipt."""


class JournalError(RecoveryError):
    """A recovery journal is missing, malformed, or inconsistent."""


class CoordinatorCrashError(RecoveryError):
    """The recovery coordinator died mid-session (injected).

    Unlike helper/delegate crashes — which the robust executor absorbs
    by re-planning — a coordinator crash kills the whole session: it
    escapes :meth:`~repro.faults.robust.RobustExecutor.run`, leaving
    behind only what the write-ahead journal persisted.  A
    :class:`~repro.durable.session.RecoverySession` resumes from there.

    Attributes:
        event: the fired fault event (``None`` for journal-scheduled
            crash points, which fire between two records rather than at
            a pipeline checkpoint).
        records_written: journal records durably appended before death.
    """

    def __init__(
        self,
        message: str = "coordinator crashed",
        event=None,
        records_written: int = 0,
    ) -> None:
        super().__init__(message)
        self.event = event
        self.records_written = records_written

    def __reduce__(self):
        # Exception.__reduce__ would replay __init__ with self.args only,
        # dropping the event/record context; workers must ship it whole.
        return (
            self.__class__,
            (self.args[0], self.event, self.records_written),
        )


# ---------------------------------------------------------------------------
# Service layer
# ---------------------------------------------------------------------------


class ServiceError(ReproError):
    """Base class for cluster-service (coordinator/chunkserver) errors."""


class ProtocolError(ServiceError):
    """A wire frame is malformed, torn, or exceeds the size limits."""


# ---------------------------------------------------------------------------
# Network simulation
# ---------------------------------------------------------------------------


class SimulationError(ReproError):
    """Base class for network/timing simulation errors."""


class FlowError(SimulationError):
    """A flow references unknown links or has an invalid size."""
