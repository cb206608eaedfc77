"""Recovery strategies: CAR, the paper's RR baseline, and ablations.

Every strategy's solve is a helper mask over the failure's
:class:`~repro.cluster.state.FailureColumns`, one row per affected
stripe, read into a :class:`~repro.recovery.solution.MultiStripeSolution`:

- :class:`CarStrategy` — the paper's contribution: Theorem-1 rack
  selection + partial decoding + Algorithm-2 balancing.
- :class:`RandomRecoveryStrategy` — the paper's RR baseline: ``k``
  random surviving chunks, shipped individually.
- :class:`MinRackNoAggregationStrategy` — ablation: CAR's rack
  selection *without* partial decoding.
- :class:`RandomAggregatedStrategy` — ablation: random helper choice
  *with* partial decoding.
- :class:`EnumerationBalancedStrategy` — exhaustive multi-stripe search
  for the λ-optimal solution (small instances; validates the greedy).

:func:`strategy_from_label` is the one place a strategy's *name* — on a
command line, in a journal header, in a service config — becomes a
strategy.
"""

from __future__ import annotations

import abc
import functools
import itertools
import math
import random

import numpy as np

from repro.cluster.state import ClusterState, FailureColumns
from repro.cluster.topology import ClusterTopology
from repro.errors import (
    ConfigurationError,
    NoValidSolutionError,
    RecoveryError,
    ReproError,
    annotate_strategy,
)
from repro.recovery.balancer import BalanceTrace, GreedyLoadBalancer
from repro.recovery.selector import pick_racks, racks_needed, take_chunks
from repro.recovery.solution import (
    MultiStripeSolution,
    SolutionColumns,
    balancing_rate,
)

__all__ = [
    "RecoveryStrategy",
    "CarStrategy",
    "RandomRecoveryStrategy",
    "MinRackNoAggregationStrategy",
    "RandomAggregatedStrategy",
    "EnumerationBalancedStrategy",
    "strategy_from_label",
]


class RecoveryStrategy(abc.ABC):
    """Turns a failed cluster state into a multi-stripe recovery solution."""

    #: Human-readable strategy name (used in reports).
    name: str = "abstract"
    #: Whether intra-rack aggregation applies to this strategy's traffic.
    aggregated: bool = False

    def __init_subclass__(cls, **kwargs) -> None:
        # Wrap each concrete solve() so any escaping library error names
        # the strategy that raised it (multi-strategy experiments would
        # otherwise surface anonymous failures).  Types and messages are
        # preserved; the name rides along as an attribute + note.
        super().__init_subclass__(**kwargs)
        solve = cls.__dict__.get("solve")
        if solve is None or getattr(solve, "__isabstractmethod__", False):
            return
        if getattr(solve, "_annotates_strategy", False):
            return

        @functools.wraps(solve)
        def wrapped(self, *args, **kw):
            try:
                return solve(self, *args, **kw)
            except ReproError as exc:
                annotate_strategy(exc, getattr(self, "name", cls.name))
                raise

        wrapped._annotates_strategy = True
        cls.solve = wrapped

    @abc.abstractmethod
    def solve(self, state: ClusterState) -> MultiStripeSolution:
        """Produce a solution for the current failure of ``state``."""


def _failure(state: ClusterState) -> FailureColumns:
    """The columns of every stripe the state's failure touched."""
    failure = state.failure_columns()
    if not len(failure):
        raise NoValidSolutionError("the failed node stored no chunks")
    return failure


def _columns_solution(
    failure: FailureColumns,
    helper: np.ndarray,
    aggregated: bool,
    units: np.ndarray | None = None,
) -> MultiStripeSolution:
    """The multi-stripe solution of a helper mask over ``failure``
    (``units``: the cross-rack chunk units each helper ships, when
    fractional)."""
    return MultiStripeSolution.from_columns(
        SolutionColumns.from_mask(failure, helper, units),
        num_racks=failure.num_racks,
        aggregated=aggregated,
    )


def _sampled_helpers(
    failure: FailureColumns, k: int, rng: random.Random
) -> np.ndarray:
    """``k`` of each row's alive chunks drawn by ``rng.sample``, rows in
    stripe order."""
    picks = []
    for i, row in enumerate(failure.alive.tolist()):
        survivors = [c for c, alive in enumerate(row) if alive]
        if len(survivors) < k:
            raise NoValidSolutionError(
                f"stripe {int(failure.stripe_id[i])} has "
                f"{len(survivors)} < k survivors"
            )
        picks.append(rng.sample(survivors, k))
    helper = np.zeros_like(failure.alive)
    helper[np.arange(len(picks))[:, None], np.array(picks)] = True
    return helper


class CarStrategy(RecoveryStrategy):
    """Cross-rack-aware recovery (the paper's CAR).

    Args:
        load_balance: run Algorithm 2 after the per-stripe selection
            (CAR without load balancing is Figure 8's dashed series).
        iterations: Algorithm 2's iteration budget ``e``.
        baseline_traffic: optional per-rack cumulative traffic from past
            repairs; when given, Algorithm 2 balances baseline + current
            (the history-aware long-run extension).
        warm_start: build the initial multi-stripe solution greedily —
            each stripe's ties broken toward the currently least-loaded
            rack — so Algorithm 2 starts near balance and needs far
            fewer substitutions.

    After :meth:`solve`, :attr:`last_trace` holds the balancing trace
    (a trivial single-point trace when ``load_balance`` is False).
    """

    aggregated = True

    def __init__(
        self,
        load_balance: bool = True,
        iterations: int = 50,
        baseline_traffic: list[int] | tuple[int, ...] | None = None,
        warm_start: bool = False,
    ) -> None:
        self.load_balance = load_balance
        self.iterations = iterations
        self.baseline_traffic = baseline_traffic
        self.warm_start = warm_start
        self.last_trace: BalanceTrace | None = None
        if baseline_traffic is not None:
            self.name = "CAR-history"
        else:
            self.name = "CAR" if load_balance else "CAR-noLB"

    def solve(self, state: ClusterState) -> MultiStripeSolution:
        return self.solve_failure(
            state.topology, state.code.k, _failure(state)
        )

    def solve_failure(
        self, topology: ClusterTopology, k: int, failure: FailureColumns
    ) -> MultiStripeSolution:
        """CAR over a failure's columns: Theorem 1, the initial pick,
        Algorithm 2, then the chunk-take rule — each one array pass.

        The one place CAR is composed.  :meth:`solve` passes every stripe
        the failure touched; a re-plan after a helper death passes the
        pending stripes with the dead nodes' chunks marked not alive, so
        both balance by the same rack-load measure.
        """
        d = racks_needed(failure, k)
        if self.warm_start:
            running = [0] * topology.num_racks
            if self.baseline_traffic is not None:
                running = list(self.baseline_traffic)
            uplink_for = topology.bandwidth.uplink_for
            used = pick_racks(
                failure, d, running,
                [uplink_for(r) for r in range(topology.num_racks)],
            )
        else:
            used = pick_racks(failure, d)
        if self.load_balance:
            balancer = GreedyLoadBalancer(
                iterations=self.iterations,
                baseline_traffic=self.baseline_traffic,
            )
            used, self.last_trace = balancer.balance_racks(
                failure, used, k, topology
            )
        else:
            self.last_trace = BalanceTrace(
                lambdas=[
                    balancing_rate(
                        used.sum(axis=0).tolist(), failure.failed_rack
                    )
                ]
            )
        return _columns_solution(failure, take_chunks(failure, used, k), True)


class RandomRecoveryStrategy(RecoveryStrategy):
    """The paper's RR baseline: ``k`` random survivors, no aggregation."""

    name = "RR"
    aggregated = False

    def __init__(self, rng: random.Random | int | None = None) -> None:
        if isinstance(rng, int):
            rng = random.Random(rng)
        self.rng = rng or random.Random()

    def solve(self, state: ClusterState) -> MultiStripeSolution:
        failure = _failure(state)
        return _columns_solution(
            failure,
            _sampled_helpers(failure, state.code.k, self.rng),
            self.aggregated,
        )


class MinRackNoAggregationStrategy(RecoveryStrategy):
    """Ablation: Theorem-1 rack selection, but chunks shipped individually.

    Isolates how much of CAR's saving comes from rack minimisation
    alone versus partial decoding.
    """

    name = "MinRack-noAgg"
    aggregated = False

    def solve(self, state: ClusterState) -> MultiStripeSolution:
        k, failure = state.code.k, _failure(state)
        used = pick_racks(failure, racks_needed(failure, k))
        return _columns_solution(failure, take_chunks(failure, used, k), False)


class RandomAggregatedStrategy(RandomRecoveryStrategy):
    """Ablation: random helper choice, but with intra-rack aggregation.

    Isolates the value of partial decoding without rack minimisation.
    """

    name = "Random+Agg"
    aggregated = True


class EnumerationBalancedStrategy(RecoveryStrategy):
    """Exhaustive multi-stripe optimum (Section IV-D's rejected approach).

    Enumerates the full cross product of valid per-stripe solutions and
    keeps the one minimising λ (ties: lower max traffic, then first
    found).  Exponential in the number of stripes — the paper's point —
    so guarded by ``max_combinations``.  Used to validate the greedy
    balancer's near-optimality on small instances.
    """

    name = "Enumeration"
    aggregated = True

    def __init__(self, max_combinations: int = 200_000) -> None:
        self.max_combinations = max_combinations
        self.combinations_tried = 0

    def solve(self, state: ClusterState) -> MultiStripeSolution:
        k, failure = state.code.k, _failure(state)
        failed = failure.failed_rack
        # Each row's options: its valid d_j-rack sets (Section IV-B), in
        # itertools.combinations order over its non-empty intact racks.
        option_row, option_used, sizes = [], [], []
        for i, (row, d) in enumerate(
            zip(failure.counts.tolist(), racks_needed(failure, k).tolist())
        ):
            local = row[failed]
            intact = [r for r, c in enumerate(row) if r != failed and c > 0]
            sets = [
                combo for combo in itertools.combinations(intact, d)
                if local + sum(row[r] for r in combo) >= k
            ]
            sizes.append(len(sets))
            for combo in sets:
                option_row.append(i)
                option_used.append([r in combo for r in range(len(row))])
        total = math.prod(sizes)
        if total > self.max_combinations:
            raise RecoveryError(
                f"enumeration space {total} exceeds {self.max_combinations}"
            )
        options = failure.rows(np.array(option_row, dtype=np.intp))
        columns = SolutionColumns.from_mask(
            options, take_chunks(options, np.array(option_used), k)
        )
        # Every combination's traffic vector, in itertools.product order:
        # the sum of its options' vectors (one chunk per intact rack read).
        num_racks = failure.num_racks
        option = columns.racks_used(num_racks)
        starts = np.cumsum([0] + sizes)
        traffic = np.zeros((1, num_racks), dtype=np.intp)
        for start, stop in zip(starts[:-1], starts[1:]):
            traffic = (
                traffic[:, None] + option[None, start:stop]
            ).reshape(-1, num_racks)
        # balancing_rate of every row, the same float operations.
        intact = np.delete(traffic, failed, axis=1)
        moved = intact.sum(axis=1)
        rate = np.ones(total)
        some = moved > 0
        rate[some] = intact.max(axis=1)[some] / (moved[some] / intact.shape[1])
        # Lowest (λ, max traffic); lexsort is stable, so ties go to the
        # first combination found.
        best = np.lexsort((traffic.max(axis=1), rate))[0]
        picks = starts[:-1] + np.array(np.unravel_index(best, sizes))
        self.combinations_tried = total
        return MultiStripeSolution.from_columns(
            columns.rows(picks), num_racks=num_racks, aggregated=True
        )


def strategy_from_label(label: str, seed: int = 0) -> RecoveryStrategy:
    """The deterministic strategy a label names.

    The label, not the instance, is what a journal header or a service
    config persists, so whoever resumes rebuilds the *same* strategy:
    the random baseline draws from an RNG seeded with ``seed`` and
    re-solves identically.

    - ``car`` — :class:`CarStrategy`;
    - ``rr`` and ``direct`` — :class:`RandomRecoveryStrategy` (the
      paper's name and the one journal headers have always stored);
    - ``rack-msr`` —
      :class:`~repro.recovery.regenerating.RackAwareMSRStrategy`, a
      traffic model: its repairs read fewer than ``k`` chunks, so
      nothing that rebuilds RS-coded bytes can execute them.
    """
    if label == "car":
        return CarStrategy()
    if label in ("rr", "direct"):
        return RandomRecoveryStrategy(rng=seed)
    if label == "rack-msr":
        from repro.recovery.regenerating import RackAwareMSRStrategy

        return RackAwareMSRStrategy()
    raise ConfigurationError(
        f"unknown strategy label {label!r} "
        "(expected 'car', 'rr', 'direct' or 'rack-msr')"
    )
