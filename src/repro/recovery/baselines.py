"""Recovery strategies: CAR, the paper's RR baseline, and ablations.

Strategy objects turn a failed :class:`~repro.cluster.state.ClusterState`
into a :class:`~repro.recovery.solution.MultiStripeSolution`:

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
import random
from collections.abc import Sequence

from repro.cluster.state import ClusterState, StripeView
from repro.cluster.topology import ClusterTopology
from repro.errors import (
    ConfigurationError,
    NoValidSolutionError,
    RecoveryError,
    ReproError,
    annotate_strategy,
)
from repro.recovery.balancer import BalanceTrace, GreedyLoadBalancer
from repro.recovery.selector import CarSelector, build_solution
from repro.recovery.solution import MultiStripeSolution, PerStripeSolution

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

    def _views(self, state: ClusterState) -> list[StripeView]:
        views = state.views()
        if not views:
            raise NoValidSolutionError("the failed node stored no chunks")
        return views


def _solution_from_helpers(
    state: ClusterState, view: StripeView, helpers: list[int]
) -> PerStripeSolution:
    """Group an explicit helper-chunk list by rack into a solution."""
    chunks_by_rack: dict[int, list[int]] = {}
    for c in helpers:
        rack = state.topology.rack_of(view.surviving[c])
        chunks_by_rack.setdefault(rack, []).append(c)
    return PerStripeSolution(
        stripe_id=view.stripe_id,
        lost_chunk=view.lost_chunk,
        failed_rack=view.failed_rack,
        chunks_by_rack={r: tuple(sorted(cs)) for r, cs in chunks_by_rack.items()},
    )


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
        return self.solve_views(
            state.topology, state.code.k, self._views(state)
        )

    def solve_views(
        self, topology: ClusterTopology, k: int, views: Sequence[StripeView]
    ) -> MultiStripeSolution:
        """CAR over the given stripe views: initial picks, then Algorithm 2.

        The one place CAR is composed.  :meth:`solve` passes the views of
        every stripe the failure touched; a re-plan after a helper death
        passes the pending stripes' views with the dead nodes' chunks
        removed, so both balance by the same rack-load measure.
        """
        selector = CarSelector(topology, k)
        if self.warm_start:
            running = [0] * topology.num_racks
            if self.baseline_traffic is not None:
                running = list(self.baseline_traffic)
            solutions = []
            for v in views:
                sol = selector.initial_solution(v, traffic_hint=running)
                for rack, amount in sol.cross_rack_chunks(True).items():
                    running[rack] += amount
                solutions.append(sol)
        else:
            solutions = [selector.initial_solution(v) for v in views]
        initial = MultiStripeSolution(
            solutions, num_racks=topology.num_racks, aggregated=True
        )
        if not self.load_balance:
            self.last_trace = BalanceTrace(
                lambdas=[initial.load_balancing_rate()]
            )
            return initial
        balancer = GreedyLoadBalancer(
            iterations=self.iterations,
            baseline_traffic=self.baseline_traffic,
        )
        balanced, self.last_trace = balancer.balance(
            {v.stripe_id: v for v in views}, initial, selector
        )
        return balanced


class RandomRecoveryStrategy(RecoveryStrategy):
    """The paper's RR baseline: ``k`` random survivors, no aggregation."""

    name = "RR"
    aggregated = False

    def __init__(self, rng: random.Random | int | None = None) -> None:
        if isinstance(rng, int):
            rng = random.Random(rng)
        self.rng = rng or random.Random()

    def solve(self, state: ClusterState) -> MultiStripeSolution:
        k = state.code.k
        solutions = []
        for view in self._views(state):
            survivors = sorted(view.surviving)
            if len(survivors) < k:
                raise NoValidSolutionError(
                    f"stripe {view.stripe_id} has {len(survivors)} < k survivors"
                )
            helpers = self.rng.sample(survivors, k)
            solutions.append(_solution_from_helpers(state, view, helpers))
        return MultiStripeSolution(
            solutions, num_racks=state.topology.num_racks, aggregated=False
        )


class MinRackNoAggregationStrategy(RecoveryStrategy):
    """Ablation: Theorem-1 rack selection, but chunks shipped individually.

    Isolates how much of CAR's saving comes from rack minimisation
    alone versus partial decoding.
    """

    name = "MinRack-noAgg"
    aggregated = False

    def solve(self, state: ClusterState) -> MultiStripeSolution:
        selector = CarSelector(state.topology, state.code.k)
        solutions = [
            selector.initial_solution(v) for v in self._views(state)
        ]
        return MultiStripeSolution(
            solutions, num_racks=state.topology.num_racks, aggregated=False
        )


class RandomAggregatedStrategy(RecoveryStrategy):
    """Ablation: random helper choice, but with intra-rack aggregation.

    Isolates the value of partial decoding without rack minimisation.
    """

    name = "Random+Agg"
    aggregated = True

    def __init__(self, rng: random.Random | int | None = None) -> None:
        if isinstance(rng, int):
            rng = random.Random(rng)
        self.rng = rng or random.Random()

    def solve(self, state: ClusterState) -> MultiStripeSolution:
        k = state.code.k
        solutions = []
        for view in self._views(state):
            survivors = sorted(view.surviving)
            helpers = self.rng.sample(survivors, k)
            solutions.append(_solution_from_helpers(state, view, helpers))
        return MultiStripeSolution(
            solutions, num_racks=state.topology.num_racks, aggregated=True
        )


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
        views = self._views(state)
        selector = CarSelector(state.topology, state.code.k)
        per_stripe: list[list[PerStripeSolution]] = [
            selector.all_valid_solutions(v) for v in views
        ]
        total = 1
        for opts in per_stripe:
            if not opts:
                raise NoValidSolutionError("a stripe has no valid solution")
            total *= len(opts)
        if total > self.max_combinations:
            raise RecoveryError(
                f"enumeration space {total} exceeds {self.max_combinations}"
            )
        best: MultiStripeSolution | None = None
        best_key: tuple[float, int] | None = None
        num_racks = state.topology.num_racks
        for combo in itertools.product(*per_stripe):
            candidate = MultiStripeSolution(
                list(combo), num_racks=num_racks, aggregated=True
            )
            t = candidate.traffic_by_rack()
            key = (candidate.load_balancing_rate(), max(t))
            if best_key is None or key < best_key:
                best, best_key = candidate, key
        self.combinations_tried = total
        assert best is not None
        return best


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
