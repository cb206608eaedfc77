"""Greedy multi-stripe load balancing — Algorithm 2 of the paper.

A rack's load is one measure, ``(history_i + t_i) / uplink_i``: the
cross-rack chunks its uplink has carried for past repairs plus those the
current solution asks of it, over the uplink capacity the topology
records for it.  Starting from an initial multi-stripe solution, each
iteration:

1. find the intact rack ``A_l`` with the highest load;
2. look for another intact rack ``A_i`` that stays strictly below
   ``A_l``'s load after taking one more chunk — the condition that
   keeps the maximum monotonically non-increasing.  With equal uplinks
   and no history this is the paper's ``t_{l,f} - t_{i,f} >= 2``
   (Equation 8);
3. find a stripe whose current solution reads from ``A_l`` and admits a
   valid substitute that reads from ``A_i`` instead; substitute and move
   to the next iteration.

The loop stops after ``e`` iterations or at the first iteration with no
possible substitution.  The full λ trajectory is recorded in a
:class:`BalanceTrace` so Figure 8 can be regenerated directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.state import StripeView
from repro.errors import RecoveryError
from repro.recovery.selector import CarSelector
from repro.recovery.solution import MultiStripeSolution, balancing_rate

__all__ = ["BalanceTrace", "GreedyLoadBalancer"]


@dataclass
class BalanceTrace:
    """Record of one balancing run.

    Attributes:
        lambdas: the paper's λ — max over mean of per-rack chunk counts,
            not weighted by uplink — after 0, 1, 2, ... iterations
            (index 0 = initial).
        substitutions: how many per-stripe substitutions were applied.
        converged_at: iteration index at which no substitution was
            possible (None if the iteration budget ran out first).
    """

    lambdas: list[float] = field(default_factory=list)
    substitutions: int = 0
    converged_at: int | None = None

    def lambda_after(self, iterations: int) -> float:
        """λ after the given number of iterations (clamped to the end).

        This is what Figure 8 plots at iteration checkpoints: once the
        algorithm converges, λ stays at its final value.
        """
        if not self.lambdas:
            raise RecoveryError("empty balance trace")
        return self.lambdas[min(iterations, len(self.lambdas) - 1)]

    @property
    def initial_lambda(self) -> float:
        """λ of the initial (unbalanced) solution."""
        return self.lambda_after(0)

    @property
    def final_lambda(self) -> float:
        """λ of the final solution."""
        return self.lambdas[-1]


class GreedyLoadBalancer:
    """Algorithm 2: iterative single-substitution load balancing.

    Args:
        iterations: the paper's ``e`` — the iteration budget.
        baseline_traffic: the measure's ``history`` — optional per-rack
            traffic offsets (chunk units) added to the current
            solution's ``t_{i,f}``.  Passing the cumulative cross-rack
            traffic of past repairs makes Algorithm 2 balance the
            long-run rack load, not just this event's (see
            :class:`repro.workloads.longrun.LongRunSimulator`).  The
            recorded λ trace is then computed over baseline + current.

    The measure's ``uplink`` is not an argument: it is read from the
    topology of the selector handed to :meth:`balance`.
    """

    def __init__(
        self,
        iterations: int = 50,
        baseline_traffic: list[int] | tuple[int, ...] | None = None,
    ) -> None:
        if iterations < 0:
            raise RecoveryError("iteration budget must be non-negative")
        self.iterations = iterations
        self.baseline_traffic = (
            None if baseline_traffic is None else list(baseline_traffic)
        )

    def _loaded_traffic(self, solution: MultiStripeSolution) -> list[int]:
        t = solution.traffic_by_rack()
        if self.baseline_traffic is None:
            return t
        if len(self.baseline_traffic) != len(t):
            raise RecoveryError(
                f"baseline has {len(self.baseline_traffic)} racks, "
                f"solution has {len(t)}"
            )
        return [a + b for a, b in zip(t, self.baseline_traffic)]

    def _lambda(self, solution: MultiStripeSolution) -> float:
        return balancing_rate(
            self._loaded_traffic(solution), solution.failed_rack
        )

    def balance(
        self,
        views: dict[int, StripeView],
        initial: MultiStripeSolution,
        selector: CarSelector,
    ) -> tuple[MultiStripeSolution, BalanceTrace]:
        """Run the greedy balancing loop.

        Args:
            views: stripe_id -> :class:`StripeView` for every stripe in
                ``initial`` (needed to re-derive valid substitutes).
            initial: the starting multi-stripe solution (aggregated).
            selector: the per-stripe selector for substitution checks.

        Returns:
            The balanced solution and its :class:`BalanceTrace`.
        """
        if not initial.aggregated:
            raise RecoveryError(
                "load balancing operates on aggregated (CAR) solutions"
            )
        current = initial
        trace = BalanceTrace(lambdas=[self._lambda(current)])
        for it in range(self.iterations):
            substituted = self._try_substitute(views, current, selector)
            if substituted is None:
                trace.converged_at = it
                break
            current = substituted
            trace.substitutions += 1
            trace.lambdas.append(self._lambda(current))
        return current, trace

    def _try_substitute(
        self,
        views: dict[int, StripeView],
        current: MultiStripeSolution,
        selector: CarSelector,
    ) -> MultiStripeSolution | None:
        """One iteration body (steps 5-11); None if no substitution exists."""
        load = self._loaded_traffic(current)
        bandwidth = selector.topology.bandwidth
        uplink = [bandwidth.uplink_for(r) for r in range(current.num_racks)]
        intact = [
            r for r in range(current.num_racks) if r != current.failed_rack
        ]
        if not intact:
            return None
        # Loads are compared cross-multiplied, load_a * uplink_b against
        # load_b * uplink_a: with equal uplinks the common factor drops
        # out and the tests below are the paper's integer ones.
        # Step 5: the most-loaded intact rack.  Ties by rack id.
        l_rack = intact[0]
        for r in intact[1:]:
            if load[r] * uplink[l_rack] > load[l_rack] * uplink[r]:
                l_rack = r
        # Step 6-7: racks that stay strictly below A_l with one more
        # chunk, least-loaded (after the move) first.
        candidates = sorted(
            (
                r
                for r in intact
                if r != l_rack
                and (load[r] + 1) * uplink[l_rack] < load[l_rack] * uplink[r]
            ),
            key=lambda r: ((load[r] + 1) / uplink[r], r),
        )
        for i_rack in candidates:
            for sol in current.solutions_using(l_rack):
                view = views.get(sol.stripe_id)
                if view is None:
                    raise RecoveryError(
                        f"no stripe view supplied for stripe {sol.stripe_id}"
                    )
                replacement = selector.substitute(view, sol, l_rack, i_rack)
                if replacement is not None:
                    return current.replace(replacement)
        return None
