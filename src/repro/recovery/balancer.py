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

The loop runs on a ``(stripes, racks)`` racks-used mask
(:meth:`GreedyLoadBalancer.balance_racks`): traffic is its column sums,
step 3 is one vectorised validity test per candidate rack
(:func:`~repro.recovery.selector.substitutable`), and a substitution
flips two cells.  Which chunks each stripe then reads follows from the
final mask by the take rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.state import FailureColumns, StripeView
from repro.cluster.topology import ClusterTopology
from repro.errors import RecoveryError
from repro.recovery.selector import CarSelector, substitutable, take_chunks
from repro.recovery.solution import (
    MultiStripeSolution,
    SolutionColumns,
    balancing_rate,
)

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
    topology handed to :meth:`balance_racks` (or the selector's, for
    :meth:`balance`).
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

    def _loaded_traffic(self, traffic: list[int]) -> list[int]:
        if self.baseline_traffic is None:
            return traffic
        if len(self.baseline_traffic) != len(traffic):
            raise RecoveryError(
                f"baseline has {len(self.baseline_traffic)} racks, "
                f"solution has {len(traffic)}"
            )
        return [a + b for a, b in zip(traffic, self.baseline_traffic)]

    def balance(
        self,
        views: dict[int, StripeView],
        initial: MultiStripeSolution,
        selector: CarSelector,
    ) -> tuple[MultiStripeSolution, BalanceTrace]:
        """Balance an explicit multi-stripe solution over its views.

        Kept for ``benchmarks/e2e/probes.py`` until the benchmark re-cut;
        a solve calls :meth:`balance_racks`.

        Args:
            views: stripe_id -> :class:`StripeView` for every stripe in
                ``initial`` (needed to re-derive valid substitutes).
            initial: the starting multi-stripe solution (aggregated).
            selector: supplies ``k`` and the topology.

        Returns:
            The balanced solution — ``initial`` itself if nothing was
            substituted, else ``initial`` with each substituted stripe's
            solution rebuilt by the take rule — and its
            :class:`BalanceTrace`.

        Raises:
            RecoveryError: if ``initial`` is not aggregated or a stripe
                of it has no view.
        """
        if not initial.aggregated:
            raise RecoveryError(
                "load balancing operates on aggregated (CAR) solutions"
            )
        stripes = initial.stripe_ids()
        missing = [s for s in stripes if s not in views]
        if missing:
            raise RecoveryError(
                f"no stripe view supplied for stripe {missing[0]}"
            )
        failure = FailureColumns.from_views(
            [views[s] for s in stripes], selector.topology
        )
        used = initial.columns().racks_used(failure.num_racks)
        balanced, trace = self.balance_racks(
            failure, used, selector.k, selector.topology
        )
        changed = np.flatnonzero((balanced != used).any(axis=1))
        if not len(changed):
            return initial, trace
        rows = failure.rows(changed)
        moved = SolutionColumns.from_mask(
            rows, take_chunks(rows, balanced[changed], selector.k)
        )
        solutions = list(initial.solutions)
        for i, row in enumerate(changed.tolist()):
            solutions[row] = moved.solution(i)
        return (
            MultiStripeSolution(solutions, initial.num_racks, aggregated=True),
            trace,
        )

    def balance_racks(
        self,
        failure: FailureColumns,
        used: np.ndarray,
        k: int,
        topology: ClusterTopology,
    ) -> tuple[np.ndarray, BalanceTrace]:
        """Algorithm 2 on a racks-used mask: the balancing loop itself.

        Args:
            failure: the stripes being repaired, one row each, in stripe
                order.
            used: ``(S, r)`` the intact racks each row reads (the failed
                rack's column is False); not modified.
            k: the decode threshold.
            topology: supplies each rack's uplink capacity.

        Returns:
            The balanced mask and the :class:`BalanceTrace`.  Traffic is
            the mask's column sums (one aggregated chunk per rack read),
            so the chunks to take follow from the mask by
            :func:`~repro.recovery.selector.take_chunks`.
        """
        counts, failed = failure.counts, failure.failed_rack
        used = used.copy()
        supply = counts[:, failed] + (counts * used).sum(axis=1)
        traffic = used.sum(axis=0).tolist()
        uplink = [
            topology.bandwidth.uplink_for(r) for r in range(len(traffic))
        ]
        intact = [r for r in range(len(traffic)) if r != failed]
        trace = BalanceTrace(
            lambdas=[balancing_rate(self._loaded_traffic(traffic), failed)]
        )
        for it in range(self.iterations):
            move = self._substitution(
                counts, used, supply, k, self._loaded_traffic(traffic),
                uplink, intact,
            )
            if move is None:
                trace.converged_at = it
                break
            row, l_rack, i_rack = move
            used[row, l_rack], used[row, i_rack] = False, True
            supply[row] += counts[row, i_rack] - counts[row, l_rack]
            traffic[l_rack] -= 1
            traffic[i_rack] += 1
            trace.substitutions += 1
            trace.lambdas.append(
                balancing_rate(self._loaded_traffic(traffic), failed)
            )
        return used, trace

    @staticmethod
    def _substitution(
        counts, used, supply, k, load, uplink, intact
    ) -> tuple[int, int, int] | None:
        """One iteration body (steps 5-11): ``(row, A_l, A_i)`` of the
        substitution to make, or None if none exists."""
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
        # Step 8: the first stripe, in stripe order, reading A_l that
        # admits a valid substitute reading A_i instead.
        for i_rack in candidates:
            ok = substitutable(counts, used, supply, l_rack, i_rack, k)
            if ok.any():
                return int(ok.argmax()), l_rack, i_rack
        return None
