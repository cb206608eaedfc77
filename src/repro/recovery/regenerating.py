"""Regenerating-code recovery strategies: rack-aware MSR and piggybacked RS.

Both strategies ship *sub-chunk* payloads, so their solutions carry
fractional cross-rack chunk units per helper
(:attr:`~repro.recovery.solution.SolutionColumns.units`; a stripe's
object is a :class:`~repro.recovery.solution.WeightedStripeSolution`):

- :class:`RackAwareMSRStrategy` models the striped rack-aware MSR
  construction (Chen & Barg, arXiv:1901.04419; kernels in
  :class:`~repro.erasure.regenerating.RackAwareMSRCode`): ``dbar``
  helper racks each ship one beta-sized packet of
  ``1 / (kbar - 1)`` chunk units, computed locally inside the rack —
  ``dbar / (kbar - 1)`` cross-rack chunk units per stripe, meeting the
  rack-level cut-set bound
  :func:`~repro.analysis.bounds.rack_aware_msr_cross_rack` with
  equality at ``dbar = 2 kbar - 2``.
- :class:`PiggybackStrategy` models the piggybacked RS code (Rashmi et
  al., arXiv:1309.0186; kernels in
  :class:`~repro.erasure.piggyback.PiggybackRSCode`): a lost data chunk
  is rebuilt from half-chunks, ``(k + |G|) / 2`` chunk units instead of
  RS's ``k``; a lost parity falls back to a plain RS repair.

Unlike CAR — which adapts to any placement — the rack-aware MSR
strategy requires enough intact racks per stripe (``dbar`` of them
holding survivors); it raises :class:`~repro.errors.StrategyError`
naming itself when the cluster cannot satisfy that, which is why it is
paired with
:class:`~repro.cluster.placement.RackAlignedPlacementPolicy` in the
regen experiment.

Reached by ``repro-car regen``: EXPERIMENTS.md "Regenerating codes vs CAR".
"""

from __future__ import annotations

import numpy as np

from repro.cluster.state import ClusterState
from repro.erasure.piggyback import PiggybackRSCode
from repro.errors import StrategyError
from repro.obs import metrics as _metrics
from repro.recovery.baselines import (
    RecoveryStrategy,
    _columns_solution,
    _failure,
)
from repro.recovery.solution import MultiStripeSolution

__all__ = [
    "RackAwareMSRStrategy",
    "PiggybackStrategy",
    "rack_msr_params",
]


def rack_msr_params(num_racks: int) -> tuple[int, int]:
    """Derive ``(kbar, dbar)`` for a rack-aware MSR deployment on
    ``num_racks`` racks.

    The striped product-matrix construction needs ``dbar = 2 kbar - 2``
    helper racks out of the ``num_racks - 1`` intact ones, so the
    largest usable rack-level reconstruction threshold is
    ``kbar = floor((num_racks + 1) / 2)``.

    Raises:
        StrategyError: if fewer than 3 racks (``kbar`` would drop
            below 2, where the product-matrix construction degenerates).
    """
    kbar = (num_racks + 1) // 2
    if kbar < 2:
        raise StrategyError(
            f"rack-aware MSR needs >= 3 racks, topology has {num_racks}",
            strategy=RackAwareMSRStrategy.name,
        )
    return kbar, 2 * kbar - 2


class RackAwareMSRStrategy(RecoveryStrategy):
    """Rack-aware MSR repair: ``dbar`` helper racks, one packet each.

    Every helper rack computes its beta-sized repair packet from chunks
    it already holds (zero *extra* intra-rack traffic in the striped
    construction) and ships ``1 / (kbar - 1)`` chunk units across the
    core.  Helper racks are chosen least-loaded-first against a running
    per-rack traffic tally, so the multi-stripe solution is born
    balanced — the regenerating analogue of CAR's Algorithm 2.

    Args:
        kbar: rack-level reconstruction threshold; default derives the
            largest feasible value from the topology via
            :func:`rack_msr_params`.

    After :meth:`solve`, :attr:`last_params` holds the ``(kbar, dbar)``
    actually used.
    """

    name = "RackMSR"
    aggregated = True

    def __init__(self, kbar: int | None = None) -> None:
        if kbar is not None and kbar < 2:
            raise StrategyError(
                f"kbar must be >= 2, got {kbar}", strategy=self.name
            )
        self.kbar = kbar
        self.last_params: tuple[int, int] | None = None

    def solve(self, state: ClusterState) -> MultiStripeSolution:
        failure = _failure(state)
        num_racks = state.topology.num_racks
        if self.kbar is None:
            kbar, dbar = rack_msr_params(num_racks)
        else:
            kbar, dbar = self.kbar, 2 * self.kbar - 2
        if dbar > num_racks - 1:
            raise StrategyError(
                f"kbar={kbar} needs dbar={dbar} helper racks, only "
                f"{num_racks - 1} intact racks exist",
                strategy=self.name,
            )
        self.last_params = (kbar, dbar)
        beta = 1.0 / (kbar - 1)
        # Each rack's lowest alive chunk, per row: one node per helper
        # rack computes the packet, this chunk its representative input.
        in_rack = failure.chunk_rack[:, None] == np.arange(num_racks)[:, None]
        lowest = (in_rack & failure.alive[:, None]).argmax(axis=2)
        holds = failure.counts > 0
        holds[:, failure.failed_rack] = False
        units = np.zeros(failure.alive.shape)
        running = [0.0] * num_racks
        for i, row in enumerate(holds.tolist()):
            candidates = [rack for rack, held in enumerate(row) if held]
            if len(candidates) < dbar:
                raise StrategyError(
                    f"stripe {int(failure.stripe_id[i])}: only "
                    f"{len(candidates)} intact racks hold survivors, repair "
                    f"needs dbar={dbar} (use a rack-aligned placement)",
                    strategy=self.name,
                )
            candidates.sort(key=lambda rack: (running[rack], rack))
            for rack in candidates[:dbar]:
                units[i, lowest[i, rack]] = beta
                running[rack] += beta
        reg = _metrics.CURRENT
        if reg is not None:
            reg.counter("strategy.regen.stripes").inc(
                len(failure), strategy=self.name
            )
            reg.counter("strategy.regen.cross_rack_units").inc(
                beta * dbar * len(failure), strategy=self.name
            )
        return _columns_solution(failure, units > 0, True, units)


class PiggybackStrategy(RecoveryStrategy):
    """Piggybacked-RS repair: half-chunk downloads for lost data chunks.

    Rebuilding data chunk ``i`` fetches the ``b``-halves of the other
    ``k - 1`` data chunks, both substripes' worth of parity halves and
    the ``a``-halves of ``i``'s piggyback group peers — group peers ship
    a full chunk, everyone else half a chunk.  A lost *parity* chunk is
    rebuilt by a plain RS repair (``k`` full chunks), exactly the
    asymmetry of the Hitchhiker design.  Works on any placement; racks
    are whatever the placement made them.
    """

    name = "Piggyback"
    aggregated = False

    def solve(self, state: ClusterState) -> MultiStripeSolution:
        k, m = state.code.k, state.code.m
        if m < 2:
            raise StrategyError(
                f"piggybacking needs m >= 2 parities, code has m={m}",
                strategy=self.name,
            )
        pb = PiggybackRSCode(k, m)
        failure = _failure(state)
        # Row c of the table: the half-chunk units each chunk ships to
        # rebuild a lost chunk c.
        table = np.zeros((k + m, k + m))
        for lost in range(k + m):
            sources = (
                pb.data_repair_sources(lost) if pb.is_data(lost)
                else pb.parity_repair_sources()
            )
            for c, _half in sources:
                table[lost, c] += 0.5
        units = table[failure.lost_chunk]
        helper = units > 0
        missing = helper & ~failure.alive
        if missing.any():
            # Cannot happen for a single failure (sources never include
            # the lost chunk); guards multi-failure misuse.
            i = int(missing.any(axis=1).argmax())
            raise StrategyError(
                f"stripe {int(failure.stripe_id[i])}: piggyback sources "
                f"{np.flatnonzero(missing[i]).tolist()} are not surviving",
                strategy=self.name,
            )
        units[failure.chunk_rack == failure.failed_rack] = 0.0
        reg = _metrics.CURRENT
        if reg is not None:
            reg.counter("strategy.regen.stripes").inc(
                len(failure), strategy=self.name
            )
            reg.counter("strategy.regen.cross_rack_units").inc(
                float(units.sum()), strategy=self.name
            )
        return _columns_solution(failure, helper, False, units)
