"""Regenerating-code recovery strategies: rack-aware MSR and piggybacked RS.

Both strategies ship *sub-chunk* payloads, so their solutions are
:class:`~repro.recovery.solution.WeightedStripeSolution` objects whose
``rack_units`` carry fractional cross-rack chunk units:

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

Reached by ``repro-car regen`` (and ``repro-car serve --strategy``):
EXPERIMENTS.md "Regenerating codes vs CAR".
"""

from __future__ import annotations

from repro.cluster.state import ClusterState
from repro.erasure.piggyback import PiggybackRSCode
from repro.errors import StrategyError
from repro.obs import metrics as _metrics
from repro.recovery.baselines import RecoveryStrategy
from repro.recovery.solution import MultiStripeSolution, WeightedStripeSolution

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
        views = self._views(state)
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
        running = [0.0] * num_racks
        solutions = []
        for view in views:
            members = view.rack_members(state.topology)
            candidates = [
                rack
                for rack, chunks in members.items()
                if rack != view.failed_rack and chunks
            ]
            if len(candidates) < dbar:
                raise StrategyError(
                    f"stripe {view.stripe_id}: only {len(candidates)} "
                    f"intact racks hold survivors, repair needs "
                    f"dbar={dbar} (use a rack-aligned placement)",
                    strategy=self.name,
                )
            candidates.sort(key=lambda rack: (running[rack], rack))
            helpers = candidates[:dbar]
            chunks_by_rack = {}
            rack_units = {}
            for rack in helpers:
                # One node per helper rack computes the packet; pin the
                # lowest surviving chunk as its representative input.
                chunks_by_rack[rack] = (min(members[rack]),)
                rack_units[rack] = beta
                running[rack] += beta
            solutions.append(
                WeightedStripeSolution(
                    stripe_id=view.stripe_id,
                    lost_chunk=view.lost_chunk,
                    failed_rack=view.failed_rack,
                    chunks_by_rack=chunks_by_rack,
                    rack_units=rack_units,
                )
            )
        reg = _metrics.CURRENT
        if reg is not None:
            reg.counter("strategy.regen.stripes").inc(
                len(solutions), strategy=self.name
            )
            reg.counter("strategy.regen.cross_rack_units").inc(
                beta * dbar * len(solutions), strategy=self.name
            )
        return MultiStripeSolution(
            solutions, num_racks=num_racks, aggregated=True
        )


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
        solutions = []
        for view in self._views(state):
            per_chunk: dict[int, float] = {}
            if pb.is_data(view.lost_chunk):
                for c, _half in pb.data_repair_sources(view.lost_chunk):
                    per_chunk[c] = per_chunk.get(c, 0.0) + 0.5
            else:
                for c, _half in pb.parity_repair_sources():
                    per_chunk[c] = per_chunk.get(c, 0.0) + 0.5
            missing = sorted(c for c in per_chunk if c not in view.surviving)
            if missing:
                # Cannot happen for a single failure (sources never
                # include the lost chunk); guards multi-failure misuse.
                raise StrategyError(
                    f"stripe {view.stripe_id}: piggyback sources "
                    f"{missing} are not surviving",
                    strategy=self.name,
                )
            chunks_by_rack: dict[int, list[int]] = {}
            rack_units: dict[int, float] = {}
            for c, units in per_chunk.items():
                rack = state.topology.rack_of(view.surviving[c])
                chunks_by_rack.setdefault(rack, []).append(c)
                if rack != view.failed_rack:
                    rack_units[rack] = rack_units.get(rack, 0.0) + units
            solutions.append(
                WeightedStripeSolution(
                    stripe_id=view.stripe_id,
                    lost_chunk=view.lost_chunk,
                    failed_rack=view.failed_rack,
                    chunks_by_rack={
                        r: tuple(sorted(cs))
                        for r, cs in chunks_by_rack.items()
                    },
                    rack_units=rack_units,
                )
            )
        reg = _metrics.CURRENT
        if reg is not None:
            reg.counter("strategy.regen.stripes").inc(
                len(solutions), strategy=self.name
            )
            reg.counter("strategy.regen.cross_rack_units").inc(
                sum(
                    sum(s.rack_units.values())
                    for s in solutions
                ),
                strategy=self.name,
            )
        return MultiStripeSolution(
            solutions, num_racks=state.topology.num_racks, aggregated=False
        )
