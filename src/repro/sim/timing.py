"""Per-stripe serialized timing model (the paper's measurement method).

The testbed in the paper measures *per lost chunk* recovery time:
stripes are repaired and timed individually, then averaged.  This
module models exactly that pipeline for one stripe at a time —
staged, with intra-stage parallelism but no inter-stripe overlap:

aggregated (CAR) pipeline per stripe::

    stage A  intra-rack gathers (all racks in parallel; each delegate's
             downlink serialises its inbound chunks) and the failed
             rack's survivors flowing to the replacement node
    stage B  partial decodes at the delegates (parallel) and the local
             fold at the replacement node
    stage C  one partially decoded chunk per accessed intact rack
             crossing the core into the replacement node's downlink
             (rack uplinks carry one chunk each; the shared downlink
             serialises)
    stage D  final XOR combine at the replacement node

direct (RR) pipeline per stripe::

    stage A  k chunks converge on the replacement node's downlink,
             constrained also by each source rack's shared uplink
    stage B  full GF decode at the replacement node

``transmission = A + C`` and ``computation = B + D``, which is the
breakdown Figure 10(a) reports; Figure 10(b)'s normalised computation
time compares the computation components.  Every stage term is read
from the stripe's row of the plan's window
(:meth:`~repro.recovery.planner.WindowPlan.helpers`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

from repro.cluster.state import ClusterState
from repro.network.links import gbps_to_bytes_per_s
from repro.recovery.planner import RecoveryPlan, WindowPlan
from repro.sim.hardware import HardwareModel

__all__ = ["StripeTiming", "SerialRecoveryTiming", "StripeSerialTimingModel"]


@dataclass(frozen=True)
class StripeTiming:
    """Transmission/computation split for one stripe's repair."""

    stripe_id: int
    transmission: float
    computation: float

    @property
    def total(self) -> float:
        """End-to-end per-stripe repair time."""
        return self.transmission + self.computation


@dataclass(frozen=True)
class SerialRecoveryTiming:
    """Aggregate of per-stripe timings for a whole recovery.

    Attributes:
        stripes: the individual per-stripe results.
    """

    stripes: tuple[StripeTiming, ...]

    @property
    def transmission_time(self) -> float:
        """Summed transmission seconds over all stripes."""
        return sum(s.transmission for s in self.stripes)

    @property
    def computation_time(self) -> float:
        """Summed computation seconds over all stripes."""
        return sum(s.computation for s in self.stripes)

    @property
    def total_time(self) -> float:
        """Summed per-stripe repair time."""
        return self.transmission_time + self.computation_time

    @property
    def time_per_chunk(self) -> float:
        """Average repair time per lost chunk (0 with no stripes)."""
        if not self.stripes:
            return 0.0
        return self.total_time / len(self.stripes)

    @property
    def computation_ratio(self) -> float:
        """Computation share of the total (Figure 10(a)).

        Guarded against zero-duration runs: an all-zero timing (e.g. a
        degenerate zero-byte chunk size) reports ratio 0 instead of
        dividing by zero.
        """
        if not self.total_time:
            return 0.0
        return self.computation_time / self.total_time

    @property
    def transmission_ratio(self) -> float:
        """Transmission share of the total (Figure 10(a))."""
        return 1.0 - self.computation_ratio


class StripeSerialTimingModel:
    """Analytic staged timing of a recovery plan, one stripe at a time."""

    def __init__(self, state: ClusterState, hardware: HardwareModel | None = None) -> None:
        self.state = state
        self.hardware = hardware or HardwareModel(state.topology)
        self._nic = gbps_to_bytes_per_s(state.topology.bandwidth.node_nic_gbps)

    def _uplink(self, rack_id: int) -> float:
        """Bytes per second of one rack's uplink into the core."""
        return gbps_to_bytes_per_s(
            self.state.topology.bandwidth.uplink_for(rack_id)
        )

    def evaluate(self, plan: RecoveryPlan, chunk_size: int) -> SerialRecoveryTiming:
        """Time every stripe of ``plan`` under the serialized pipeline.

        Raises:
            PlanError: if the plan's solution ships fractional chunk
                units.
        """
        stripes = []
        for sp in plan.stripe_plans:
            win = sp.window
            win.require_whole_chunks()
            stripe = self._aggregated if win.aggregated else self._direct
            stripes.append(stripe(win, sp.row, chunk_size))
        return SerialRecoveryTiming(stripes=tuple(stripes))

    # -- internals -----------------------------------------------------

    def _aggregated(
        self, win: WindowPlan, i: int, chunk_size: int
    ) -> StripeTiming:
        helpers = win.helpers(i)
        # Stage A: intra-rack gathers, parallel across racks; each
        # receiver's downlink serialises its inbound raw chunks.
        inbound = Counter(dest for _, _, _, dest, raw, _, _ in helpers if raw)
        stage_a = max(inbound.values(), default=0) * chunk_size / self._nic
        # Stage B: partial decodes and the local fold, one per rack
        # group.  The paper's computation time counts the *duration of
        # the decoding operations* — CAR splits the same k-input decode
        # into per-rack pieces without shrinking the total decode work
        # (Section V-D), so the pieces are summed, not overlapped.
        # The efficiency width is the stripe's full decode width (k):
        # each piece streams with the same per-input efficiency the
        # whole decode would have.
        reads = int(win.reads[i])
        stage_b = sum(
            self.hardware.profile(group[0][3]).gf_seconds(
                len(group) * chunk_size, inputs=reads
            )
            for group in (
                list(g) for _, g in groupby(helpers, key=itemgetter(0))
            )
        )
        # Stage C: one partial per intact rack into the replacement
        # downlink (each source rack's uplink carries one chunk and
        # cannot bottleneck below the shared downlink unless slower).
        partial_racks = [rack for rack, *_, partial, _ in helpers if partial]
        stage_c = max(
            [len(partial_racks) * chunk_size / self._nic]
            + [chunk_size / self._uplink(rack) for rack in partial_racks]
        )
        # Stage D: final XOR combine of one buffer per rack group.
        groups = int(win.partial_decodes[i] + win.local_folds[i])
        stage_d = self.hardware.profile(win.replacement_node).xor_seconds(
            groups * chunk_size
        )
        return StripeTiming(
            stripe_id=int(win.stripe_id[i]),
            transmission=stage_a + stage_c,
            computation=stage_b + stage_d,
        )

    def _direct(
        self, win: WindowPlan, i: int, chunk_size: int
    ) -> StripeTiming:
        reads = int(win.reads[i])
        per_uplink = Counter(
            rack for rack, _, _, _, _, _, crossing in win.helpers(i)
            if crossing
        )
        # The replacement node's own helper chunk, if any, never crosses
        # its downlink.
        downlink_time = int(win.raw[i].sum()) * chunk_size / self._nic
        uplink_time = max(
            (
                n * chunk_size / self._uplink(rack)
                for rack, n in per_uplink.items()
            ),
            default=0.0,
        )
        compute = self.hardware.profile(win.replacement_node).gf_seconds(
            reads * chunk_size, inputs=reads
        )
        return StripeTiming(
            stripe_id=int(win.stripe_id[i]),
            transmission=max(downlink_time, uplink_time),
            computation=compute,
        )
