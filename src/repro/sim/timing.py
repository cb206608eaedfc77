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
time compares the computation components.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.state import ClusterState
from repro.errors import PlanError
from repro.network.links import gbps_to_bytes_per_s
from repro.recovery.planner import RecoveryPlan, StripePlan
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
        """Time every stripe of ``plan`` under the serialized pipeline."""
        stripes = tuple(
            self._stripe(plan, sp, chunk_size) for sp in plan.stripe_plans
        )
        return SerialRecoveryTiming(stripes=stripes)

    # -- internals -----------------------------------------------------

    def _stripe(
        self, plan: RecoveryPlan, sp: StripePlan, chunk_size: int
    ) -> StripeTiming:
        if plan.aggregated:
            return self._stripe_aggregated(plan, sp, chunk_size)
        return self._stripe_direct(plan, sp, chunk_size)

    def _stripe_aggregated(
        self, plan: RecoveryPlan, sp: StripePlan, chunk_size: int
    ) -> StripeTiming:
        repl = plan.replacement_node
        # Stage A: intra-rack gathers, parallel across racks; each
        # receiver's downlink serialises its inbound raw chunks.
        inbound: dict[int, int] = {}
        for t in sp.transfers:
            if not t.is_partial:
                inbound[t.dst_node] = inbound.get(t.dst_node, 0) + 1
        stage_a = max(
            (n * chunk_size / self._nic for n in inbound.values()), default=0.0
        )
        # Stage B: partial decodes and the local fold.  The paper's
        # computation time counts the *duration of the decoding
        # operations* — CAR splits the same k-input decode into per-rack
        # pieces without shrinking the total decode work (Section V-D),
        # so the pieces are summed, not overlapped.
        # The efficiency width is the stripe's full decode width (k):
        # CAR splits one k-input decode into per-rack pieces, and each
        # piece streams with the same per-input efficiency the whole
        # decode would have.
        decode_width = sum(
            ct.input_chunks
            for ct in sp.compute
            if ct.kind in ("partial", "local")
        )
        stage_b = 0.0
        for ct in sp.compute:
            if ct.kind in ("partial", "local"):
                stage_b += self.hardware.profile(ct.node).gf_seconds(
                    ct.input_chunks * chunk_size, inputs=decode_width
                )
        # Stage C: one partial per intact rack into the replacement
        # downlink (each source rack's uplink carries one chunk and
        # cannot bottleneck below the shared downlink unless slower).
        partials = [t for t in sp.transfers if t.is_partial]
        stage_c = max(
            [len(partials) * chunk_size / self._nic]
            + [chunk_size / self._uplink(t.src_rack) for t in partials]
        )
        # Stage D: final XOR combine.
        final = self._final_task(sp)
        stage_d = self.hardware.profile(final.node).xor_seconds(
            final.input_chunks * chunk_size
        )
        return StripeTiming(
            stripe_id=sp.stripe_id,
            transmission=stage_a + stage_c,
            computation=stage_b + stage_d,
        )

    def _stripe_direct(
        self, plan: RecoveryPlan, sp: StripePlan, chunk_size: int
    ) -> StripeTiming:
        repl_rack = self.state.topology.rack_of(plan.replacement_node)
        total = len(sp.transfers)
        per_uplink: dict[int, int] = {}
        for t in sp.transfers:
            if t.cross_rack:
                per_uplink[t.src_rack] = per_uplink.get(t.src_rack, 0) + 1
        downlink_time = total * chunk_size / self._nic
        uplink_time = max(
            (
                n * chunk_size / self._uplink(rack)
                for rack, n in per_uplink.items()
            ),
            default=0.0,
        )
        final = self._final_task(sp)
        compute = self.hardware.profile(final.node).gf_seconds(
            final.input_chunks * chunk_size, inputs=final.input_chunks
        )
        return StripeTiming(
            stripe_id=sp.stripe_id,
            transmission=max(downlink_time, uplink_time),
            computation=compute,
        )

    @staticmethod
    def _final_task(sp: StripePlan):
        for ct in sp.compute:
            if ct.kind == "final":
                return ct
        raise PlanError(f"stripe {sp.stripe_id} has no final compute task")
