"""Turns recovery solutions into executable transfer/compute plans.

A :class:`RecoveryPlan` is the operational form of a
:class:`~repro.recovery.solution.MultiStripeSolution`: who reads what,
who sends what to whom (chunk-granular, so the network simulator can
schedule each flow), and who computes what (so the timing model can
charge GF arithmetic to the right CPU).

Plan construction follows the paper's methodology section:

- **CAR (aggregated)**: in every accessed intact rack, the replacement
  node designates a *delegate* — one of the nodes holding a retrieved
  chunk.  The rack's other holders send their chunks to the delegate
  (intra-rack); the delegate partially decodes them into one chunk and
  sends it across the core (one cross-rack flow per rack).  Survivors
  in the failed rack send intra-rack straight to the replacement node,
  which folds them in with their repair coefficients and XORs all
  partials together.
- **RR (direct)**: every helper node sends its chunk straight to the
  replacement node; flows from other racks cross the core.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.cluster.state import ClusterState, FailureEvent
from repro.errors import PlanError
from repro.obs import metrics as _metrics
from repro.recovery.solution import MultiStripeSolution, PerStripeSolution

__all__ = [
    "Transfer",
    "ComputeTask",
    "StripePlan",
    "RecoveryPlan",
    "StreamingRecoveryPlan",
    "plan_recovery",
    "plan_recovery_streaming",
]


@dataclass(frozen=True)
class Transfer:
    """One chunk-sized flow between two nodes.

    Attributes:
        stripe_id: stripe this flow serves.
        src_node / dst_node: endpoints.
        src_rack / dst_rack: their racks (cached for the simulator).
        chunk_index: the stripe-local chunk carried, or None when the
            payload is a partially decoded chunk.
        volume: payload size as a fraction of one chunk (1.0 for plain
            chunk/partial flows; regenerating strategies ship sub-chunk
            packets).
    """

    stripe_id: int
    src_node: int
    dst_node: int
    src_rack: int
    dst_rack: int
    chunk_index: int | None
    volume: float = 1.0

    @property
    def cross_rack(self) -> bool:
        """True iff the flow traverses the over-subscribed core."""
        return self.src_rack != self.dst_rack

    @property
    def is_partial(self) -> bool:
        """True iff the payload is a partially decoded chunk."""
        return self.chunk_index is None


@dataclass(frozen=True)
class ComputeTask:
    """A GF linear combination charged to one node's CPU.

    Attributes:
        stripe_id: stripe this computation serves.
        node: where it runs.
        input_chunks: how many chunk-sized buffers are combined.
        kind: ``"partial"`` (rack delegate, Equation 7), ``"local"``
            (replacement node folding the failed rack's survivors) or
            ``"final"`` (replacement node XOR-combining partials /
            decoding raw chunks).
        chunks: the stripe-local raw chunk indices combined (empty for a
            ``"final"`` task that combines partially decoded buffers).
    """

    stripe_id: int
    node: int
    input_chunks: int
    kind: str
    chunks: tuple[int, ...] = ()


@dataclass(frozen=True)
class StripePlan:
    """Plan for one stripe: its transfers, compute tasks, and delegates."""

    stripe_id: int
    lost_chunk: int
    transfers: tuple[Transfer, ...]
    compute: tuple[ComputeTask, ...]
    delegates: dict[int, int] = field(default_factory=dict)

    @property
    def cross_rack_transfers(self) -> tuple[Transfer, ...]:
        """Flows crossing the core."""
        return tuple(t for t in self.transfers if t.cross_rack)


@dataclass(frozen=True)
class RecoveryPlan:
    """Executable plan for a whole multi-stripe recovery.

    Attributes:
        stripe_plans: one per affected stripe, stripe-sorted.
        replacement_node: destination of every reconstruction.
        aggregated: whether partial decoding is used.
    """

    stripe_plans: tuple[StripePlan, ...]
    replacement_node: int
    aggregated: bool

    def all_transfers(self) -> Iterator[Transfer]:
        """Every flow in the plan."""
        for sp in self.stripe_plans:
            yield from sp.transfers

    def all_compute(self) -> Iterator[ComputeTask]:
        """Every compute task in the plan."""
        for sp in self.stripe_plans:
            yield from sp.compute

    def cross_rack_chunks(self) -> int:
        """Cross-rack traffic in chunk units (must match the solution)."""
        return sum(1 for t in self.all_transfers() if t.cross_rack)

    def intra_rack_chunks(self) -> int:
        """Intra-rack traffic in chunk units."""
        return sum(1 for t in self.all_transfers() if not t.cross_rack)

    def cross_rack_by_rack(self, num_racks: int) -> list[int]:
        """Cross-rack chunks sourced from each rack (the plan's t_{i,f})."""
        out = [0] * num_racks
        for t in self.all_transfers():
            if t.cross_rack:
                out[t.src_rack] += 1
        return out

    def cross_rack_volume(self) -> float:
        """Cross-rack traffic in (fractional) chunk units — equals
        :meth:`cross_rack_chunks` for plans of full-chunk strategies."""
        return sum(t.volume for t in self.all_transfers() if t.cross_rack)

    def intra_rack_volume(self) -> float:
        """Intra-rack traffic in (fractional) chunk units."""
        return sum(
            t.volume for t in self.all_transfers() if not t.cross_rack
        )

    def cross_rack_volume_by_rack(self, num_racks: int) -> list[float]:
        """Cross-rack chunk units sourced from each rack."""
        out = [0.0] * num_racks
        for t in self.all_transfers():
            if t.cross_rack:
                out[t.src_rack] += t.volume
        return out


def plan_recovery(
    state: ClusterState,
    event: FailureEvent,
    solution: MultiStripeSolution,
    dead_nodes: frozenset[int] | set[int] = frozenset(),
) -> RecoveryPlan:
    """Build the executable plan for ``solution`` on ``state``.

    The materialised form of :func:`plan_recovery_streaming`: the same
    per-stripe planner, drained into a tuple.

    Args:
        dead_nodes: helper nodes that crashed mid-recovery (secondary
            failures).  The solution must not read from them; planning a
            transfer sourced at a dead node raises :class:`PlanError`.

    Raises:
        PlanError: if the solution references chunks the placement does
            not hold where expected, or reads from a dead node.
    """
    lazy = plan_recovery_streaming(
        state, event, solution, dead_nodes=dead_nodes
    )
    return RecoveryPlan(
        stripe_plans=tuple(sp for _sol, sp in lazy.iter_stripe_plans()),
        replacement_node=lazy.replacement_node,
        aggregated=lazy.aggregated,
    )


def _record_stripe_metrics(
    reg, sol: PerStripeSolution, sp: StripePlan, aggregated: bool
) -> None:
    """One stripe's share of the plan.* metrics.

    Recorded per stripe, as each plan is built, so a lazily drained
    plan and a materialised one leave the same totals.
    """
    mode = "aggregated" if aggregated else "direct"
    reg.counter("plan.stripes").inc(mode=mode)
    reg.histogram(
        "plan.racks_accessed", buckets=_metrics.COUNT_BUCKETS
    ).observe(len(sol.chunks_by_rack))
    transfers = reg.counter("plan.transfers")
    for t in sp.transfers:
        transfers.inc(scope="cross" if t.cross_rack else "intra")


class StreamingRecoveryPlan:
    """Lazy counterpart of :class:`RecoveryPlan` for bounded-memory runs.

    Instead of materialising one :class:`StripePlan` per affected stripe
    up front (at million-stripe scale the transfer dataclasses dominate
    the coordinator's heap), the streaming plan holds only the inputs —
    cluster state, failure event, per-stripe solutions — and builds each
    stripe's plan on demand inside :meth:`iter_stripe_plans`.  Memory is
    O(1) in the stripe count; the executor's window is the only buffer.

    The iterator is single-shot: per-stripe plans are yielded once, in
    solution order, and the ``plan.*`` metrics are recorded per stripe so
    a fully drained streaming plan leaves identical metric totals to the
    eager :func:`plan_recovery`.

    Attributes:
        replacement_node: destination of every reconstruction.
        aggregated: whether partial decoding is used.
    """

    def __init__(
        self,
        state: ClusterState,
        event: FailureEvent,
        solutions,
        *,
        aggregated: bool,
        dead_nodes: frozenset[int] | set[int] = frozenset(),
    ) -> None:
        self._state = state
        self._event = event
        self._solutions = iter(solutions)
        self._dead = frozenset(dead_nodes)
        self._consumed = False
        self.replacement_node = event.replacement_node
        self.aggregated = aggregated

    def iter_stripe_plans(self) -> Iterator[tuple[PerStripeSolution, StripePlan]]:
        """Yield ``(solution, stripe_plan)`` pairs lazily, in order.

        Raises:
            PlanError: on a second call (the underlying solution iterator
                is consumed), or if a solution references chunks the
                placement does not hold where expected.
        """
        if self._consumed:
            raise PlanError("streaming plan already consumed (single-shot)")
        self._consumed = True
        plan_stripe = (
            _plan_stripe_aggregated if self.aggregated else _plan_stripe_direct
        )
        for sol in self._solutions:
            sp = plan_stripe(self._state, self._event, sol, self._dead)
            reg = _metrics.CURRENT
            if reg is not None:
                _record_stripe_metrics(reg, sol, sp, self.aggregated)
            yield sol, sp


def plan_recovery_streaming(
    state: ClusterState,
    event: FailureEvent,
    solutions,
    *,
    aggregated: bool | None = None,
    dead_nodes: frozenset[int] | set[int] = frozenset(),
) -> StreamingRecoveryPlan:
    """Build a lazy :class:`StreamingRecoveryPlan` for ``solutions``.

    Args:
        solutions: a :class:`~repro.recovery.solution.MultiStripeSolution`
            (``aggregated`` is taken from it) or any iterable of
            :class:`~repro.recovery.solution.PerStripeSolution` — e.g. a
            generator produced by a strategy that solves stripes lazily —
            in which case ``aggregated`` must be given explicitly.
        dead_nodes: as for :func:`plan_recovery`.

    Raises:
        PlanError: if ``aggregated`` cannot be determined.
    """
    if isinstance(solutions, MultiStripeSolution):
        if aggregated is None:
            aggregated = solutions.aggregated
        solutions = solutions.solutions
    if aggregated is None:
        raise PlanError(
            "aggregated= is required when streaming from a bare solution "
            "iterable"
        )
    return StreamingRecoveryPlan(
        state, event, solutions, aggregated=aggregated, dead_nodes=dead_nodes
    )


def _holder(
    state: ClusterState,
    sol: PerStripeSolution,
    chunk: int,
    dead_nodes: frozenset[int] = frozenset(),
) -> int:
    node = state.placement.node_of(sol.stripe_id, chunk)
    if node == state.failed_node:
        raise PlanError(
            f"stripe {sol.stripe_id}: chunk {chunk} lives on the failed node"
        )
    if node in dead_nodes:
        raise PlanError(
            f"stripe {sol.stripe_id}: chunk {chunk} lives on dead node {node}"
        )
    return node


def _plan_stripe_aggregated(
    state: ClusterState,
    event: FailureEvent,
    sol: PerStripeSolution,
    dead_nodes: frozenset[int] = frozenset(),
) -> StripePlan:
    repl = event.replacement_node
    repl_rack = state.topology.rack_of(repl)
    transfers: list[Transfer] = []
    compute: list[ComputeTask] = []
    delegates: dict[int, int] = {}
    partials_at_repl = 0
    # Per-rack cross-rack payload in chunk units: 1 per intact rack for
    # plain aggregated solutions, fractional for weighted (regenerating)
    # solutions.
    units = sol.cross_rack_chunks(True)

    for rack in sorted(sol.chunks_by_rack):
        chunks = sol.chunks_from_rack(rack)
        holders = {c: _holder(state, sol, c, dead_nodes) for c in chunks}
        if rack == sol.failed_rack:
            # Survivors in A_f ship intra-rack to the replacement node,
            # which folds them locally (one more "partial" input).
            for c, node in sorted(holders.items()):
                if node != repl:
                    transfers.append(
                        Transfer(
                            stripe_id=sol.stripe_id,
                            src_node=node,
                            dst_node=repl,
                            src_rack=rack,
                            dst_rack=repl_rack,
                            chunk_index=c,
                        )
                    )
            compute.append(
                ComputeTask(
                    stripe_id=sol.stripe_id,
                    node=repl,
                    input_chunks=len(chunks),
                    kind="local",
                    chunks=tuple(chunks),
                )
            )
            partials_at_repl += 1
            continue
        # Intact rack: delegate = holder of the lowest retrieved chunk.
        delegate = holders[min(holders)]
        delegates[rack] = delegate
        for c, node in sorted(holders.items()):
            if node != delegate:
                transfers.append(
                    Transfer(
                        stripe_id=sol.stripe_id,
                        src_node=node,
                        dst_node=delegate,
                        src_rack=rack,
                        dst_rack=rack,
                        chunk_index=c,
                    )
                )
        compute.append(
            ComputeTask(
                stripe_id=sol.stripe_id,
                node=delegate,
                input_chunks=len(chunks),
                kind="partial",
                chunks=tuple(chunks),
            )
        )
        transfers.append(
            Transfer(
                stripe_id=sol.stripe_id,
                src_node=delegate,
                dst_node=repl,
                src_rack=rack,
                dst_rack=repl_rack,
                chunk_index=None,
                volume=float(units.get(rack, 1)),
            )
        )
        partials_at_repl += 1

    compute.append(
        ComputeTask(
            stripe_id=sol.stripe_id,
            node=repl,
            input_chunks=partials_at_repl,
            kind="final",
        )
    )
    return StripePlan(
        stripe_id=sol.stripe_id,
        lost_chunk=sol.lost_chunk,
        transfers=tuple(transfers),
        compute=tuple(compute),
        delegates=delegates,
    )


def _plan_stripe_direct(
    state: ClusterState,
    event: FailureEvent,
    sol: PerStripeSolution,
    dead_nodes: frozenset[int] = frozenset(),
) -> StripePlan:
    repl = event.replacement_node
    repl_rack = state.topology.rack_of(repl)
    transfers: list[Transfer] = []
    units = sol.cross_rack_chunks(False)
    for rack in sorted(sol.chunks_by_rack):
        chunks = sol.chunks_from_rack(rack)
        # Weighted solutions ship sub-chunk payloads; split the rack's
        # chunk-unit total evenly so per-rack volumes stay exact.
        volume = units.get(rack, len(chunks)) / len(chunks)
        for c in chunks:
            node = _holder(state, sol, c, dead_nodes)
            transfers.append(
                Transfer(
                    stripe_id=sol.stripe_id,
                    src_node=node,
                    dst_node=repl,
                    src_rack=rack,
                    dst_rack=repl_rack,
                    chunk_index=c,
                    volume=volume,
                )
            )
    compute = (
        ComputeTask(
            stripe_id=sol.stripe_id,
            node=repl,
            input_chunks=sol.helper_count,
            kind="final",
            chunks=sol.helpers,
        ),
    )
    return StripePlan(
        stripe_id=sol.stripe_id,
        lost_chunk=sol.lost_chunk,
        transfers=tuple(transfers),
        compute=compute,
        delegates={},
    )
