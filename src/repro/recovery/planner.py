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

A plan is columns before it is objects.  :func:`plan_window` plans a
window of a solution's :class:`~repro.recovery.solution.SolutionColumns`
as one :class:`WindowPlan`: integer arrays of shape (stripes, helpers) —
helper chunk, holder node, holder rack, destination — plus a
repair-signature id per stripe, checked in bulk.  The rule above —
delegates, destinations, which flows cross the core — is written once,
there.  Every figure the executor needs (transfers by scope, compute by
node, stage counts, one stripe's journal commit) is counted from those
arrays by :meth:`WindowPlan.ledger`.  A stripe's :class:`Transfer`,
:class:`ComputeTask` and :class:`StripePlan` objects are a row of its
window, built by :meth:`WindowPlan.stripe_plan` only for the callers
that read them: the executor's per-stripe event walk and
:func:`plan_recovery`, which the timing simulator consumes.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter

import numpy as np

from repro.cluster.state import ClusterState, FailureEvent
from repro.errors import PlanError
from repro.obs import metrics as _metrics
from repro.recovery.solution import (
    NO_HELPER,
    MultiStripeSolution,
    SolutionColumns,
)

__all__ = [
    "Transfer",
    "ComputeTask",
    "StripePlan",
    "RecoveryPlan",
    "WindowPlan",
    "StreamingRecoveryPlan",
    "plan_recovery",
    "plan_recovery_streaming",
    "plan_window",
]

#: Stripes per window of columns while :func:`plan_recovery` builds its
#: objects: what the window bounds is the columns' scratch, not the plan.
MATERIALISE_WINDOW = 256


@dataclass(frozen=True)
class Transfer:
    """One chunk-sized flow between two nodes.

    Attributes:
        stripe_id: stripe this flow serves.
        src_node / dst_node: endpoints.
        src_rack / dst_rack: their racks (cached for the simulator).
        chunk_index: the stripe-local chunk carried, or None when the
            payload is a partially decoded chunk.
    """

    stripe_id: int
    src_node: int
    dst_node: int
    src_rack: int
    dst_rack: int
    chunk_index: int | None

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


@dataclass(frozen=True, eq=False)
class WindowPlan:
    """A window of stripes planned as columns.

    Row ``i`` is row ``i`` of ``source``; column ``j`` is its ``j``-th
    helper in *decode order*: grouped by rack, racks in the order of their lowest
    helper chunk, chunks ascending within a rack (a direct repair is one
    group).  That is the order of the repair vector's
    :class:`~repro.erasure.repair.PartialDecodePlan` groups, so a
    window's helper buffers are its decode table's rows as they stand.
    Slots past a stripe's last helper hold :data:`NO_HELPER`.

    Attributes:
        source: the window's rows of the solution's columns.
        aggregated: whether partial decoding is used.
        replacement_node / replacement_rack: destination of every
            reconstruction, and its rack.
        stripe_id / lost_chunk: ``(S,)``.
        chunk: ``(S, H)`` helper chunk indices.
        node: ``(S, H)`` the node holding each helper chunk.
        rack: ``(S, H)`` its rack, as the solution groups it.
        dest: ``(S, H)`` where the chunk is combined — its rack's
            delegate, or the replacement node (the failed rack's
            survivors, every helper of a direct repair).
        signature: ``(S,)`` index into ``signatures``: stripes with one
            id repair with one coefficient table.
        signatures: the window's distinct repair signatures (lost chunk
            and helper columns as bytes).
        reads / cross / intra / partial_decodes / local_folds: ``(S,)``
            per-stripe counts of helper reads, cross- and intra-rack
            transfers, delegate partial decodes and replacement-node
            local folds.
        racks_accessed: ``(S,)`` racks each stripe reads from.
    """

    source: SolutionColumns
    aggregated: bool
    replacement_node: int
    replacement_rack: int
    stripe_id: np.ndarray
    lost_chunk: np.ndarray
    chunk: np.ndarray
    node: np.ndarray
    rack: np.ndarray
    dest: np.ndarray
    signature: np.ndarray
    signatures: tuple[bytes, ...]
    reads: np.ndarray
    cross: np.ndarray
    intra: np.ndarray
    partial_decodes: np.ndarray
    local_folds: np.ndarray
    racks_accessed: np.ndarray

    def __len__(self) -> int:
        return len(self.stripe_id)

    def ledger(
        self, chunk_bytes: int, rows: slice = slice(None)
    ) -> tuple[int, int, dict[int, int]]:
        """``(cross_bytes, intra_bytes, charges)`` of the stripes ``rows``.

        Every planned flow moves one chunk-sized buffer.  Compute is
        charged in GF input bytes: each helper chunk to the node that
        combines it (its delegate, or the replacement node), plus, when
        aggregated, one buffer per rack group to the replacement node's
        final combine.  Over one row this is that stripe's journal commit;
        over the shipped rows, the window's share of the result.
        """
        dest = self.dest[rows]
        counts = np.bincount(
            dest[dest != NO_HELPER], minlength=self.replacement_node + 1
        )
        if self.aggregated:
            counts[self.replacement_node] += int(
                self.partial_decodes[rows].sum() + self.local_folds[rows].sum()
            )
        nodes = np.flatnonzero(counts)
        return (
            int(self.cross[rows].sum()) * chunk_bytes,
            int(self.intra[rows].sum()) * chunk_bytes,
            dict(zip(nodes.tolist(), (counts[nodes] * chunk_bytes).tolist())),
        )

    def stripe_plan(self, i: int) -> StripePlan:
        """Row ``i`` as a :class:`StripePlan`, built on demand.

        Racks ascending and chunks ascending within a rack.  Aggregated,
        a rack's raw chunks flow to its row's ``dest`` (the failed rack's
        to the replacement node, folded ``"local"``; an intact rack's to
        its delegate, which decodes a ``"partial"`` and ships it); a
        ``"final"`` combine closes the stripe.  Direct, every helper
        flows to the replacement node, which decodes them all.
        """
        sid, repl, repl_rack = (
            int(self.stripe_id[i]), self.replacement_node, self.replacement_rack
        )
        helpers = sorted(
            (rack, chunk, node, dest)
            for rack, chunk, node, dest in zip(
                self.rack[i].tolist(), self.chunk[i].tolist(),
                self.node[i].tolist(), self.dest[i].tolist(),
            )
            if chunk != NO_HELPER
        )
        transfers: list[Transfer] = []
        compute: list[ComputeTask] = []
        delegates: dict[int, int] = {}
        if not self.aggregated:
            transfers = [
                Transfer(sid, node, repl, rack, repl_rack, chunk)
                for rack, chunk, node, _ in helpers
            ]
            compute.append(ComputeTask(
                sid, repl, len(helpers), "final",
                tuple(sorted(chunk for _, chunk, _, _ in helpers)),
            ))
        else:
            failed_rack = int(self.source.failed_rack[i])
            for rack, group in groupby(helpers, key=itemgetter(0)):
                group = list(group)
                dest = group[0][3]
                local = rack == failed_rack
                transfers += [
                    Transfer(sid, node, dest, rack,
                             repl_rack if local else rack, chunk)
                    for _, chunk, node, _ in group
                    if node != dest
                ]
                compute.append(ComputeTask(
                    sid, dest, len(group), "local" if local else "partial",
                    tuple(chunk for _, chunk, _, _ in group),
                ))
                if not local:
                    delegates[rack] = dest
                    transfers.append(
                        Transfer(sid, dest, repl, rack, repl_rack, None)
                    )
            compute.append(ComputeTask(sid, repl, len(compute), "final"))
        return StripePlan(
            stripe_id=sid,
            lost_chunk=int(self.lost_chunk[i]),
            transfers=tuple(transfers),
            compute=tuple(compute),
            delegates=delegates,
        )


def plan_window(
    state: ClusterState,
    replacement_node: int,
    source: SolutionColumns,
    *,
    aggregated: bool,
    dead_nodes: frozenset[int] | set[int] = frozenset(),
) -> WindowPlan:
    """Plan a window of a solution's columns.

    Holders, delegates, destinations, transfer counts and signatures are
    array operations over the whole window.

    Raises:
        PlanError: if a solution reads a chunk on the failed node or on a
            dead node.
        PlacementError: for a chunk the placement does not hold.

    Either names the first stripe of the window with an unusable helper,
    and its first such helper in (rack, chunk) order.
    """
    # One row per stripe, ordered by chunk; unused slots come last.
    chunk, rack = source.chunk.copy(), source.rack
    stripes, width = chunk.shape
    cols = np.arange(width)
    used = chunk != NO_HELPER
    # Each helper's rack-mate of lowest chunk: the column its group
    # starts at once racks are grouped in the order of those chunks.
    head = (rack[:, :, None] == rack[:, None, :]).argmax(axis=2)
    lead = used & (head == cols)
    racks_accessed = lead.sum(axis=1)
    if aggregated:
        order = np.argsort(head * width + cols, axis=1)
        chunk = np.take_along_axis(chunk, order, axis=1)
        rack = np.take_along_axis(rack, order, axis=1)
        lead = used & np.concatenate(
            (np.ones((stripes, 1), bool), rack[:, 1:] != rack[:, :-1]), axis=1
        )
        head = np.maximum.accumulate(np.where(lead, cols, 0), axis=1)
    chunk[~used] = NO_HELPER

    stripe_id, lost_chunk = source.stripe_id, source.lost_chunk
    # Holders from the placement's node table; an index it does not have
    # is reported by the placement itself.
    table = state.placement.node_table()
    known = used & ((stripe_id >= 0) & (stripe_id < len(table)))[:, None]
    known &= (chunk >= 0) & (chunk < table.shape[1])
    node = np.where(
        known,
        table[np.where(known, stripe_id[:, None], 0), np.where(known, chunk, 0)],
        NO_HELPER,
    )
    bad = used & ~known
    for unusable in (state.failed_node, *dead_nodes):
        if unusable is not None:
            bad |= known & (node == unusable)
    if bad.any():
        i = int(bad.any(axis=1).argmax())
        sid = int(stripe_id[i])
        _, c, holder = min(
            (int(rack[i, j]), int(chunk[i, j]), int(node[i, j]))
            for j in np.flatnonzero(bad[i])
        )
        if holder == NO_HELPER:
            state.placement.node_of(sid, c)
        raise PlanError(
            f"stripe {sid}: chunk {c} lives on the failed node"
            if holder == state.failed_node
            else f"stripe {sid}: chunk {c} lives on dead node {holder}"
        )

    repl = replacement_node
    repl_rack = state.topology.rack_of(repl)
    if aggregated:
        to_repl = rack == source.failed_rack[:, None]
        dest = np.where(to_repl, repl, np.take_along_axis(node, head, axis=1))
        raw = used & (node != dest)
        partial = lead & ~to_repl
    else:
        to_repl = np.ones_like(used)
        dest = np.full_like(node, repl)
        raw = used
        partial = np.zeros_like(used)
    dest[~used] = NO_HELPER
    dest_rack = np.where(to_repl, repl_rack, rack)
    cross = (raw & (rack != dest_rack)).sum(axis=1) + (
        partial & (rack != repl_rack)
    ).sum(axis=1)

    keys = np.concatenate(
        (lost_chunk[:, None], chunk) + ((rack,) if aggregated else ()), axis=1
    ).astype(np.int32)
    index: dict[bytes, int] = {}
    signature = np.array(
        [
            index.setdefault(key, len(index))
            for key in keys.view(np.dtype((np.void, keys.shape[1] * 4)))
            .ravel()
            .tolist()
        ]
    )
    partial_decodes = partial.sum(axis=1)
    return WindowPlan(
        source=source,
        aggregated=aggregated,
        replacement_node=repl,
        replacement_rack=repl_rack,
        stripe_id=stripe_id,
        lost_chunk=lost_chunk,
        chunk=chunk,
        node=node,
        rack=rack,
        dest=dest,
        signature=signature,
        signatures=tuple(index),
        reads=used.sum(axis=1),
        cross=cross,
        intra=raw.sum(axis=1) + partial_decodes - cross,
        partial_decodes=partial_decodes,
        local_folds=(lead & to_repl).sum(axis=1) if aggregated
        else np.zeros(stripes, dtype=np.intp),
        racks_accessed=racks_accessed,
    )


def plan_recovery(
    state: ClusterState,
    event: FailureEvent,
    solution: MultiStripeSolution,
    dead_nodes: frozenset[int] | set[int] = frozenset(),
) -> RecoveryPlan:
    """Build the executable plan for ``solution`` on ``state``.

    The materialised form of :func:`plan_recovery_streaming`: its
    windows of columns, then every stripe's :class:`StripePlan`.

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
        stripe_plans=tuple(
            win.stripe_plan(i)
            for win in lazy.iter_windows(MATERIALISE_WINDOW)
            for i in range(len(win))
        ),
        replacement_node=lazy.replacement_node,
        aggregated=lazy.aggregated,
    )


def _record_window_metrics(reg, win: WindowPlan) -> None:
    """One window's share of the plan.* metrics, counted from its columns.

    Recorded as each window is planned, so a lazily drained plan and a
    materialised one leave the same totals.
    """
    mode = "aggregated" if win.aggregated else "direct"
    reg.counter("plan.stripes").inc(len(win), mode=mode)
    racks = reg.histogram("plan.racks_accessed", buckets=_metrics.COUNT_BUCKETS)
    for value, n in enumerate(np.bincount(win.racks_accessed).tolist()):
        if n:
            racks.observe(value, n)
    transfers = reg.counter("plan.transfers")
    for scope, column in (("cross", win.cross), ("intra", win.intra)):
        total = int(column.sum())
        if total:
            transfers.inc(total, scope=scope)


class StreamingRecoveryPlan:
    """Lazy counterpart of :class:`RecoveryPlan` for bounded-memory runs.

    Instead of materialising one :class:`StripePlan` per affected stripe
    up front (at million-stripe scale the transfer dataclasses dominate
    the coordinator's heap), the streaming plan holds only the inputs —
    cluster state, failure event, the solution's columns — and plans a
    window of rows at a time, as columns, inside :meth:`iter_windows`.
    Planning memory is O(window) in the stripe count.

    The iterator is single-shot: windows are yielded once, in stripe
    order, and the ``plan.*`` metrics are recorded per window as it is
    planned, so a fully drained streaming plan leaves identical metric
    totals to the eager :func:`plan_recovery`.

    Attributes:
        replacement_node: destination of every reconstruction.
        aggregated: whether partial decoding is used (the solution's).
    """

    def __init__(
        self,
        state: ClusterState,
        event: FailureEvent,
        solution: MultiStripeSolution,
        *,
        dead_nodes: frozenset[int] | set[int] = frozenset(),
    ) -> None:
        self._state = state
        self._columns = solution.columns()
        self._dead = frozenset(dead_nodes)
        self._consumed = False
        self.replacement_node = event.replacement_node
        self.aggregated = solution.aggregated

    def iter_windows(self, window: int) -> Iterator[WindowPlan]:
        """Yield the plan ``window`` stripes at a time, as columns.

        Raises:
            PlanError: on a second call (single-shot), or as
                :func:`plan_window`.
        """
        if self._consumed:
            raise PlanError("streaming plan already consumed (single-shot)")
        self._consumed = True
        for rows in self._columns.windows(window):
            win = plan_window(
                self._state, self.replacement_node, rows,
                aggregated=self.aggregated, dead_nodes=self._dead,
            )
            reg = _metrics.CURRENT
            if reg is not None:
                _record_window_metrics(reg, win)
            yield win


def plan_recovery_streaming(
    state: ClusterState,
    event: FailureEvent,
    solution: MultiStripeSolution,
    *,
    dead_nodes: frozenset[int] | set[int] = frozenset(),
) -> StreamingRecoveryPlan:
    """Build a lazy :class:`StreamingRecoveryPlan` for ``solution``.

    Args:
        dead_nodes: as for :func:`plan_recovery`.
    """
    return StreamingRecoveryPlan(state, event, solution, dead_nodes=dead_nodes)
