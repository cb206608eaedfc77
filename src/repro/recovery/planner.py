"""Turns recovery solutions into executable transfer/compute plans.

A :class:`RecoveryPlan` is the operational form of a
:class:`~repro.recovery.solution.MultiStripeSolution`: who reads what,
who sends what to whom (chunk-granular, so the network simulator can
schedule each flow), and who computes what (so the timing model can
charge GF arithmetic to the right CPU), following the paper's
methodology section:

- **CAR (aggregated)**: in every accessed intact rack, the replacement
  node designates a *delegate* — one of the nodes holding a retrieved
  chunk.  The rack's other holders send their chunks to the delegate
  (intra-rack); the delegate partially decodes them into one chunk and
  sends it across the core (one cross-rack flow per rack).  Survivors
  in the failed rack send intra-rack straight to the replacement node,
  which folds them in with their repair coefficients and XORs all
  partials together.  A rack whose delegate would be the replacement
  node itself is folded the same way.
- **RR (direct)**: every helper node sends its chunk straight to the
  replacement node; flows from other racks cross the core.

In both, a helper chunk the replacement node holds stays where it is:
no flow runs from a node to itself.

A plan is columns.  :func:`plan_window` plans a window of a solution's
:class:`~repro.recovery.solution.SolutionColumns` as one
:class:`WindowPlan`, checked in bulk: integer arrays of shape (stripes,
helpers) — helper chunk, holder node, holder rack, destination — and
masks — which helpers flow raw, which ship their rack's partial, which
flows cross the core.  The rule above is written once, there.  Every
figure the executor needs (transfers by scope, compute by node, stage
counts, one stripe's journal commit) is counted from those arrays by
:meth:`WindowPlan.ledger`; the executor's event walk and both time
models (:mod:`repro.sim`) read a stripe's flows and decodes from its
row (:meth:`WindowPlan.helpers`).  A :class:`RecoveryPlan` holds every
affected stripe's row, a :class:`StripePlan` handle each.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

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
    "StripePlan",
    "RecoveryPlan",
    "WindowPlan",
    "StreamingRecoveryPlan",
    "plan_recovery",
    "plan_recovery_streaming",
    "plan_window",
]

#: Stripes per window of a :func:`plan_recovery` plan: what the window
#: bounds is the columns' scratch while planning, not the plan.
MATERIALISE_WINDOW = 256


@dataclass(frozen=True, eq=False)
class StripePlan:
    """One stripe's plan: row ``row`` of ``window``.

    A handle, not a copy, of the window's columns
    (:meth:`WindowPlan.helpers`), kept because ``benchmarks/e2e/`` slices
    :attr:`RecoveryPlan.stripe_plans` and ``dataclasses.replace``-s it.
    Two handles are equal when their rows plan the same flows and decodes.
    """

    window: WindowPlan
    row: int

    @property
    def stripe_id(self) -> int:
        return int(self.window.stripe_id[self.row])

    @property
    def lost_chunk(self) -> int:
        return int(self.window.lost_chunk[self.row])

    def _key(self) -> tuple:
        win = self.window
        return (
            win.aggregated, win.replacement_node, self.stripe_id,
            self.lost_chunk, win.helpers(self.row),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StripePlan):
            return NotImplemented
        return self._key() == other._key()


@dataclass(frozen=True)
class RecoveryPlan:
    """Executable plan for a whole multi-stripe recovery.

    Attributes:
        stripe_plans: one row handle per affected stripe, stripe-sorted
            (a tuple of handles only because ``benchmarks/e2e/`` slices
            and ``dataclasses.replace``-s it).
        replacement_node: destination of every reconstruction.
        aggregated: whether partial decoding is used.
    """

    stripe_plans: tuple[StripePlan, ...]
    replacement_node: int
    aggregated: bool

    def cross_rack_chunks(self) -> int:
        """Cross-rack flows, each one whole chunk: the solution's traffic
        in chunk units (a plan refuses fractional units,
        :meth:`WindowPlan.require_whole_chunks`)."""
        return sum(int(sp.window.cross[sp.row]) for sp in self.stripe_plans)


@dataclass(frozen=True, eq=False)
class WindowPlan:
    """A window of stripes planned as columns.

    Row ``i`` is row ``i`` of ``source``; column ``j`` is its ``j``-th
    helper in *decode order*.  Aggregated, a row's helpers are grouped
    by rack, one group per partial decode (Equation 7): a rack's helpers
    adjacent with chunks ascending, the racks in the order of their
    lowest helper chunk.  Direct, the row is one group, chunks
    ascending.  Slots past a stripe's last helper hold
    :data:`NO_HELPER`.  A service's degraded read is a one-row window.

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
            survivors, a rack the replacement node would delegate,
            every helper of a direct repair).
        raw: ``(S, H)`` the helper's chunk flows to ``dest``: iff its
            holder is not ``dest``.
        partial: ``(S, H)`` the helper leads a group whose delegate
            decodes a partial and ships it to the replacement node.
        crossing: ``(S, H)`` the helper's flow — its raw chunk, or its
            rack's partial — crosses the core.
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
    raw: np.ndarray
    partial: np.ndarray
    crossing: np.ndarray
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
        final combine.  Over one row this is that stripe's journal
        commit; over the shipped rows, the window's share.
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

    def helpers(self, i: int) -> list[tuple]:
        """Row ``i``'s helpers as ``(rack, chunk, node, dest, raw,
        partial, crossing)``, racks ascending and chunks ascending within
        a rack: the order the event walk fires deliveries in and the time
        models build their tasks in.  A rack's partial is flagged on its
        first helper."""
        return sorted(
            helper
            for helper in zip(
                self.rack[i].tolist(), self.chunk[i].tolist(),
                self.node[i].tolist(), self.dest[i].tolist(),
                self.raw[i].tolist(), self.partial[i].tolist(),
                self.crossing[i].tolist(),
            )
            if helper[1] != NO_HELPER
        )

    def require_whole_chunks(self) -> None:
        """Refuse a solution whose payloads are fractional: a plan moves
        and decodes whole chunks, not a regenerating code's ``units``.

        Raises:
            PlanError: if the window's solution has ``units``.
        """
        units = self.source.units
        if units is not None:
            shipped = units[0][units[0] > 0].tolist()
            raise PlanError(
                "the solution ships fractional chunk units (stripe "
                f"{int(self.stripe_id[0])}: units {shipped}); a plan moves "
                "whole chunks, so it can be neither executed nor timed"
            )


def plan_window(
    state: ClusterState,
    replacement_node: int,
    source: SolutionColumns,
    *,
    aggregated: bool,
    dead_nodes: frozenset[int] | set[int] = frozenset(),
) -> WindowPlan:
    """Plan a window of a solution's columns in whole-window array operations.

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
        # The failed rack's survivors fold at the replacement node, and
        # so does a rack whose delegate would be the replacement node
        # itself: nothing flows from a node to itself.
        delegate = np.take_along_axis(node, head, axis=1)
        to_repl = (rack == source.failed_rack[:, None]) | (delegate == repl)
        dest = np.where(to_repl, repl, delegate)
        partial = lead & ~to_repl
    else:
        to_repl = np.ones_like(used)
        dest = np.full_like(node, repl)
        partial = np.zeros_like(used)
    raw = used & (node != dest)
    dest[~used] = NO_HELPER
    dest_rack = np.where(to_repl, repl_rack, rack)
    crossing = (raw & (rack != dest_rack)) | (partial & (rack != repl_rack))
    cross = crossing.sum(axis=1)

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
        raw=raw,
        partial=partial,
        crossing=crossing,
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
    windows of columns, held as one :class:`StripePlan` row handle per
    stripe.

    Args:
        dead_nodes: helper nodes that crashed mid-recovery (secondary
            failures).  The solution must not read from them; planning a
            transfer sourced at a dead node raises :class:`PlanError`.

    Raises:
        PlanError: if the solution references chunks the placement does
            not hold where expected, or reads from a dead node.
    """
    lazy = plan_recovery_streaming(state, event, solution, dead_nodes=dead_nodes)
    return RecoveryPlan(
        stripe_plans=tuple(
            StripePlan(win, i)
            for win in lazy.iter_windows(MATERIALISE_WINDOW)
            for i in range(len(win))
        ),
        replacement_node=lazy.replacement_node,
        aggregated=lazy.aggregated,
    )


def _record_window_metrics(reg, win: WindowPlan) -> None:
    """One window's share of the plan.* metrics, counted from its columns
    as it is planned, so lazy and materialised plans leave equal totals."""
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

    Where a materialised plan holds every window's columns and a handle
    per stripe at once, the streaming plan holds only its inputs —
    cluster state, failure event, the solution's columns — and plans a
    window at a time inside :meth:`iter_windows`: planning memory is
    O(window) in the stripe count.

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
