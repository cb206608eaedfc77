"""Theorem 1 and CAR's chunk selection, counted over a failure's columns.

The solver's input is a :class:`~repro.cluster.state.FailureColumns`: one
row per affected stripe, with the ``(S, r)`` matrix ``counts`` of alive
chunks per rack.  Every step is an array operation over all rows:

- :func:`racks_needed` — the paper's ``d_j``: sort each row's intact-rack
  counts descending and find the shortest prefix that, together with the
  failed rack's survivors, reaches ``k`` (a sort plus a cumulative sum).
- :func:`pick_racks` — Algorithm 2's step 2: each row's ``d_j`` intact
  racks holding the most chunks, ties by rack id, as a boolean
  ``(S, r)`` "racks used" mask.
- :func:`take_chunks` — the chunk-take rule over a racks-used mask, shared
  by the initial pick and by every substitution of Algorithm 2: all of
  the failed rack's survivors first (intra-rack reads are free), then the
  used racks largest first (ties by rack id), lowest chunk ids first
  within each rack, until ``k`` are taken.
- :func:`substitutable` — Algorithm 2's step 8 validity test for every
  row at once.

The per-stripe entry points — :func:`min_racks_needed`,
:func:`build_solution` and :class:`CarSelector` — are the one-row case of
these functions over a :class:`~repro.cluster.state.StripeView`.
:func:`iter_valid_rack_sets` enumerates the valid-solution space of one
stripe (Section IV-B).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import NoValidSolutionError, RecoveryError
from repro.cluster.state import FailureColumns, StripeView
from repro.cluster.topology import ClusterTopology
from repro.obs import metrics as _metrics
from repro.recovery.solution import PerStripeSolution, SolutionColumns

__all__ = [
    "racks_needed",
    "pick_racks",
    "take_chunks",
    "substitutable",
    "min_racks_needed",
    "iter_valid_rack_sets",
    "build_solution",
    "CarSelector",
]


def racks_needed(failure: FailureColumns, k: int) -> np.ndarray:
    """Theorem 1's ``d_j`` for every row of ``failure``.

    Raises:
        NoValidSolutionError: for the first row whose racks together hold
            fewer than ``k`` survivors (the stripe is unrecoverable).
    """
    counts, failed = failure.counts, failure.failed_rack
    local = counts[:, failed]
    intact = counts.copy()
    intact[:, failed] = 0
    reach = local[:, None] + np.cumsum(-np.sort(-intact, axis=1), axis=1)
    short = reach[:, -1] < k if reach.shape[1] else local < k
    if short.any():
        i = int(short.argmax())
        raise NoValidSolutionError(
            f"stripe {int(failure.stripe_id[i])}: only "
            f"{int(local[i] + intact[i].sum())} survivors, need {k}"
        )
    return np.where(local >= k, 0, (reach >= k).argmax(axis=1) + 1)


def _record_picks(d: np.ndarray) -> None:
    """``selector.*`` metrics of one pick, counted from its ``d`` column."""
    reg = _metrics.CURRENT
    if reg is None or not len(d):
        return
    reg.counter("selector.solutions").inc(len(d))
    racks = reg.histogram("selector.racks_accessed", buckets=_metrics.COUNT_BUCKETS)
    for value, n in enumerate(np.bincount(d).tolist()):
        if n:
            racks.observe(value, n)


def pick_racks(
    failure: FailureColumns,
    d: np.ndarray,
    traffic: Sequence[float] | None = None,
    uplink: Sequence[float] | None = None,
) -> np.ndarray:
    """Algorithm 2's step 2: each row's ``d_j`` racks with the most chunks.

    Returns the ``(S, r)`` racks-used mask (the failed rack's column is
    False).  Ties between equally full racks go to the lower rack id —
    unless ``traffic`` (per-rack cross-rack load so far) is given: then
    rows are picked in order, ties go to the rack whose
    ``traffic / uplink`` is lowest, and each row's racks add one to their
    traffic before the next row is picked.  That *balance-aware
    initialisation* is an online-greedy warm start that leaves Algorithm 2
    far fewer substitutions (measured in the warm-start ablation) without
    changing any ``d_j``.
    """
    _record_picks(d)
    counts, failed = failure.counts, failure.failed_rack
    if traffic is None:
        # The failed rack sorts after every intact one and d_j never
        # reaches it.
        key = -counts
        key[:, failed] = 1
        rank = np.argsort(np.argsort(key, axis=1, kind="stable"), axis=1)
        return rank < d[:, None]
    used = np.zeros(counts.shape, dtype=bool)
    running = list(traffic)
    for i, (row, need) in enumerate(zip(counts.tolist(), d.tolist())):
        intact = [
            r for r, c in enumerate(row) if r != failed and c > 0
        ]
        intact.sort(key=lambda r: (-row[r], running[r] / uplink[r], r))
        for r in intact[:need]:
            used[i, r] = True
            running[r] += 1
    return used


def take_chunks(
    failure: FailureColumns, used: np.ndarray, k: int
) -> np.ndarray:
    """The ``(S, k + m)`` helper mask of the chunk-take rule.

    Each row takes its failed rack's survivors first, then the racks
    ``used`` marks, largest first with ties by rack id, each from its
    lowest chunk id up, until ``k`` chunks are taken.  Every used rack
    must contribute.

    Raises:
        RecoveryError: for the first row whose racks cannot supply ``k``
            helpers, that lists the failed rack, or that names a rack the
            take never reaches (the set is not minimal).
    """
    counts, failed = failure.counts, failure.failed_rack
    if used[:, failed].any():
        raise RecoveryError("rack set must contain intact racks only")
    rows, racks = counts.shape
    width = failure.alive.shape[1]
    row = np.arange(rows)[:, None]
    # Rank racks: the failed rack, then used racks by (-count, id),
    # unused racks last.  (The argsort of a permutation is its inverse.)
    key = np.where(used, -counts, width + 1)
    key[:, failed] = -(width + 1)
    rank = np.argsort(np.argsort(key, axis=1, kind="stable"), axis=1)
    chunk_rack = np.maximum(failure.chunk_rack, 0)
    readable = failure.alive & (used[row, chunk_rack] | (chunk_rack == failed))
    order = np.where(
        readable, rank[row, chunk_rack] * width + np.arange(width), racks * width
    )
    taken = np.argsort(np.argsort(order, axis=1, kind="stable"), axis=1)
    helper = readable & (taken < k)
    reads = np.bincount(
        (row * racks + chunk_rack)[helper], minlength=rows * racks
    ).reshape(rows, racks)
    short = helper.sum(axis=1) < k
    starved = used & (reads == 0)
    bad = short | starved.any(axis=1)
    if bad.any():
        i = int(bad.argmax())
        sid = int(failure.stripe_id[i])
        chosen = np.flatnonzero(used[i]).tolist()
        local = min(int(counts[i, failed]), k)
        if short[i]:
            raise RecoveryError(
                f"stripe {sid}: rack set {chosen} holds "
                f"{int(counts[i, chosen].sum())} chunks, need {k - local}"
            )
        if local == k:
            raise RecoveryError(
                f"stripe {sid}: rack set {chosen} is unnecessary "
                f"(local survivors already suffice)"
            )
        raise RecoveryError(
            f"stripe {sid}: rack {int(starved[i].argmax())} in the set would "
            f"contribute nothing (set is not minimal)"
        )
    return helper


def substitutable(
    counts: np.ndarray,
    used: np.ndarray,
    supply: np.ndarray,
    avoid: int,
    use: int,
    k: int,
) -> np.ndarray:
    """Algorithm 2's step 8 test for every row: ``(S,)`` bool.

    Row ``j`` admits ``R'_j`` — the same number of racks, ``avoid``
    dropped and ``use`` added — iff it reads ``avoid``, does not read
    ``use``, ``use`` holds a survivor, and the new set plus the failed
    rack's survivors still reach ``k``.  ``supply`` is each row's current
    reach: its failed rack's survivors plus its used racks' counts.
    """
    return (
        used[:, avoid]
        & ~used[:, use]
        & (counts[:, use] > 0)
        & (supply - counts[:, avoid] + counts[:, use] >= k)
    )


def _intact_counts(view: StripeView) -> list[tuple[int, int]]:
    """(rack_id, surviving count) for intact racks with at least 1 chunk."""
    return [
        (rack, count)
        for rack, count in enumerate(view.rack_counts)
        if rack != view.failed_rack and count > 0
    ]


def min_racks_needed(view: StripeView, k: int) -> int:
    """The paper's ``d_j`` (Theorem 1) for one stripe.

    Raises:
        NoValidSolutionError: if even all racks together hold fewer than
            ``k`` survivors (the stripe is unrecoverable).
    """
    return int(racks_needed(FailureColumns.from_views([view]), k)[0])


def iter_valid_rack_sets(view: StripeView, k: int) -> Iterator[tuple[int, ...]]:
    """Yield every valid set of ``d_j`` intact racks, as sorted tuples.

    A rack set ``S`` (|S| = d_j) is valid iff
    ``sum_{i in S} c_{i,j} + c'_{f,j} >= k`` (Section IV-B).
    """
    d = min_racks_needed(view, k)
    if d == 0:
        yield ()
        return
    local = view.rack_counts[view.failed_rack]
    intact = _intact_counts(view)
    for combo in itertools.combinations(intact, d):
        if local + sum(c for _, c in combo) >= k:
            yield tuple(sorted(rack for rack, _ in combo))


def _one_row(
    view: StripeView,
    topology: ClusterTopology,
    k: int,
    used: np.ndarray,
    failure: FailureColumns | None = None,
) -> PerStripeSolution:
    """The take rule's solution for one view and its racks-used row."""
    if failure is None:
        failure = FailureColumns.from_views([view], topology)
    used = used.reshape(1, -1)
    helper = take_chunks(failure, used, k)
    return SolutionColumns.from_mask(failure, helper).solution(0)


def build_solution(
    view: StripeView,
    rack_set: Sequence[int],
    k: int,
    topology: ClusterTopology,
) -> PerStripeSolution:
    """Materialise one stripe's solution for a chosen intact-rack set.

    The one-row case of :func:`take_chunks`.

    Raises:
        RecoveryError: if the rack set lists the failed rack, cannot
            supply ``k`` helpers, or is not minimal.
    """
    racks = list(rack_set)
    if view.failed_rack in racks:
        raise RecoveryError("rack set must contain intact racks only")
    used = np.zeros(len(view.rack_counts), dtype=bool)
    used[racks] = True
    return _one_row(view, topology, k, used)


class CarSelector:
    """Per-stripe solution selection for CAR.

    The one-row case of the column functions above.

    Args:
        topology: the cluster.
        k: data chunks per stripe (the decode threshold).
    """

    def __init__(self, topology: ClusterTopology, k: int) -> None:
        self.topology = topology
        self.k = k

    def min_racks(self, view: StripeView) -> int:
        """Theorem 1's ``d_j`` for one stripe."""
        return min_racks_needed(view, self.k)

    def initial_solution(
        self,
        view: StripeView,
        traffic_hint: Sequence[int] | None = None,
    ) -> PerStripeSolution:
        """Algorithm 2's step 2 pick for one stripe (:func:`pick_racks`).

        With a ``traffic_hint`` (current per-rack cross-rack traffic),
        equally-sized racks are taken least-loaded first, load being the
        balancer's measure: traffic over the rack's uplink capacity.
        """
        failure = FailureColumns.from_views([view], self.topology)
        uplink = None
        if traffic_hint is not None:
            uplink_for = self.topology.bandwidth.uplink_for
            uplink = [uplink_for(r) for r in range(failure.num_racks)]
        used = pick_racks(
            failure, racks_needed(failure, self.k), traffic_hint, uplink
        )
        return _one_row(view, self.topology, self.k, used, failure)

    def degraded_solution(
        self,
        view: StripeView,
        dead_nodes: Iterable[int],
        traffic_hint: Sequence[int] | None = None,
    ) -> PerStripeSolution:
        """Re-plan one stripe after secondary failures.

        Removes chunks stored on ``dead_nodes`` from the view and runs
        the normal Algorithm-2 initial pick on what is left, so the
        returned solution is Theorem-1 minimal over the *surviving*
        racks.  Raises :class:`NoValidSolutionError` if fewer than ``k``
        chunks survive (data loss).
        """
        from repro.cluster.failure import degraded_view

        return self.initial_solution(
            degraded_view(view, dead_nodes, self.topology),
            traffic_hint=traffic_hint,
        )

    def valid_rack_sets(self, view: StripeView) -> list[tuple[int, ...]]:
        """All valid ``d_j``-sized intact-rack sets."""
        return list(iter_valid_rack_sets(view, self.k))

    def all_valid_solutions(self, view: StripeView) -> list[PerStripeSolution]:
        """Materialised solutions for every valid rack set."""
        return [
            build_solution(view, rs, self.k, self.topology)
            for rs in self.valid_rack_sets(view)
        ]

    def substitute(
        self,
        view: StripeView,
        current: PerStripeSolution,
        avoid_rack: int,
        use_rack: int,
    ) -> PerStripeSolution | None:
        """Find ``R'_j``: same stripe, reads from ``use_rack`` not ``avoid_rack``.

        The one-row case of :func:`substitutable`, then the take rule over
        the new rack set.  Returns None if no such valid solution exists.
        """
        num_racks = len(view.rack_counts)
        if not (0 <= avoid_rack < num_racks and 0 <= use_rack < num_racks):
            return None
        if view.failed_rack in (avoid_rack, use_rack):
            return None
        counts = np.array([view.rack_counts], dtype=np.intp)
        used = np.zeros((1, num_racks), dtype=bool)
        used[0, list(current.intact_racks_accessed)] = True
        supply = counts[:, view.failed_rack] + counts[used].sum()
        if not substitutable(counts, used, supply, avoid_rack, use_rack, self.k)[0]:
            return None
        used[0, [avoid_rack, use_rack]] = False, True
        return _one_row(view, self.topology, self.k, used)
