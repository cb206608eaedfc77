"""Per-stripe solution finding: Theorem 1 and the valid-solution space.

Given a :class:`~repro.cluster.state.StripeView`, this module answers:

- :func:`min_racks_needed` — the paper's ``d_j``: sort intact racks by
  surviving-chunk count, take the largest until (together with the
  failed rack's survivors) at least ``k`` chunks are reachable.
- :func:`iter_valid_rack_sets` — every *valid* choice of ``d_j`` intact
  racks (Section IV-B: a solution is valid iff it recovers the stripe
  by accessing only ``d_j`` intact racks).
- :func:`build_solution` — materialise a concrete chunk selection for a
  chosen rack set: use all survivors in the failed rack (intra-rack
  retrieval is free), then fill up to ``k`` from the chosen racks,
  largest first, never emptying a chosen rack.
- :class:`CarSelector` — the per-stripe entry point CAR uses, including
  the initial pick of Algorithm 2 (the valid solution whose racks hold
  the most chunks).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence

from repro.errors import NoValidSolutionError, RecoveryError
from repro.cluster.state import StripeView
from repro.cluster.topology import ClusterTopology
from repro.obs import metrics as _metrics
from repro.recovery.solution import PerStripeSolution

__all__ = [
    "min_racks_needed",
    "iter_valid_rack_sets",
    "build_solution",
    "CarSelector",
]


def _intact_counts(view: StripeView) -> list[tuple[int, int]]:
    """(rack_id, surviving count) for intact racks with at least 1 chunk."""
    return [
        (rack, count)
        for rack, count in enumerate(view.rack_counts)
        if rack != view.failed_rack and count > 0
    ]


def min_racks_needed(view: StripeView, k: int) -> int:
    """The paper's ``d_j`` (Theorem 1).

    Sort the intact racks' surviving-chunk counts descending and find
    the smallest prefix whose sum, plus the failed rack's survivors
    ``c'_{f,j}``, reaches ``k``.

    Raises:
        NoValidSolutionError: if even all racks together hold fewer than
            ``k`` survivors (the stripe is unrecoverable).
    """
    local = view.rack_counts[view.failed_rack]
    if local >= k:
        return 0
    counts = sorted((c for _, c in _intact_counts(view)), reverse=True)
    acc = local
    for d, c in enumerate(counts, start=1):
        acc += c
        if acc >= k:
            return d
    raise NoValidSolutionError(
        f"stripe {view.stripe_id}: only {acc} survivors, need {k}"
    )


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


def build_solution(
    view: StripeView,
    rack_set: Sequence[int],
    k: int,
    topology: ClusterTopology,
) -> PerStripeSolution:
    """Materialise a per-stripe solution for a chosen intact-rack set.

    Chunk selection: take *all* survivors in the failed rack first
    (intra-rack, free), then fill the remaining need from the chosen
    racks in descending size order — taking everything from each rack
    except the last, which contributes only what is still needed.  Every
    chosen rack always contributes at least one chunk (otherwise the
    rack set would not be minimal/valid).

    Raises:
        RecoveryError: if the rack set cannot supply ``k`` helpers.
    """
    racks = list(rack_set)
    if view.failed_rack in racks:
        raise RecoveryError("rack set must contain intact racks only")
    local_chunks = view.chunks_in_rack(view.failed_rack, topology)
    chunks_by_rack: dict[int, tuple[int, ...]] = {}
    take_local = min(len(local_chunks), k)
    if take_local:
        chunks_by_rack[view.failed_rack] = tuple(local_chunks[:take_local])
    needed = k - take_local

    per_rack = {
        rack: view.chunks_in_rack(rack, topology) for rack in racks
    }
    available = sum(len(c) for c in per_rack.values())
    if needed > available:
        raise RecoveryError(
            f"stripe {view.stripe_id}: rack set {racks} holds {available} "
            f"chunks, need {needed}"
        )
    if needed == 0 and racks:
        raise RecoveryError(
            f"stripe {view.stripe_id}: rack set {racks} is unnecessary "
            f"(local survivors already suffice)"
        )
    # Largest racks first so the partially-used rack is the smallest.
    for rack in sorted(racks, key=lambda r: len(per_rack[r]), reverse=True):
        take = min(len(per_rack[rack]), needed)
        if take == 0:
            raise RecoveryError(
                f"stripe {view.stripe_id}: rack {rack} in the set would "
                f"contribute nothing (set is not minimal)"
            )
        chunks_by_rack[rack] = tuple(per_rack[rack][:take])
        needed -= take
    if needed:
        raise RecoveryError(
            f"stripe {view.stripe_id}: could not gather k={k} helpers"
        )
    return PerStripeSolution(
        stripe_id=view.stripe_id,
        lost_chunk=view.lost_chunk,
        failed_rack=view.failed_rack,
        chunks_by_rack=chunks_by_rack,
    )


class CarSelector:
    """Per-stripe solution selection for CAR.

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
        """Algorithm 2's step 2 pick: the racks with the most chunks.

        Ties are broken by rack id for determinism — unless a
        ``traffic_hint`` (current per-rack cross-rack traffic) is given,
        in which case equally-sized racks are taken least-loaded first,
        load being the balancer's measure: traffic over the rack's
        uplink capacity.
        This *balance-aware initialisation* is an online-greedy warm
        start that leaves Algorithm 2 far fewer substitutions to make
        (measured in the warm-start ablation) without changing the
        per-stripe minimum ``d_j``.
        """
        d = min_racks_needed(view, self.k)
        reg = _metrics.CURRENT
        if reg is not None:
            reg.counter("selector.solutions").inc()
            reg.histogram(
                "selector.racks_accessed", buckets=_metrics.COUNT_BUCKETS
            ).observe(d)
        intact = _intact_counts(view)
        if traffic_hint is None:
            intact.sort(key=lambda rc: (-rc[1], rc[0]))
        else:
            uplink_for = self.topology.bandwidth.uplink_for
            intact.sort(
                key=lambda rc: (
                    -rc[1],
                    traffic_hint[rc[0]] / uplink_for(rc[0]),
                    rc[0],
                )
            )
        chosen = tuple(sorted(rack for rack, _ in intact[:d]))
        return build_solution(view, chosen, self.k, self.topology)

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

        This is Algorithm 2's step 8: the replacement solution must keep
        the same (minimal) rack count, drop ``avoid_rack`` entirely, and
        include ``use_rack``.  Returns None if no such valid solution
        exists.
        """
        if not current.uses_rack(avoid_rack) or current.uses_rack(use_rack):
            return None
        if use_rack == view.failed_rack:
            return None
        new_set = tuple(
            sorted(
                [r for r in current.intact_racks_accessed if r != avoid_rack]
                + [use_rack]
            )
        )
        local = view.rack_counts[view.failed_rack]
        supply = sum(view.rack_counts[r] for r in new_set)
        if view.rack_counts[use_rack] == 0 or local + supply < self.k:
            return None
        return build_solution(view, new_set, self.k, self.topology)
