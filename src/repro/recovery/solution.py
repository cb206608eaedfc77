"""Recovery-solution objects and their traffic accounting.

A *per-stripe recovery solution* fixes which ``k`` surviving chunks are
retrieved to rebuild one lost chunk, grouped by rack.  A *multi-stripe
solution* collects one per affected stripe; the paper's load-balancing
objective λ (Section III) is defined over it.

Traffic accounting follows the paper exactly:

- with **aggregation** (CAR): each accessed intact rack ships exactly
  one partially decoded chunk, so ``t_{i,f}`` = number of stripes whose
  solution touches rack ``i``;
- without aggregation (RR): every retrieved chunk in an intact rack is
  shipped individually, so ``t_{i,f}`` = number of chunks retrieved
  from rack ``i``.

Retrievals inside the failed rack ``A_f`` are intra-rack and never
counted as cross-rack traffic.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from repro.errors import RecoveryError

__all__ = [
    "NO_HELPER",
    "PerStripeSolution",
    "WeightedStripeSolution",
    "SolutionColumns",
    "MultiStripeSolution",
    "balancing_rate",
]

#: Column value of a helper slot a stripe does not fill: a local (LRC)
#: repair reads fewer helpers than the widest stripe of its rows.
NO_HELPER = -1

_stripe_id = attrgetter("stripe_id")


def balancing_rate(traffic: Sequence[float], failed_rack: int) -> float:
    """The paper's λ of a per-rack traffic vector.

    Max over intact racks / mean over intact racks; defined as 1.0 when
    there is no cross-rack traffic at all.
    """
    intact = [t for rack, t in enumerate(traffic) if rack != failed_rack]
    total = sum(intact)
    if total == 0:
        return 1.0
    return max(intact) / (total / len(intact))


@dataclass(frozen=True)
class PerStripeSolution:
    """Which chunks one stripe's repair retrieves, grouped by rack.

    Attributes:
        stripe_id: the stripe being repaired.
        lost_chunk: stripe-local index of the lost chunk.
        failed_rack: the paper's ``A_f`` (rack of the failed node).
        chunks_by_rack: rack_id -> retrieved chunk indices in that rack.
            Includes the failed rack's local retrievals.
    """

    stripe_id: int
    lost_chunk: int
    failed_rack: int
    chunks_by_rack: Mapping[int, tuple[int, ...]]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for rack, chunks in self.chunks_by_rack.items():
            if not chunks:
                raise RecoveryError(
                    f"stripe {self.stripe_id}: rack {rack} listed with no chunks"
                )
            for c in chunks:
                if c == self.lost_chunk:
                    raise RecoveryError(
                        f"stripe {self.stripe_id}: solution retrieves the lost chunk"
                    )
                if c in seen:
                    raise RecoveryError(
                        f"stripe {self.stripe_id}: chunk {c} retrieved twice"
                    )
                seen.add(c)

    @property
    def helpers(self) -> tuple[int, ...]:
        """All retrieved chunk indices, sorted (the RS helper set)."""
        out: list[int] = []
        for chunks in self.chunks_by_rack.values():
            out.extend(chunks)
        return tuple(sorted(out))

    @property
    def helper_count(self) -> int:
        """Total chunks retrieved (must equal ``k`` for an RS repair)."""
        return sum(len(c) for c in self.chunks_by_rack.values())

    @property
    def intact_racks_accessed(self) -> tuple[int, ...]:
        """Intact racks this solution reads from, sorted (size = ``d_j``)."""
        return tuple(
            sorted(r for r in self.chunks_by_rack if r != self.failed_rack)
        )

    @property
    def num_intact_racks(self) -> int:
        """The paper's ``d_j`` for this solution."""
        return len(self.intact_racks_accessed)

    def chunks_from_rack(self, rack_id: int) -> tuple[int, ...]:
        """Chunk indices retrieved from one rack (empty if unused)."""
        return tuple(self.chunks_by_rack.get(rack_id, ()))

    def uses_rack(self, rack_id: int) -> bool:
        """True iff the solution reads at least one chunk from ``rack_id``."""
        return rack_id in self.chunks_by_rack

    def cross_rack_chunks(self, aggregated: bool) -> dict[int, int]:
        """Cross-rack traffic per intact rack, in chunk units."""
        out: dict[int, int] = {}
        for rack, chunks in self.chunks_by_rack.items():
            if rack == self.failed_rack:
                continue
            out[rack] = 1 if aggregated else len(chunks)
        return out

    def rack_map(self) -> dict[int, int]:
        """chunk index -> rack id, for partial-decode grouping."""
        return {
            c: rack
            for rack, chunks in self.chunks_by_rack.items()
            for c in chunks
        }


@dataclass(frozen=True)
class WeightedStripeSolution(PerStripeSolution):
    """A per-stripe solution whose cross-rack payloads are fractional.

    Regenerating-code strategies ship sub-chunk payloads: a rack-aware
    MSR helper rack sends one ``beta``-sized packet
    (``1 / (kbar - 1)`` of a chunk), a piggybacked-RS helper ships
    half-chunks.  ``rack_units`` records, per intact rack, how many
    *chunk units* actually cross the core, overriding the integral
    chunk/partial accounting of :class:`PerStripeSolution` while
    keeping every other part of the solution/planner interface (rack
    grouping, λ, substitution bookkeeping) unchanged.

    Attributes:
        rack_units: intact rack id -> cross-rack chunk units shipped.
            Racks absent from the mapping (and the failed rack) ship
            nothing across the core.
    """

    rack_units: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        super().__post_init__()
        for rack, units in self.rack_units.items():
            if rack == self.failed_rack:
                raise RecoveryError(
                    f"stripe {self.stripe_id}: the failed rack {rack} "
                    f"cannot source cross-rack traffic"
                )
            if rack not in self.chunks_by_rack:
                raise RecoveryError(
                    f"stripe {self.stripe_id}: rack {rack} ships "
                    f"{units} units but retrieves no chunks"
                )
            if units < 0:
                raise RecoveryError(
                    f"stripe {self.stripe_id}: negative cross-rack "
                    f"units for rack {rack}"
                )

    def cross_rack_chunks(self, aggregated: bool) -> dict[int, float]:
        """Cross-rack traffic per intact rack, in (fractional) chunk
        units — ``aggregated`` is irrelevant once exact payload sizes
        are known."""
        return dict(self.rack_units)


@dataclass(frozen=True, eq=False)
class SolutionColumns:
    """Per-stripe solutions as columns, one row per stripe.

    Row ``i`` reads the helper chunks ``chunk[i]``, ascending, and slots
    past its last helper hold :data:`NO_HELPER`; ``rack[i]`` is the rack
    each helper is read from.  Every strategy's solve produces these
    directly (:meth:`from_mask`); the planner reads its windows from them.

    Attributes:
        stripe_id / lost_chunk / failed_rack: ``(S,)``.
        chunk / rack: ``(S, H)``.
        units: ``(S, H)`` cross-rack chunk units each helper ships, for
            strategies whose payloads are fractional (regenerating
            codes); ``None`` when traffic is counted in whole chunks.
        objects: the per-stripe solution of each row when the columns
            were built from objects (:meth:`from_solutions`), so that
            :meth:`solution` hands back the object itself.
    """

    stripe_id: np.ndarray
    lost_chunk: np.ndarray
    failed_rack: np.ndarray
    chunk: np.ndarray
    rack: np.ndarray
    units: np.ndarray | None = None
    objects: tuple[PerStripeSolution, ...] | None = None

    def __len__(self) -> int:
        return len(self.stripe_id)

    @classmethod
    def from_mask(
        cls, failure, helper: np.ndarray, units: np.ndarray | None = None
    ) -> "SolutionColumns":
        """The rows of a ``(S, k + m)`` helper mask over a failure's
        :class:`~repro.cluster.state.FailureColumns`, with ``units`` (the
        mask's shape) the cross-rack chunk units each helper ships."""
        reads = helper.sum(axis=1)
        width = int(reads.max(initial=0))
        # Helper chunks first, each row's in ascending order.
        order = np.argsort(~helper, axis=1, kind="stable")[:, :width]
        pad = np.arange(width) >= reads[:, None]
        row = np.arange(len(reads))[:, None]
        return cls(
            stripe_id=failure.stripe_id,
            lost_chunk=failure.lost_chunk,
            failed_rack=np.full(len(reads), failure.failed_rack),
            chunk=np.where(pad, NO_HELPER, order),
            rack=np.where(pad, NO_HELPER, failure.chunk_rack[row, order]),
            units=None if units is None
            else np.where(pad, 0.0, units[row, order]),
        )

    @classmethod
    def from_solutions(cls, solutions) -> "SolutionColumns":
        """The rows of per-stripe solution objects, in their order.

        A :class:`WeightedStripeSolution`'s units for a rack go on the
        rack's lowest helper.

        Raises:
            RecoveryError: if weighted and unweighted solutions mix.
        """
        sols = tuple(solutions)
        kinds = {isinstance(s, WeightedStripeSolution) for s in sols}
        if len(kinds) > 1:
            raise RecoveryError(
                "weighted and unweighted solutions cannot be mixed"
            )
        weighted = kinds == {True}
        chunks: list[int] = []
        racks: list[int] = []
        units: list[float] = []
        counts: list[int] = []
        for sol in sols:
            n = 0
            for rack, members in sol.chunks_by_rack.items():
                chunks.extend(members)
                racks.extend([rack] * len(members))
                n += len(members)
                if weighted:
                    low, share = min(members), sol.rack_units.get(rack, 0.0)
                    units.extend(share if c == low else 0.0 for c in members)
            counts.append(n)
        width = max(counts, default=0)
        # Unused slots sort last, then become NO_HELPER.
        chunk = np.full((len(sols), width), np.iinfo(np.intp).max)
        rack = np.full((len(sols), width), NO_HELPER)
        used = np.arange(width) < np.array(counts, dtype=np.intp)[:, None]
        chunk[used] = chunks
        rack[used] = racks
        order = np.argsort(chunk, axis=1, kind="stable")
        chunk = np.take_along_axis(chunk, order, axis=1)
        chunk[~used] = NO_HELPER
        share = None
        if weighted:
            share = np.zeros((len(sols), width))
            share[used] = units
            share = np.take_along_axis(share, order, axis=1)
        return cls(
            stripe_id=np.array([s.stripe_id for s in sols], dtype=np.intp),
            lost_chunk=np.array([s.lost_chunk for s in sols], dtype=np.intp),
            failed_rack=np.array([s.failed_rack for s in sols], dtype=np.intp),
            chunk=chunk,
            rack=np.take_along_axis(rack, order, axis=1),
            units=share,
            objects=sols,
        )

    def rows(self, index) -> "SolutionColumns":
        """The columns of the rows ``index`` (a slice, mask or indices)."""
        objects = self.objects
        if objects is not None:
            picked = np.arange(len(self))[index].tolist()
            objects = tuple(objects[i] for i in picked)
        return SolutionColumns(
            stripe_id=self.stripe_id[index],
            lost_chunk=self.lost_chunk[index],
            failed_rack=self.failed_rack[index],
            chunk=self.chunk[index],
            rack=self.rack[index],
            units=None if self.units is None else self.units[index],
            objects=objects,
        )

    def rack_reads(self, num_racks: int) -> np.ndarray:
        """``(S, r)`` helper chunks each row reads from each rack."""
        used = self.chunk != NO_HELPER
        rows = np.arange(len(self))[:, None]
        return np.bincount(
            (rows * num_racks + self.rack)[used],
            minlength=len(self) * num_racks,
        ).reshape(len(self), num_racks)

    def racks_used(self, num_racks: int) -> np.ndarray:
        """``(S, r)`` the intact racks each row reads from (the racks-used
        mask of :mod:`repro.recovery.selector`)."""
        used = self.rack_reads(num_racks) > 0
        used[np.arange(len(self)), self.failed_rack] = False
        return used

    def windows(self, size: int):
        """The rows ``size`` at a time, in order."""
        for start in range(0, len(self), size):
            yield self.rows(slice(start, start + size))

    def solution(self, i: int) -> PerStripeSolution:
        """Row ``i`` as a :class:`PerStripeSolution` — a
        :class:`WeightedStripeSolution` when ``units`` is set — built on
        demand.

        Its racks are listed in the order the take rule fills them: the
        failed rack, then the rest largest first, ties by rack id.
        """
        if self.objects is not None:
            return self.objects[i]
        chunks, racks = self.chunk[i].tolist(), self.rack[i].tolist()
        groups: dict[int, list[int]] = {}
        for c, rack in zip(chunks, racks):
            if c != NO_HELPER:
                groups.setdefault(rack, []).append(c)
        failed = int(self.failed_rack[i])
        order = sorted(groups, key=lambda r: (r != failed, -len(groups[r]), r))
        fields = dict(
            stripe_id=int(self.stripe_id[i]),
            lost_chunk=int(self.lost_chunk[i]),
            failed_rack=failed,
            chunks_by_rack={rack: tuple(groups[rack]) for rack in order},
        )
        if self.units is None:
            return PerStripeSolution(**fields)
        shipped = {
            rack: float(self.units[i, self.rack[i] == rack].sum())
            for rack in order if rack != failed
        }
        return WeightedStripeSolution(**fields, rack_units=shipped)


class MultiStripeSolution:
    """One per-stripe solution for every affected stripe, plus λ math.

    Backed by :class:`SolutionColumns`: every strategy's solve builds
    them (:meth:`from_columns`), and the constructor reads its objects
    into them once.  Traffic, λ and :meth:`solutions_using` are counted
    from the arrays, and a :class:`PerStripeSolution` exists only once
    someone asks for it.

    Args:
        solutions: per-stripe solutions (any order; stored stripe-sorted).
        num_racks: the paper's ``r``.
        aggregated: whether intra-rack aggregation (partial decoding) is
            applied when counting cross-rack traffic.
    """

    def __init__(
        self,
        solutions: Sequence[PerStripeSolution],
        num_racks: int,
        aggregated: bool,
    ) -> None:
        self._adopt(
            SolutionColumns.from_solutions(sorted(solutions, key=_stripe_id)),
            num_racks,
            aggregated,
        )

    @classmethod
    def from_columns(
        cls, columns: SolutionColumns, num_racks: int, aggregated: bool
    ) -> "MultiStripeSolution":
        """A solution backed by stripe-sorted :class:`SolutionColumns`."""
        self = cls.__new__(cls)
        self._adopt(columns, num_racks, aggregated)
        return self

    def _adopt(
        self, columns: SolutionColumns, num_racks: int, aggregated: bool
    ) -> None:
        if not len(columns):
            raise RecoveryError("multi-stripe solution needs at least one stripe")
        failed_racks = set(np.unique(columns.failed_rack).tolist())
        if len(failed_racks) != 1:
            raise RecoveryError(
                f"solutions disagree on the failed rack: {failed_racks}"
            )
        self._columns = columns
        self.num_racks = num_racks
        self.aggregated = aggregated
        self.failed_rack = failed_racks.pop()
        # Solutions never change after construction, so traffic is
        # counted and objects are built at most once.
        self._objects: list[PerStripeSolution] | None = None
        self._traffic: list | None = None
        self._reads: np.ndarray | None = None

    @property
    def solutions(self) -> list[PerStripeSolution]:
        """The per-stripe solutions, stripe-sorted (built once, on
        demand)."""
        if self._objects is None:
            columns = self._columns
            self._objects = [columns.solution(i) for i in range(len(columns))]
        return self._objects

    def columns(self) -> SolutionColumns:
        """The solution as :class:`SolutionColumns`."""
        return self._columns

    def stripe_ids(self) -> tuple[int, ...]:
        """The stripes this solution repairs, ascending."""
        return tuple(self._columns.stripe_id.tolist())

    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self):
        return iter(self.solutions)

    def _position(self, stripe_id: int) -> int:
        """Index of ``stripe_id`` in stripe order.

        Raises:
            RecoveryError: if the stripe is not part of this solution.
        """
        ids = self._columns.stripe_id
        i = int(np.searchsorted(ids, stripe_id))
        if not (i < len(ids) and ids[i] == stripe_id):
            raise RecoveryError(f"no solution for stripe {stripe_id}")
        return i

    def _solution_at(self, i: int) -> PerStripeSolution:
        """Row ``i``'s solution, without building the others."""
        if self._objects is None:
            return self._columns.solution(i)
        return self._objects[i]

    def solution_for(self, stripe_id: int) -> PerStripeSolution:
        """The per-stripe solution for ``stripe_id``.

        Raises:
            RecoveryError: if the stripe is not part of this solution.
        """
        return self._solution_at(self._position(stripe_id))

    def restricted_to(self, stripes) -> "MultiStripeSolution":
        """The same solution for just the given stripes (those it has)."""
        columns = self._columns
        return MultiStripeSolution.from_columns(
            columns.rows(np.isin(columns.stripe_id, list(set(stripes)))),
            num_racks=self.num_racks,
            aggregated=self.aggregated,
        )

    def replace(self, new: PerStripeSolution) -> "MultiStripeSolution":
        """A copy with the solution for ``new.stripe_id`` substituted;
        ``self`` is left untouched.

        Raises:
            RecoveryError: if the stripe is not part of this solution or
                ``new`` names another failed rack.
        """
        i = self._position(new.stripe_id)
        if new.failed_rack != self.failed_rack:
            raise RecoveryError(
                "solutions disagree on the failed rack: "
                f"{{{self.failed_rack}, {new.failed_rack}}}"
            )
        solutions = list(self.solutions)
        solutions[i] = new
        return MultiStripeSolution(solutions, self.num_racks, self.aggregated)

    # -- traffic metrics ----------------------------------------------------

    def _rack_reads(self) -> np.ndarray:
        """``(S, r)`` helper chunks each stripe reads from each rack."""
        if self._reads is None:
            self._reads = self._columns.rack_reads(self.num_racks)
        return self._reads

    def traffic_by_rack(self) -> list:
        """``t_{i,f}`` in chunk units for every rack ``i`` (0 at ``A_f``).

        Whole chunks count one per rack read (aggregated) or one per
        helper; fractional units are summed rack by rack in stripe order.
        """
        if self._traffic is None:
            columns = self._columns
            if columns.units is not None:
                used = columns.chunk != NO_HELPER
                t = np.bincount(
                    columns.rack[used], weights=columns.units[used],
                    minlength=self.num_racks,
                )
            else:
                reads = self._rack_reads()
                t = (reads > 0).sum(axis=0) if self.aggregated else reads.sum(axis=0)
            t[self.failed_rack] = 0
            self._traffic = t.tolist()
        return list(self._traffic)

    def solutions_using(self, rack_id: int) -> tuple[PerStripeSolution, ...]:
        """Per-stripe solutions that read from ``rack_id``, stripe-sorted
        (the rows are found in the columns; only theirs are built)."""
        if not 0 <= rack_id < self.num_racks:
            return ()
        rows = np.flatnonzero(self._rack_reads()[:, rack_id])
        return tuple(self._solution_at(i) for i in rows.tolist())

    def total_cross_rack_traffic(self) -> int:
        """Total cross-rack repair traffic, in chunk units."""
        return sum(self.traffic_by_rack())

    def load_balancing_rate(self) -> float:
        """The paper's λ: :func:`balancing_rate` of this traffic."""
        return balancing_rate(self.traffic_by_rack(), self.failed_rack)

    def __repr__(self) -> str:
        return (
            f"MultiStripeSolution(stripes={len(self)}, "
            f"racks={self.num_racks}, aggregated={self.aggregated}, "
            f"traffic={self.total_cross_rack_traffic()}, "
            f"lambda={self.load_balancing_rate():.3f})"
        )
