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

from bisect import bisect_left
from collections.abc import Mapping, Sequence
from copy import copy
from dataclasses import dataclass, field
from operator import attrgetter

from repro.errors import RecoveryError

__all__ = [
    "PerStripeSolution",
    "WeightedStripeSolution",
    "MultiStripeSolution",
    "balancing_rate",
]

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


class MultiStripeSolution:
    """One per-stripe solution for every affected stripe, plus λ math.

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
        if not solutions:
            raise RecoveryError("multi-stripe solution needs at least one stripe")
        failed_racks = {s.failed_rack for s in solutions}
        if len(failed_racks) != 1:
            raise RecoveryError(
                f"solutions disagree on the failed rack: {failed_racks}"
            )
        self.solutions = sorted(solutions, key=_stripe_id)
        self.num_racks = num_racks
        self.aggregated = aggregated
        self.failed_rack = failed_racks.pop()
        # Lazy caches: solutions never change after construction
        # (replace() builds a new object and hands it these, adjusted),
        # so traffic totals and the rack -> solutions index are computed
        # at most once along a chain of substitutions.
        self._traffic: list[int] | None = None
        self._by_rack: dict[int, tuple[PerStripeSolution, ...]] | None = None

    def __len__(self) -> int:
        return len(self.solutions)

    def __iter__(self):
        return iter(self.solutions)

    def _position(self, stripe_id: int) -> int:
        """Index of ``stripe_id`` in the stripe-sorted list.

        Raises:
            RecoveryError: if the stripe is not part of this solution.
        """
        i = bisect_left(self.solutions, stripe_id, key=_stripe_id)
        if i == len(self.solutions) or self.solutions[i].stripe_id != stripe_id:
            raise RecoveryError(f"no solution for stripe {stripe_id}")
        return i

    def solution_for(self, stripe_id: int) -> PerStripeSolution:
        """The per-stripe solution for ``stripe_id``.

        Raises:
            RecoveryError: if the stripe is not part of this solution.
        """
        return self.solutions[self._position(stripe_id)]

    def restricted_to(self, stripes) -> "MultiStripeSolution":
        """The same solution for just the given stripes (those it has)."""
        keep = set(stripes)
        return MultiStripeSolution(
            [s for s in self.solutions if s.stripe_id in keep],
            num_racks=self.num_racks,
            aggregated=self.aggregated,
        )

    def replace(self, new: PerStripeSolution) -> "MultiStripeSolution":
        """A copy with the solution for ``new.stripe_id`` substituted.

        The copy inherits whatever this object has already derived —
        traffic totals, the rack -> solutions index — adjusted for the
        two solutions that differ, so a substitution costs its own size,
        not a pass over every stripe (fractional ``rack_units`` are
        carried by float subtraction and addition).  ``self`` is left
        untouched.
        """
        i = self._position(new.stripe_id)
        if new.failed_rack != self.failed_rack:
            raise RecoveryError(
                "solutions disagree on the failed rack: "
                f"{{{self.failed_rack}, {new.failed_rack}}}"
            )
        old = self.solutions[i]
        clone = copy(self)
        clone.solutions = self.solutions.copy()
        clone.solutions[i] = new
        if self._traffic is not None:
            clone._traffic = t = self._traffic.copy()
            for rack, amount in old.cross_rack_chunks(self.aggregated).items():
                t[rack] -= amount
            for rack, amount in new.cross_rack_chunks(self.aggregated).items():
                t[rack] += amount
        if self._by_rack is not None:
            clone._by_rack = index = self._by_rack.copy()
            for rack in old.chunks_by_rack.keys() | new.chunks_by_rack.keys():
                users = list(index.get(rack, ()))
                j = bisect_left(users, new.stripe_id, key=_stripe_id)
                # ``old`` sits at j iff it reads this rack.
                users[j : j + (rack in old.chunks_by_rack)] = (
                    [new] if rack in new.chunks_by_rack else []
                )
                index[rack] = tuple(users)
        return clone

    # -- traffic metrics ----------------------------------------------------

    def traffic_by_rack(self) -> list[int]:
        """``t_{i,f}`` in chunk units for every rack ``i`` (0 at ``A_f``)."""
        if self._traffic is None:
            t = [0] * self.num_racks
            for sol in self.solutions:
                for rack, amount in sol.cross_rack_chunks(
                    self.aggregated
                ).items():
                    t[rack] += amount
            self._traffic = t
        return list(self._traffic)

    def solutions_using(self, rack_id: int) -> tuple[PerStripeSolution, ...]:
        """Per-stripe solutions that read from ``rack_id``, stripe-sorted.

        Backed by a lazily built rack -> solutions index so Algorithm 2
        does not rescan every stripe per substitution attempt.
        """
        if self._by_rack is None:
            index: dict[int, list[PerStripeSolution]] = {}
            for sol in self.solutions:
                for rack in sol.chunks_by_rack:
                    index.setdefault(rack, []).append(sol)
            self._by_rack = {r: tuple(s) for r, s in index.items()}
        return self._by_rack.get(rack_id, ())

    def total_cross_rack_traffic(self) -> int:
        """Total cross-rack repair traffic, in chunk units."""
        return sum(self.traffic_by_rack())

    def load_balancing_rate(self) -> float:
        """The paper's λ: :func:`balancing_rate` of this traffic."""
        return balancing_rate(self.traffic_by_rack(), self.failed_rack)

    def __repr__(self) -> str:
        return (
            f"MultiStripeSolution(stripes={len(self.solutions)}, "
            f"racks={self.num_racks}, aggregated={self.aggregated}, "
            f"traffic={self.total_cross_rack_traffic()}, "
            f"lambda={self.load_balancing_rate():.3f})"
        )
