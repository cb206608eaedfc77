"""Repair algebra: splitting a repair vector into per-rack partial decodes.

This module implements the algebra behind Section IV-C of the paper.
Reconstruction of a lost chunk under a linear MDS code is the linear
combination ``H_lost = sum_i y_i * H'_i`` over ``k`` helper chunks
(Equation 6).  Because field addition is associative, the sum can be
regrouped by rack: each rack computes its *partially decoded chunk*
``sum_{i in rack} y_i * H'_i`` (Equation 7) and ships exactly one
chunk-sized buffer; the replacement node XORs the per-rack partials.

:func:`split_repair_vector` performs the grouping; :class:`PartialDecodePlan`
carries it; :func:`execute_partial_decode` runs it on real buffers so the
byte-exactness of the regrouping is directly testable.

Repairs and the service's degraded reads do not come here: they take
their groups from :func:`~repro.recovery.planner.plan_window` and their
coefficients from :func:`~repro.recovery.streaming.window_coefficients`.
This per-stripe form is imported by :mod:`repro.cluster.filestore` and
:mod:`repro.recovery.rackfail`, by the benchmark harness's probes
(``benchmarks/e2e/probes.py``), and by the tests, as the reference the
windowed path is held to.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import CodingError
from repro.erasure.code import LinearCode
from repro.gf.field import gf
from repro.gf.vector import dot_rows

__all__ = [
    "AggregationGroup",
    "PartialDecodePlan",
    "split_repair_vector",
    "execute_partial_decode",
    "combine_partials",
]


@dataclass(frozen=True)
class AggregationGroup:
    """One rack's share of a repair: which helpers it combines, and how.

    Attributes:
        group_key: opaque identifier of the rack (or aggregation domain).
        helper_indices: chunk indices (within the stripe) this group reads.
        coefficients: matching repair-vector coefficients, same order.
    """

    group_key: Hashable
    helper_indices: tuple[int, ...]
    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.helper_indices) != len(self.coefficients):
            raise CodingError("helper/coefficient length mismatch in group")
        if not self.helper_indices:
            raise CodingError("aggregation group must not be empty")

    @property
    def size(self) -> int:
        """Number of chunks this group aggregates."""
        return len(self.helper_indices)


@dataclass(frozen=True)
class PartialDecodePlan:
    """A complete per-rack decomposition of one chunk repair.

    Attributes:
        lost_index: stripe-local index of the chunk being rebuilt.
        groups: one :class:`AggregationGroup` per participating rack.
    """

    lost_index: int
    groups: tuple[AggregationGroup, ...]

    @property
    def helper_count(self) -> int:
        """Total helpers across all groups (always ``k``)."""
        return sum(g.size for g in self.groups)

    @property
    def group_count(self) -> int:
        """Number of aggregation domains (racks) involved."""
        return len(self.groups)

    def group_for(self, key: Hashable) -> AggregationGroup:
        """Return the group with the given key.

        Raises:
            KeyError: if no group has that key.
        """
        for g in self.groups:
            if g.group_key == key:
                return g
        raise KeyError(key)


def split_repair_vector(
    code: LinearCode,
    lost_index: int,
    helper_indices: Sequence[int],
    group_of: Mapping[int, Hashable],
) -> PartialDecodePlan:
    """Group a repair vector by aggregation domain (rack).

    Args:
        code: the erasure code of the stripe.
        lost_index: index of the lost chunk.
        helper_indices: exactly ``k`` surviving chunk indices to use.
        group_of: maps each helper index to its rack key.

    Returns:
        A :class:`PartialDecodePlan` whose groups partition the helpers.

    Raises:
        CodingError: if a helper has no group assignment.
    """
    helpers = list(helper_indices)
    y = code.repair_vector(lost_index, helpers)
    by_group: dict[Hashable, list[tuple[int, int]]] = {}
    for idx, coeff in zip(helpers, y):
        if idx not in group_of:
            raise CodingError(f"helper chunk {idx} has no rack assignment")
        by_group.setdefault(group_of[idx], []).append((idx, coeff))
    groups = tuple(
        AggregationGroup(
            group_key=key,
            helper_indices=tuple(i for i, _ in pairs),
            coefficients=tuple(c for _, c in pairs),
        )
        for key, pairs in by_group.items()
    )
    return PartialDecodePlan(lost_index=lost_index, groups=groups)


def execute_partial_decode(
    code: LinearCode,
    plan: PartialDecodePlan,
    chunks: Mapping[int, np.ndarray],
) -> dict[Hashable, np.ndarray]:
    """Compute each rack's partially decoded chunk from real buffers.

    Args:
        code: the stripe's erasure code (supplies the field width).
        plan: the per-rack decomposition.
        chunks: helper chunk index -> buffer.

    Returns:
        group key -> partially decoded buffer (one chunk-sized buffer per
        rack, per the paper's aggregation claim).
    """
    field = gf(code.w)
    partials: dict[Hashable, np.ndarray] = {}
    for group in plan.groups:
        try:
            bufs = [chunks[i] for i in group.helper_indices]
        except KeyError as exc:
            raise CodingError(f"missing helper chunk {exc.args[0]}") from exc
        partials[group.group_key] = dot_rows(
            field, list(group.coefficients), bufs
        )
    return partials


def combine_partials(
    code: LinearCode, partials: Mapping[Hashable, np.ndarray]
) -> np.ndarray:
    """XOR per-rack partials into the reconstructed chunk.

    This is the replacement node's final step (Algorithm 1, line 6).
    """
    if not partials:
        raise CodingError("no partials to combine")
    bufs = list(partials.values())
    out = bufs[0].copy()
    for b in bufs[1:]:
        np.bitwise_xor(out, b, out=out)
    return out
