"""Locality-based recovery strategy for LRC-coded clusters.

The LRC answer to the single-failure problem: repair each lost chunk
from its *local group* (``k/l`` helpers) rather than ``k`` helpers.
Combined with :class:`~repro.cluster.placement.GroupAlignedPlacementPolicy`
(each group in one rack), a data-chunk repair triggers **zero**
cross-rack traffic — the storage-for-bandwidth trade the paper's
related work (Huang et al. ATC'12, Sathiamoorthy et al. VLDB'13)
advocates, and the natural comparison point for CAR's
keep-MDS-optimise-the-recovery approach.

The strategy emits a helper mask over the failure's columns, like every
other strategy (with fewer than ``k`` helpers per row — LRC's repair
vectors support that), so the planner, executor, metrics, and
simulators all apply unchanged.

Reached by ``benchmarks/test_bench_lrc.py`` (DESIGN.md section 5, "LRC vs
CAR") and the LRC row of EXPERIMENTS.md "Repair landscape".
"""

from __future__ import annotations

import numpy as np

from repro.cluster.state import ClusterState
from repro.erasure.lrc import LRCCode
from repro.errors import RecoveryError
from repro.recovery.baselines import (
    RecoveryStrategy,
    _columns_solution,
    _failure,
)
from repro.recovery.solution import MultiStripeSolution

__all__ = ["LrcLocalRecoveryStrategy", "lrc_groups_for_placement"]


def lrc_groups_for_placement(code: LRCCode) -> list[tuple[int, ...]]:
    """The co-location groups a group-aligned placement should use:
    each local group's data chunks plus its local parity.  Global
    parities are left loose (the policy scatters them)."""
    return [
        code.group_members(g) + (code.local_parity_index(g),)
        for g in range(code.l)
    ]


class LrcLocalRecoveryStrategy(RecoveryStrategy):
    """Repair every lost chunk from its minimal local helper set.

    Args:
        aggregated: whether intra-rack aggregation applies when counting
            cross-rack traffic (True by default — an LRC repair inside
            one rack needs no aggregation, but a global-parity repair
            spanning racks still benefits).
    """

    name = "LRC-local"

    def __init__(self, aggregated: bool = True) -> None:
        self.aggregated = aggregated

    def solve(self, state: ClusterState) -> MultiStripeSolution:
        code = state.code
        if not isinstance(code, LRCCode):
            raise RecoveryError(
                f"{type(self).__name__} requires an LRCCode, got {code!r}"
            )
        failure = _failure(state)
        # Row c of the table: the helper mask of a lost chunk c.
        table = np.zeros((code.n, code.n), dtype=bool)
        for lost in range(code.n):
            table[lost, list(code.minimal_repair_helpers(lost))] = True
        helper = table[failure.lost_chunk]
        missing = helper & ~failure.alive
        if missing.any():
            i = int(missing.any(axis=1).argmax())
            raise RecoveryError(
                f"stripe {int(failure.stripe_id[i])}: local helpers "
                f"{np.flatnonzero(missing[i]).tolist()} are "
                f"unavailable (not a single-failure scenario)"
            )
        return _columns_solution(failure, helper, self.aggregated)
