"""The repair-traffic landscape: where CAR sits among the alternatives.

Places the paper's contribution in the design space its related work
spans, per single-chunk repair (chunk units):

=================  =================  =========================
scheme             total traffic      cross-rack traffic
=================  =================  =========================
RS + RR            ``k``              ~``k * (r-1) / r``
RS + CAR           ``k``              ``d_j`` (min racks, measured)
LRC local          ``k / l``          0 with aligned groups
PM-MSR             ``2`` (d=2k-2)     ~``2 * (r-1) / r``
MSR bound          ``d/(d-k+1)``      (placement-dependent)
=================  =================  =========================

:func:`repair_landscape` computes the table for concrete parameters,
measuring CAR's column on a real cluster rather than assuming it.

Reached by ``repro-car landscape``: EXPERIMENTS.md "Repair landscape".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.bounds import msr_point
from repro.cluster.failure import FailureInjector
from repro.errors import ConfigurationError
from repro.experiments.configs import CFSConfig, build_state
from repro.recovery.baselines import CarStrategy, RandomRecoveryStrategy

__all__ = ["LandscapeRow", "repair_landscape"]


@dataclass(frozen=True)
class LandscapeRow:
    """One scheme's repair cost, in chunk units per repaired chunk.

    Attributes:
        scheme: label.
        total_chunks: chunks downloaded per repair (all scopes).
        cross_rack_chunks: chunks crossing the core per repair; None
            when it depends on a placement not modelled here.
        storage_overhead: raw-to-useful storage ratio.
    """

    scheme: str
    total_chunks: float
    cross_rack_chunks: float | None
    storage_overhead: float


def repair_landscape(
    config: CFSConfig,
    lrc_groups: int = 2,
    runs: int = 5,
    num_stripes: int = 50,
    base_seed: int = 77,
) -> list[LandscapeRow]:
    """Compute the repair-cost landscape for one CFS setting.

    RS+RR and RS+CAR cross-rack numbers are *measured* on random
    layouts of ``config``; LRC and MSR rows are analytic (their repair
    sets are deterministic).

    Args:
        config: the CFS (supplies k, m, and the rack layout).
        lrc_groups: ``l`` for the LRC comparison row (must divide k).
        runs: measurement repetitions for the RS rows.
        num_stripes: stripes per measurement run.
    """
    k, m = config.k, config.m
    if k % lrc_groups:
        raise ConfigurationError(
            f"lrc_groups={lrc_groups} must divide k={k}"
        )
    car_cross = []
    rr_cross = []
    for run in range(runs):
        seed = base_seed + run
        state = build_state(config, seed, num_stripes=num_stripes)
        FailureInjector(rng=seed).fail_random_node(state)
        stripes = len(state.affected_stripes())
        car = CarStrategy().solve(state)
        rr = RandomRecoveryStrategy(rng=seed).solve(state)
        car_cross.append(car.total_cross_rack_traffic() / stripes)
        rr_cross.append(rr.total_cross_rack_traffic() / stripes)

    n = k + m
    d_msr = 2 * k - 2
    msr = msr_point(float(k), n=max(n, d_msr + 1), k=k, d=d_msr)
    rows = [
        LandscapeRow(
            scheme="RS + RR",
            total_chunks=float(k),
            cross_rack_chunks=sum(rr_cross) / runs,
            storage_overhead=n / k,
        ),
        LandscapeRow(
            scheme="RS + CAR",
            total_chunks=float(k),
            cross_rack_chunks=sum(car_cross) / runs,
            storage_overhead=n / k,
        ),
        LandscapeRow(
            scheme=f"LRC(l={lrc_groups}) local, aligned",
            total_chunks=k / lrc_groups,
            cross_rack_chunks=0.0,
            storage_overhead=(k + lrc_groups + m) / k,
        ),
        LandscapeRow(
            scheme=f"PM-MSR (d={d_msr})",
            # gamma is in units of alpha-sized node contents; express it
            # in "chunks" of the same stored size for comparability.
            total_chunks=msr.gamma / msr.alpha,
            cross_rack_chunks=None,
            storage_overhead=n / k,
        ),
    ]
    return rows
