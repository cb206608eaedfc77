"""Regenerating-code sweep: CAR vs RR vs rack-aware MSR vs piggybacked RS.

The paper's CAR reduces *cross-rack* repair traffic by partial decoding
inside racks; regenerating codes attack the same quantity by shipping
sub-chunk packets.  This experiment puts both families on the paper's
CFS configurations and sweeps cross-rack traffic (per chunk size) and
the load-balancing rate λ for four strategies:

- **CAR** and **RR** on the paper's random placement (the Figure 7
  pairing);
- **Piggyback** (Rashmi et al., arXiv:1309.0186) on the same random
  placement — it reuses the RS geometry as-is;
- **RackMSR** (Chen & Barg, arXiv:1901.04419) on the rack-aligned
  placement its striped construction assumes.

Every measured per-stripe cross-rack figure is validated against its
analytic bound (:mod:`repro.analysis.bounds`): equality
``dbar / (dbar - kbar + 1)`` chunk units for RackMSR,
``(k + |G|) / 2`` for a piggybacked data repair (``k`` for parity),
``min(k, r - 1)`` for CAR and ``k`` for RR.  Violations are counted in
the result — the regression suite asserts the count is zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.analysis.bounds import (
    piggyback_data_repair_cost,
    rack_aware_msr_cross_rack,
)
from repro.erasure.piggyback import balanced_groups
from repro.experiments.configs import ALL_CFS, MB, PAPER_CHUNK_SIZES, CFSConfig
from repro.experiments.runner import (
    ExperimentRunner,
    RunResult,
    Series,
    mean_std,
)
from repro.recovery.baselines import CarStrategy, RandomRecoveryStrategy
from repro.recovery.regenerating import (
    PiggybackStrategy,
    RackAwareMSRStrategy,
    rack_msr_params,
)

__all__ = [
    "StrategyOutcome",
    "RegenResult",
    "run_regen_single",
    "run_regen",
    "regen_to_dict",
]

#: Tolerance for bound checks (float accumulation over ~100 stripes).
_EPS = 1e-9


@dataclass(frozen=True)
class StrategyOutcome:
    """One strategy's sweep summary on one CFS configuration.

    Attributes:
        name: strategy label.
        placement: which placement policy the strategy's arm ran on.
        bound: worst-case analytic per-stripe cross-rack bound (chunk
            units) — per-stripe checks use the per-stripe bound, which
            can be tighter (piggybacked data repairs).
        per_stripe_units: (mean, std) measured per-stripe cross-rack
            chunk units over all runs.
        lambda_stats: (mean, std) of λ over runs.
        series: cross-rack traffic in MB vs chunk size in MB.
        violations: stripes whose measured cross-rack units exceeded
            their analytic bound (must be 0).
    """

    name: str
    placement: str
    bound: float
    per_stripe_units: tuple[float, float]
    lambda_stats: tuple[float, float]
    series: Series
    violations: int


@dataclass(frozen=True)
class RegenResult:
    """The regenerating-code sweep on one CFS configuration.

    Attributes:
        config: the CFS setting.
        kbar / dbar: rack-aware MSR parameters derived from the rack
            count (:func:`~repro.recovery.regenerating.rack_msr_params`).
        outcomes: strategy name -> its sweep summary.
    """

    config: CFSConfig
    kbar: int
    dbar: int
    outcomes: dict[str, StrategyOutcome]

    @property
    def total_violations(self) -> int:
        """Bound violations across all strategies (must be 0)."""
        return sum(o.violations for o in self.outcomes.values())


def _per_stripe_bound(
    name: str, lost_chunk: int, config: CFSConfig, kbar: int, dbar: int
) -> float:
    """Analytic cross-rack bound for one stripe's repair, chunk units."""
    k, r = config.k, config.num_racks
    if name == "RackMSR":
        # Each of a node's chunks is one alpha unit of the striped code.
        return rack_aware_msr_cross_rack(1.0, kbar, dbar)
    if name == "Piggyback":
        if lost_chunk < k:
            groups = balanced_groups(k, config.m)
            size = next(len(g) for g in groups if lost_chunk in g)
            return piggyback_data_repair_cost(k, size)
        return float(k)
    if name == "CAR":
        # Aggregation ships at most one chunk per intact rack, and never
        # more than the k chunks an RS repair reads.
        return float(min(k, r - 1))
    return float(k)  # RR: a plain RS repair reads k chunks.


def _summarise(
    name: str,
    placement: str,
    results: list[RunResult],
    config: CFSConfig,
    kbar: int,
    dbar: int,
    chunk_sizes: tuple[int, ...],
) -> StrategyOutcome:
    totals: list[float] = []
    lambdas: list[float] = []
    per_stripe: list[float] = []
    violations = 0
    worst_bound = 0.0
    for r in results:
        sol = r.solutions[name]
        totals.append(sol.total_cross_rack_traffic())
        lambdas.append(sol.load_balancing_rate())
        for s in sol:
            measured = sum(s.cross_rack_chunks(sol.aggregated).values())
            per_stripe.append(measured)
            bound = _per_stripe_bound(
                name, s.lost_chunk, config, kbar, dbar
            )
            worst_bound = max(worst_bound, bound)
            if measured > bound + _EPS:
                violations += 1
    means, stds = [], []
    mean_total, std_total = mean_std(totals)
    for size in chunk_sizes:
        means.append(mean_total * size / MB)
        stds.append(std_total * size / MB)
    return StrategyOutcome(
        name=name,
        placement=placement,
        bound=worst_bound,
        per_stripe_units=mean_std(per_stripe),
        lambda_stats=mean_std(lambdas),
        series=Series(
            label=name,
            xs=tuple(size / MB for size in chunk_sizes),
            means=tuple(means),
            stds=tuple(stds),
        ),
        violations=violations,
    )


def run_regen_single(
    config: CFSConfig,
    runs: int = 50,
    chunk_sizes: tuple[int, ...] = PAPER_CHUNK_SIZES,
    base_seed: int = 20190104,
    num_stripes: int | None = None,
    telemetry: str | Path | None = None,
) -> RegenResult:
    """The regenerating-code sweep on one CFS configuration.

    Two paired run batches share ``base_seed``: CAR, RR and Piggyback
    solve the random-placement states (the paper's methodology), while
    RackMSR solves rack-aligned states of the same seeds — the layout
    its striped construction requires.  Within each batch every
    strategy sees the same placement and failure.
    """
    kbar, dbar = rack_msr_params(config.num_racks)
    tele = Path(telemetry) if telemetry is not None else None
    random_runner = ExperimentRunner(
        config, runs=runs, base_seed=base_seed, num_stripes=num_stripes,
        telemetry=(tele / "random" if tele is not None else None),
    )
    random_results = random_runner.run_all(
        {
            "CAR": lambda seed: CarStrategy(),
            "RR": RandomRecoveryStrategy,
            "Piggyback": lambda seed: PiggybackStrategy(),
        }
    )
    aligned_runner = ExperimentRunner(
        config, runs=runs, base_seed=base_seed, num_stripes=num_stripes,
        telemetry=(tele / "rack_aligned" if tele is not None else None),
        placement_policy="rack_aligned",
    )
    aligned_results = aligned_runner.run_all(
        {"RackMSR": lambda seed: RackAwareMSRStrategy()}
    )
    outcomes = {
        name: _summarise(
            name, "random", random_results, config, kbar, dbar, chunk_sizes
        )
        for name in ("CAR", "RR", "Piggyback")
    }
    outcomes["RackMSR"] = _summarise(
        "RackMSR", "rack_aligned", aligned_results, config, kbar, dbar,
        chunk_sizes,
    )
    return RegenResult(config=config, kbar=kbar, dbar=dbar, outcomes=outcomes)


def run_regen(
    runs: int = 50,
    chunk_sizes: tuple[int, ...] = PAPER_CHUNK_SIZES,
    base_seed: int = 20190104,
    num_stripes: int | None = None,
    telemetry: str | Path | None = None,
) -> list[RegenResult]:
    """The regenerating-code sweep on all three CFS configurations."""
    return [
        run_regen_single(
            cfg,
            runs=runs,
            chunk_sizes=chunk_sizes,
            base_seed=base_seed,
            num_stripes=num_stripes,
            telemetry=(
                Path(telemetry) / cfg.name if telemetry is not None else None
            ),
        )
        for cfg in ALL_CFS
    ]


def regen_to_dict(results: list[RegenResult]) -> dict:
    """JSON-ready form of the sweep (the CI artifact)."""
    return {
        "experiment": "regen",
        "configs": [
            {
                "config": res.config.name,
                "kbar": res.kbar,
                "dbar": res.dbar,
                "total_violations": res.total_violations,
                "strategies": {
                    name: {
                        "placement": o.placement,
                        "bound_chunk_units": o.bound,
                        "per_stripe_units_mean": o.per_stripe_units[0],
                        "per_stripe_units_std": o.per_stripe_units[1],
                        "lambda_mean": o.lambda_stats[0],
                        "lambda_std": o.lambda_stats[1],
                        "violations": o.violations,
                        "traffic_mb": {
                            f"{x:.0f}MB": o.series.means[i]
                            for i, x in enumerate(o.series.xs)
                        },
                    }
                    for name, o in res.outcomes.items()
                },
            }
            for res in results
        ],
    }
