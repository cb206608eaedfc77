"""Figure 7: cross-rack repair traffic, CAR vs RR, vs chunk size.

For each CFS setting the paper plots the total cross-rack repair
traffic (MB) of CAR and RR at chunk sizes 4/8/16 MB, averaged over 50
runs.  Traffic in *chunk units* does not depend on the chunk size, so
each run is solved once and scaled — exactly how the quantity behaves
on the testbed (the paper's curves are linear in chunk size).

Expected shape: CAR well below RR everywhere, with the saving growing
with ``k`` (paper: 52.4 % on CFS1 at 4 MB up to 66.9 % on CFS3 at 16 MB).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.experiments.configs import ALL_CFS, MB, PAPER_CHUNK_SIZES, CFSConfig
from repro.experiments.runner import ExperimentRunner, Series, mean_std
from repro.recovery.baselines import CarStrategy, RandomRecoveryStrategy

__all__ = ["Fig7Result", "run_fig7", "run_fig7_single"]


@dataclass(frozen=True)
class Fig7Result:
    """One CFS panel of Figure 7.

    Attributes:
        config: the CFS setting.
        series: traffic curves (MB) keyed by strategy name.
        savings: chunk size (bytes) -> fractional CAR saving over RR.
    """

    config: CFSConfig
    series: dict[str, Series]
    savings: dict[int, float]

    @property
    def max_saving(self) -> float:
        """The largest CAR-over-RR saving across chunk sizes."""
        return max(self.savings.values())


def run_fig7_single(
    config: CFSConfig,
    runs: int = 50,
    chunk_sizes: tuple[int, ...] = PAPER_CHUNK_SIZES,
    base_seed: int = 20160707,
    num_stripes: int | None = None,
    telemetry: str | Path | None = None,
) -> Fig7Result:
    """Reproduce one panel (one CFS) of Figure 7.

    Args:
        telemetry: optional directory; the panel's runs then persist a
            ``trace.jsonl`` + ``metrics.json`` pair into it (see
            :class:`~repro.experiments.runner.ExperimentRunner`).
    """
    runner = ExperimentRunner(
        config, runs=runs, base_seed=base_seed, num_stripes=num_stripes,
        telemetry=telemetry,
    )
    results = runner.run_all({"CAR": lambda seed: CarStrategy(), "RR": RandomRecoveryStrategy})
    chunks_per_run = {
        name: [r.solutions[name].total_cross_rack_traffic() for r in results]
        for name in ("CAR", "RR")
    }
    series: dict[str, Series] = {}
    for name, chunk_counts in chunks_per_run.items():
        means, stds = [], []
        for size in chunk_sizes:
            mean_chunks, std_chunks = mean_std(chunk_counts)
            means.append(mean_chunks * size / MB)
            stds.append(std_chunks * size / MB)
        series[name] = Series(
            label=name,
            xs=tuple(size / MB for size in chunk_sizes),
            means=tuple(means),
            stds=tuple(stds),
        )
    mean_car, _ = mean_std(chunks_per_run["CAR"])
    mean_rr, _ = mean_std(chunks_per_run["RR"])
    savings = {size: 1.0 - mean_car / mean_rr for size in chunk_sizes}
    return Fig7Result(config=config, series=series, savings=savings)


def run_fig7(
    runs: int = 50,
    chunk_sizes: tuple[int, ...] = PAPER_CHUNK_SIZES,
    base_seed: int = 20160707,
    num_stripes: int | None = None,
    telemetry: str | Path | None = None,
) -> list[Fig7Result]:
    """Reproduce all three panels of Figure 7.

    Args:
        telemetry: optional directory; each panel writes its artifacts
            into a ``<telemetry>/<config name>`` subdirectory.
    """
    return [
        run_fig7_single(
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
