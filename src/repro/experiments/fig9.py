"""Figure 9: recovery time per lost chunk, CAR vs RR, vs chunk size.

The paper launches all stripes' repairs simultaneously, measures the
overall duration and divides by the number of lost chunks.  We
reproduce that with the fluid network simulator: the recovery plan's
full transfer/compute DAG is simulated over the GbE fabric (Table III
hardware) and the makespan per chunk reported.

Expected shape: CAR below RR at every chunk size; both linear in chunk
size; the gap grows with ``k`` (paper: up to 53.8 % on CFS2 at 8 MB).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.configs import ALL_CFS, MB, PAPER_CHUNK_SIZES, CFSConfig
from repro.experiments.runner import ExperimentRunner, Series, mean_std
from repro.recovery.baselines import CarStrategy, RandomRecoveryStrategy
from repro.recovery.planner import plan_recovery
from repro.sim.hardware import HardwareModel
from repro.sim.recovery_sim import RecoverySimulator

__all__ = ["Fig9Result", "run_fig9", "run_fig9_single"]


@dataclass(frozen=True)
class Fig9Result:
    """One CFS panel of Figure 9.

    Attributes:
        config: the CFS setting.
        series: per-strategy recovery time per lost chunk (seconds)
            versus chunk size (MB).
        savings: chunk size (bytes) -> fractional CAR time saving.
    """

    config: CFSConfig
    series: dict[str, Series]
    savings: dict[int, float]

    @property
    def max_saving(self) -> float:
        """Largest CAR-over-RR time saving across chunk sizes."""
        return max(self.savings.values())


def run_fig9_single(
    config: CFSConfig,
    runs: int = 5,
    chunk_sizes: tuple[int, ...] = PAPER_CHUNK_SIZES,
    base_seed: int = 20160709,
    num_stripes: int | None = None,
    include_disk: bool = True,
) -> Fig9Result:
    """Reproduce one panel (one CFS) of Figure 9.

    ``runs`` defaults below the paper's 50 because each run performs a
    full fluid simulation; the variance across runs is small.
    """
    runner = ExperimentRunner(
        config, runs=runs, base_seed=base_seed, num_stripes=num_stripes
    )
    results = runner.run_all({"CAR": lambda seed: CarStrategy(), "RR": RandomRecoveryStrategy})
    times: dict[str, dict[int, list[float]]] = {
        name: {size: [] for size in chunk_sizes} for name in ("CAR", "RR")
    }
    for r in results:
        hardware = HardwareModel(r.state.topology)
        simulator = RecoverySimulator(
            r.state, hardware=hardware, include_disk=include_disk
        )
        for name in ("CAR", "RR"):
            plan = plan_recovery(r.state, r.event, r.solutions[name])
            for size in chunk_sizes:
                timing = simulator.simulate(plan, size)
                times[name][size].append(timing.time_per_chunk)
    series: dict[str, Series] = {}
    for name in ("CAR", "RR"):
        means, stds = [], []
        for size in chunk_sizes:
            mean, std = mean_std(times[name][size])
            means.append(mean)
            stds.append(std)
        series[name] = Series(
            label=name,
            xs=tuple(size / MB for size in chunk_sizes),
            means=tuple(means),
            stds=tuple(stds),
        )
    savings = {
        size: 1.0
        - mean_std(times["CAR"][size])[0] / mean_std(times["RR"][size])[0]
        for size in chunk_sizes
    }
    return Fig9Result(config=config, series=series, savings=savings)


def run_fig9(
    runs: int = 5,
    chunk_sizes: tuple[int, ...] = PAPER_CHUNK_SIZES,
    base_seed: int = 20160709,
    num_stripes: int | None = None,
) -> list[Fig9Result]:
    """Reproduce all three panels of Figure 9."""
    return [
        run_fig9_single(
            cfg,
            runs=runs,
            chunk_sizes=chunk_sizes,
            base_seed=base_seed,
            num_stripes=num_stripes,
        )
        for cfg in ALL_CFS
    ]
