"""Figure 10: transmission vs computation time breakdown (8 MB chunks).

Panel (a): for each CFS setting and each strategy, the fractions of the
per-chunk recovery time spent transmitting data versus computing GF
decodes, under the paper's per-stripe measurement (the serialized
timing model).

Panel (b): CAR's total decoding computation time normalised to RR's.

Expected shapes: transmission dominates everywhere (~85-93 %); the
computation share shrinks as ``k`` grows; the CAR/RR computation ratio
stays within ~10 % of 1 (CAR re-partitions the same decode work).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.configs import ALL_CFS, MB, CFSConfig
from repro.experiments.runner import ExperimentRunner, mean_std
from repro.recovery.baselines import CarStrategy, RandomRecoveryStrategy
from repro.recovery.planner import plan_recovery
from repro.sim.hardware import HardwareModel
from repro.sim.timing import StripeSerialTimingModel

__all__ = ["Fig10Row", "Fig10Result", "run_fig10"]

#: The paper fixes the chunk size at 8 MB for this experiment.
FIG10_CHUNK_SIZE = 8 * MB


@dataclass(frozen=True)
class Fig10Row:
    """Breakdown for one (CFS, strategy) pair — one bar of panel (a).

    Attributes:
        config_name: CFS label.
        strategy: "CAR" or "RR".
        transmission_ratio / computation_ratio: the two bar segments.
        computation_seconds: absolute decode time (panel (b) input).
    """

    config_name: str
    strategy: str
    transmission_ratio: float
    computation_ratio: float
    computation_seconds: float


@dataclass(frozen=True)
class Fig10Result:
    """Both panels of Figure 10.

    Attributes:
        rows: panel (a) — one row per (CFS, strategy).
        normalized_computation: panel (b) — CFS name -> CAR computation
            time divided by RR computation time.
    """

    rows: tuple[Fig10Row, ...]
    normalized_computation: dict[str, float]

    def row(self, config_name: str, strategy: str) -> Fig10Row:
        """Look up one bar.

        Raises:
            KeyError: if the pair is absent.
        """
        for r in self.rows:
            if (r.config_name, r.strategy) == (config_name, strategy):
                return r
        raise KeyError((config_name, strategy))


def run_fig10(
    runs: int = 10,
    chunk_size: int = FIG10_CHUNK_SIZE,
    base_seed: int = 20160710,
    num_stripes: int | None = None,
    configs: tuple[CFSConfig, ...] = ALL_CFS,
) -> Fig10Result:
    """Reproduce Figure 10 (both panels)."""
    rows: list[Fig10Row] = []
    normalized: dict[str, float] = {}
    for config in configs:
        runner = ExperimentRunner(
            config, runs=runs, base_seed=base_seed, num_stripes=num_stripes
        )
        results = runner.run_all({"CAR": lambda seed: CarStrategy(), "RR": RandomRecoveryStrategy})
        ratios: dict[str, list[float]] = {"CAR": [], "RR": []}
        comp_seconds: dict[str, list[float]] = {"CAR": [], "RR": []}
        for r in results:
            hardware = HardwareModel(r.state.topology)
            model = StripeSerialTimingModel(r.state, hardware=hardware)
            for name in ("CAR", "RR"):
                plan = plan_recovery(r.state, r.event, r.solutions[name])
                timing = model.evaluate(plan, chunk_size)
                ratios[name].append(timing.computation_ratio)
                comp_seconds[name].append(timing.computation_time)
        for name in ("CAR", "RR"):
            comp_ratio = mean_std(ratios[name])[0]
            rows.append(
                Fig10Row(
                    config_name=config.name,
                    strategy=name,
                    transmission_ratio=1.0 - comp_ratio,
                    computation_ratio=comp_ratio,
                    computation_seconds=mean_std(comp_seconds[name])[0],
                )
            )
        normalized[config.name] = (
            mean_std(comp_seconds["CAR"])[0] / mean_std(comp_seconds["RR"])[0]
        )
    return Fig10Result(rows=tuple(rows), normalized_computation=normalized)
