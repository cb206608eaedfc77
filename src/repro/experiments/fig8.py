"""Figure 8: load-balancing rate λ versus Algorithm 2 iterations.

For each CFS setting the paper plots λ (mean and standard deviation
over 50 runs) after 10, 20, ..., 50 greedy iterations, against the
"without load balancing" level (CAR's per-stripe minimum-rack solution
before Algorithm 2 runs).

Expected shape: the no-LB level sits above 1 (e.g. 1.22 on CFS1); with
balancing λ drops quickly over the first iterations and plateaus close
to 1 (e.g. 1.02 on CFS1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.configs import ALL_CFS, CFSConfig
from repro.experiments.runner import ExperimentRunner, Series, mean_std
from repro.recovery.baselines import CarStrategy

__all__ = ["Fig8Result", "run_fig8", "run_fig8_single", "PAPER_ITERATION_CHECKPOINTS"]

#: Iteration counts at which the paper samples λ.
PAPER_ITERATION_CHECKPOINTS: tuple[int, ...] = (10, 20, 30, 40, 50)


@dataclass(frozen=True)
class Fig8Result:
    """One CFS panel of Figure 8.

    Attributes:
        config: the CFS setting.
        balanced: λ at each iteration checkpoint (mean, std).
        unbalanced: the flat no-load-balancing λ level (mean, std).
        mean_substitutions: how many substitutions Algorithm 2 applied
            on average before converging.
    """

    config: CFSConfig
    balanced: Series
    unbalanced: Series
    mean_substitutions: float

    @property
    def final_lambda(self) -> float:
        """Mean λ after the full iteration budget."""
        return self.balanced.means[-1]

    @property
    def initial_lambda(self) -> float:
        """Mean λ without load balancing."""
        return self.unbalanced.means[-1]


def run_fig8_single(
    config: CFSConfig,
    runs: int = 50,
    iterations: int = 50,
    checkpoints: tuple[int, ...] = PAPER_ITERATION_CHECKPOINTS,
    base_seed: int = 20160708,
    num_stripes: int | None = None,
) -> Fig8Result:
    """Reproduce one panel (one CFS) of Figure 8."""
    runner = ExperimentRunner(
        config, runs=runs, base_seed=base_seed, num_stripes=num_stripes
    )
    results = runner.run_all(
        {"CAR": lambda seed: CarStrategy(iterations=iterations)}
    )
    lambdas_at: dict[int, list[float]] = {c: [] for c in checkpoints}
    initial: list[float] = []
    substitutions: list[float] = []
    for r in results:
        strategy = r.strategies["CAR"]
        trace = strategy.last_trace
        assert trace is not None
        initial.append(trace.initial_lambda)
        substitutions.append(float(trace.substitutions))
        for c in checkpoints:
            lambdas_at[c].append(trace.lambda_after(c))
    bal_means, bal_stds = [], []
    for c in checkpoints:
        mean, std = mean_std(lambdas_at[c])
        bal_means.append(mean)
        bal_stds.append(std)
    init_mean, init_std = mean_std(initial)
    return Fig8Result(
        config=config,
        balanced=Series(
            label="balancing with CAR",
            xs=tuple(float(c) for c in checkpoints),
            means=tuple(bal_means),
            stds=tuple(bal_stds),
        ),
        unbalanced=Series(
            label="without load balancing",
            xs=tuple(float(c) for c in checkpoints),
            means=tuple([init_mean] * len(checkpoints)),
            stds=tuple([init_std] * len(checkpoints)),
        ),
        mean_substitutions=mean_std(substitutions)[0],
    )


def run_fig8(
    runs: int = 50,
    iterations: int = 50,
    base_seed: int = 20160708,
    num_stripes: int | None = None,
) -> list[Fig8Result]:
    """Reproduce all three panels of Figure 8."""
    return [
        run_fig8_single(
            cfg,
            runs=runs,
            iterations=iterations,
            base_seed=base_seed,
            num_stripes=num_stripes,
        )
        for cfg in ALL_CFS
    ]
