"""Ablation studies beyond the paper's figures.

Two design questions DESIGN.md calls out:

1. **Where does CAR's traffic saving come from?**  Decompose it into
   its two per-stripe techniques by running the two hybrids:
   minimum-rack selection *without* aggregation, and random selection
   *with* aggregation (:func:`run_traffic_ablation`).
2. **How does the advantage scale with core over-subscription?**
   Sweep the rack-uplink speed and simulate recovery time
   (:func:`run_oversubscription_sweep`) — the scarcer cross-rack
   bandwidth is, the more CAR's traffic reduction matters.
3. **How close is the greedy balancer to optimal?**  Compare
   Algorithm 2's λ with the enumerated optimum on small instances
   (:func:`run_greedy_vs_optimal`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.cluster.topology import BandwidthProfile
from repro.experiments.configs import MB, CFSConfig, build_state
from repro.experiments.runner import ExperimentRunner, mean_std
from repro.cluster.failure import FailureInjector
from repro.recovery.baselines import (
    CarStrategy,
    EnumerationBalancedStrategy,
    MinRackNoAggregationStrategy,
    RandomAggregatedStrategy,
    RandomRecoveryStrategy,
)
from repro.recovery.planner import plan_recovery
from repro.sim.recovery_sim import RecoverySimulator

__all__ = [
    "TrafficAblationResult",
    "run_traffic_ablation",
    "OversubscriptionPoint",
    "run_oversubscription_sweep",
    "GreedyVsOptimalResult",
    "run_greedy_vs_optimal",
]


@dataclass(frozen=True)
class TrafficAblationResult:
    """Mean cross-rack traffic (chunk units) per strategy variant."""

    config_name: str
    traffic: dict[str, float]

    def saving_over_rr(self, strategy: str) -> float:
        """Fractional saving of one variant over the RR baseline."""
        return 1.0 - self.traffic[strategy] / self.traffic["RR"]


def run_traffic_ablation(
    config: CFSConfig,
    runs: int = 20,
    base_seed: int = 20160711,
    num_stripes: int | None = None,
) -> TrafficAblationResult:
    """Decompose CAR's traffic saving into its two techniques."""
    runner = ExperimentRunner(
        config, runs=runs, base_seed=base_seed, num_stripes=num_stripes
    )
    results = runner.run_all(
        {
            "RR": RandomRecoveryStrategy,
            "MinRack-noAgg": lambda seed: MinRackNoAggregationStrategy(),
            "Random+Agg": RandomAggregatedStrategy,
            "CAR": lambda seed: CarStrategy(),
        }
    )
    traffic = {
        name: mean_std(
            [r.solutions[name].total_cross_rack_traffic() for r in results]
        )[0]
        for name in ("RR", "MinRack-noAgg", "Random+Agg", "CAR")
    }
    return TrafficAblationResult(config_name=config.name, traffic=traffic)


@dataclass(frozen=True)
class OversubscriptionPoint:
    """Recovery-time comparison at one rack-uplink speed."""

    oversubscription: float
    car_time_per_chunk: float
    rr_time_per_chunk: float

    @property
    def saving(self) -> float:
        """CAR's fractional recovery-time saving at this point."""
        return 1.0 - self.car_time_per_chunk / self.rr_time_per_chunk


def run_oversubscription_sweep(
    config: CFSConfig,
    factors: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0),
    chunk_size: int = 4 * MB,
    seed: int = 20160712,
    num_stripes: int = 50,
) -> list[OversubscriptionPoint]:
    """Sweep the uplink over-subscription factor and simulate recovery.

    A factor ``f`` means each rack's uplink runs at ``1/f`` of the NIC
    speed.  CAR's time advantage should widen as ``f`` grows.
    """
    points = []
    for f in factors:
        bw = BandwidthProfile(
            node_nic_gbps=config.bandwidth.node_nic_gbps,
            rack_uplink_gbps=config.bandwidth.node_nic_gbps / f,
            core_gbps=config.bandwidth.core_gbps,
        )
        cfg = replace(config, bandwidth=bw)
        state = build_state(cfg, seed, num_stripes=num_stripes)
        event = FailureInjector(rng=seed).fail_random_node(state)
        times = {}
        for strategy in (CarStrategy(), RandomRecoveryStrategy(rng=seed)):
            solution = strategy.solve(state)
            plan = plan_recovery(state, event, solution)
            timing = RecoverySimulator(state).simulate(plan, chunk_size)
            times[strategy.name] = timing.time_per_chunk
        points.append(
            OversubscriptionPoint(
                oversubscription=f,
                car_time_per_chunk=times["CAR"],
                rr_time_per_chunk=times["RR"],
            )
        )
    return points


@dataclass(frozen=True)
class GreedyVsOptimalResult:
    """λ of Algorithm 2 versus the enumerated optimum (small instances)."""

    config_name: str
    greedy_lambdas: tuple[float, ...]
    optimal_lambdas: tuple[float, ...]

    @property
    def mean_gap(self) -> float:
        """Mean λ gap between greedy and optimal (0 = always optimal)."""
        gaps = [
            g - o for g, o in zip(self.greedy_lambdas, self.optimal_lambdas)
        ]
        return sum(gaps) / len(gaps)


def run_greedy_vs_optimal(
    config: CFSConfig,
    runs: int = 10,
    num_stripes: int = 6,
    base_seed: int = 20160713,
) -> GreedyVsOptimalResult:
    """Compare Algorithm 2 against exhaustive enumeration.

    Uses few stripes so the cross-product enumeration stays tractable
    (its size is the paper's argument for the greedy algorithm).
    """
    runner = ExperimentRunner(
        config, runs=runs, base_seed=base_seed, num_stripes=num_stripes
    )
    results = runner.run_all(
        {
            "CAR": lambda seed: CarStrategy(),
            "Enumeration": lambda seed: EnumerationBalancedStrategy(),
        }
    )
    greedy = tuple(
        r.solutions["CAR"].load_balancing_rate() for r in results
    )
    optimal = tuple(
        r.solutions["Enumeration"].load_balancing_rate() for r in results
    )
    return GreedyVsOptimalResult(
        config_name=config.name,
        greedy_lambdas=greedy,
        optimal_lambdas=optimal,
    )
