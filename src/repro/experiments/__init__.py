"""Evaluation reproduction: Tables II/III configs and Figures 7-10."""

from repro.experiments.ablation import (
    GreedyVsOptimalResult,
    OversubscriptionPoint,
    TrafficAblationResult,
    run_greedy_vs_optimal,
    run_oversubscription_sweep,
    run_traffic_ablation,
)
from repro.experiments.configs import (
    ALL_CFS,
    CFS1,
    CFS2,
    CFS3,
    MB,
    PAPER_CHUNK_SIZES,
    CFSConfig,
    build_state,
)
from repro.experiments.degraded import (
    DegradedReadResult,
    LatencyDistribution,
    run_degraded_read,
)
from repro.experiments.fig7 import Fig7Result, run_fig7, run_fig7_single
from repro.experiments.fig8 import Fig8Result, run_fig8, run_fig8_single
from repro.experiments.fig9 import Fig9Result, run_fig9, run_fig9_single
from repro.experiments.fig10 import Fig10Result, Fig10Row, run_fig10
from repro.experiments.regen import (
    RegenResult,
    StrategyOutcome,
    regen_to_dict,
    run_regen,
    run_regen_single,
)
from repro.experiments.runner import ExperimentRunner, RunResult, Series, mean_std

__all__ = [
    "ALL_CFS",
    "CFS1",
    "CFS2",
    "CFS3",
    "MB",
    "PAPER_CHUNK_SIZES",
    "CFSConfig",
    "build_state",
    "ExperimentRunner",
    "RunResult",
    "Series",
    "mean_std",
    "DegradedReadResult",
    "LatencyDistribution",
    "run_degraded_read",
    "Fig7Result",
    "run_fig7",
    "run_fig7_single",
    "Fig8Result",
    "run_fig8",
    "run_fig8_single",
    "Fig9Result",
    "run_fig9",
    "run_fig9_single",
    "Fig10Result",
    "Fig10Row",
    "run_fig10",
    "TrafficAblationResult",
    "run_traffic_ablation",
    "OversubscriptionPoint",
    "run_oversubscription_sweep",
    "GreedyVsOptimalResult",
    "run_greedy_vs_optimal",
    "RegenResult",
    "StrategyOutcome",
    "run_regen",
    "run_regen_single",
    "regen_to_dict",
]
