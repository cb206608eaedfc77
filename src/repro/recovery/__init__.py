"""CAR recovery layer: rack selection, balancing, planning, execution."""

from repro.recovery.balancer import BalanceTrace, GreedyLoadBalancer
from repro.recovery.baselines import (
    CarStrategy,
    EnumerationBalancedStrategy,
    MinRackNoAggregationStrategy,
    RandomAggregatedStrategy,
    RandomRecoveryStrategy,
    RecoveryStrategy,
)
from repro.recovery.executor import ExecutionResult, PlanExecutor
from repro.recovery.lrc import LrcLocalRecoveryStrategy, lrc_groups_for_placement
from repro.recovery.metrics import TrafficReport, reduction_ratio, traffic_report
from repro.recovery.replacement import (
    LeastLoadedReplacementPolicy,
    ReplacementPolicy,
    SameNodeReplacementPolicy,
    SameRackReplacementPolicy,
    eligible_replacements,
    with_replacement,
)
from repro.recovery.planner import (
    RecoveryPlan,
    StreamingRecoveryPlan,
    StripePlan,
    WindowPlan,
    plan_recovery,
    plan_recovery_streaming,
    plan_window,
)
from repro.recovery.regenerating import (
    PiggybackStrategy,
    RackAwareMSRStrategy,
    rack_msr_params,
)
from repro.recovery.solution import (
    MultiStripeSolution,
    PerStripeSolution,
    WeightedStripeSolution,
)
from repro.recovery.rackfail import RackRecovery, RackRecoverySolution, StripeRackLoss

__all__ = [
    "BalanceTrace",
    "GreedyLoadBalancer",
    "RecoveryStrategy",
    "CarStrategy",
    "RandomRecoveryStrategy",
    "MinRackNoAggregationStrategy",
    "RandomAggregatedStrategy",
    "EnumerationBalancedStrategy",
    "ExecutionResult",
    "LrcLocalRecoveryStrategy",
    "lrc_groups_for_placement",
    "PlanExecutor",
    "TrafficReport",
    "traffic_report",
    "reduction_ratio",
    "RecoveryPlan",
    "StreamingRecoveryPlan",
    "StripePlan",
    "WindowPlan",
    "plan_recovery",
    "plan_recovery_streaming",
    "plan_window",
    "ReplacementPolicy",
    "SameNodeReplacementPolicy",
    "SameRackReplacementPolicy",
    "LeastLoadedReplacementPolicy",
    "eligible_replacements",
    "with_replacement",
    "MultiStripeSolution",
    "PerStripeSolution",
    "WeightedStripeSolution",
    "RackAwareMSRStrategy",
    "PiggybackStrategy",
    "rack_msr_params",
    "RackRecovery",
    "RackRecoverySolution",
    "StripeRackLoss",
]
