#!/usr/bin/env python3
"""Multi-stripe load balancing: watching Algorithm 2 converge.

The intro's motivating scenario: a node dies in a production CFS and a
hundred stripes must be repaired at once.  Per-stripe optimal choices
can pile traffic onto one rack; this example shows Algorithm 2
re-balancing the per-stripe solutions and prints the per-rack traffic
histogram and λ before/after, plus the λ trajectory (Figure 8's view).

Run: ``python examples/load_balanced_recovery.py``
"""

from repro.cluster import (
    ClusterState,
    ClusterTopology,
    FailureInjector,
    RandomPlacementPolicy,
)
from repro.erasure import RSCode
from repro.recovery import CarStrategy

NUM_STRIPES = 100


def bar(amount: int, scale: float = 1.0) -> str:
    return "#" * int(amount * scale)


def main() -> None:
    code = RSCode(k=10, m=4)  # Facebook HDFS-RAID's code (CFS3)
    topology = ClusterTopology.from_rack_sizes([6, 4, 5, 3, 2])
    placement = RandomPlacementPolicy(rng=99).place(
        topology, NUM_STRIPES, code.k, code.m
    )
    state = ClusterState(topology, code, placement)
    event = FailureInjector(rng=99).fail_random_node(state)
    print(
        f"failed node {topology.node(event.failed_node).name}; "
        f"{event.num_stripes} stripes to repair\n"
    )

    # The initial (per-stripe minimal, unbalanced) solution.
    initial = CarStrategy(load_balance=False).solve(state)

    # Run Algorithm 2 and keep the iteration trace.
    car = CarStrategy(iterations=50)
    balanced = car.solve(state)
    trace = car.last_trace

    print("per-rack cross-rack traffic (chunks shipped during repair):")
    print(f"{'rack':>6}  {'before':>7}  {'after':>6}")
    before, after = initial.traffic_by_rack(), balanced.traffic_by_rack()
    for rack in topology.racks:
        marker = " (failed rack)" if rack.rack_id == event.failed_rack else ""
        print(
            f"{rack.name:>6}  {before[rack.rack_id]:>7}  "
            f"{after[rack.rack_id]:>6}  {bar(after[rack.rack_id], 0.5)}{marker}"
        )

    print(
        f"\ntotal cross-rack traffic unchanged: "
        f"{initial.total_cross_rack_traffic()} chunks -> "
        f"{balanced.total_cross_rack_traffic()} chunks"
    )
    print(
        f"load balancing rate: {trace.initial_lambda:.3f} -> "
        f"{trace.final_lambda:.3f} after {trace.substitutions} substitutions"
    )
    print("\nlambda per iteration:")
    for i, lam in enumerate(trace.lambdas):
        print(f"  iter {i:>2}: {lam:.3f} {bar(int((lam - 1) * 100), 1.0)}")


if __name__ == "__main__":
    main()
