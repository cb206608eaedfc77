#!/usr/bin/env python3
"""Degraded read: serving a client read of a lost chunk via CAR.

A MapReduce-style task (the Li et al. DSN'14 scenario the paper cites)
asks for a chunk whose node just died.  Instead of waiting for full
node recovery, we serve the single stripe on demand:

1. find the minimum-rack recovery solution for just that stripe
   (Theorem 1) — CAR's solve over a one-row failure;
2. split the repair vector by rack and let each rack's delegate
   partially decode (Equation 7);
3. XOR the per-rack partials and hand the bytes to the client —
   shipping only ``d_j`` chunk-sized messages across the core instead
   of ``k``.

Run: ``python examples/degraded_read.py``
"""

import numpy as np

from repro.cluster import (
    ClusterState,
    ClusterTopology,
    DataStore,
    FailureInjector,
    RandomPlacementPolicy,
)
from repro.erasure import (
    RSCode,
    combine_partials,
    execute_partial_decode,
    split_repair_vector,
)
from repro.recovery import CarStrategy


def main() -> None:
    code = RSCode(k=8, m=6)  # the paper's running (8, 6) example
    topology = ClusterTopology.from_rack_sizes([4, 4, 4, 4, 4])
    placement = RandomPlacementPolicy(rng=5).place(topology, 30, code.k, code.m)
    data = DataStore(code, 30, chunk_size=32 * 1024, seed=5)
    state = ClusterState(topology, code, placement, data)

    event = FailureInjector(rng=5).fail_random_node(state)
    stripe_id = event.stripes[0]

    # 1. Minimum-rack solution for this one stripe.
    failure = state.failure_columns(stripes=[stripe_id])
    solution = CarStrategy(load_balance=False).solve_failure(
        topology, code.k, failure
    ).solution_for(stripe_id)
    print(
        f"client read hits stripe {stripe_id}, chunk {solution.lost_chunk} "
        f"on failed node {topology.node(event.failed_node).name}"
    )
    racks = [topology.rack(r).name for r in solution.intact_racks_accessed]
    local = solution.chunks_from_rack(solution.failed_rack)
    print(
        f"Theorem 1: read from {len(racks)} intact rack(s) {racks} "
        f"plus {len(local)} local chunk(s) in the failed rack"
    )

    # 2. Per-rack partial decoding.
    plan = split_repair_vector(
        code, solution.lost_chunk, solution.helpers, solution.rack_map()
    )
    chunks = {c: data.chunk(stripe_id, c) for c in solution.helpers}
    partials = execute_partial_decode(code, plan, chunks)
    for group in plan.groups:
        print(
            f"  rack {topology.rack(group.group_key).name} aggregates "
            f"{group.size} chunk(s) -> 1 partially decoded chunk"
        )

    # 3. Combine and serve.
    rebuilt = combine_partials(code, partials)
    assert np.array_equal(rebuilt, data.chunk(stripe_id, solution.lost_chunk))
    cross = solution.num_intact_racks
    print(
        f"served {rebuilt.nbytes // 1024} KiB to the client; "
        f"{cross} chunk(s) crossed the core instead of k = {code.k} "
        f"({1 - cross / code.k:.0%} less cross-rack traffic)"
    )


if __name__ == "__main__":
    main()
