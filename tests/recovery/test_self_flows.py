"""No flow runs from a node to itself, wherever the replacement sits.

A replacement node may hold a helper chunk of a stripe it rebuilds (any
node outside :func:`eligible_replacements`).  Its own chunk then stays
put: a direct repair reads it in place, and a rack it would delegate is
folded at the replacement node like the failed rack's survivors.  The
executor, both time models and the ledger agree on that plan.
"""

import pytest

from repro.cluster.failure import FailureInjector
from repro.experiments.configs import CFS1, CFS2, CFS3, build_state
from repro.faults.robust import RobustExecutor
from repro.recovery.baselines import CarStrategy, RandomRecoveryStrategy
from repro.recovery.planner import plan_recovery
from repro.recovery.replacement import eligible_replacements, with_replacement
from repro.sim.recovery_sim import RecoverySimulator
from repro.sim.timing import StripeSerialTimingModel

CHUNK = 64
STRIPES = 20


def flows(plan):
    """Every planned flow as ``(src, dst, crossing)``, read from the rows."""
    out = []
    for sp in plan.stripe_plans:
        win = sp.window
        for _, _, node, dest, raw, partial, crossing in win.helpers(sp.row):
            if raw:
                out.append((node, dest, crossing))
            if partial:
                out.append((dest, win.replacement_node, crossing))
    return out


@pytest.mark.parametrize("strategy", ["car", "rr"])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("config", [CFS1, CFS2, CFS3], ids=lambda c: c.name)
def test_a_replacement_holding_a_helper_plans_no_self_flow(
    config, seed, strategy
):
    state = build_state(
        config, seed, with_data=True, chunk_size=CHUNK, num_stripes=STRIPES
    )
    event = FailureInjector(rng=seed).fail_random_node(state)
    solution = (
        CarStrategy() if strategy == "car"
        else RandomRecoveryStrategy(rng=seed)
    ).solve(state)
    eligible = set(eligible_replacements(state, event))
    holders = [n.node_id for n in state.topology.nodes
               if n.node_id not in eligible]
    assert holders
    for node in holders:
        plan = plan_recovery(state, with_replacement(event, node), solution)
        planned = flows(plan)
        assert all(src != dst for src, dst, _ in planned), node
        result = RobustExecutor(state).execute(plan, solution)
        assert result.verified, node
        cross = sum(crossing for _, _, crossing in planned)
        assert result.cross_rack_bytes == cross * CHUNK
        assert result.intra_rack_bytes == (len(planned) - cross) * CHUNK
        assert RecoverySimulator(state).simulate(plan, CHUNK).total_time > 0
        assert StripeSerialTimingModel(state).evaluate(plan, CHUNK).stripes
