"""A stripe's plan is a row of its window.

The planner writes the plan rule once, as columns; a stripe's flows and
decodes are its row (:meth:`WindowPlan.helpers` and the ``raw`` /
``partial`` / ``crossing`` masks), and the executor charges traffic and
compute — the result's and each journal commit's — from the rows'
ledger (:meth:`WindowPlan.ledger`).  These tests hold both to an
independent per-stripe planner transcribed below (it plans one stripe
from its solution object as flow and decode tuples, the way the planner
did before it planned windows), to the solution's own traffic model
(:func:`~repro.recovery.metrics.traffic_report`) and to the eager
:func:`plan_recovery`, and count the row handles a quiet run builds.

Select a larger example budget with ``HYPOTHESIS_PROFILE=thorough``.
"""

from collections import Counter
from contextlib import nullcontext
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.failure import FailureInjector
from repro.erasure.lrc import LRCCode
from repro.errors import PlacementError, PlanError
from repro.experiments.configs import CFS1, CFS2, CFS3, build_state
from repro.obs.metrics import MetricsRegistry, telemetry_scope
from repro.recovery import planner, streaming
from repro.recovery.baselines import (
    CarStrategy,
    MinRackNoAggregationStrategy,
    RandomAggregatedStrategy,
    RandomRecoveryStrategy,
)
from repro.recovery.executor import PlanExecutor
from repro.recovery.lrc import LrcLocalRecoveryStrategy
from repro.recovery.metrics import traffic_report
from repro.recovery.planner import (
    StripePlan,
    plan_recovery,
    plan_recovery_streaming,
    plan_window,
)
from repro.recovery.regenerating import PiggybackStrategy, RackAwareMSRStrategy
from repro.recovery.replacement import eligible_replacements, with_replacement
from repro.recovery.solution import (
    MultiStripeSolution,
    PerStripeSolution,
    SolutionColumns,
    WeightedStripeSolution,
)
from repro.sim.recovery_sim import RecoverySimulator
from repro.sim.timing import StripeSerialTimingModel

from tests.recovery.test_streaming import failed_cluster

CHUNK = 256


# -- the reference: one stripe planned from its solution object ------------


class _Flow(NamedTuple):
    """One chunk-sized flow; ``chunk`` is None for a partial."""

    src: int
    dst: int
    rack: int
    chunk: int | None
    cross: bool


class _Decode(NamedTuple):
    """A GF combine: ``partial`` (a delegate), ``local`` (the failed
    rack's survivors at the replacement node) or ``final``."""

    node: int
    inputs: int
    kind: str
    chunks: tuple = ()


class _Plan(NamedTuple):
    stripe_id: int
    lost_chunk: int
    flows: tuple
    decodes: tuple
    delegates: dict


def ref_holder(state, sol, chunk, dead_nodes):
    node = state.placement.node_of(sol.stripe_id, chunk)
    if node == state.failed_node:
        raise PlanError(
            f"stripe {sol.stripe_id}: chunk {chunk} lives on the failed node"
        )
    if node in dead_nodes:
        raise PlanError(
            f"stripe {sol.stripe_id}: chunk {chunk} lives on dead node {node}"
        )
    return node


def ref_plan(state, repl, sol, aggregated, dead_nodes=frozenset()):
    """One stripe's plan: under aggregation, each intact rack's delegate
    (the holder of its lowest chunk) gathers the rack's chunks and ships
    one partial; the failed rack's survivors, and a rack the replacement
    node would delegate, go to the replacement node.  Direct, every
    helper but the replacement node's own ships its chunk there."""
    repl_rack = state.topology.rack_of(repl)
    sid = sol.stripe_id
    transfers, compute, delegates = [], [], {}
    if not aggregated:
        for rack in sorted(sol.chunks_by_rack):
            for c in sol.chunks_from_rack(rack):
                node = ref_holder(state, sol, c, dead_nodes)
                if node != repl:
                    transfers.append(
                        _Flow(node, repl, rack, c, rack != repl_rack)
                    )
        compute.append(
            _Decode(repl, sol.helper_count, "final", sol.helpers)
        )
    else:
        for rack in sorted(sol.chunks_by_rack):
            chunks = sol.chunks_from_rack(rack)
            holders = {c: ref_holder(state, sol, c, dead_nodes) for c in chunks}
            if rack == sol.failed_rack or holders[min(holders)] == repl:
                for c, node in sorted(holders.items()):
                    if node != repl:
                        transfers.append(
                            _Flow(node, repl, rack, c, rack != repl_rack)
                        )
                compute.append(
                    _Decode(repl, len(chunks), "local", tuple(chunks))
                )
                continue
            delegate = holders[min(holders)]
            delegates[rack] = delegate
            for c, node in sorted(holders.items()):
                if node != delegate:
                    transfers.append(_Flow(node, delegate, rack, c, False))
            compute.append(
                _Decode(delegate, len(chunks), "partial", tuple(chunks))
            )
            transfers.append(
                _Flow(delegate, repl, rack, None, rack != repl_rack)
            )
        compute.append(_Decode(repl, len(compute), "final"))
    return _Plan(sid, sol.lost_chunk, tuple(transfers), tuple(compute),
                 delegates)


def row_plan(win, i):
    """Row ``i`` of ``win`` in the reference's form: the flows and
    decodes its accessor and masks encode, and nothing else."""
    repl = win.replacement_node
    helpers = win.helpers(i)
    flows, decodes, delegates = [], [], {}
    if not win.aggregated:
        flows = [
            _Flow(node, dest, rack, c, crossing)
            for rack, c, node, dest, raw, _, crossing in helpers
            if raw
        ]
        decodes.append(_Decode(
            repl, len(helpers), "final", tuple(sorted(h[1] for h in helpers))
        ))
    else:
        for rack, group in groupby(helpers, key=itemgetter(0)):
            group = list(group)
            _, _, _, dest, _, partial, crossing = group[0]
            flows += [
                _Flow(node, to, rack, c, cross)
                for _, c, node, to, raw, _, cross in group
                if raw
            ]
            decodes.append(_Decode(
                dest, len(group), "partial" if partial else "local",
                tuple(h[1] for h in group),
            ))
            if partial:
                delegates[rack] = dest
                flows.append(_Flow(dest, repl, rack, None, crossing))
        decodes.append(_Decode(repl, len(decodes), "final"))
    return _Plan(int(win.stripe_id[i]), int(win.lost_chunk[i]), tuple(flows),
                 tuple(decodes), delegates)


def ref_accounting(sp, chunk_bytes):
    """``(cross, intra, charges)`` counted from the tuples: every flow
    moves one chunk, every decode charges its inputs."""
    crossing = sum(1 for t in sp.flows if t.cross)
    charges = Counter()
    for task in sp.decodes:
        charges[task.node] += task.inputs * chunk_bytes
    return (
        crossing * chunk_bytes,
        (len(sp.flows) - crossing) * chunk_bytes,
        dict(charges),
    )


def ref_error(state, repl, sols, aggregated, dead_nodes=frozenset()):
    """The error the reference raises for the first unplannable stripe."""
    for sol in sols:
        try:
            ref_plan(state, repl, sol, aggregated, dead_nodes)
        except (PlanError, PlacementError) as exc:
            return exc
    return None


# -- scenarios ----------------------------------------------------------------


def solve_around(state, dead, aggregated):
    """CAR (re-planned over the survivors) or RR-style direct recovery
    that reads nothing from ``dead``."""
    if aggregated:
        return CarStrategy().solve_failure(
            state.topology, state.code.k,
            state.failure_columns(dead_nodes=dead),
        )
    failure = state.failure_columns(dead_nodes=dead)
    alive = failure.alive
    return MultiStripeSolution.from_columns(
        SolutionColumns.from_mask(
            failure, alive & (np.cumsum(alive, axis=1) <= state.code.k)
        ),
        num_racks=state.topology.num_racks,
        aggregated=False,
    )


#: Strategies planned from a fixed solve (no dead helpers to avoid).
STRATEGIES = {
    "car-nolb": lambda seed: CarStrategy(load_balance=False),
    "rr": lambda seed: RandomRecoveryStrategy(rng=seed),
    "min-rack": lambda seed: MinRackNoAggregationStrategy(),
    "random-aggregated": lambda seed: RandomAggregatedStrategy(rng=seed),
    "rack-msr": lambda seed: RackAwareMSRStrategy(),
    "piggyback": lambda seed: PiggybackStrategy(),
    "lrc-local": lambda seed: LrcLocalRecoveryStrategy(),
    "lrc-direct": lambda seed: LrcLocalRecoveryStrategy(aggregated=False),
}


def scenario(name, config, seed):
    """``(state, event, strategy)`` for one strategy name."""
    if name.startswith("lrc"):
        state, event = failed_cluster(seed, stripes=30, code=LRCCode(6, 2, 2))
    else:
        state = build_state(
            config, seed, num_stripes=30,
            placement_policy="rack_aligned" if name == "rack-msr" else "random",
        )
        event = FailureInjector(rng=seed).fail_random_node(state)
    return state, event, STRATEGIES[name](seed)


def assert_rows_match_reference(state, event, sol, window, dead=frozenset()):
    """Every row's flows, decodes and ledger equal the reference's, and
    the eager plan is the rows in order."""
    repl = event.replacement_node
    lazy = plan_recovery_streaming(state, event, sol, dead_nodes=dead)
    rows = []
    for win in lazy.iter_windows(window):
        assert len(win) <= window
        for i in range(len(win)):
            s = win.source.solution(i)
            ref = ref_plan(state, repl, s, sol.aggregated, dead)
            assert row_plan(win, i) == ref
            # Stripe i's (cross, intra, charges): its row of the ledger.
            figures = win.ledger(CHUNK, slice(i, i + 1))
            assert figures == ref_accounting(ref, CHUNK)
            # The traffic model counts whole chunks, shipped into the
            # failed rack.
            if not isinstance(s, WeightedStripeSolution) and (
                state.topology.rack_of(repl) == s.failed_rack
            ):
                single = MultiStripeSolution(
                    [s], num_racks=state.topology.num_racks,
                    aggregated=sol.aggregated,
                )
                assert figures[0] == traffic_report(single, CHUNK).total_bytes
            rows.append(StripePlan(win, i))
    assert len(rows) == len(sol)
    eager = plan_recovery(state, event, sol, dead_nodes=dead)
    assert eager.stripe_plans == tuple(rows)


class TestColumnsAgreeWithObjects:
    @settings(deadline=None)
    @given(
        config=st.sampled_from([CFS1, CFS2, CFS3]),
        name=st.sampled_from(["car-around", *STRATEGIES]),
        aggregated=st.booleans(),
        window=st.sampled_from([1, 3, 7, 256]),
        seed=st.integers(0, 500),
        dead_count=st.integers(0, 2),
        moved=st.booleans(),
        data=st.data(),
    )
    def test_three_figures_per_stripe(
        self, config, name, aggregated, window, seed, dead_count, moved, data
    ):
        if name == "car-around":
            state = build_state(config, seed, num_stripes=30)
            event = FailureInjector(rng=seed).fail_random_node(state)
            others = [
                n.node_id for n in state.topology.nodes
                if n.node_id != event.failed_node
            ]
            dead = frozenset(
                data.draw(
                    st.lists(st.sampled_from(others), max_size=dead_count,
                             unique=True)
                )
            )
            sol = solve_around(state, dead, aggregated)
        else:
            state, event, strategy = scenario(name, config, seed)
            dead = frozenset()
            sol = strategy.solve(state)
        if moved:
            # Any live node: an eligible one, or one holding helpers.
            event = with_replacement(event, data.draw(st.sampled_from([
                n.node_id for n in state.topology.nodes
                if n.node_id not in dead
            ])))
        assert_rows_match_reference(state, event, sol, window, dead)

    @settings(deadline=None)
    @given(
        config=st.sampled_from([CFS1, CFS2, CFS3]),
        aggregated=st.booleans(),
        seed=st.integers(0, 500),
    )
    def test_window_ledger_is_the_sum_of_its_rows(
        self, config, aggregated, seed
    ):
        state = build_state(config, seed, num_stripes=30)
        event = FailureInjector(rng=seed).fail_random_node(state)
        sol = solve_around(state, frozenset(), aggregated)
        win = plan_window(
            state, event.replacement_node, sol.columns(),
            aggregated=aggregated,
        )
        cross = intra = 0
        charges = Counter()
        for s in sol.solutions:
            c, i, ch = ref_accounting(
                ref_plan(state, event.replacement_node, s, aggregated), CHUNK
            )
            cross, intra = cross + c, intra + i
            charges.update(ch)
        assert win.ledger(CHUNK) == (cross, intra, dict(charges))
        assert cross == traffic_report(sol, CHUNK).total_bytes

    def test_a_dead_helper_fails_the_same_stripe_with_the_same_words(self):
        for where in ("dead", "failed", "unplaced", "both"):
            for aggregated in (True, False):
                self.check_first_unusable_helper(where, aggregated)

    @staticmethod
    def check_first_unusable_helper(where, aggregated):
        """Helpers on dead nodes, on the failed node, a chunk index the
        placement lacks, or the last two at once: the window raises what
        the reference raises for its first unplannable stripe and that
        stripe's first unusable helper, word for word."""
        state = build_state(CFS2, 3, num_stripes=30)
        event = FailureInjector(rng=3).fail_random_node(state)
        sol = solve_around(state, frozenset(), aggregated)
        victim = sol.solutions[len(sol) // 2]
        dead = frozenset()
        if where == "dead":
            dead = {
                state.placement.node_of(victim.stripe_id, c)
                for c in (victim.helpers[0], victim.helpers[-1])
            }
        else:
            # The victim also reads the chunk on the failed node (and
            # names another chunk lost) and/or a chunk index the
            # placement lacks.
            lost, unplaced = victim.lost_chunk, state.code.n
            extras = {
                "failed": (lost,), "unplaced": (unplaced,),
                "both": (lost, unplaced),
            }[where]
            if lost in extras:
                lost = next(
                    c for c in range(state.code.n)
                    if c not in extras and c not in victim.helpers
                )
            rack = victim.failed_rack
            sol = sol.replace(PerStripeSolution(
                stripe_id=victim.stripe_id,
                lost_chunk=lost,
                failed_rack=rack,
                chunks_by_rack={
                    **victim.chunks_by_rack,
                    rack: tuple(sorted((*victim.chunks_from_rack(rack), *extras))),
                },
            ))
        expected = ref_error(
            state, event.replacement_node, sol.solutions, aggregated, dead
        )
        if where == "unplaced":
            assert str(expected) == (
                f"no placement for stripe {victim.stripe_id} chunk {unplaced}"
            )
            assert isinstance(expected, PlacementError)
        elif where != "dead":
            assert str(expected) == (
                f"stripe {victim.stripe_id}: chunk {victim.lost_chunk} lives "
                "on the failed node"
            )
        assert isinstance(expected, PlacementError if where == "unplaced"
                          else PlanError)
        lazy = plan_recovery_streaming(state, event, sol, dead_nodes=dead)
        with pytest.raises(type(expected)) as columns:
            next(lazy.iter_windows(len(sol)))
        assert str(columns.value) == str(expected)


class TestQuietRunBuildsNoObjects:
    @pytest.fixture
    def made(self, monkeypatch):
        """Counts row handles built and rows read through the accessor."""
        counts = Counter()
        init, helpers = planner.StripePlan.__init__, planner.WindowPlan.helpers

        def counting_init(self, *args, **kwargs):
            counts["StripePlan"] += 1
            init(self, *args, **kwargs)

        def counting_helpers(self, i):
            counts["helpers"] += 1
            return helpers(self, i)

        monkeypatch.setattr(planner.StripePlan, "__init__", counting_init)
        monkeypatch.setattr(planner.WindowPlan, "helpers", counting_helpers)
        return counts

    @pytest.mark.parametrize("registry", [False, True])
    def test_fleet_shape_execute_streaming(self, made, registry):
        state = build_state(CFS3, 0, with_data=True, chunk_size=CHUNK,
                            num_stripes=400)
        event = FailureInjector(rng=0).fail_random_node(state)
        sol = CarStrategy().solve(state)
        with telemetry_scope(MetricsRegistry()) if registry else nullcontext():
            result = PlanExecutor(state).execute_streaming(
                plan_recovery_streaming(state, event, sol), window=256,
                sink=lambda stripe, rebuilt, ok: None,
            )
        assert len(result.per_stripe_ok) == len(sol) > 256
        assert result.verified
        assert made == Counter()
        # The counting wrapper does count what a materialised plan builds:
        # one handle per stripe, and no row read until a reader asks.
        plan_recovery(state, event, sol)
        assert made == Counter(StripePlan=len(sol))


def test_ledger_charges_match_the_executor_for_a_moved_replacement():
    """A replacement outside the failed rack turns its survivors' flows
    cross-rack; the ledger counts flows by their endpoints, as the rows'
    flows and decodes do."""
    for seed in range(50):
        state = build_state(
            CFS2, seed, with_data=True, chunk_size=64, num_stripes=2
        )
        event = FailureInjector(rng=seed).fail_random_node(state)
        elsewhere = [
            n for n in eligible_replacements(state, event)
            if state.topology.rack_of(n) != event.failed_rack
        ]
        if elsewhere:
            break
    moved = with_replacement(event, elsewhere[0])
    sol = CarStrategy().solve(state)
    plan = plan_recovery(state, moved, sol)
    result = PlanExecutor(state).execute(plan, sol)
    assert result.verified
    cross = intra = 0
    compute = Counter()
    for sp in plan.stripe_plans:
        c, i, charges = ref_accounting(row_plan(sp.window, sp.row), 64)
        cross, intra = cross + c, intra + i
        compute.update(charges)
    assert cross > 0
    assert result.cross_rack_bytes == plan.cross_rack_chunks() * 64 == cross
    assert result.intra_rack_bytes == intra
    assert result.bytes_computed_by_node == dict(compute)


class TestSubChunkSolutionsAreRefused:
    """A regenerating-code solution ships fractional chunk units, which a
    plan of whole-chunk flows can neither carry nor time.  Planning it is
    allowed; the executor and both time models refuse it by name."""

    @staticmethod
    def planned(config, strategy, with_data=False):
        state = build_state(
            config, 1, with_data=with_data, chunk_size=CHUNK,
            placement_policy="rack_aligned",
        )
        event = FailureInjector(rng=1).fail_random_node(state)
        sol = strategy.solve(state)
        return state, plan_recovery(state, event, sol), sol

    @pytest.mark.parametrize("config,strategy,whole,units", [
        (CFS1, PiggybackStrategy(), 226, 157.5),
        (CFS3, RackAwareMSRStrategy(), 204, 102.0),
    ])
    def test_the_plan_counts_whole_chunks(self, config, strategy, whole,
                                          units):
        _, plan, sol = self.planned(config, strategy)
        assert plan.cross_rack_chunks() == whole
        assert traffic_report(sol, 1).total_chunks == units

    def test_the_executor_refuses_before_a_window_is_submitted(
        self, monkeypatch
    ):
        state, plan, sol = self.planned(CFS1, PiggybackStrategy(), True)
        decoded = []
        monkeypatch.setattr(
            streaming, "compute_window", lambda *a, **k: decoded.append(a)
        )
        with pytest.raises(PlanError, match=r"fractional chunk units .*0\.5"):
            PlanExecutor(state).execute(plan, sol)
        assert decoded == []

    def test_the_fluid_simulator_refuses(self):
        state, plan, _ = self.planned(CFS1, PiggybackStrategy())
        with pytest.raises(PlanError, match="fractional chunk units"):
            RecoverySimulator(state).simulate(plan, CHUNK)

    def test_the_serial_model_refuses(self):
        state, plan, _ = self.planned(CFS3, RackAwareMSRStrategy())
        with pytest.raises(PlanError, match="fractional chunk units"):
            StripeSerialTimingModel(state).evaluate(plan, CHUNK)
