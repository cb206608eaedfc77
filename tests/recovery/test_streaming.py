"""Window-independence suite for the one repair pipeline.

The contract under test is absolute: for any cluster, strategy, plan
form (materialised or lazy), window size, worker count and telemetry
configuration, :meth:`PlanExecutor.execute` rebuilds the ground-truth
bytes and reports the traffic and compute the *plan* predicts — figures
derived here without the executor — and every configuration returns the
same :class:`ExecutionResult`.  For durable sessions the journal replays
identically whichever window wrote it, and a fault-injected run leaves
the same :class:`FaultLog` and wasted-byte totals at every window.
"""

import itertools
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.failure import FailureInjector
from repro.cluster.placement import RandomPlacementPolicy
from repro.cluster.state import ClusterState, DataStore
from repro.cluster.topology import ClusterTopology
from repro.cpus import usable_cpus
from repro.durable.journal import (
    JournalReplay,
    RecoveryJournal,
    read_journal,
    validate_journal_records,
)
from repro.durable.session import RecoverySession
from repro.erasure.lrc import LRCCode
from repro.erasure.repair import (
    combine_partials,
    execute_partial_decode,
    split_repair_vector,
)
from repro.erasure.rs import RSCode
from repro.errors import CoordinatorCrashError, PlanError
from repro.experiments.configs import CFS1, CFS2, CFS3, build_state
from repro.faults import (
    BackoffPolicy,
    FaultInjector,
    FaultKind,
    FaultSpec,
    PipelineStage,
    RobustExecutor,
)
from repro.gf.vector import _SHORT_ROW, _TILE
from repro.obs import metrics as _metrics
from repro.obs.tracer import Tracer
from repro.recovery.baselines import CarStrategy, RandomRecoveryStrategy
from repro.recovery.executor import PlanExecutor
from repro.recovery.lrc import LrcLocalRecoveryStrategy
from repro.recovery.metrics import traffic_report
from repro.recovery import planner
from repro.recovery import streaming as _streaming
from repro.recovery.planner import (
    plan_recovery,
    plan_recovery_streaming,
    plan_window,
)
from repro.recovery.solution import SolutionColumns
from repro.recovery.streaming import compute_window, default_window

#: ``None`` is the window the executor derives from the chunk size.
WINDOWS = (1, 3, 64, None)


def failed_cluster(seed=0, stripes=14, k=6, m=3, chunk_size=64, code=None):
    code = code or RSCode(k, m)
    topo = ClusterTopology.from_rack_sizes([4, 3, 3, 3])
    placement = RandomPlacementPolicy(rng=seed).place(
        topo, stripes, code.k, code.n - code.k
    )
    data = DataStore(code, stripes, chunk_size=chunk_size, seed=seed)
    state = ClusterState(topo, code, placement, data)
    event = FailureInjector(rng=seed).fail_random_node(state)
    return state, event


def strategy_for(name, seed):
    return CarStrategy() if name == "car" else RandomRecoveryStrategy(rng=seed)


def assert_identical(a, b):
    """Two ExecutionResults agree field-for-field, byte-for-byte."""
    assert a.per_stripe_ok == b.per_stripe_ok
    assert set(a.reconstructed) == set(b.reconstructed)
    for sid in a.reconstructed:
        assert np.array_equal(a.reconstructed[sid], b.reconstructed[sid])
    assert a.cross_rack_bytes == b.cross_rack_bytes
    assert a.intra_rack_bytes == b.intra_rack_bytes
    assert a.bytes_computed_by_node == b.bytes_computed_by_node


def assert_ground_truth(state, event, reconstructed):
    """Every lost chunk was rebuilt to the stored bytes, nothing else."""
    assert set(reconstructed) == {s for s, _ in event.lost_chunks}
    for stripe, lost in event.lost_chunks:
        assert np.array_equal(
            reconstructed[stripe], state.data.chunk(stripe, lost)
        )


def assert_plan_figures(state, plan, sol, result):
    """Accounting equals what the plan's rows say, computed without the
    executor: every raw chunk and partial is one flow, every helper chunk
    is GF input where it is combined, and under aggregation every rack
    group's buffer is input to the final combine."""
    chunk = state.data.chunk_size
    cross = intra = 0
    compute = {}
    for sp in plan.stripe_plans:
        helpers = sp.window.helpers(sp.row)
        for _, _, _, dest, raw, partial, crossing in helpers:
            cross += crossing
            intra += raw + partial - crossing
            compute[dest] = compute.get(dest, 0) + chunk
        if plan.aggregated:
            repl, groups = plan.replacement_node, len({h[0] for h in helpers})
            compute[repl] = compute.get(repl, 0) + groups * chunk
    assert result.cross_rack_bytes == plan.cross_rack_chunks() * chunk
    assert result.cross_rack_bytes == cross * chunk
    assert result.intra_rack_bytes == intra * chunk
    assert result.cross_rack_bytes == traffic_report(sol, chunk).total_bytes
    assert result.bytes_computed_by_node == compute


def flows_and_decodes(plan):
    """Flows plus decodes over the plan's rows: each raw chunk and each
    partial moves once, each rack group decodes once under aggregation,
    and each stripe combines once."""
    total = 0
    for sp in plan.stripe_plans:
        helpers = sp.window.helpers(sp.row)
        total += sum(raw or partial for *_, raw, partial, _ in helpers) + 1
        if plan.aggregated:
            total += len({h[0] for h in helpers})
    return total


class TestStreamingEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 200),
        strat=st.sampled_from(["car", "direct"]),
        lazy=st.booleans(),
    )
    def test_streaming_matches_eager(self, seed, strat, lazy):
        state, event = failed_cluster(seed=seed)
        sol = strategy_for(strat, seed).solve(state)
        plan = plan_recovery(state, event, sol)
        results = []
        for window in WINDOWS:
            if lazy:
                result = PlanExecutor(state).execute(
                    plan_recovery_streaming(state, event, sol), window=window
                )
            else:
                result = PlanExecutor(state).execute(plan, sol, window=window)
            assert result.verified
            assert_ground_truth(state, event, result.reconstructed)
            assert_plan_figures(state, plan, sol, result)
            results.append(result)
        for other in results[1:]:
            assert_identical(results[0], other)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 100), window=st.sampled_from(WINDOWS))
    def test_streaming_plan_matches_eager_plan(self, seed, window):
        state, event = failed_cluster(seed=seed)
        sol = CarStrategy().solve(state)
        materialised = PlanExecutor(state).execute(
            plan_recovery(state, event, sol), sol
        )
        splan = plan_recovery_streaming(state, event, sol)
        lazy = PlanExecutor(state).execute_streaming(splan, window=window)
        assert_identical(materialised, lazy)

    @pytest.mark.parametrize("strat", ["car", "direct"])
    @pytest.mark.parametrize("use_shm", [True, False])
    def test_workers_match_eager(self, strat, use_shm):
        state, event = failed_cluster(seed=7, stripes=20)
        sol = strategy_for(strat, 7).solve(state)
        plan = plan_recovery(state, event, sol)
        in_process = PlanExecutor(state).execute(plan, sol)
        assert_ground_truth(state, event, in_process.reconstructed)
        assert_plan_figures(state, plan, sol, in_process)
        for window in WINDOWS:
            for lazy in (False, True):
                fanned = PlanExecutor(state).execute(
                    plan_recovery_streaming(state, event, sol) if lazy else plan,
                    None if lazy else sol,
                    window=window, workers=2, shm=use_shm,
                )
                assert_identical(in_process, fanned)

    def test_workers_keep_a_bounded_number_of_windows_in_flight(
        self, monkeypatch
    ):
        state, event = failed_cluster(seed=7, stripes=60)
        sol = CarStrategy().solve(state)
        assert len(sol.solutions) >= 12
        consumed = 0
        consumed_at_first_fold = []
        plan_window = planner.plan_window

        def counting(state, replacement_node, source, **kwargs):
            nonlocal consumed
            consumed += len(source)
            return plan_window(state, replacement_node, source, **kwargs)

        def sink(stripe_id, rebuilt, ok):
            if not consumed_at_first_fold:
                consumed_at_first_fold.append(consumed)

        # The lazy plan plans stripes only as windows are cut.
        monkeypatch.setattr(planner, "plan_window", counting)
        splan = plan_recovery_streaming(state, event, sol)
        result = PlanExecutor(state).execute(
            splan, window=1, workers=2, sink=sink
        )
        assert result.verified and len(result.per_stripe_ok) == consumed
        # One window in flight per stage-A thread, plus the one being
        # folded.
        assert consumed_at_first_fold[0] <= 2 + 1

    def test_sink_receives_every_stripe_and_result_stays_lean(self):
        state, event = failed_cluster(seed=3)
        sol = CarStrategy().solve(state)
        plan = plan_recovery(state, event, sol)
        retained = PlanExecutor(state).execute(plan, sol)
        got = {}
        sunk = PlanExecutor(state).execute_streaming(
            plan, sol, window=4,
            sink=lambda sid, buf, ok: got.__setitem__(sid, buf),
        )
        assert not sunk.reconstructed  # handed off, not retained
        assert sunk.per_stripe_ok == retained.per_stripe_ok
        assert_ground_truth(state, event, got)
        assert_plan_figures(state, plan, sol, sunk)

    def test_lazy_plan_with_sink_peaks_below_a_retained_plan(self):
        """Coordinator memory is O(window) with a lazy plan and a sink,
        O(stripes) with a materialised plan and retained results."""
        state = build_state(
            CFS1, seed=0, with_data=True, chunk_size=64, num_stripes=500,
            placement_policy="rack_aligned",
        )
        event = FailureInjector(rng=0).fail_random_node(state)
        sol = CarStrategy().solve(state)

        def peak_of(run):
            tracemalloc.start()
            result = run()
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return result, peak

        def run_retained():
            return PlanExecutor(state).execute(
                plan_recovery(state, event, sol), sol, window=32
            )

        def run_sunk():
            return PlanExecutor(state).execute(
                plan_recovery_streaming(state, event, sol), window=32,
                sink=lambda sid, buf, ok: None,
            )

        # Each run once untraced first, so what a first run builds
        # (tables, the thread pool) counts in neither peak.
        run_retained()
        run_sunk()
        retained, retained_peak = peak_of(run_retained)
        sunk, sunk_peak = peak_of(run_sunk)
        assert retained.verified and sunk.per_stripe_ok == retained.per_stripe_ok
        assert sunk.cross_rack_bytes == retained.cross_rack_bytes
        assert retained_peak >= 1.5 * sunk_peak  # measures ~5x at this size

    def test_telemetry_counters_and_spans_match_eager(self):
        state, event = failed_cluster(seed=9, stripes=20)
        sol = CarStrategy().solve(state)
        plan = plan_recovery(state, event, sol)

        def run(window):
            with _metrics.telemetry_scope(_metrics.MetricsRegistry()) as reg:
                tracer = Tracer()
                result = PlanExecutor(state, tracer).execute(
                    plan, sol, window=window
                )
                assert_plan_figures(state, plan, sol, result)
                return reg.snapshot()["metrics"], tracer

        m1, t1 = run(1)
        # One checkpoint per helper read, per flow, per decode/fold and
        # per final combine — counted from the plan, not the executor.
        checkpoints = sum(s["value"] for s in m1["exec.stage.checkpoints"]["series"])
        assert checkpoints == sum(
            s.helper_count for s in sol.solutions
        ) + flows_and_decodes(plan)
        for window in (4, None):
            mw, tw = run(window)
            # Checkpoint and stripe counters are label-for-label
            # identical; GF kernel counters agree on totals (batching
            # regroups the series but must move exactly the same bytes).
            assert m1["exec.stage.checkpoints"] == mw["exec.stage.checkpoints"]
            assert m1["exec.stripes"] == mw["exec.stripes"]

            def gf_total(metrics, name):
                return sum(s["value"] for s in metrics[name]["series"])

            assert gf_total(m1, "gf.kernel.bytes") == gf_total(
                mw, "gf.kernel.bytes"
            )
            # The ship spans carry the stripes and the checkpoints the
            # counter holds, whatever the window.
            for metrics, tracer in ((m1, t1), (mw, tw)):
                ships = [e["attrs"] for e in tracer.events
                         if e["name"] == "exec.stream.ship"]
                assert sum(a["stripes"] for a in ships) == len(sol.solutions)
                series = metrics["exec.stage.checkpoints"]["series"]
                for s in series:
                    key = f"{s['labels']['stage']}_checkpoints"
                    assert sum(a[key] for a in ships) == s["value"], key
                assert sum(
                    n for a in ships for key, n in a.items()
                    if key.endswith("_checkpoints")
                ) == sum(s["value"] for s in series)
            names = {e.get("name") for e in tw.events}
            assert names == {"exec.stream.aggregate", "exec.stream.ship"}

    def test_a_registry_keeps_stage_a_one_window_ahead(self, monkeypatch):
        """Telemetry does not change which code path runs: with a metrics
        registry active, stage A of window i+1 runs while window i ships,
        and the registry's totals are the quiet run's figures."""
        state, event = failed_cluster(seed=9, stripes=40)
        sol = CarStrategy().solve(state)
        plan = plan_recovery(state, event, sol)
        quiet = PlanExecutor(state).execute(plan, sol, window=4)
        shipping = threading.Event()
        overlapped = []
        decode = _streaming.compute_window
        calls = itertools.count()

        def watched(*args, **kwargs):
            if next(calls) == 1:
                # Window 1 waits here until window 0 has begun to ship.
                overlapped.append(shipping.wait(timeout=10))
            return decode(*args, **kwargs)

        monkeypatch.setattr(_streaming, "compute_window", watched)
        with _metrics.telemetry_scope(_metrics.MetricsRegistry()) as reg:
            # Threads named: at these chunks the default decodes on the
            # shipping thread, where nothing can overlap.
            result = PlanExecutor(state).execute(
                plan_recovery_streaming(state, event, sol), window=4,
                sink=lambda sid, buf, ok: shipping.set(), workers=2,
            )
        assert overlapped == [True]
        assert result.per_stripe_ok == quiet.per_stripe_ok
        assert result.cross_rack_bytes == quiet.cross_rack_bytes
        assert result.intra_rack_bytes == quiet.intra_rack_bytes
        assert result.bytes_computed_by_node == quiet.bytes_computed_by_node
        chunk = state.data.chunk_size
        transfers = reg.counter("plan.transfers")
        assert transfers.value(scope="cross") * chunk == quiet.cross_rack_bytes
        assert transfers.value(scope="intra") * chunk == quiet.intra_rack_bytes
        assert reg.counter("exec.stripes").total == len(quiet.per_stripe_ok)
        assert reg.counter("gf.kernel.bytes").total == sum(
            s.helper_count for s in sol.solutions
        ) * chunk
        assert reg.counter("exec.stage.checkpoints").total == sum(
            s.helper_count for s in sol.solutions
        ) + flows_and_decodes(plan)

    def test_repair_group_cache_is_a_named_metric(self):
        state, event = failed_cluster(seed=5)
        sol = CarStrategy().solve(state)
        plan = plan_recovery(state, event, sol)
        PlanExecutor(state).execute_streaming(plan, sol, window=4)
        reg = _metrics.MetricsRegistry()
        caches = reg.snapshot(include_caches=True)["caches"]
        assert "exec.repair_groups" in caches
        stats = caches["exec.repair_groups"]
        assert stats["hits"] + stats["misses"] > 0

    def test_codes_of_one_shape_do_not_share_repair_plans(self):
        # Same (k, m, w), same placement, same signatures — different
        # coefficients.  The memoised repair plans must not cross over.
        for construction in ("vandermonde", "cauchy", "vandermonde"):
            state, event = failed_cluster(
                seed=2, code=RSCode(6, 3, construction=construction)
            )
            sol = CarStrategy().solve(state)
            result = PlanExecutor(state).execute(
                plan_recovery(state, event, sol), sol
            )
            assert_ground_truth(state, event, result.reconstructed)

    @pytest.mark.parametrize("aggregated", [True, False])
    @pytest.mark.parametrize("window", WINDOWS)
    def test_lrc_local_recovery_through_the_pipeline(self, window, aggregated):
        state, event = failed_cluster(seed=4, code=LRCCode(6, 2, 2))
        sol = LrcLocalRecoveryStrategy(aggregated=aggregated).solve(state)
        # Local repairs read fewer than k helpers.
        assert any(s.helper_count < state.code.k for s in sol.solutions)
        plan = plan_recovery(state, event, sol)
        result = PlanExecutor(state).execute(plan, sol, window=window)
        assert result.verified
        assert_ground_truth(state, event, result.reconstructed)
        assert_plan_figures(state, plan, sol, result)

    def test_default_window_is_sized_in_bytes(self):
        assert default_window(4 << 20) == 1
        assert 1 <= default_window(1 << 20) <= 4
        assert 100 <= default_window(256) < 1000
        sizes = [64, 256, 4096, 1 << 16, 1 << 20, 4 << 20]
        derived = [default_window(s) for s in sizes]
        assert derived == sorted(derived, reverse=True)


def window_of(state, event, strategy):
    """Every stripe of the failure as one window's columns."""
    sol = strategy.solve(state)
    return plan_window(
        state, event.replacement_node, sol.columns(),
        aggregated=sol.aggregated,
    )


#: (code, strategy, placement policy) for every code the executor accepts
#: (the regenerating / piggyback strategies repair with other than k
#: helpers, which ``repair_vector`` refuses), aggregated and direct.
WINDOW_CASES = {
    "rs-car-random": (CFS1, None, CarStrategy, "random"),
    "rs-car-aligned": (CFS1, None, CarStrategy, "rack_aligned"),
    "rs-rr-random": (CFS1, None, lambda: RandomRecoveryStrategy(rng=3), "random"),
    "cauchy-car": (None, RSCode(6, 3, construction="cauchy"), CarStrategy, None),
    "lrc-local": (None, LRCCode(6, 2, 2), LrcLocalRecoveryStrategy, None),
    "lrc-direct": (
        None, LRCCode(6, 2, 2),
        lambda: LrcLocalRecoveryStrategy(aggregated=False), None,
    ),
}


class TestColumnarWindow:
    """``compute_window`` decodes a window as one table; stripe by stripe
    through the repair algebra is the reference it must equal."""

    @staticmethod
    def build(case, chunk_size, seed=6):
        config, code, strategy, policy = WINDOW_CASES[case]
        if config is None:
            return (*failed_cluster(seed, code=code, chunk_size=chunk_size), strategy())
        state = build_state(
            config, seed, with_data=True, chunk_size=chunk_size,
            num_stripes=30, placement_policy=policy,
        )
        return state, FailureInjector(rng=seed).fail_random_node(state), strategy()

    # Either side of the kernels' table-scheme threshold.
    @pytest.mark.parametrize("chunk_size", [64, _SHORT_ROW])
    @pytest.mark.parametrize("case", WINDOW_CASES)
    def test_equals_stripe_by_stripe_partial_decode(self, case, chunk_size):
        state, event, strategy = self.build(case, chunk_size)
        win = window_of(state, event, strategy)
        assert len(win) > 1
        outcome = compute_window(
            state.code, state.data, win, keep_partials=True
        )
        for i in range(len(win)):
            sol = win.source.solution(i)
            plan = split_repair_vector(
                state.code, sol.lost_chunk, sol.helpers,
                sol.rack_map() if win.aggregated
                else dict.fromkeys(sol.helpers),
            )
            partials = execute_partial_decode(
                state.code, plan,
                {h: state.data.chunk(sol.stripe_id, h) for h in sol.helpers},
            )
            got = outcome.partials_of(i)
            assert got.keys() == partials.keys()
            for key, partial in partials.items():
                assert np.array_equal(got[key], partial)
                # A shipped partial is never the accumulator.
                assert not np.shares_memory(got[key], outcome.rebuilt[i])
            assert np.array_equal(
                outcome.rebuilt[i], combine_partials(state.code, partials)
            )
            assert outcome.ok[i] is True
        lean = compute_window(state.code, state.data, win)
        assert lean.partials is None
        for i in range(len(win)):
            assert lean.ok[i] is True
            assert np.array_equal(lean.rebuilt[i], outcome.rebuilt[i])

    @pytest.mark.parametrize("chunk_size", [64, _SHORT_ROW])
    def test_a_flipped_truth_byte_fails_exactly_that_stripe(self, chunk_size):
        state, event, strategy = self.build("rs-car-random", chunk_size)
        win = window_of(state, event, strategy)
        victim = win.source.solution(len(win) // 2)
        state.data.corrupt(victim.stripe_id, victim.lost_chunk)
        outcome = compute_window(state.code, state.data, win)
        assert outcome.ok == [
            stripe != victim.stripe_id for stripe in win.stripe_id.tolist()
        ]

    def test_a_window_is_one_kernel_dispatch(self):
        """Fleet shape: CFS3, 256-byte chunks.  The GF work of a window
        is one dispatch, and it moves exactly k chunks per stripe."""
        state = build_state(
            CFS3, 0, with_data=True, chunk_size=256, num_stripes=400
        )
        event = FailureInjector(rng=0).fail_random_node(state)
        sol = CarStrategy().solve(state)
        for window in (64, 7):
            with _metrics.telemetry_scope(_metrics.MetricsRegistry()) as reg:
                result = PlanExecutor(state).execute(
                    plan_recovery_streaming(state, event, sol), window=window
                )
            assert result.verified
            stripes = len(result.per_stripe_ok)
            assert stripes == event.num_stripes
            windows_run = -(-stripes // window)
            assert reg.counter("gf.kernel.dispatches").total <= 2 * windows_run
            assert reg.counter("gf.kernel.bytes").total == stripes * state.code.k * 256


class TestStreamingValidation:
    def test_window_must_be_positive(self):
        state, event = failed_cluster(seed=1)
        sol = CarStrategy().solve(state)
        plan = plan_recovery(state, event, sol)
        with pytest.raises(PlanError):
            PlanExecutor(state).execute_streaming(plan, sol, window=0)

    def test_eager_plan_requires_solution(self):
        state, event = failed_cluster(seed=1)
        sol = CarStrategy().solve(state)
        plan = plan_recovery(state, event, sol)
        with pytest.raises(PlanError):
            PlanExecutor(state).execute_streaming(plan)

    def test_eager_plan_must_cover_the_solution(self):
        """A solution with a stripe its plan lacks fails at that stripe's
        window, naming it; what shipped before is a prefix without it,
        and the same prefix at every thread count."""
        state, event = failed_cluster(seed=1)
        sol = CarStrategy().solve(state)
        missing = sol.stripe_ids()[-1]
        plan = plan_recovery(
            state, event, sol.restricted_to(sol.stripe_ids()[:-1])
        )

        def shipped_at(workers):
            shipped = []
            with pytest.raises(
                PlanError, match=f"no stripe plan for stripe {missing}$"
            ):
                PlanExecutor(state).execute(
                    plan, sol, window=4, workers=workers,
                    sink=lambda stripe, rebuilt, ok: shipped.append(stripe),
                )
            return shipped

        one = shipped_at(1)
        assert missing not in one
        assert one == list(sol.stripe_ids())[: len(one)]
        for workers in (3, None):
            assert shipped_at(workers) == one, workers

    def test_streaming_plan_rejects_solution_argument(self):
        state, event = failed_cluster(seed=1)
        sol = CarStrategy().solve(state)
        splan = plan_recovery_streaming(state, event, sol)
        with pytest.raises(PlanError):
            PlanExecutor(state).execute_streaming(splan, sol)

    def test_streaming_plan_is_single_shot(self):
        state, event = failed_cluster(seed=1)
        sol = CarStrategy().solve(state)
        splan = plan_recovery_streaming(state, event, sol)
        PlanExecutor(state).execute_streaming(splan, window=4)
        with pytest.raises(PlanError):
            PlanExecutor(state).execute_streaming(splan, window=4)

    def test_workers_refuse_journal_and_integrity(self, tmp_path):
        """Stage B journals and verifies at any thread count, and the
        journal cursor writes a window's intents where one thread writes
        them: the journal is the same file, ``seq`` and all, at one, two
        and three threads and at the default."""
        state, event = failed_cluster(seed=1)
        sol = CarStrategy().solve(state)
        plan = plan_recovery(state, event, sol)
        journals = {}
        for workers in (1, 2, 3, None):
            path = tmp_path / f"w{workers}.jsonl"
            with RecoveryJournal(path) as journal:
                journal.begin_session({"stripes": list(sol.stripe_ids())})
                result = RobustExecutor(state, journal=journal).execute(
                    plan, sol, window=2, workers=workers
                )
            assert result.verified
            journals[workers] = path.read_bytes()
        replay = JournalReplay.load(tmp_path / "w1.jsonl")
        assert set(replay.committed) == set(sol.stripe_ids())
        for workers in (2, 3, None):
            assert journals[workers] == journals[1], workers

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_must_be_positive(self, workers):
        state, event = failed_cluster(seed=1)
        sol = CarStrategy().solve(state)
        with pytest.raises(PlanError, match="workers"):
            PlanExecutor(state).execute(
                plan_recovery(state, event, sol), sol, workers=workers
            )

    @pytest.mark.parametrize(
        "name, value",
        [
            ("window", 0),
            ("window", 2.5),
            ("window", True),
            ("window", "4"),
            ("workers", 2.5),
            ("workers", True),
            ("workers", False),
            ("workers", "2"),
        ],
    )
    def test_counts_are_positive_ints(self, name, value):
        state, event = failed_cluster(seed=1)
        sol = CarStrategy().solve(state)
        with pytest.raises(PlanError, match=name):
            PlanExecutor(state).execute(
                plan_recovery(state, event, sol), sol, **{name: value}
            )

    @pytest.mark.parametrize("cpus", [{0}, {0, 1, 2}])
    def test_default_workers_are_the_usable_cpus(self, monkeypatch, cpus):
        """Chunks longer than the kernels' short rows decode on one
        thread per usable CPU; short ones on the calling thread,
        whatever the CPU count."""
        seen, decoders = [], set()
        thread_stage = _streaming.thread_stage
        decode = _streaming.compute_window

        def recording(*args, workers, **kwargs):
            seen.append(workers)
            return thread_stage(*args, workers=workers, **kwargs)

        def watched(*args, **kwargs):
            decoders.add(threading.get_ident())
            return decode(*args, **kwargs)

        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(cpus), raising=False
        )
        monkeypatch.setattr(_streaming, "thread_stage", recording)
        monkeypatch.setattr(_streaming, "compute_window", watched)
        for chunk_size, expected in ((64 << 10, len(cpus)), (256, 0)):
            seen.clear()
            decoders.clear()
            state, event = failed_cluster(seed=1, chunk_size=chunk_size)
            sol = CarStrategy().solve(state)
            result = PlanExecutor(state).execute(
                plan_recovery(state, event, sol), sol, window=2
            )
            assert result.verified
            assert seen == [expected]
            on_caller = decoders == {threading.get_ident()}
            assert on_caller == (expected == 0), chunk_size

    def test_default_workers_without_an_affinity_call(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert usable_cpus() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert usable_cpus() == 1

    def test_execute_streaming_is_execute(self):
        assert PlanExecutor.execute_streaming is PlanExecutor.execute


def session_figures(state, event, strategy):
    """(plan, solution) of the uninterrupted, fault-free session."""
    sol = strategy.solve(state)
    return plan_recovery(state, event, sol), sol


class TestStreamingDurability:
    def test_uninterrupted_streaming_session_matches_eager(self, tmp_path):
        state, event = failed_cluster(seed=11, stripes=18)
        plan, sol = session_figures(state, event, CarStrategy())
        outs = []
        for window in (1, 5, None):
            jp = tmp_path / f"w{window}.jsonl"
            out = RecoverySession(
                state, event, CarStrategy(), jp, window=window
            ).run()
            assert out.verified
            assert_ground_truth(state, event, out.reconstructed)
            assert_plan_figures(state, plan, sol, out)
            assert out.robust.wasted_cross_rack_bytes == 0
            assert out.robust.wasted_intra_rack_bytes == 0
            # The journal any window wrote is structurally valid and
            # replays to the same commits.
            replay = JournalReplay.load(jp)
            validate_journal_records(replay.records)
            assert replay.complete
            outs.append((out, replay))
        first, first_replay = outs[0]
        for out, replay in outs[1:]:
            assert out.per_stripe_ok == first.per_stripe_ok
            assert out.bytes_computed_by_node == first.bytes_computed_by_node
            assert strip_seq(replay.committed) == strip_seq(first_replay.committed)

    @settings(max_examples=8, deadline=None)
    @given(
        crash_after=st.integers(5, 80),
        window=st.sampled_from([1, 3, 7, None]),
    )
    def test_crash_mid_window_then_resume_is_byte_identical(
        self, crash_after, window
    ):
        import tempfile

        state, event = failed_cluster(seed=13, stripes=18)
        plan, sol = session_figures(state, event, CarStrategy())
        with tempfile.TemporaryDirectory() as td:
            jp = os.path.join(td, "crash.jsonl")
            session = RecoverySession(
                state, event, CarStrategy(), jp,
                window=window, crash_after_records=crash_after,
            )
            try:
                out = session.run()
            except CoordinatorCrashError:
                # Resume until the session completes (resume itself is
                # fault-free: crash_after_records applies per session
                # object, and we build a fresh one).
                out = RecoverySession(
                    state, event, CarStrategy(), jp, window=window
                ).resume()
            assert out.verified
            assert_ground_truth(state, event, out.reconstructed)
            # Whole-session accounting also matches the uninterrupted
            # run: committed stripes charge once, from their records.
            assert_plan_figures(state, plan, sol, out)

    def test_journal_resumes_under_a_different_window(self, tmp_path):
        state, event = failed_cluster(seed=17, stripes=18)
        jp = tmp_path / "x.jsonl"
        with pytest.raises(CoordinatorCrashError):
            RecoverySession(
                state, event, CarStrategy(), jp,
                window=4, crash_after_records=25,
            ).run()
        crashed = JournalReplay.load(jp)
        assert crashed.committed and crashed.pending
        out = RecoverySession(
            state, event, CarStrategy(), jp, window=1
        ).resume()
        assert out.verified
        assert_ground_truth(state, event, out.reconstructed)
        assert set(out.replayed) == set(crashed.committed)

    def test_helper_crash_in_multi_window_session_replans_and_verifies(
        self, tmp_path
    ):
        state, event = failed_cluster(seed=11, stripes=18)
        sol = CarStrategy().solve(state)
        assert len(sol.solutions) > 3 * 3  # several windows of 3
        # Crash a helper of a stripe in the middle of the third window.
        victim = sol.solutions[7]
        injector = FaultInjector(
            [FaultSpec(kind=FaultKind.HELPER_CRASH,
                       stage=PipelineStage.DISK_READ,
                       stripe_id=victim.stripe_id)],
            seed=1,
        )
        jp = tmp_path / "j.jsonl"
        out = RecoverySession(
            state, event, CarStrategy(), jp, injector=injector, window=3
        ).run()
        assert out.verified
        assert_ground_truth(state, event, out.reconstructed)
        robust = out.robust
        assert robust.replans == 1 and robust.rounds == 2
        assert len(robust.dead_nodes) == 1
        # The re-plan avoids the dead helper for every stripe it covers,
        # and the stripes shipped before the crash were not repeated.
        assert {s.stripe_id for s in robust.final_solution.solutions} == {
            s.stripe_id for s in sol.solutions[7:]
        }
        for s in robust.final_solution.solutions:
            for c in s.helpers:
                assert (
                    state.placement.node_of(s.stripe_id, c)
                    not in robust.dead_nodes
                )
        replay = JournalReplay.load(jp)
        validate_journal_records(replay.records)
        assert replay.complete

    def test_record_order_at_window_one(self, tmp_path):
        state, event = failed_cluster(seed=11, stripes=18)
        jp = tmp_path / "j.jsonl"
        RecoverySession(state, event, CarStrategy(), jp, window=1).run()
        plan, sol = session_figures(state, event, CarStrategy())
        records = [r for r in read_journal(jp) if "stripe_id" in r]
        # A window's intents are written when it enters the pipeline,
        # one window ahead of the one being shipped; a stripe's own
        # records then follow in pipeline order.
        pairs = list(zip(sol.solutions, plan.stripe_plans))
        expected = [("intent", pairs[0][0].stripe_id)]
        for i, (s, sp) in enumerate(pairs):
            sid = s.stripe_id
            if i + 1 < len(pairs):
                expected.append(("intent", pairs[i + 1][0].stripe_id))
            # Per delegate rack, in rack order: decode, then its partial
            # crosses the core; then the replacement node combines.
            delegate_racks = [
                h[0] for h in sp.window.helpers(sp.row) if h[5]
            ]
            for rack in delegate_racks:
                expected.append(("stage", sid, "partial_decode", rack))
                expected.append(("stage", sid, "cross_transfer", rack))
            expected.append(("stage", sid, "final_combine"))
            expected.append(("commit", sid))
        got = [
            (r["rec"], r["stripe_id"])
            + ((r["stage"],) if r["rec"] == "stage" else ())
            + ((r["rack"],) if r.get("is_partial") else ())
            for r in records
        ]
        assert got == expected

    def test_record_order_at_window_one_on_two_threads(
        self, tmp_path, stage_a_threads
    ):
        self.test_record_order_at_window_one(tmp_path)
        assert stage_a_threads and set(stage_a_threads) == {2}

    @pytest.mark.parametrize("window", [1, 4])
    def test_failed_verification_commits_and_sinks_nothing(
        self, window, tmp_path
    ):
        state, event = failed_cluster(seed=11, stripes=18)
        sol = CarStrategy().solve(state)
        plan = plan_recovery(state, event, sol)
        bad = sol.solutions[5].stripe_id

        class Corrupt(Exception):
            pass

        class CorruptingNetwork(PlanExecutor):
            def _deliver(self, stage, buf, *, stripe_id, **where):
                if stripe_id == bad:
                    raise Corrupt(stripe_id)
                super()._deliver(stage, buf, stripe_id=stripe_id, **where)

        journal = RecoveryJournal(tmp_path / "j.jsonl")
        journal.begin_session(
            {"stripes": [s.stripe_id for s in sol.solutions]}
        )
        sunk = []
        with pytest.raises(Corrupt):
            CorruptingNetwork(state, journal=journal).execute(
                plan, sol, window=window,
                sink=lambda sid, buf, ok: sunk.append(sid),
            )
        journal.close()
        before_bad = [s.stripe_id for s in sol.solutions[:5]]
        assert sunk == before_bad
        replay = JournalReplay.load(tmp_path / "j.jsonl")
        assert sorted(replay.committed) == before_bad
        assert replay.pending[0] == bad


def strip_seq(commits):
    """Commit records without their position in the journal."""
    return {
        sid: {k: v for k, v in rec.items() if k != "seq"}
        for sid, rec in commits.items()
    }


def crash_chain_injector():
    """Two helper crashes then persistent corruption: re-plan twice,
    then ride the retransmit ladder."""
    return FaultInjector(
        [
            FaultSpec(kind=FaultKind.HELPER_CRASH,
                      stage=PipelineStage.INTRA_TRANSFER, max_fires=1),
            FaultSpec(kind=FaultKind.DELEGATE_CRASH,
                      stage=PipelineStage.PARTIAL_DECODE, max_fires=1),
            FaultSpec(kind=FaultKind.IN_FLIGHT_CORRUPT,
                      stage=PipelineStage.CROSS_TRANSFER, max_fires=3),
            FaultSpec(kind=FaultKind.FLOW_DROP,
                      stage=PipelineStage.CROSS_TRANSFER, max_fires=2),
        ],
        seed=5,
    )


class TestWindowIndependenceUnderFaults:
    def run_chain(self, path, window):
        state, event = failed_cluster(seed=11, stripes=18, chunk_size=128)
        out = RecoverySession(
            state, event, CarStrategy(), path,
            injector=crash_chain_injector(),
            backoff=BackoffPolicy(max_attempts=4),
            window=window,
        ).run()
        assert out.verified
        assert_ground_truth(state, event, out.reconstructed)
        return out, JournalReplay.load(path)

    def test_crash_chain_is_identical_at_every_window(self, tmp_path):
        base, base_replay = self.run_chain(tmp_path / "w1.jsonl", 1)
        assert base.robust.replans == 2
        assert base.robust.wasted_intra_rack_bytes > 0
        assert base.robust.backoff_seconds > 0
        for window in (3, 64, None):
            out, replay = self.run_chain(tmp_path / f"w{window}.jsonl", window)
            assert out.robust.log == base.robust.log
            for field in (
                "wasted_cross_rack_bytes", "wasted_intra_rack_bytes",
                "rounds", "replans", "dead_nodes", "backoff_seconds",
            ):
                assert getattr(out.robust, field) == getattr(base.robust, field)
            assert_identical(out.robust.result, base.robust.result)
            validate_journal_records(replay.records)
            assert replay.complete
            assert strip_seq(replay.committed) == strip_seq(base_replay.committed)

    def test_coordinator_crash_replays_identically_at_every_window(
        self, tmp_path
    ):
        def crashed_replay(window):
            state, event = failed_cluster(seed=11, stripes=18)
            victim = CarStrategy().solve(state).solutions[6].stripe_id
            injector = FaultInjector(
                [FaultSpec(kind=FaultKind.COORDINATOR_CRASH,
                           stage=PipelineStage.FINAL_COMBINE,
                           stripe_id=victim)],
                seed=3,
            )
            jp = tmp_path / f"c{window}.jsonl"
            with pytest.raises(CoordinatorCrashError):
                RecoverySession(
                    state, event, CarStrategy(), jp,
                    injector=injector, window=window,
                ).run()
            replay = JournalReplay.load(jp)
            out = RecoverySession(
                state, event, CarStrategy(), jp, window=window
            ).resume()
            assert out.verified
            assert_ground_truth(state, event, out.reconstructed)
            return strip_seq(replay.committed), set(out.executed)

        base = crashed_replay(1)
        assert len(base[0]) == 6
        for window in (3, 64, None):
            assert crashed_replay(window) == base

    def test_robust_run_outside_a_session_takes_a_window(self):
        state, event = failed_cluster(seed=11, stripes=18)
        sol = CarStrategy().solve(state)
        plan = plan_recovery(state, event, sol)
        runs = [
            RobustExecutor(state, injector=crash_chain_injector()).run(
                event, sol, window=window
            )
            for window in (1, 4)
        ]
        assert runs[0].log == runs[1].log
        assert_identical(runs[0].result, runs[1].result)


#: (config, stripes, chunk bytes, window): a fleet-shaped state of many
#: small chunks and a bulk-shaped one of few large chunks, each cut into
#: several windows so that stage-A threads have windows to share.
STAGE_A_SHAPES = {
    "fleet": (CFS3, 600, 256, 16),
    "bulk": (CFS2, 16, 64 << 10, 2),
}


class TestStageAThreads:
    """Stage A fanned over threads: every window is one decode and stage
    B ships in order, so the thread count changes no figure."""

    @pytest.mark.parametrize("durable", [False, True])
    @pytest.mark.parametrize("strat", ["car", "rr"])
    @pytest.mark.parametrize("shape", sorted(STAGE_A_SHAPES))
    def test_workers_change_nothing(self, tmp_path, shape, strat, durable):
        config, stripes, chunk_size, window = STAGE_A_SHAPES[shape]
        state = build_state(
            config, seed=5, with_data=True, chunk_size=chunk_size,
            num_stripes=stripes,
        )
        event = FailureInjector(rng=5).fail_random_node(state)
        sol = strategy_for(strat, 5).solve(state)
        plan = plan_recovery(state, event, sol)
        results = []
        for workers in (None, 2, 3):
            journal = None
            if durable:
                journal = RecoveryJournal(tmp_path / f"{workers}.jsonl")
                journal.begin_session({"stripes": list(sol.stripe_ids())})
            executor = (RobustExecutor if durable else PlanExecutor)(
                state, journal=journal
            )
            results.append(
                executor.execute(plan, sol, window=window, workers=workers)
            )
            if journal is not None:
                journal.close()
        assert_ground_truth(state, event, results[0].reconstructed)
        assert_plan_figures(state, plan, sol, results[0])
        for fanned in results[1:]:
            assert_identical(results[0], fanned)

    def test_default_workers_cross_over_at_the_short_rows(self, monkeypatch):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False
        )
        for chunk_size in (1, 256, _SHORT_ROW):
            assert _streaming.default_workers(chunk_size) == 0
        for chunk_size in (_SHORT_ROW + 1, _TILE, 1 << 20):
            assert _streaming.default_workers(chunk_size) == 3

    def test_short_rows_decode_on_the_calling_thread(self):
        """At the default, a short-row window decodes on the shipping
        thread, still one window ahead: window i+1 is decoded before
        window i ships, and no decode overlaps a shipment."""
        state, event = failed_cluster(seed=7, stripes=40, chunk_size=256)
        sol = CarStrategy().solve(state)
        tracer = Tracer()
        PlanExecutor(state, tracer).execute(
            plan_recovery(state, event, sol), sol, window=4
        )
        spans = {
            (e["name"][12:], e["attrs"]["window"]): e
            for e in tracer.events if e["name"].startswith("exec.stream.")
        }
        last = max(w for _, w in spans)
        assert last >= 3
        for i in range(last + 1):
            assert spans["aggregate", i]["attrs"]["thread"] == 0
            ship = spans["ship", i]
            for j in range(last + 1):
                decoded = spans["aggregate", j]
                assert (
                    decoded["end"] <= ship["start"]
                    or decoded["start"] >= ship["end"]
                ), (i, j)
            if i < last:
                assert spans["aggregate", i + 1]["end"] <= ship["start"]

    @pytest.mark.parametrize("workers", [None, 2])
    def test_a_decode_error_surfaces_when_its_window_ships(
        self, monkeypatch, workers
    ):
        """On the calling thread as on a pool, a window whose decode
        raises is raised when stage B reaches it: the windows before it
        ship first."""
        state, event = failed_cluster(seed=7, stripes=40)
        sol = CarStrategy().solve(state)
        decode = _streaming.compute_window
        calls = itertools.count()

        def failing(*args, **kwargs):
            if next(calls) == 2:
                raise RuntimeError("decode failed")
            return decode(*args, **kwargs)

        monkeypatch.setattr(_streaming, "compute_window", failing)
        sunk = []
        with pytest.raises(RuntimeError, match="decode failed"):
            PlanExecutor(state).execute(
                plan_recovery(state, event, sol), sol, window=3,
                sink=lambda sid, buf, ok: sunk.append(sid), workers=workers,
            )
        assert sunk == sorted(sol.stripe_ids())[:6]

    @pytest.mark.parametrize("workers", [1, 3])
    def test_aggregate_spans_name_their_thread(self, workers):
        state, event = failed_cluster(seed=7, stripes=40)
        sol = CarStrategy().solve(state)
        tracer = Tracer()
        PlanExecutor(state, tracer).execute(
            plan_recovery(state, event, sol), sol, window=2, workers=workers
        )
        spans = [e["attrs"] for e in tracer.events
                 if e["name"] == "exec.stream.aggregate"]
        windows = -(-len(sol.solutions) // 2)
        assert [a["window"] for a in spans] == list(range(windows))
        assert {a["thread"] for a in spans} <= set(range(workers))

    @pytest.mark.parametrize("share", [0.2, 0.5, 0.8])
    def test_workers_crash_mid_window_then_resume_byte_identically(
        self, tmp_path, share
    ):
        """A journalled two-thread run dies after ``share`` of an
        uninterrupted run's records; a resume that runs the pending
        stripes, again on two threads, leaves the same commits."""
        state, event = failed_cluster(seed=13, stripes=18)
        sol = CarStrategy().solve(state)
        meta = {"stripes": list(sol.stripe_ids())}

        def run(solution, workers, journal):
            PlanExecutor(state, journal=journal).execute(
                plan_recovery(state, event, solution), solution,
                window=3, workers=workers,
            )

        whole = tmp_path / "whole.jsonl"
        with RecoveryJournal(whole) as journal:
            journal.begin_session(meta)
            run(sol, None, journal)
        expected = JournalReplay.load(whole)

        crashed = tmp_path / "crashed.jsonl"
        journal = RecoveryJournal(
            crashed,
            crash_after_records=int(share * len(expected.records)),
        )
        journal.begin_session(meta)
        with pytest.raises(CoordinatorCrashError):
            run(sol, 2, journal)
        replay = JournalReplay.load(crashed)
        assert replay.pending
        rest = sol.restricted_to(replay.pending)
        with RecoveryJournal(crashed, append=True, replay=replay) as journal:
            journal.resume_marker(
                replayed=sorted(replay.committed),
                pending=sorted(replay.pending),
            )
            run(rest, 2, journal)

        resumed = JournalReplay.load(crashed)
        assert strip_seq(resumed.committed) == strip_seq(expected.committed)
        for stripe in expected.committed:
            assert np.array_equal(
                resumed.committed_chunk(stripe),
                expected.committed_chunk(stripe),
            )


class TestStreamingHelpers:
    def test_windows_partition_in_order(self):
        ids = np.arange(10)
        columns = SolutionColumns(ids, ids, ids, ids[:, None], ids[:, None])
        chunks = [w.stripe_id.tolist() for w in columns.windows(4)]
        assert chunks == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]

    def test_repair_signature_batches_equal_repairs(self):
        state, event = failed_cluster(seed=4)
        sol = CarStrategy().solve(state)
        a, b = sol.solutions[0], sol.solutions[1]
        for aggregated in (True, False):
            win = plan_window(
                state, event.replacement_node,
                SolutionColumns.from_solutions([a, b, a]),
                aggregated=aggregated,
            )
            ids = win.signature.tolist()
            assert ids[0] == ids[2]
            assert len(win.signatures) == len(set(ids))
            if (a.lost_chunk, a.helpers) != (b.lost_chunk, b.helpers):
                assert ids[0] != ids[1]
