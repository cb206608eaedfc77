"""The four workloads and the harness's own correctness oracle.

Every workload builds its inputs from the seed alone (placement, chunk
bytes, failed node, read sequence), runs one *operation* at a time in a
closed loop — a whole node repair for the three repair workloads, one
client read for the service — and checks every rebuilt byte against
``state.data`` itself instead of trusting ``verified`` / reply ``ok``.

The failed node is drawn by the seed among the nodes of rack 0: the
rack of the failure changes the exact traffic figures systematically
(CFS3's racks are uneven: lambda is 1.27 or 1.51 depending on the rack),
and the driver's steadiness check compares runs across ten seeds.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import random
import statistics
import time
from pathlib import Path

import numpy as np

from repro.cluster.failure import FailureInjector
from repro.durable import JournalReplay, RecoverySession, read_journal
from repro.errors import CoordinatorCrashError, ReproError
from repro.experiments.configs import CFS1, CFS2, CFS3, MB, build_state
from repro.recovery.baselines import CarStrategy, RandomRecoveryStrategy
from repro.recovery.executor import PlanExecutor
from repro.recovery.metrics import traffic_report
from repro.recovery.planner import plan_recovery, plan_recovery_streaming
from repro.service import LocalCluster
from repro.sim import RecoverySimulator

#: Stripes fed to the fluid simulator for ``model_s_per_chunk`` (the
#: simulator is quadratic-ish in flows; 64 stripes keep it under 1 s).
SIM_STRIPES = 64
STREAM_WINDOW = 256


def rack0_victim(state, seed: int) -> int:
    """The seed's pick among rack 0's non-empty nodes."""
    injector = FailureInjector(rng=seed)
    return injector.rng.choice(
        [
            n for n in injector.candidate_nodes(state)
            if state.topology.rack_of(n) == 0
        ]
    )


class Workload:
    """State, oracle counters and samples shared by all workloads.

    ``samples`` holds one ``(kind, seconds, rebuilt_bytes, traced)`` per
    timed operation; ``attempted`` / ``failed`` count every oracle check
    (a rebuilt stripe, a traffic cross-check, a read, a resume).
    """

    name = ""
    config = None
    stripes = 0
    chunk = 0
    smoke_stripes = 0
    smoke_chunk = 0
    warmups = 0

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        if smoke:
            self.stripes, self.chunk = self.smoke_stripes, self.smoke_chunk
            self.warmups = 1
        self.samples: list[tuple[str, float, int, bool]] = []
        self.attempted = 0
        self.failed = 0
        self.state = None
        self.event = None
        self.lost: dict[int, int] = {}
        self.unchecked: set[int] = set()
        self.executed_cross_rack_bytes = 0

    # -- set-up ----------------------------------------------------------

    async def setup(self, rec) -> None:
        with rec.span("cluster.build_state"):
            self.state = build_state(
                self.config, self.seed, with_data=True,
                chunk_size=self.chunk, num_stripes=self.stripes,
            )
        self.event = self.state.fail_node(rack0_victim(self.state, self.seed))
        self.lost = dict(self.event.lost_chunks)

    async def finish(self, rec) -> dict:
        """Work after the timed loop that feeds the oracle; returns the
        per-layer figures it measured on the way."""
        return {}

    async def teardown(self) -> None:
        pass

    # -- one operation ---------------------------------------------------

    async def op(self, rec) -> None:
        """One whole-node repair, timed with its byte check.

        ``repair`` returns stripe -> rebuilt chunk (or checks stripes as
        they are rebuilt); a stripe that was not rebuilt, or whose repair
        raised, counts as failed.
        """
        with rec.span("bench.rep"):
            t0 = time.perf_counter()
            self.unchecked = set(self.lost)
            try:
                rebuilt = self.repair(rec) or {}
            except ReproError:
                rebuilt = {}
            with rec.span("bench.verify"):
                for stripe in sorted(self.unchecked):
                    self.check_stripe(stripe, rebuilt.get(stripe))
            seconds = time.perf_counter() - t0
        self.record("repair", seconds, self.rebuilt_bytes_per_rep, rec)

    def repair(self, rec):
        raise NotImplementedError

    # -- oracle ----------------------------------------------------------

    def check_stripe(self, stripe: int, rebuilt) -> None:
        """Compare one rebuilt chunk with the ground-truth bytes."""
        self.attempted += 1
        self.unchecked.discard(stripe)
        truth = self.state.data.chunk(stripe, self.lost[stripe])
        if rebuilt is None or not np.array_equal(rebuilt, truth):
            self.failed += 1

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def record(self, kind, seconds, rebuilt_bytes, rec) -> None:
        self.samples.append((kind, seconds, rebuilt_bytes, rec.enabled))

    @property
    def stripes_per_op(self) -> int:
        return self.event.num_stripes

    @property
    def rebuilt_bytes_per_rep(self) -> int:
        return self.event.num_stripes * self.chunk

    # -- exact figures ---------------------------------------------------

    def exact_metrics(self) -> dict:
        """Traffic figures of the executed failure, cross-checked.

        The executed cross-rack bytes (counted by the executor) must
        equal what ``traffic_report`` derives from the solution — two
        figures computed in different ways.
        """
        state, chunk = self.state, self.chunk
        solution = CarStrategy().solve(state)
        car = traffic_report(solution, chunk)
        rr = traffic_report(
            RandomRecoveryStrategy(rng=self.seed).solve(state), chunk
        )
        self.check(self.executed_cross_rack_bytes == car.total_bytes)
        plan = plan_recovery(state, self.event, solution)
        head = dataclasses.replace(
            plan, stripe_plans=plan.stripe_plans[:SIM_STRIPES]
        )
        timing = RecoverySimulator(state).simulate(head, chunk)
        return {
            "cross_rack_chunks_per_stripe": (
                self.executed_cross_rack_bytes / chunk / car.num_stripes
            ),
            "cross_rack_saving_vs_rr": 1.0 - car.total_chunks / rr.total_chunks,
            "lambda_balance": solution.load_balancing_rate(),
            "model_s_per_chunk": float(timing.time_per_chunk),
        }


class BulkRepair(Workload):
    """Paper-size node rebuild through the eager executor."""

    name = "bulk_repair_4m"
    config, stripes, chunk = CFS2, 20, 4 * MB
    smoke_stripes, smoke_chunk = 20, 4096
    warmups = 3

    def repair(self, rec):
        state = self.state
        with rec.span("recovery.solve"):
            solution = CarStrategy().solve(state)
        with rec.span("planner.plan"):
            plan = plan_recovery(state, self.event, solution)
        with rec.span("executor.execute"):
            result = PlanExecutor(state).execute(plan, solution)
        self.executed_cross_rack_bytes = result.cross_rack_bytes
        return result.reconstructed


class FleetStream(Workload):
    """Many tiny stripes through the streaming executor."""

    name = "fleet_stream_256b"
    config, stripes, chunk = CFS3, 4000, 256
    smoke_stripes, smoke_chunk = 400, 256
    warmups = 2

    #: Set by the telemetry probe; ``None`` is the executor's quiet default.
    tracer = None

    def repair(self, rec):
        state = self.state
        with rec.span("recovery.solve"):
            solution = CarStrategy().solve(state)
        with rec.span("planner.plan"):
            plan = plan_recovery_streaming(state, self.event, solution)
        with rec.span("streaming.execute"):
            result = PlanExecutor(state, tracer=self.tracer).execute_streaming(
                plan, window=STREAM_WINDOW,
                sink=lambda stripe, rebuilt, ok: self.check_stripe(stripe, rebuilt),
            )
        self.executed_cross_rack_bytes = result.cross_rack_bytes


class DurableRepair(Workload):
    """The journalled, integrity-verified session, then crash/resume."""

    name = "durable_repair_1m"
    config, stripes, chunk = CFS1, 48, MB
    smoke_stripes, smoke_chunk = 48, 1024
    warmups = 2
    resumes = 3

    def __init__(self, seed, smoke, workdir) -> None:
        super().__init__(seed, smoke, workdir)
        self.journal_path = workdir / "journal.jsonl"
        self.last_result = None
        self.resume_samples: list[dict] = []

    def session(self, **kwargs) -> RecoverySession:
        return RecoverySession(
            self.state, self.event, CarStrategy(), self.journal_path, **kwargs
        )

    def repair(self, rec):
        with rec.span("durable.session_run"):
            result = self.session().run()
        self.executed_cross_rack_bytes = result.cross_rack_bytes
        self.last_result = result
        return result.reconstructed

    async def finish(self, rec) -> dict:
        figures = self.journal_figures()
        self.crash_and_resume(rec)
        resumes = self.resume_samples
        return {
            **figures,
            "durable.resume_s": statistics.median(r["resume_s"] for r in resumes),
            "durable.replay_load_s": statistics.median(
                r["replay_load_s"] for r in resumes
            ),
            "durable.resume_replayed": resumes[-1]["replayed"],
            "durable.resume_executed": resumes[-1]["executed"],
            "durable.reshipped_cross_rack_bytes": sum(
                r["reshipped"] for r in resumes
            ),
        }

    def journal_figures(self) -> dict:
        """Size of the last complete journal, and what it holds on disk.

        Durability check: every committed chunk read back from the file
        alone must equal the ground truth.
        """
        replay = JournalReplay.load(self.journal_path)
        for stripe in self.lost:
            self.check_stripe(stripe, replay.committed_chunk(stripe))
        size = self.journal_path.stat().st_size
        return {
            "durable.journal_records": len(replay.records),
            "durable.journal_bytes": size,
            "durable.journal_bytes_per_rebuilt_byte": (
                size / self.rebuilt_bytes_per_rep
            ),
        }

    def crash_and_resume(self, rec) -> None:
        """Crash at the record boundary nearest half the commits, tear the
        journal's tail mid-line, then time ``resume()`` and check that it
        is byte-exact and re-ships nothing for committed stripes."""
        commits = [
            r["seq"] for r in read_journal(self.journal_path)
            if r["rec"] == "commit"
        ]
        boundary = commits[len(commits) // 2 - 1]
        per_stripe = {
            s.stripe_id: sum(s.cross_rack_chunks(True).values()) * self.chunk
            for s in CarStrategy().solve(self.state).solutions
        }
        for _ in range(self.resumes):
            try:
                self.session(crash_after_records=boundary).run()
            except CoordinatorCrashError:
                pass
            with self.journal_path.open("a", encoding="utf-8") as fh:
                fh.write('{"seq": %d, "rec": "comm' % (boundary + 1))
            with rec.span("durable.replay_load"):
                t0 = time.perf_counter()
                JournalReplay.load(self.journal_path)
                load_s = time.perf_counter() - t0
            with rec.span("durable.resume"):
                t0 = time.perf_counter()
                result = self.session().resume()
                resume_s = time.perf_counter() - t0
            bad = sum(
                not np.array_equal(
                    result.reconstructed.get(stripe),
                    self.state.data.chunk(stripe, chunk),
                )
                for stripe, chunk in self.lost.items()
            )
            reshipped = result.live_cross_rack_bytes - sum(
                per_stripe[s] for s in result.executed
            )
            self.check(bad == 0 and reshipped == 0)
            self.resume_samples.append(
                {
                    "resume_s": resume_s,
                    "replay_load_s": load_s,
                    "replayed": len(result.replayed),
                    "executed": len(result.executed),
                    "reshipped": reshipped,
                }
            )


class ServiceRead(Workload):
    """Degraded and healthy reads over the socket service."""

    name = "service_read_1m"
    config, stripes, chunk = CFS2, 48, MB
    smoke_stripes, smoke_chunk = 24, 4096
    warmups = 100
    degraded_share = 0.7
    zipf_s = 1.2
    stripes_per_op = 1

    async def setup(self, rec) -> None:
        # The modelled link is made effectively infinite so that wall time
        # is real work, not modelled delay.  Heartbeats are 50 ms apart and
        # a lease lasts 2 s of wall time (10 modelled s at speedup=5): with
        # the default 0.5 s lease, one stall of the shared host expired
        # every lease at once (DEAD is sticky) in 1 of 60 processes.
        with rec.span("cluster.build_state"):
            self.cluster = LocalCluster(
                config=self.config, seed=self.seed, num_stripes=self.stripes,
                chunk_size=self.chunk, speedup=5, link_capacity=1e13,
                suspect_after=4.0, dead_after=10.0, workdir=self.workdir,
            )
        self.state = self.cluster.state
        with rec.span("service.boot"):
            await self.cluster.start()
        victim = rack0_victim(self.state, self.seed)
        self.cluster.kill_node(victim)
        with rec.span("service.detect"):
            while self.cluster.coordinator.repair is None:
                await asyncio.sleep(0.002)
        with rec.span("service.repair"):
            await self.cluster.wait_repair()
        self.event = self.state.fail_node(victim)
        self.lost = dict(self.event.lost_chunks)
        repair = self.cluster.coordinator.repair.result
        for stripe in self.lost:
            self.check_stripe(stripe, repair.reconstructed.get(stripe))
        self.executed_cross_rack_bytes = repair.cross_rack_bytes
        self.client = await self.cluster.client()
        self.requests = self.request_stream()

    def request_stream(self):
        """The seed's read sequence: 70 % degraded, Zipf(1.2) rank within
        each population over a seed-shuffled order."""
        rng = random.Random(self.seed)
        populations = []
        for stripes in (
            sorted(self.lost),
            sorted(set(range(self.stripes)) - set(self.lost)),
        ):
            rng.shuffle(stripes)
            weights = list(
                itertools.accumulate(
                    1.0 / (rank + 1) ** self.zipf_s
                    for rank in range(len(stripes))
                )
            )
            populations.append((stripes, weights))
        degraded, healthy = populations
        while True:
            stripes, weights = (
                degraded
                if rng.random() < self.degraded_share or not healthy[0]
                else healthy
            )
            yield rng.choices(stripes, cum_weights=weights)[0]

    async def op(self, rec) -> None:
        stripe = next(self.requests)
        with rec.span("bench.rep"):
            t0 = time.perf_counter()
            try:
                with rec.span("service.read"):
                    reply = await self.client.read(stripe)
            except ReproError:
                reply = None
            seconds = time.perf_counter() - t0
            with rec.span("bench.verify"):
                expected = self.lost.get(stripe)
                self.check(
                    reply is not None
                    and reply["degraded"] == (expected is not None)
                    and (expected is None or reply["chunk"] == expected)
                    and reply["data"]
                    == self.state.data.chunk(stripe, reply["chunk"]).tobytes()
                )
        kind = "degraded" if stripe in self.lost else "healthy"
        self.record(kind, seconds, self.chunk, rec)

    async def teardown(self) -> None:
        await self.client.close()
        await self.cluster.stop()


WORKLOADS = {
    cls.name: cls for cls in (BulkRepair, FleetStream, DurableRepair, ServiceRead)
}
