"""One workload in one fresh process: set-up, warm-up, timed loop, oracle.

Started by ``run.py`` with a JSON spec as its only argument; prints one
JSON object as the last line of its standard output.  An untraced run
is several such processes, each measuring a share of ``--seconds``:
``run.py`` pools their samples, so that one process's luck with memory
layout or a noisy neighbour does not set the run's medians.
"""

from __future__ import annotations

import asyncio
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

from repro.experiments.configs import MB

from layers import EXTRAS
from probes import coordination_probe, gf_replay, size_probes
from spans import Recorder
from workloads import SIM_STRIPES, WORKLOADS



async def run(spec: dict) -> dict:
    trace = bool(spec["trace"])
    workdir = Path(spec["workdir"])
    workload = WORKLOADS[spec["workload"]](spec["seed"], spec["smoke"], workdir)
    rec = Recorder(enabled=trace)

    rec.rep = "setup"
    with rec.span("bench.setup"):
        await workload.setup(rec)
        for _ in range(workload.warmups):
            await workload.op(rec)
    setup_s = time.time() - spec["spawned_at"]

    # Timed loop.  In the traced pass every other operation records
    # spans, so traced and untraced operations see the same drift.
    workload.samples.clear()
    deadline = time.perf_counter() + spec["seconds"]
    ops = 0
    while ops < (4 if trace else 2) or time.perf_counter() < deadline:
        rec.enabled = trace and ops % 2 == 1
        rec.rep = ops
        await workload.op(rec)
        ops += 1
    rec.enabled = trace
    workload.timed = list(workload.samples)

    def seconds_of(traced: bool, kinds=("repair", "degraded")):
        return [s[1] for s in workload.timed if s[0] in kinds and s[3] == traced]

    rates = [
        s[2] / MB / s[1]
        for s in workload.timed
        if s[0] in ("repair", "degraded") and not s[3]
    ]
    op_s = statistics.median(seconds_of(False))
    stripes_per_op = workload.stripes_per_op

    layers: dict = {}
    if trace:
        if stripes_per_op > 1:
            recorded = await gf_replay(workload, rec, 1, op_s)
        else:
            # Reads come in a degraded/healthy mix: record 20 of them and
            # compare with the mean read of the same mix.
            mean_s = statistics.fmean(s[1] for s in workload.timed if not s[3])
            recorded = await gf_replay(workload, rec, 20, mean_s)
        layers.update(recorded)
        layers.update(await EXTRAS[workload.name](workload, rec, layers["gf.replay_s"]))
    layers.update(await workload.finish(rec))
    await workload.teardown()

    exact = workload.exact_metrics()
    peak_rss_MiB = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if trace:
        build_s = rec.median("cluster.build_state")
        data_MiB = (
            workload.stripes * workload.state.code.k * workload.chunk / MB
        )
        layers.update(
            {
                "cluster.build_state_s": build_s,
                "cluster.encode_MiBps": data_MiB / build_s,
                "recovery.stripes_per_s": stripes_per_op / op_s,
                "bench.trace_overhead_ratio": (
                    statistics.median(seconds_of(True)) / op_s
                ),
                "bench.unattributed_share": rec.self_share("bench.rep"),
                "bench.failed_share": workload.failed / workload.attempted,
            }
        )
        layers.update(
            coordination_probe(
                rec, workload.state, workload.event, workload.chunk, SIM_STRIPES
            )
        )
        layers.update(
            size_probes(
                0.0 if spec["smoke"] else 0.25, workdir, Path(spec["src_dir"])
            )
        )
        layers["bench.loadavg_1m"] = os.getloadavg()[0]
        rec.write(spec["trace_path"])

    return {
        "setup_s": setup_s,
        "repair_MiBps": rates,
        "op_seconds": seconds_of(False),
        "stripes_per_op": stripes_per_op,
        "exact": exact,
        "peak_rss_MiB": peak_rss_MiB,
        "per_layer": layers,
        "attempted": workload.attempted,
        "failed": workload.failed,
    }


if __name__ == "__main__":
    print(json.dumps(asyncio.run(run(json.loads(sys.argv[1])))))
