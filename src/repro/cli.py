"""Command-line interface: regenerate any table or figure of the paper.

``repro-car <subcommand> --help`` lists the flags that subcommand takes.

Examples::

    repro-car fig7                 # cross-rack traffic (Figure 7)
    repro-car fig8 --runs 10       # load balancing (Figure 8), 10 runs
    repro-car fig9 --runs 3        # recovery time (Figure 9)
    repro-car fig10                # time breakdown (Figure 10)
    repro-car ablation             # traffic decomposition + sweeps
    repro-car all --runs 5         # everything, fast settings

Telemetry::

    repro-car fig7 --runs 2 --telemetry out/   # persist trace + metrics
    repro-car trace out/CFS1/trace.jsonl       # per-stage/per-rack summary
    repro-car metrics out/CFS1/metrics.json    # counters/histograms/caches

Durability::

    repro-car scrub --config CFS2 --corrupt 3     # corrupt, detect, heal
    repro-car durable out/journal.jsonl           # journalled recovery
    repro-car durable out/journal.jsonl --crash-after 9   # ...then crash
    repro-car resume out/journal.jsonl            # resume from the journal
    repro-car durable out/journal.jsonl --window 32 --progress  # paced

Streaming hot path::

    repro-car stream --stripes 5000               # throughput + peak RSS
    repro-car stream --json out/stream.json       # machine-readable artifact
    repro-car stream --telemetry out/ --progress  # trace + live status line
    repro-car stream --workers 2 --shm            # exit 2: one process, no pool

Observatory::

    repro-car report out/trace.jsonl              # per-stage attribution
    repro-car export out/trace.jsonl --out t.json # Perfetto-loadable trace
    repro-car export out/trace.jsonl --folded t.folded  # flamegraph stacks

Service::

    repro-car serve out/                          # live cluster, one failure
    repro-car serve out/ --repair-cap 65536       # cap repair bandwidth
    repro-car serve out/ --crash-after 18         # crash; re-run resumes
    repro-car bench-service out/                  # repair-cap sweep table
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable, Sequence
from pathlib import Path
from typing import NamedTuple

from repro.errors import CoordinatorCrashError

from repro.experiments import (
    ALL_CFS,
    CFS1,
    run_fig7,
    run_fig8,
    run_fig9,
    run_fig10,
    run_greedy_vs_optimal,
    run_oversubscription_sweep,
    run_traffic_ablation,
)
from repro.experiments.configs import config_by_name
from repro.experiments.report import (
    render_fig7,
    render_fig8,
    render_fig9,
    render_fig10,
    render_greedy_vs_optimal,
    render_oversubscription,
    render_traffic_ablation,
)

__all__ = ["main", "build_parser", "COMMANDS", "SUBCOMMANDS"]


def _maybe_plot(args, results, title, series_of, y_label):
    if not args.plot:
        return ""
    from repro.experiments.plots import series_chart

    charts = [
        series_chart(f"{title} — {res.config.name}", series_of(res), y_label)
        for res in results
    ]
    return "\n\n" + "\n\n".join(charts)


def _write_json(payload, path: str) -> str:
    """Write ``payload`` as the ``--json`` artifact; the line that says so."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return f"wrote JSON results to {path}"


def _run_trace(args: argparse.Namespace) -> str:
    from repro.obs import read_jsonl, render_trace

    return render_trace(read_jsonl(args.path))


def _run_metrics(args: argparse.Namespace) -> str:
    from repro.obs import render_metrics

    with open(args.path, encoding="utf-8") as fh:
        return render_metrics(json.load(fh))


def _run_report(args: argparse.Namespace) -> str:
    from repro.obs import attribute, read_jsonl, render_attribution

    return render_attribution(attribute(read_jsonl(args.path)))


def _run_export(args: argparse.Namespace) -> str:
    from repro.obs import (
        read_jsonl,
        to_chrome_trace,
        validate_chrome_trace,
        write_collapsed_stacks,
    )

    events = read_jsonl(args.path)
    out = (
        Path(args.out)
        if args.out is not None
        else Path(args.path).with_suffix(".chrome.json")
    )
    payload = to_chrome_trace(events)
    count = validate_chrome_trace(payload)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8"
    )
    lines = [
        f"wrote {count} trace events to {out}"
        " (open in https://ui.perfetto.dev or chrome://tracing)"
    ]
    if args.folded is not None:
        folded = write_collapsed_stacks(events, args.folded)
        lines.append(f"wrote collapsed flamegraph stacks to {folded}")
    return "\n".join(lines)


def _stderr_progress(args: argparse.Namespace):
    """A ProgressReporter rendering a live line on stderr, if asked for."""
    if not args.progress:
        return None
    from repro.obs import ProgressReporter

    return ProgressReporter(stream=sys.stderr, tty=sys.stderr.isatty())


def _run_fig7(args: argparse.Namespace) -> str:
    results = run_fig7(
        runs=args.runs, base_seed=args.seed, num_stripes=args.stripes,
        telemetry=args.telemetry,
    )
    return render_fig7(results) + _maybe_plot(
        args,
        results,
        "Figure 7: cross-rack traffic (MB) vs chunk size (MB)",
        lambda r: list(r.series.values()),
        "MB",
    )


def _run_fig8(args: argparse.Namespace) -> str:
    results = run_fig8(
        runs=args.runs, base_seed=args.seed, num_stripes=args.stripes
    )
    return render_fig8(results) + _maybe_plot(
        args,
        results,
        "Figure 8: lambda vs iterations",
        lambda r: [r.balanced, r.unbalanced],
        "lambda",
    )


def _run_fig9(args: argparse.Namespace) -> str:
    results = run_fig9(
        runs=args.runs, base_seed=args.seed, num_stripes=args.stripes
    )
    return render_fig9(results) + _maybe_plot(
        args,
        results,
        "Figure 9: recovery time (s/chunk) vs chunk size (MB)",
        lambda r: list(r.series.values()),
        "s",
    )


def _run_fig10(args: argparse.Namespace) -> str:
    return render_fig10(
        run_fig10(
            runs=args.runs, base_seed=args.seed, num_stripes=args.stripes
        )
    )


def _run_regen(args: argparse.Namespace) -> str:
    from repro.experiments.regen import regen_to_dict, run_regen
    from repro.experiments.report import render_regen

    results = run_regen(
        runs=args.runs, base_seed=args.seed, num_stripes=args.stripes,
        telemetry=args.telemetry,
    )
    out = render_regen(results)
    if args.json_path is not None:
        out += "\n\n" + _write_json(regen_to_dict(results), args.json_path)
    return out + _maybe_plot(
        args,
        results,
        "Regenerating codes: cross-rack traffic (MB) vs chunk size (MB)",
        lambda r: [o.series for o in r.outcomes.values()],
        "MB",
    )


def _run_landscape(args: argparse.Namespace) -> str:
    from repro.analysis.landscape import repair_landscape
    from repro.experiments import CFS2
    from repro.experiments.report import format_table

    rows = repair_landscape(CFS2, runs=args.runs, num_stripes=args.stripes)
    table = [
        [
            r.scheme,
            f"{r.total_chunks:.2f}",
            "-" if r.cross_rack_chunks is None else f"{r.cross_rack_chunks:.2f}",
            f"{r.storage_overhead:.2f}x",
        ]
        for r in rows
    ]
    return (
        "Repair cost per lost chunk (chunk units), CFS2\n"
        + format_table(["scheme", "total", "cross-rack", "storage"], table)
    )


def _run_degraded(args: argparse.Namespace) -> str:
    from repro.experiments.degraded import run_degraded_read
    from repro.experiments.report import format_table

    rows = []
    for cfg in ALL_CFS:
        res = run_degraded_read(cfg, runs=args.runs, num_stripes=args.stripes)
        for name in ("CAR", "RR"):
            d = res.distributions[name]
            rows.append(
                [
                    cfg.name,
                    name,
                    f"{d.mean * 1000:.0f}ms",
                    f"{d.p99 * 1000:.0f}ms",
                    f"{d.worst * 1000:.0f}ms",
                ]
            )
    return (
        "Degraded-read latency per lost-chunk request (4MB chunks)\n"
        + format_table(["CFS", "strategy", "mean", "p99", "max"], rows)
    )


def _run_longrun(args: argparse.Namespace) -> str:
    from repro.experiments import CFS2
    from repro.experiments.configs import build_state
    from repro.experiments.report import format_table
    from repro.recovery import CarStrategy, RandomRecoveryStrategy
    from repro.workloads import FailureTraceGenerator, LongRunSimulator

    stripes, seed = args.stripes, args.seed
    trace = FailureTraceGenerator(
        num_nodes=CFS2.num_nodes, mtbf_hours=1500, seed=seed
    ).generate(horizon_hours=24 * 90)
    rows = []
    for name, factory in (
        ("RR", lambda h: RandomRecoveryStrategy(rng=seed)),
        ("CAR", lambda h: CarStrategy()),
        ("CAR-history", lambda h: CarStrategy(baseline_traffic=list(h))),
    ):
        sim = LongRunSimulator(
            lambda: build_state(CFS2, seed=seed, num_stripes=stripes),
            factory,
            chunk_size=4 << 20,
        )
        rep = sim.replay(trace)
        rows.append(
            [
                name,
                rep.failures,
                f"{rep.total_cross_rack_bytes / 2**30:.1f} GiB",
                f"{rep.total_repair_hours * 60:.1f} min",
                f"{rep.mean_lambda:.3f}",
                f"{rep.long_run_lambda():.3f}",
            ]
        )
    return (
        f"90-day failure trace on CFS2 ({len(trace)} failures)\n"
        + format_table(
            ["strategy", "repairs", "cross-rack", "repair time",
             "event lambda", "long-run lambda"],
            rows,
        )
    )


def _run_ablation(args: argparse.Namespace) -> str:
    parts = [
        render_traffic_ablation(
            [
                run_traffic_ablation(cfg, runs=args.runs) for cfg in ALL_CFS
            ]
        ),
        render_oversubscription(
            CFS1.name, run_oversubscription_sweep(CFS1)
        ),
        render_greedy_vs_optimal(
            [
                run_greedy_vs_optimal(cfg, runs=max(3, args.runs // 2))
                for cfg in ALL_CFS
            ]
        ),
    ]
    return "\n\n".join(parts)


#: What ``all`` runs, in order.
_ALL = ("fig7", "fig8", "fig9", "fig10", "ablation", "landscape", "longrun",
        "degraded", "regen")


def _run_all(args: argparse.Namespace) -> str:
    """Each experiment at its own defaults, under the flags that were given."""
    given = {
        dest: value for dest, value in vars(args).items()
        if value is not None and dest != "experiment"
    }
    parser = build_parser()
    outputs = []
    for name in _ALL:
        sub_args = parser.parse_args([name])
        for dest in given.keys() & vars(sub_args).keys():
            setattr(sub_args, dest, given[dest])
        outputs.append(COMMANDS[name].handler(sub_args))
    return "\n\n".join(outputs)


def _run_scrub(args: argparse.Namespace) -> str:
    import random

    from repro.cluster.scrub import Scrubber
    from repro.experiments.configs import build_state
    from repro.experiments.report import format_table
    from repro.obs.metrics import MetricsRegistry, telemetry_scope

    config = config_by_name(args.config)
    stripes, seed = args.stripes, args.seed
    state = build_state(config, seed=seed, with_data=True,
                        num_stripes=stripes)
    rng = random.Random(seed)
    n_corrupt = max(0, min(args.corrupt, stripes))
    targets = [
        (stripe, rng.randrange(state.code.n))
        for stripe in rng.sample(range(stripes), n_corrupt)
    ]
    for i, (stripe, chunk) in enumerate(targets):
        state.data.corrupt(stripe, chunk, seed=seed + i)
    registry = MetricsRegistry()
    with telemetry_scope(registry):
        report = Scrubber(state).scrub()
    rows = [
        [str(f.stripe_id),
         "?" if f.chunk_index is None else str(f.chunk_index),
         "repaired" if f.repaired else "unrepairable"]
        for f in report.findings
    ]
    metrics = registry.snapshot()["metrics"]
    lines = [
        f"Scrub pass over {config.name} "
        f"({stripes} stripes, {n_corrupt} chunks corrupted)",
        f"  checked : {report.stripes_checked} stripes",
        f"  clean   : {report.clean_stripes}",
        f"  corrupt : {report.corrupt_stripes}"
        f" (all repaired: {'yes' if report.all_repaired else 'NO'})",
    ]
    if rows:
        lines.append(format_table(["stripe", "chunk", "outcome"], rows))
    lines.append(
        "metrics: " + ", ".join(
            f"{name}={int(total)}"
            for name, total in sorted(
                (name, sum(s["value"] for s in metric["series"]))
                for name, metric in metrics.items()
                if name.startswith("scrub.")
            )
        )
    )
    return "\n".join(lines)


def _render_durable(out, verb: str) -> str:
    replayed = ", ".join(map(str, out.replayed)) or "-"
    executed = ", ".join(map(str, out.executed)) or "-"
    total = len(out.replayed) + len(out.executed)
    return "\n".join([
        f"Durable recovery ({verb}) — journal {out.journal_path}",
        f"  stripes : {total} total"
        f" = {len(out.replayed)} replayed + {len(out.executed)} executed",
        f"  replayed: {replayed}",
        f"  executed: {executed}",
        f"  verified: {'yes' if out.verified else 'NO'}",
        f"  traffic : cross-rack {out.cross_rack_bytes} B"
        f" / intra-rack {out.intra_rack_bytes} B (logical session)",
        f"  live    : cross-rack {out.live_cross_rack_bytes} B"
        f" / intra-rack {out.live_intra_rack_bytes} B"
        f" (this incarnation)",
    ])


def _run_durable(args: argparse.Namespace) -> str:
    from repro.experiments.runner import run_durable_recovery

    out = run_durable_recovery(
        config_by_name(args.config),
        args.path,
        strategy=args.strategy,
        seed=args.seed,
        num_stripes=args.stripes,
        crash_after_records=args.crash_after,
        window=args.window,
        progress=_stderr_progress(args),
    )
    return _render_durable(out, "fresh run")


def _run_resume(args: argparse.Namespace) -> str:
    from repro.experiments.runner import resume_durable_recovery

    out = resume_durable_recovery(
        args.path, crash_after_records=args.crash_after,
        window=args.window,
        progress=_stderr_progress(args),
    )
    return _render_durable(out, "resumed")


def _run_stream(args: argparse.Namespace) -> str:
    import resource
    import time
    from contextlib import nullcontext

    from repro.cluster.failure import FailureInjector
    from repro.experiments.configs import build_state
    from repro.recovery import PlanExecutor, plan_recovery_streaming
    from repro.recovery.baselines import strategy_from_label
    from repro.recovery.streaming import default_window

    config = config_by_name(args.config)
    stripes, seed = args.stripes, args.seed
    # Small chunks: this command measures the pipeline's coordination
    # overhead, not GF throughput.
    state = build_state(config, seed=seed, with_data=True,
                        chunk_size=256, num_stripes=stripes)
    window = (
        args.window
        if args.window is not None
        else default_window(state.data.chunk_size)
    )
    event = FailureInjector(rng=seed).fail_random_node(state)
    solution = strategy_from_label(args.strategy, seed).solve(state)
    affected = len(solution)
    plan = plan_recovery_streaming(state, event, solution)
    # Opt-in observability: --telemetry records trace, metrics and
    # resource profile; --progress renders a live stderr line either
    # way.  Neither changes which code path the repair takes.
    telemetry_dir = Path(args.telemetry) if args.telemetry else None
    tracer = registry = progress = None
    sampler = scope = nullcontext()
    if telemetry_dir is not None:
        from repro.obs import (
            MetricsRegistry, ResourceSampler, Tracer, telemetry_scope,
        )

        telemetry_dir.mkdir(parents=True, exist_ok=True)
        tracer = Tracer()
        registry = MetricsRegistry()
        sampler = ResourceSampler()
        scope = telemetry_scope(registry)
    if telemetry_dir is not None or args.progress:
        from repro.obs import ProgressReporter, jsonl_sink

        progress = ProgressReporter(
            total_stripes=affected,
            sink=(
                jsonl_sink(telemetry_dir / "progress.jsonl")
                if telemetry_dir is not None
                else None
            ),
            stream=sys.stderr if args.progress else None,
            tty=args.progress and sys.stderr.isatty(),
        )
    executor = PlanExecutor(state, tracer)
    ok_count = 0

    def sink(stripe_id, rebuilt, ok):
        nonlocal ok_count
        ok_count += ok

    t0 = time.perf_counter()
    with sampler, scope:
        result = executor.execute(
            plan, window=window, sink=sink, progress=progress
        )
    elapsed = time.perf_counter() - t0
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    throughput = affected / elapsed if elapsed > 0 else float("inf")
    payload = {
        "config": config.name,
        "strategy": args.strategy,
        "num_stripes": stripes,
        "affected_stripes": affected,
        "window": window,
        "elapsed_seconds": elapsed,
        "stripes_per_second": throughput,
        "peak_rss_kib": peak_rss_kib,
        "cross_rack_bytes": result.cross_rack_bytes,
        "intra_rack_bytes": result.intra_rack_bytes,
        "rebuilt_stripes": len(result.per_stripe_ok),
        "verified": ok_count == affected,
    }
    lines = [
        f"Streaming recovery — {config.name}, {args.strategy},"
        f" {affected}/{stripes} stripes affected",
        f"  window   : {window}",
        f"  elapsed  : {elapsed:.3f} s ({throughput:,.0f} stripes/s)",
        f"  peak RSS : {peak_rss_kib} KiB",
        f"  traffic  : cross-rack {result.cross_rack_bytes} B"
        f" / intra-rack {result.intra_rack_bytes} B",
        f"  verified : {'yes' if payload['verified'] else 'NO'}",
    ]
    if telemetry_dir is not None:
        from repro.experiments.runner import RunTelemetry, write_telemetry
        from repro.obs import write_chrome_trace

        telemetry = RunTelemetry(tuple(tracer.events), registry.snapshot())
        write_telemetry(telemetry_dir, [(0, telemetry)], sampler)
        write_chrome_trace(tracer.events, telemetry_dir / "trace.chrome.json")
        lines.append(
            f"  wrote trace.jsonl, trace.chrome.json, metrics.json, "
            f"profile.jsonl, progress.jsonl to {telemetry_dir}/"
        )
    if args.json_path is not None:
        lines.append("  " + _write_json(payload, args.json_path))
    return "\n".join(lines)


def _render_serve_summary(summary: dict) -> str:
    cap = summary.get("repair_cap_bytes_per_s")
    if cap is None:
        cap = (summary.get("admission") or {}).get("repair_cap_bytes_per_s")
    lines = [
        f"Live service run — {summary['config']}, {summary['strategy']},"
        f" node {summary['failed_node']} failed"
        f" ({summary['stripes']} stripes affected)",
        f"  detect   : {summary['detect_model_s']:.3f} model-s"
        " from the kill to the repair's start",
        f"  repair   : {summary['replayed']} replayed"
        f" + {summary['executed']} executed,"
        f" verified {'yes' if summary['verified'] else 'NO'}",
        f"  recovery : {summary['recovery_throughput_bytes_per_s']:,.0f}"
        f" B/s over {summary['recovery_model_s']:.3f} model-s"
        + (f" (cap {cap:,.0f} B/s)" if cap else " (uncapped)"),
        f"  clients  : {summary['reads']} reads"
        f" ({summary['contended_reads']} during repair,"
        f" {summary['degraded_reads']} degraded)",
        f"  latency  : p50 {summary['client_p50_model_s'] * 1e3:.1f} ms,"
        f" p99 {summary['client_p99_model_s'] * 1e3:.1f} ms (modelled)",
    ]
    if "trace_path" in summary:
        lines.append(f"  trace    : {summary['trace_path']}")
    return "\n".join(lines)


def _run_serve(args: argparse.Namespace) -> str:
    from repro.service.bench import run_service

    workdir = Path(args.path)
    summary = run_service(
        workdir=workdir,
        trace_path=workdir / "trace.jsonl",
        config=args.config,
        seed=args.seed,
        num_stripes=args.stripes,
        strategy=args.strategy,
        clients=args.clients,
        speedup=args.speedup,
        repair_cap=args.repair_cap,
        client_priority=args.client_priority,
        repair_window=min(args.window, 8),
        crash_after_records=args.crash_after,
    )
    out = _render_serve_summary(summary)
    if args.json_path is not None:
        out += "\n  " + _write_json(summary, args.json_path)
    return out


def _run_bench_service(args: argparse.Namespace) -> str:
    from repro.service.bench import render_service_table, run_bench_service

    rows = run_bench_service(
        args.caps,
        workdir=Path(args.path),
        config=args.config,
        seed=args.seed,
        num_stripes=args.stripes,
        clients=args.clients,
        client_priority=args.client_priority,
        strategy=args.strategy,
        speedup=args.speedup,
    )
    out = (
        "Service sweep: repair cap vs recovery throughput vs "
        "foreground latency (modelled)\n" + render_service_table(rows)
    )
    if args.json_path is not None:
        out += "\n" + _write_json(rows, args.json_path)
    return out


# -- flag declarations -----------------------------------------------------
# A bad value is argparse's usage error (exit 2), not a traceback from
# deep inside the run.


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{raw!r} is not a positive integer")
    return value


def _priority(raw: str) -> float:
    value = float(raw)
    if value < 1.0:
        raise argparse.ArgumentTypeError(
            f"{raw!r} is below 1.0 (1.0 = no preference)"
        )
    return value


def _caps(raw: str) -> tuple[int | None, ...]:
    """``"16384,none"`` -> ``(16384, None)``."""
    parts = [part.strip().lower() for part in raw.split(",")]
    return tuple(
        None if part in ("none", "uncapped") else int(part) for part in parts
    )


#: Every flag, declared once: dest -> (option string, help,
#: ``add_argument`` keywords).  The default is not here: each subcommand
#: that takes the flag gives its own in :data:`COMMANDS`, and ``--help``
#: appends it (a string default goes through ``type`` like a typed
#: value).  ``unset`` says what a default of ``None`` means.
_FLAGS: dict[str, tuple[str, str, dict]] = {
    "telemetry": (
        "--telemetry",
        "record a span trace and metrics snapshot into DIR (stream also "
        "writes a Perfetto-loadable trace.chrome.json, progress "
        "heartbeats, and resource-profile samples)",
        dict(metavar="DIR")),
    "runs": (
        "--runs", "runs to average (the paper uses 50)",
        dict(type=int, unset="each experiment's own")),
    "stripes": (
        "--stripes", "stripes per run",
        dict(type=int, unset="the configuration's, 100 as in the paper")),
    "seed": (
        "--seed", "the base RNG seed",
        dict(type=int, unset="each experiment's own")),
    "plot": (
        "--plot", "append ASCII charts of the series to the tables",
        dict(action="store_true")),
    "config": (
        "--config", "cluster configuration",
        dict(choices=["CFS1", "CFS2", "CFS3"])),
    "strategy": (
        "--strategy",
        "recovery strategy: car, or the random-recovery baseline under "
        "either of its names, direct and rr",
        dict(choices=["car", "direct", "rr"])),
    "crash_after": (
        "--crash-after",
        "inject a coordinator crash after N journal records; the process "
        "exits with status 3 and the journal is the resume point",
        dict(type=int, metavar="N")),
    "json_path": (
        "--json", "also write the results as JSON to FILE (the CI artifact)",
        dict(metavar="FILE")),
    "corrupt": (
        "--corrupt", "chunks to silently corrupt before the pass",
        dict(type=int, metavar="N")),
    "window": (
        "--window", "stripes in flight at once",
        dict(type=_positive_int, metavar="N",
             unset="sized from the chunk size against a fixed byte budget")),
    "progress": (
        "--progress",
        "print a live status line to stderr during the run (stripes/s, "
        "windows, traffic, journal lag, ETA)",
        dict(action="store_true")),
    "out": (
        "--out", "output path",
        dict(metavar="FILE", unset="<trace>.chrome.json next to the input")),
    "folded": (
        "--folded", "also write collapsed-stack flamegraph lines to FILE",
        dict(metavar="FILE")),
    "clients": (
        "--clients", "concurrent foreground readers",
        dict(type=int, metavar="N")),
    "repair_cap": (
        "--repair-cap",
        "token-bucket cap on repair bandwidth, modelled bytes/s",
        dict(type=int, metavar="BYTES_PER_S",
             unset="uncapped — repair still queues on the shared link")),
    "caps": (
        "--caps",
        "comma-separated repair caps, modelled bytes/s with 'none' for "
        "uncapped",
        dict(type=_caps, metavar="LIST")),
    "client_priority": (
        "--client-priority",
        "token multiplier charged to repair bytes while clients are active "
        "(>= 1.0; 1.0 = no preference)",
        dict(type=_priority, metavar="X")),
    "speedup": (
        "--speedup", "modelled seconds per wall second",
        dict(type=float, metavar="X")),
}


def _sweep(runs, seed, **more) -> dict:
    """The flags of a figure sweep (and of ``all``), by default."""
    return dict(runs=runs, stripes=None, seed=seed, plot=False, **more)


def _repair(stripes, seed, **more) -> dict:
    """The flags of a subcommand that repairs one failure, by default."""
    return dict(config="CFS1", strategy="car", stripes=stripes, seed=seed,
                **more)


class Command(NamedTuple):
    """One ``repro-car`` subcommand."""

    help: str
    handler: Callable[[argparse.Namespace], str]
    #: What the required ``path`` argument names (``None``: takes none).
    positional: str | None
    #: The flags the handler reads (keys of ``_FLAGS``) -> default.
    flags: dict


_TRACE = "a recorded trace.jsonl"
_JOURNAL = "the write-ahead journal"
_WORKDIR = "the working directory (journal, trace)"

#: The single registry: :func:`build_parser` makes one subparser per
#: entry, :func:`main` dispatches on it, and ``docs/API.md``
#: (``tools/gen_api_docs.py``) tabulates it.
COMMANDS: dict[str, Command] = {
    "fig7": Command(
        "cross-rack traffic vs chunk size (Figure 7)",
        _run_fig7, None, _sweep(50, 20160707, telemetry=None)),
    "fig8": Command(
        "load balancing: lambda vs greedy iterations (Figure 8)",
        _run_fig8, None, _sweep(50, 20160708)),
    "fig9": Command(
        "recovery time vs chunk size on the fluid model (Figure 9)",
        _run_fig9, None, _sweep(3, 20160709)),
    "fig10": Command(
        "recovery time breakdown by stage (Figure 10)",
        _run_fig10, None,
        dict(runs=10, stripes=None, seed=20160710)),
    "ablation": Command(
        "traffic decomposition, oversubscription, greedy-vs-optimal",
        _run_ablation, None, dict(runs=10)),
    "landscape": Command(
        "repair cost per lost chunk across erasure-code schemes",
        _run_landscape, None, dict(runs=5, stripes=50)),
    "longrun": Command(
        "90-day failure-trace replay (repairs, traffic, lambda)",
        _run_longrun, None, dict(stripes=100, seed=21)),
    "degraded": Command(
        "degraded-read latency distributions (CAR vs RR)",
        _run_degraded, None, dict(runs=5, stripes=50)),
    "regen": Command(
        "regenerating-code sweep (rack-aware MSR, piggybacked RS)",
        _run_regen, None,
        _sweep(50, 20190104, telemetry=None, json_path=None)),
    "all": Command(
        "every figure/experiment above at fast settings",
        _run_all, None, _sweep(None, None)),
    "trace": Command(
        "summarise a recorded trace.jsonl (stages, racks, spans)",
        _run_trace, _TRACE, {}),
    "metrics": Command(
        "summarise a recorded metrics.json snapshot",
        _run_metrics, "a recorded metrics.json", {}),
    "report": Command(
        "per-stage/per-rack bottleneck attribution for a trace",
        _run_report, _TRACE, {}),
    "export": Command(
        "convert a trace to Chrome/Perfetto JSON or flamegraph stacks",
        _run_export, _TRACE, dict(out=None, folded=None)),
    "scrub": Command(
        "corrupt chunks, then detect and heal them (integrity pass)",
        _run_scrub, None, dict(config="CFS1", stripes=20, seed=11, corrupt=3)),
    "durable": Command(
        "journalled, crash-resumable recovery run",
        _run_durable, _JOURNAL,
        _repair(12, 0, crash_after=None, window=None, progress=False)),
    "resume": Command(
        "resume a crashed durable recovery from its journal",
        _run_resume, _JOURNAL,
        dict(crash_after=None, window=None, progress=False)),
    "stream": Command(
        "lazy-plan recovery throughput + peak-RSS measurement",
        _run_stream, None,
        _repair(1000, 0, window=None, progress=False, telemetry=None,
                json_path=None)),
    "serve": Command(
        "boot a live in-process cluster, fail a node, repair it",
        _run_serve, _WORKDIR,
        _repair(10, 7, clients=3, speedup=50.0, repair_cap=None,
                client_priority=1.0, window=8, crash_after=None,
                json_path=None)),
    "bench-service": Command(
        "sweep repair-bandwidth caps on the live service",
        _run_bench_service, _WORKDIR,
        _repair(12, 7, clients=3, speedup=10.0, caps="16384,65536,none",
                client_priority=2.0, json_path=None)),
}

#: Subcommand -> one-line description, in registry order.
SUBCOMMANDS: dict[str, str] = {
    name: command.help for name, command in COMMANDS.items()
}


class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser: a flag it does not take is its usage error."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser: one subparser per :data:`COMMANDS` entry."""
    parser = argparse.ArgumentParser(
        prog="repro-car",
        description=(
            "Reproduce the evaluation of 'Reconsidering Single Failure "
            "Recovery in Clustered File Systems' (DSN 2016)."
        ),
    )
    subparsers = parser.add_subparsers(
        dest="experiment", required=True, metavar="subcommand",
        parser_class=_Subcommand,
    )
    for name, command in COMMANDS.items():
        sub = subparsers.add_parser(
            name, help=command.help, description=command.help
        )
        if command.positional is not None:
            sub.add_argument("path", help=command.positional)
        for dest, default in command.flags.items():
            option, text, keywords = _FLAGS[dest]
            keywords = dict(keywords)
            unset = keywords.pop("unset", None)
            shown = unset if default is None else default
            if shown is not None and shown is not False:
                text += f" (default: {shown})"
            sub.add_argument(
                option, dest=dest, default=default, help=text, **keywords
            )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    try:
        print(COMMANDS[args.experiment].handler(args))
    except CoordinatorCrashError as crash:
        print(
            f"coordinator crashed after {crash.records_written} journal "
            f"records: {crash}"
        )
        again = "serve" if args.experiment == "serve" else "resume"
        print(f"resume with: repro-car {again} {args.path}")
        return 3
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
