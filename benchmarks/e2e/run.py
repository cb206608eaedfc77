"""The repo's benchmark: one command, four workloads, every metric by name.

    python3 benchmarks/e2e/run.py --workload bulk_repair_4m --seed 0 \
        --seconds 10 --trace 0

runs one workload in a fresh subprocess and prints, as the last line,
``{"correct", "attempted", "failed", "metrics"}`` with every end-to-end
metric of ``BENCHMARK.json`` (``--trace 1``: every per-layer metric).
Without ``--workload`` it runs all four and prints a table.  See
``README.md`` in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"
#: Fresh processes per untraced run: each sets up (one ``setup_s`` sample)
#: and measures a third of ``--seconds``; the samples are pooled.
PROCESSES = 3


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # One client, one core's worth of arithmetic: numpy's BLAS/OpenMP
    # pools must not make the 2-core sandbox oversubscribed.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn_worker(spec: dict) -> dict:
    spec = {**spec, "spawned_at": time.time()}
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        env=worker_env(), stdout=subprocess.PIPE, text=True, check=True,
        timeout=170,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values) -> dict:
    q1, q2, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    )
    return {"n": len(values), "q1": q1, "median": q2, "q3": q3}


def run_workload(
    contract: dict, name: str, seed: int, seconds: float, trace: bool,
    smoke: bool,
) -> dict:
    """Run one workload; returns the contract's result plus details."""
    workdir = OUT / f"work-{os.getpid()}-{name}"
    workdir.mkdir(parents=True, exist_ok=True)
    processes = 1 if trace or smoke else PROCESSES
    spec = {
        "workload": name, "seed": seed, "seconds": seconds / processes,
        "trace": trace, "smoke": smoke, "workdir": str(workdir),
        "src_dir": str(SRC), "trace_path": str(OUT / f"trace-{name}.jsonl"),
    }
    try:
        parts = [spawn_worker(spec) for _ in range(processes)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rates = [rate for part in parts for rate in part["repair_MiBps"]]
    # The exact figures depend on the seed alone: every process must agree.
    agree = all(part["exact"] == parts[0]["exact"] for part in parts)
    result = {
        "end_to_end": {
            "setup_s": statistics.median(p["setup_s"] for p in parts),
            "repair_MiBps": statistics.median(rates),
            "peak_rss_MiB": statistics.median(p["peak_rss_MiB"] for p in parts),
            **parts[0]["exact"],
        },
        "per_layer": parts[0]["per_layer"],
        "attempted": sum(p["attempted"] for p in parts) + 1,
        "failed": sum(p["failed"] for p in parts) + (not agree),
        "samples": {
            "repair_MiBps": quartiles(rates),
            "op_seconds": quartiles(
                [s for part in parts for s in part["op_seconds"]]
            ),
            "stripes_per_op": parts[0]["stripes_per_op"],
            "setup_s": [p["setup_s"] for p in parts],
        },
    }

    section = "per_layer" if trace else "end_to_end"
    measured = result[section]
    names = {m["name"]: m["unit"] for m in contract[section]}
    unknown = sorted(set(measured) - set(names))
    missing = sorted(set(names) - set(measured)) if not trace else []
    if unknown or missing:
        raise SystemExit(
            f"{name}: metrics not in BENCHMARK.json {unknown}, "
            f"not measured {missing}"
        )
    # A per-layer metric of a layer this workload does not cross is 0.
    result["not_crossed"] = sorted(set(names) - set(measured))
    result["metrics"] = {
        metric: {"value": float(measured.get(metric, 0.0)), "unit": unit}
        for metric, unit in names.items()
    }
    result["correct"] = result["failed"] == 0
    return result


def environment() -> dict:
    import numpy

    cpu = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    # A checkout that is not a git repository (or has no git) is "unknown".
    git = shutil.which("git")
    commit = git and subprocess.run(
        [git, "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": (
            commit.stdout.strip() if commit and commit.returncode == 0 else "unknown"
        ),
        "loadavg_start": os.getloadavg(),
    }


def print_table(contract: dict, results: dict, trace: bool) -> None:
    section = "per_layer" if trace else "end_to_end"
    workloads = list(results)
    print(f"{'metric':<40}{'unit':<8}{'better':<8}{'bound':<7}"
          + "".join(f"{w:>20}" for w in workloads))
    for metric in contract[section]:
        row = "".join(
            f"{results[w]['metrics'][metric['name']]['value']:>20.6g}"
            for w in workloads
        )
        print(f"{metric['name']:<40}{metric['unit']:<8}{metric['better']:<8}"
              f"{metric.get('bound', ''):<7}{row}")
    for w in workloads:
        r = results[w]
        print(f"{w}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']} samples={json.dumps(r['samples'])}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="KiB-sized chunks, a fraction of a second each")
    parser.add_argument("--out", help="write the full results as JSON here")
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").exists():
        raise SystemExit(f"no program to measure: {SRC / 'repro'} is missing")
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    if args.workload is not None and args.workload not in names:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {names}")
    seconds = args.seconds
    if seconds is None:
        seconds = 0.3 if args.smoke else contract["run_seconds"]
    OUT.mkdir(exist_ok=True)

    env = environment()
    results = {
        name: run_workload(
            contract, name, args.seed, seconds, bool(args.trace), args.smoke
        )
        for name in ([args.workload] if args.workload else names)
    }
    env["loadavg_end"] = os.getloadavg()
    env["noisy"] = max(env["loadavg_start"][0], env["loadavg_end"][0]) > env["nproc"]
    if args.out:
        Path(args.out).write_text(
            json.dumps(
                {"environment": env, "seed": args.seed, "seconds": seconds,
                 "trace": args.trace, "smoke": args.smoke, "results": results},
                indent=1,
            ),
            encoding="utf-8",
        )
    if args.workload is None:
        print(json.dumps({"environment": env}))
        print_table(contract, results, bool(args.trace))
    keys = ("correct", "attempted", "failed", "metrics")
    lines = {w: {k: r[k] for k in keys} for w, r in results.items()}
    print(json.dumps(lines[args.workload] if args.workload else lines))


if __name__ == "__main__":
    main()
