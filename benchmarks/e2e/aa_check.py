"""A/A check: the same code measured twice must agree with itself.

    python3 benchmarks/e2e/aa_check.py                  # seed 0, twice
    python3 benchmarks/e2e/aa_check.py --seeds 0-9      # the driver's check

Runs every workload ``--sets`` times per seed (untraced) and fails if

- an exact metric (a count that the seed fixes) differs at all between
  two runs of the same seed;
- the median over the seeds of a later set is worse than the first set's
  by more than the metric's bound;
- with several seeds: the spread of a metric over the seeds of one set —
  (Q3 - Q1) / median, ``statistics.quantiles(n=4)`` — exceeds its bound
  (``setup_s`` excepted), or any run reported a failed operation.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import HERE, load_contract

#: Counts the seed fixes: two runs of one seed must agree bit for bit.
EXACT = {
    "cross_rack_chunks_per_stripe", "cross_rack_saving_vs_rr",
    "lambda_balance", "model_s_per_chunk",
}


def run_once(workload: str, seed: int, smoke: bool) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--trace", "0",
    ]
    done = subprocess.run(
        command + (["--smoke"] if smoke else []),
        stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0", help="N or A-B (inclusive)")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", help="write every run's metrics here")
    args = parser.parse_args()
    first, _, last = args.seeds.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    contract = load_contract()
    workloads = args.workload or [w["name"] for w in contract["workloads"]]

    runs = {
        w: [[run_once(w, seed, args.smoke) for seed in seeds]
            for _ in range(args.sets)]
        for w in workloads
    }
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1), encoding="utf-8")

    problems = []
    print(f"{'workload':<20}{'metric':<30}{'bound':>6}  "
          + "  ".join(f"{'median':>10} {'spread':>7}" for _ in range(args.sets)))
    for w in workloads:
        failed = sum(r["failed"] for runs_of_set in runs[w] for r in runs_of_set)
        if failed:
            problems.append(f"{w}: {failed} failed operations")
        for metric in contract["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1 if metric["better"] == "lower" else -1
            values = [
                [r["metrics"][name]["value"] for r in runs_of_set]
                for runs_of_set in runs[w]
            ]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) if len(v) > 1 else 0.0 for v in values]
            print(f"{w:<20}{name:<30}{bound:>6}  " + "  ".join(
                f"{m:>10.5g} {s:>7.3f}" for m, s in zip(medians, spreads)))
            if name in EXACT and any(v != values[0] for v in values[1:]):
                problems.append(f"{w} {name}: exact metric differs between sets")
            for later in medians[1:]:
                if sign * (later - medians[0]) / medians[0] > bound:
                    problems.append(
                        f"{w} {name}: median {medians[0]:.5g} -> {later:.5g} "
                        f"is worse by more than {bound}"
                    )
            if name != "setup_s" and max(spreads) > bound:
                problems.append(
                    f"{w} {name}: spread {max(spreads):.3f} over seeds "
                    f"exceeds {bound}"
                )
    for problem in problems:
        print("FAIL", problem)
    print("A/A check:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
