#!/usr/bin/env python3
"""Gate benchmark runs against the committed baselines.

Usage::

    PYTHONPATH=src python tools/bench_compare.py BENCH_kernels.json fresh.json
    PYTHONPATH=src python tools/bench_compare.py BENCH_stream.json fresh.json \
        --tolerance 0.5
    PYTHONPATH=src python tools/bench_compare.py BENCH_kernels.json fresh.json \
        --history BENCH_HISTORY.jsonl --timestamp 2026-08-08 --label kernels

Compares a fresh pytest-benchmark artifact against a committed
``BENCH_*.json`` baseline with :mod:`repro.obs.regress` — direction-
aware per metric (wall time and bytes regress upward, throughput and
speedups downward), one-sided benches reported but never fatal (smoke
runs execute subsets).  Exits:

- 0 — nothing regressed beyond tolerance;
- 1 — at least one regression (the table names each one);
- 2 — usage or unreadable/malformed artifact.

``--history`` appends the *fresh* run to the committed
``BENCH_HISTORY.jsonl`` trajectory (one JSON line per suite per
recording; ``--timestamp`` keeps the entry reproducible).  History is
appended regardless of verdict — a regression that ships is still part
of the trajectory.

Retired: no CI job runs this any more (performance is measured by
``benchmarks/e2e``); it stays only until ``tests/obs/test_regress.py``
may go with it.
"""

from __future__ import annotations

import argparse
import sys


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bench_compare.py",
        description=(
            "Diff a fresh pytest-benchmark JSON artifact against a "
            "committed baseline; exit 1 on regression."
        ),
    )
    parser.add_argument("baseline", help="committed BENCH_*.json baseline")
    parser.add_argument("fresh", help="freshly recorded benchmark artifact")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help=(
            "allowed fractional drift per metric before it counts as a "
            "regression (default 0.25; CI uses a larger value because "
            "runner hardware varies)"
        ),
    )
    parser.add_argument(
        "--history",
        metavar="FILE",
        default=None,
        help="append the fresh run to this BENCH_HISTORY.jsonl trajectory",
    )
    parser.add_argument(
        "--timestamp",
        default=None,
        help=(
            "ISO date recorded in the history entry (required with "
            "--history; explicit so entries are reproducible)"
        ),
    )
    parser.add_argument(
        "--label",
        default=None,
        help="suite label for the history entry (default: fresh file stem)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    from repro.obs.regress import (
        append_history,
        compare,
        history_entry,
        load_bench,
        render_comparison,
    )

    if args.history is not None and args.timestamp is None:
        print("bench_compare.py: --history requires --timestamp",
              file=sys.stderr)
        return 2
    try:
        baseline = load_bench(args.baseline)
        fresh = load_bench(args.fresh)
    except (OSError, ValueError) as exc:
        print(f"bench_compare.py: {exc}", file=sys.stderr)
        return 2
    try:
        report = compare(baseline, fresh, tolerance=args.tolerance)
    except ValueError as exc:
        print(f"bench_compare.py: {exc}", file=sys.stderr)
        return 2
    print(render_comparison(report))
    if args.history is not None:
        entry = history_entry(fresh, args.timestamp, label=args.label)
        path = append_history(args.history, entry)
        print(f"appended {entry['suite']} @ {entry['timestamp']} to {path}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
