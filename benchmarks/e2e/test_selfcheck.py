"""Self-check of the benchmark harness (run explicitly; tier-1 collects
only ``tests/``):

    python3 -m pytest benchmarks/e2e/test_selfcheck.py -q

Drives ``run.py --smoke`` (KiB-sized chunks, a fraction of a second per
workload) and checks the harness against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

from aa_check import EXACT
from run import HERE, ROOT, load_contract

CONTRACT = load_contract()


def smoke(tmp_path_factory, seed: int, trace: int) -> dict:
    out = tmp_path_factory.mktemp("smoke") / "results.json"
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", str(seed),
         "--trace", str(trace), "--out", str(out)],
        check=True, stdout=subprocess.DEVNULL, timeout=120,
    )
    return json.loads(out.read_text(encoding="utf-8"))["results"]


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return smoke(tmp_path_factory, 0, 0)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return smoke(tmp_path_factory, 0, 1)


def test_contract_shape():
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    names = [
        m["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for m in CONTRACT[key]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for workload in CONTRACT["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]}
        for m in CONTRACT["end_to_end"]
    )
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])


@pytest.mark.parametrize("section", ["end_to_end", "per_layer"])
def test_every_metric_is_emitted_with_its_unit(section, untraced, traced):
    results = untraced if section == "end_to_end" else traced
    assert set(results) == {w["name"] for w in CONTRACT["workloads"]}
    for result in results.values():
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {
            name: m["unit"] for name, m in result["metrics"].items()
        } == {m["name"]: m["unit"] for m in CONTRACT[section]}


def test_end_to_end_metrics_are_never_zero(untraced):
    for workload, result in untraced.items():
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, (workload, name)


def test_every_layer_is_crossed_by_some_workload(traced):
    never = set.intersection(*(set(r["not_crossed"]) for r in traced.values()))
    assert not never


def test_exact_metrics_repeat_and_another_seed_passes(
    untraced, tmp_path_factory
):
    again = smoke(tmp_path_factory, 0, 0)
    for workload, result in untraced.items():
        for name in EXACT:
            assert (
                result["metrics"][name] == again[workload]["metrics"][name]
            ), (workload, name)
    other = smoke(tmp_path_factory, 1, 0)
    assert all(r["correct"] for r in other.values())


def test_layer_split_and_trace(traced):
    assert traced["durable_repair_1m"]["per_layer"][
        "durable.reshipped_cross_rack_bytes"
    ] == 0
    assert 0.5 <= traced["service_read_1m"]["per_layer"][
        "service.degraded_share"
    ] <= 0.9
    for workload, result in traced.items():
        assert result["per_layer"]["bench.unattributed_share"] <= 0.05, workload
        spans = [
            json.loads(line)
            for line in (HERE / "out" / f"trace-{workload}.jsonl").open()
        ]
        assert {"bench.setup", "bench.rep", "bench.verify"} <= {
            s["name"] for s in spans
        }


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "bulk_repair_4m", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
