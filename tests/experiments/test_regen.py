"""Tests for the regenerating-code sweep (golden regression + CLI).

The golden file pins the *exact* JSON the sweep emits for a small fixed
configuration and seed — any drift in placement, strategy accounting,
bound computation or serialisation shows up as a diff against
``golden/regen_cfs1.json``.  Regenerate it (only after deliberate
behaviour changes) with::

    PYTHONPATH=src python -c "
    import json
    from repro.experiments.configs import CFS1
    from repro.experiments.regen import run_regen_single, regen_to_dict
    payload = regen_to_dict([run_regen_single(CFS1, runs=3,
                                              num_stripes=12, base_seed=7)])
    json.dump(payload, open('tests/experiments/golden/regen_cfs1.json', 'w'),
              indent=2, sort_keys=True)"
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.configs import CFS1
from repro.experiments.regen import regen_to_dict, run_regen_single
from repro.experiments.report import render_regen

GOLDEN = Path(__file__).parent / "golden" / "regen_cfs1.json"

RUNS = 3
STRIPES = 12
SEED = 7


@pytest.fixture(scope="module")
def result():
    return run_regen_single(CFS1, runs=RUNS, num_stripes=STRIPES, base_seed=SEED)


class TestGoldenRegression:
    def test_json_matches_golden_file(self, result):
        golden = json.loads(GOLDEN.read_text())
        assert regen_to_dict([result]) == golden

    def test_golden_file_has_zero_violations(self):
        golden = json.loads(GOLDEN.read_text())
        for cfg in golden["configs"]:
            assert cfg["total_violations"] == 0
            for strat in cfg["strategies"].values():
                assert strat["violations"] == 0


class TestResultShape:
    def test_all_strategies_present(self, result):
        assert set(result.outcomes) == {"CAR", "RR", "RackMSR", "Piggyback"}

    def test_placements(self, result):
        assert result.outcomes["RackMSR"].placement == "rack_aligned"
        for name in ("CAR", "RR", "Piggyback"):
            assert result.outcomes[name].placement == "random"

    def test_rack_msr_params_derived_from_rack_count(self, result):
        # CFS1 has 3 racks: kbar = 2, dbar = 2*kbar - 2 = 2.
        assert (result.kbar, result.dbar) == (2, 2)

    def test_no_violations(self, result):
        assert result.total_violations == 0

    def test_rackmsr_exactly_on_bound(self, result):
        msr = result.outcomes["RackMSR"]
        assert msr.per_stripe_units[0] == pytest.approx(msr.bound)
        assert msr.per_stripe_units[1] == pytest.approx(0.0)

    def test_series_use_paper_chunk_sizes(self, result):
        for outcome in result.outcomes.values():
            assert outcome.series.xs == (4.0, 8.0, 16.0)

    def test_traffic_linear_in_chunk_size(self, result):
        series = result.outcomes["CAR"].series
        assert series.means[1] == pytest.approx(2 * series.means[0])
        assert series.means[2] == pytest.approx(4 * series.means[0])


class TestRenderRegen:
    def test_table_contents(self, result):
        text = render_regen([result])
        assert "Regenerating codes" in text
        assert "CFS1" in text
        for name in ("CAR", "RR", "RackMSR", "Piggyback"):
            assert name in text
        assert "rack_aligned" in text


class TestCli:
    def test_regen_subcommand_writes_json(self, capsys, tmp_path):
        out = tmp_path / "regen.json"
        assert main(
            ["regen", "--runs", "2", "--stripes", "10", "--json", str(out)]
        ) == 0
        text = capsys.readouterr().out
        assert "Regenerating codes" in text
        assert str(out) in text
        payload = json.loads(out.read_text())
        assert payload["experiment"] == "regen"
        assert [c["config"] for c in payload["configs"]] == [
            "CFS1", "CFS2", "CFS3",
        ]
        for cfg in payload["configs"]:
            assert cfg["total_violations"] == 0
