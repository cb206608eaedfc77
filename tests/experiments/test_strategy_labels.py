"""One label -> strategy mapping, one name -> config mapping.

``--strategy`` used to be read three ways: ``stream`` ran the random
baseline for anything that was not ``car`` (and printed the label it
was given), ``durable`` knew ``car``/``direct`` and died with a
traceback on ``rr``, the service knew ``car``/``rr``/``rack-msr`` and
the CLI refused ``direct`` by hand.  The three command lines below are
the ones that went wrong.
"""

import pytest

from repro.cli import main
from repro.durable.journal import JournalReplay
from repro.errors import ConfigurationError, JournalError
from repro.experiments.configs import ALL_CFS, CFS2, build_state, config_by_name
from repro.experiments.runner import resume_durable_recovery
from repro.recovery.baselines import (
    CarStrategy,
    RandomRecoveryStrategy,
    strategy_from_label,
)
from repro.recovery.regenerating import RackAwareMSRStrategy


class TestStrategyFromLabel:
    @pytest.mark.parametrize("label, cls", [
        ("car", CarStrategy),
        ("rr", RandomRecoveryStrategy),
        ("direct", RandomRecoveryStrategy),
        ("rack-msr", RackAwareMSRStrategy),
    ])
    def test_every_spelling(self, label, cls):
        assert type(strategy_from_label(label, seed=3)) is cls

    def test_rr_and_direct_are_one_seeded_strategy(self):
        state = build_state(CFS2, seed=1, num_stripes=12)
        state.fail_node(0)
        helpers = [
            [s.helpers for s in strategy_from_label(label, 5).solve(state)
             .solutions]
            for label in ("rr", "direct", "rr")
        ]
        assert helpers[0] == helpers[1] == helpers[2]

    def test_unknown_label(self):
        with pytest.raises(ConfigurationError, match="quantum"):
            strategy_from_label("quantum")


class TestCommandLines:
    def test_stream_refuses_a_label_it_cannot_run(self, capsys):
        """Was: ran the random baseline and reported it as rack-msr."""
        with pytest.raises(SystemExit) as excinfo:
            main(["stream", "--stripes", "8", "--strategy", "rack-msr"])
        assert excinfo.value.code == 2
        assert "rack-msr" in capsys.readouterr().err

    def test_stream_runs_what_it_prints(self, capsys):
        traffic = {}
        for label in ("car", "rr", "direct"):
            assert main(["stream", "--stripes", "40", "--seed", "2",
                         "--strategy", label]) == 0
            out = capsys.readouterr().out
            assert f"CFS1, {label}," in out and "verified : yes" in out
            traffic[label] = out[out.index("traffic"):].splitlines()[0]
        assert traffic["rr"] == traffic["direct"] != traffic["car"]

    def test_durable_takes_rr(self, tmp_path, capsys):
        """Was: a ConfigurationError traceback."""
        journal = tmp_path / "journal.jsonl"
        rc = main(["durable", str(journal), "--seed", "4", "--stripes", "8",
                   "--strategy", "rr", "--crash-after", "7"])
        assert rc == 3
        header = JournalReplay.load(journal).session
        assert header["strategy_label"] == "rr"
        assert header["strategy"] == RandomRecoveryStrategy.__name__
        assert main(["resume", str(journal)]) == 0
        assert "verified: yes" in capsys.readouterr().out

    def test_serve_takes_direct(self, tmp_path, capsys):
        """Was: SystemExit("'serve' strategies are car, rr, or rack-msr")."""
        rc = main(["serve", str(tmp_path), "--strategy", "direct",
                   "--stripes", "6"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "CFS1, direct," in out and "verified yes" in out


class TestConfigByName:
    def test_names_and_pass_through(self):
        for config in ALL_CFS:
            assert config_by_name(config.name) is config
            assert config_by_name(config) is config

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError, match="CFS9"):
            config_by_name("CFS9")

    def test_resume_names_the_unknown_config(self, tmp_path, capsys):
        journal = tmp_path / "journal.jsonl"
        assert main(["durable", str(journal), "--stripes", "6",
                     "--crash-after", "5"]) == 3
        capsys.readouterr()
        journal.write_bytes(
            journal.read_bytes().replace(b'"CFS1"', b'"CFS9"', 1)
        )
        with pytest.raises(JournalError, match="unknown config 'CFS9'"):
            resume_durable_recovery(journal)
