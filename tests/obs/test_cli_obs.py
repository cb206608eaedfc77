"""CLI observatory commands (report/export/stream --telemetry) and
the hardened trace validator."""

import json
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.obs import Tracer, attribute, read_jsonl

TOOLS = Path(__file__).resolve().parents[2] / "tools"
sys.path.insert(0, str(TOOLS))

import validate_trace  # noqa: E402  (tools/ is not a package)


def record_trace(path: Path) -> Path:
    t = Tracer()
    with t.span("run", run_index=0):
        with t.span("solve", strategy="car"):
            pass
        with t.span("exec.stripe", stripe_id=0, rack=1):
            t.event("exec.stage", stage="disk_read")
    return t.write_jsonl(path)


class TestParser:
    def test_new_subcommands_parse(self):
        parser = build_parser()
        args = parser.parse_args(
            ["export", "t.jsonl", "--out", "t.chrome.json",
             "--folded", "t.folded"]
        )
        assert args.experiment == "export"
        assert args.path == "t.jsonl"
        assert args.out == "t.chrome.json"
        assert args.folded == "t.folded"

    def test_stream_progress_flag_parses(self):
        args = build_parser().parse_args(["stream", "--progress"])
        assert args.progress is True

    @pytest.mark.parametrize("command", ["report", "export"])
    def test_trace_path_is_required(self, command):
        with pytest.raises(SystemExit) as excinfo:
            main([command])
        assert excinfo.value.code == 2


class TestReportCommand:
    def test_report_renders_breakdown(self, tmp_path, capsys):
        trace = record_trace(tmp_path / "trace.jsonl")
        rc = main(["report", str(trace)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Per-stage breakdown" in out
        assert "plan" in out and "execute" in out

    def test_report_matches_library_attribution(self, tmp_path, capsys):
        trace = record_trace(tmp_path / "trace.jsonl")
        att = attribute(read_jsonl(trace))
        main(["report", str(trace)])
        out = capsys.readouterr().out
        for stage in att.stages:
            assert stage in out


class TestExportCommand:
    def test_export_writes_valid_chrome_trace(self, tmp_path, capsys):
        trace = record_trace(tmp_path / "trace.jsonl")
        out_path = tmp_path / "trace.chrome.json"
        rc = main(["export", str(trace), "--out", str(out_path)])
        assert rc == 0
        assert "perfetto" in capsys.readouterr().out
        from repro.obs import validate_chrome_trace

        payload = json.loads(out_path.read_text())
        assert validate_chrome_trace(payload) > 0

    def test_export_default_output_path(self, tmp_path, capsys):
        trace = record_trace(tmp_path / "trace.jsonl")
        rc = main(["export", str(trace)])
        assert rc == 0
        assert (tmp_path / "trace.chrome.json").exists()

    def test_export_folded_stacks(self, tmp_path, capsys):
        trace = record_trace(tmp_path / "trace.jsonl")
        folded = tmp_path / "trace.folded"
        rc = main(["export", str(trace), "--out",
                   str(tmp_path / "c.json"), "--folded", str(folded)])
        assert rc == 0
        lines = folded.read_text().strip().splitlines()
        assert any(line.startswith("run;") for line in lines)


class TestStreamTelemetry:
    def test_stream_telemetry_writes_all_artifacts(self, tmp_path, capsys):
        out = tmp_path / "telemetry"
        rc = main(["stream", "--stripes", "16", "--window", "8",
                   "--seed", "1", "--telemetry", str(out)])
        assert rc == 0
        assert "verified : yes" in capsys.readouterr().out
        for name in ("trace.jsonl", "trace.chrome.json", "metrics.json",
                     "profile.jsonl", "progress.jsonl"):
            artifact = out / name
            assert artifact.exists(), name
            assert artifact.stat().st_size > 0, name

    def test_stream_telemetry_artifacts_cross_validate(self, tmp_path,
                                                       capsys):
        out = tmp_path / "telemetry"
        main(["stream", "--stripes", "16", "--window", "8",
              "--seed", "1", "--telemetry", str(out)])
        capsys.readouterr()
        # The exported chrome trace and the raw JSONL both validate.
        assert validate_trace.main([str(out / "trace.jsonl")]) == 0
        assert validate_trace.main([str(out / "trace.chrome.json")]) == 0
        # Progress heartbeats end on a final beat covering every stripe.
        beats = [json.loads(l) for l in
                 (out / "progress.jsonl").read_text().splitlines()]
        assert beats[-1]["final"] is True
        # The merged metrics carry the resource profile gauges.
        metrics = json.loads((out / "metrics.json").read_text())
        assert "profile.peak_rss_kib" in metrics["metrics"]

    def test_stream_report_reproduces_attribution(self, tmp_path, capsys):
        out = tmp_path / "telemetry"
        main(["stream", "--stripes", "16", "--window", "8",
              "--seed", "1", "--telemetry", str(out)])
        capsys.readouterr()
        rc = main(["report", str(out / "trace.jsonl")])
        report = capsys.readouterr().out
        assert rc == 0
        att = attribute(read_jsonl(out / "trace.jsonl"))
        assert sum(b.seconds for b in att.stages.values()) == pytest.approx(
            att.total_span_seconds
        )
        for stage in ("aggregate", "ship"):
            assert stage in report
        assert "Slowest exec.stream.ship spans" in report


class TestValidateTraceTool:
    def test_jsonl_ok(self, tmp_path, capsys):
        trace = record_trace(tmp_path / "trace.jsonl")
        assert validate_trace.main([str(trace)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_chrome_ok(self, tmp_path, capsys):
        trace = record_trace(tmp_path / "trace.jsonl")
        main(["export", str(trace)])
        capsys.readouterr()
        rc = validate_trace.main([str(tmp_path / "trace.chrome.json")])
        assert rc == 0
        assert "Chrome trace events" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        rc = validate_trace.main([str(tmp_path / "nope.jsonl")])
        assert rc == 1
        assert "no such file" in capsys.readouterr().err

    def test_zero_byte_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.touch()
        rc = validate_trace.main([str(empty)])
        assert rc == 1
        assert "empty trace (zero-byte file)" in capsys.readouterr().err

    def test_whitespace_only_file(self, tmp_path, capsys):
        blank = tmp_path / "blank.jsonl"
        blank.write_text("\n\n")
        rc = validate_trace.main([str(blank)])
        assert rc == 1
        assert "empty trace (no records)" in capsys.readouterr().err

    def test_truncated_line_names_line_number(self, tmp_path, capsys):
        trace = record_trace(tmp_path / "trace.jsonl")
        lines = trace.read_text().splitlines()
        trace.write_text("\n".join(lines[:-1] + [lines[-1][:20]]) + "\n")
        rc = validate_trace.main([str(trace)])
        err = capsys.readouterr().err
        assert rc == 1
        assert f"line {len(lines)}" in err
        assert "truncated trace?" in err

    def test_empty_chrome_trace(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text('{"traceEvents": []}')
        rc = validate_trace.main([str(path)])
        assert rc == 1
        assert "empty trace" in capsys.readouterr().err

    def test_corrupt_chrome_trace(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text('{"traceEvents": [{"ph": "X"}]}')
        rc = validate_trace.main(["--chrome", str(path)])
        assert rc == 1
        assert "INVALID" in capsys.readouterr().err

    def test_forced_jsonl_on_chrome_file_fails_cleanly(self, tmp_path,
                                                       capsys):
        trace = record_trace(tmp_path / "trace.jsonl")
        main(["export", str(trace)])
        capsys.readouterr()
        rc = validate_trace.main(
            ["--jsonl", str(tmp_path / "trace.chrome.json")]
        )
        assert rc == 1

    def test_usage_error(self, capsys):
        assert validate_trace.main([]) == 2
        assert "usage" in capsys.readouterr().err
