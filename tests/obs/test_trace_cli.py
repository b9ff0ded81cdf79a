"""End-to-end: a recorded campaign renders through repro-trace, from
artifacts alone, and campaign telemetry switches behave."""

import io
import json

import pytest

from repro.exp.base import ExperimentResult
from repro.obs.cli import main as trace_main
from repro.obs.exporters import EVENTS_FILE, METRICS_FILE, TRACE_FILE
from repro.resilience.campaign import CampaignConfig, run_campaign
from repro.util.tables import TextTable


def fake_runner(experiment_id, quick=False):
    table = TextTable(["metric", "value"], title=f"Table for {experiment_id}")
    table.add_row(["misses", 1])
    result = ExperimentResult(experiment_id, f"Table for {experiment_id}", table)
    result.check("shape holds", True, "ok")
    return result


def run_recorded_campaign(tmp_path, **overrides):
    config = CampaignConfig(
        ids=["a", "b"], runs_dir=str(tmp_path), run_id="r1", **overrides
    )
    out, err = io.StringIO(), io.StringIO()
    code = run_campaign(config, out=out, err=err, runner=fake_runner)
    return code, tmp_path / "r1"


class TestCampaignTelemetry:
    def test_saved_run_records_telemetry_by_default(self, tmp_path):
        code, run_dir = run_recorded_campaign(tmp_path)
        assert code == 0
        for name in (EVENTS_FILE, METRICS_FILE, TRACE_FILE):
            assert (run_dir / name).exists(), name
        events = [
            json.loads(line)
            for line in (run_dir / EVENTS_FILE).read_text().splitlines()
        ]
        begun = [e["name"] for e in events if e["ph"] == "B"]
        assert begun == ["exp.a", "exp.b"]
        # Spans closed with the verdict attached.
        ended = [e for e in events if e["ph"] == "E"]
        assert all(e["args"]["status"] == "passed" for e in ended)

    def test_trace_json_is_chrome_loadable(self, tmp_path):
        _, run_dir = run_recorded_campaign(tmp_path)
        payload = json.loads((run_dir / TRACE_FILE).read_text())
        assert "traceEvents" in payload
        assert payload["displayTimeUnit"] == "ms"
        assert payload["otherData"]["run_id"] == "r1"
        assert all(
            {"name", "ph", "ts", "pid", "tid"} <= set(e)
            for e in payload["traceEvents"]
        )

    def test_metrics_json_has_checkpoint_latencies(self, tmp_path):
        _, run_dir = run_recorded_campaign(tmp_path)
        payload = json.loads((run_dir / METRICS_FILE).read_text())
        latency = payload["histograms"]["checkpoint.write_seconds"]
        assert latency["count"] == 2
        assert payload["gauges"]["campaign.passed"]["value"] == 2

    def test_no_telemetry_flag_writes_nothing(self, tmp_path):
        _, run_dir = run_recorded_campaign(tmp_path, telemetry=False)
        for name in (EVENTS_FILE, METRICS_FILE, TRACE_FILE):
            assert not (run_dir / name).exists(), name
        assert (run_dir / "manifest.json").exists()

    def test_unsaved_run_writes_nothing(self, tmp_path):
        config = CampaignConfig(ids=["a"], runs_dir=str(tmp_path / "runs"), save=False)
        out, err = io.StringIO(), io.StringIO()
        assert run_campaign(config, out=out, err=err, runner=fake_runner) == 0
        assert not (tmp_path / "runs").exists()


class TestTraceCli:
    def test_renders_all_sections_from_artifacts_alone(self, tmp_path, capsys):
        _, run_dir = run_recorded_campaign(tmp_path)
        assert trace_main([str(run_dir)]) == 0
        text = capsys.readouterr().out
        assert "telemetry events recorded" in text
        assert "Span summary" in text
        assert "exp.a" in text
        assert "Top bins by dispatch time" in text
        assert "Span flamegraph" in text

    def test_single_section_selection(self, tmp_path, capsys):
        _, run_dir = run_recorded_campaign(tmp_path)
        assert trace_main([str(run_dir), "--section", "flamegraph"]) == 0
        text = capsys.readouterr().out
        assert "Span flamegraph" in text
        assert "Span summary" not in text

    def test_torn_manifest_report_still_renders(self, tmp_path, capsys):
        _, run_dir = run_recorded_campaign(tmp_path)
        report = run_dir / "manifest.json"
        report.write_bytes(report.read_bytes()[: report.stat().st_size // 2])
        assert trace_main([str(run_dir), "--section", "summary"]) == 0
        assert "Run r1 (created" in capsys.readouterr().out

    def test_missing_directory_is_exit_2(self, tmp_path, capsys):
        assert trace_main([str(tmp_path / "nope")]) == 2
        assert "not a directory" in capsys.readouterr().err

    def test_directory_without_telemetry_is_exit_2(self, tmp_path, capsys):
        assert trace_main([str(tmp_path)]) == 2
        assert "no telemetry" in capsys.readouterr().err


class TestVerbosityThroughCampaign:
    def test_quiet_still_prints_summary(self, tmp_path):
        config = CampaignConfig(
            ids=["a"], runs_dir=str(tmp_path), run_id="rq", verbosity=-1
        )
        out, err = io.StringIO(), io.StringIO()
        assert run_campaign(config, out=out, err=err, runner=fake_runner) == 0
        text = out.getvalue()
        assert "Campaign summary" in text
        assert "All shape checks passed." in text
        assert "Run rq" not in text  # narration silenced

    def test_verbose_adds_checkpoint_detail(self, tmp_path):
        config = CampaignConfig(
            ids=["a"], runs_dir=str(tmp_path), run_id="rv", verbosity=1
        )
        out, err = io.StringIO(), io.StringIO()
        assert run_campaign(config, out=out, err=err, runner=fake_runner) == 0
        text = out.getvalue()
        assert "· checkpoint a written in" in text
        assert "· telemetry flushed" in text


class TestAliases:
    def test_cli_accepts_descriptive_alias(self):
        from repro.exp.registry import get_experiment, resolve_experiment_id

        assert resolve_experiment_id("table2-matmul") == "table2"
        assert get_experiment("table2-matmul") is get_experiment("table2")

    def test_unknown_alias_still_rejected(self):
        from repro.exp.registry import get_experiment
        from repro.resilience.errors import ConfigError

        with pytest.raises(ConfigError):
            get_experiment("table2-bogus")
