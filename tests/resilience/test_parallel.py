"""The parallel campaign executor (``--jobs N``).

The contract under test: a campaign run with ``--jobs N`` produces the
same manifest, the same per-experiment records, the same summary table,
and the same exit code as a serial run — modulo run id, creation
timestamp, and wall-clock fields — including under injected faults,
retries, fail-fast, interruption, and resume.

Runners live at module level so worker processes can unpickle them.
"""

import io
import json
import threading

import pytest

from repro.exp.base import ExperimentResult
from repro.obs.exporters import build_span_tree, read_events
from repro.resilience.campaign import (
    EXIT_FAILED,
    EXIT_INTERRUPTED,
    EXIT_OK,
    CampaignConfig,
    run_campaign,
)
from repro.resilience.checkpoint import RunStore
from repro.resilience.faults import FAULTS
from repro.resilience.retry import RetryPolicy
from repro.util.tables import TextTable


# ----------------------------------------------------------------------
# Picklable runners
# ----------------------------------------------------------------------
def make_result(experiment_id, passed=True):
    table = TextTable(["metric", "value"], title=f"Table for {experiment_id}")
    table.add_row(["misses", 12345])
    result = ExperimentResult(experiment_id, f"Table for {experiment_id}", table)
    result.check("shape holds", passed, "measured detail")
    return result


def ok_runner(experiment_id, quick=False):
    return make_result(experiment_id)


def bad_runner(experiment_id, quick=False):
    if experiment_id == "bad":
        raise RuntimeError("numerical blow-up")
    return make_result(experiment_id)


def shaky_runner(experiment_id, quick=False):
    return make_result(experiment_id, passed=(experiment_id != "shaky"))


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def run(config, runner=ok_runner):
    out, err = io.StringIO(), io.StringIO()
    code = run_campaign(config, out=out, err=err, runner=runner)
    return code, out.getvalue(), err.getvalue()


def manifest_payload(tmp_path, run_id):
    """The manifest with run-identity and timing fields normalized."""
    path = tmp_path / run_id / "manifest.json"
    payload = json.loads(path.read_text())
    payload["run_id"] = "RUN"
    payload["created_at"] = "WHEN"
    for record in payload["records"].values():
        record["elapsed_s"] = 0.0
    return payload


def summary(out):
    """Everything from the summary table on (timing column scrubbed)."""
    lines = out[out.index("Campaign summary") :].splitlines()
    return "\n".join(" ".join(line.split()) for line in lines)


def run_pair(tmp_path, ids, jobs, runner=ok_runner, **kwargs):
    """Run the same campaign serially and with ``--jobs``; return both."""
    outcomes = {}
    for run_id, n in (("serial", 1), ("parallel", jobs)):
        FAULTS.reset()
        config = CampaignConfig(
            ids=list(ids),
            runs_dir=str(tmp_path),
            run_id=run_id,
            jobs=n,
            **kwargs,
        )
        outcomes[run_id] = run(config, runner)
    return outcomes["serial"], outcomes["parallel"]


# ----------------------------------------------------------------------
# Determinism: parallel output must equal serial output
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_manifest_and_summary_match_serial(self, tmp_path):
        serial, parallel = run_pair(tmp_path, ["a", "b", "c", "d"], jobs=3)
        assert serial[0] == parallel[0] == EXIT_OK
        assert manifest_payload(tmp_path, "serial") == manifest_payload(
            tmp_path, "parallel"
        )
        assert summary(serial[1]) == summary(parallel[1])

    def test_mixed_outcomes_match_serial(self, tmp_path):
        serial, parallel = run_pair(
            tmp_path, ["ok1", "bad", "shaky", "ok2"], jobs=4, runner=_mixed_runner
        )
        assert serial[0] == parallel[0] == EXIT_FAILED
        assert manifest_payload(tmp_path, "serial") == manifest_payload(
            tmp_path, "parallel"
        )
        assert summary(serial[1]) == summary(parallel[1])
        assert "Errors in: bad" in parallel[2]
        assert "Shape checks FAILED in: shaky" in parallel[2]

    def test_narration_follows_plan_order(self, tmp_path):
        # Workers complete in arbitrary order; the reorder buffer must
        # still narrate and checkpoint strictly in plan order.
        config = CampaignConfig(
            ids=["d", "b", "a", "c"], runs_dir=str(tmp_path), run_id="r", jobs=4
        )
        code, out, _ = run(config)
        assert code == EXIT_OK
        completions = [
            line.split()[0].lstrip("(")
            for line in out.splitlines()
            if "completed in" in line and line.startswith("(")
        ]
        assert completions == ["d", "b", "a", "c"]
        for experiment_id in ("d", "b", "a", "c"):
            assert (tmp_path / "r" / f"{experiment_id}.json").exists()


def _mixed_runner(experiment_id, quick=False):
    if experiment_id == "bad":
        raise RuntimeError("numerical blow-up")
    return make_result(experiment_id, passed=(experiment_id != "shaky"))


# ----------------------------------------------------------------------
# Faults and retries propagate into workers, budgets chain in plan order
# ----------------------------------------------------------------------
class TestFaultPropagation:
    def test_transient_fault_retried_in_worker(self, tmp_path):
        recorded = {}
        for run_id, jobs in (("serial", 1), ("parallel", 3)):
            FAULTS.reset()
            FAULTS.arm("exp.before", mode="fail", times=2)
            before = FAULTS.fired_total
            config = CampaignConfig(
                ids=["a", "b", "c"],
                runs_dir=str(tmp_path),
                run_id=run_id,
                jobs=jobs,
                retry=RetryPolicy(retries=2, backoff_s=0.001),
            )
            code, _, _ = run(config)
            assert code == EXIT_OK
            recorded[run_id] = FAULTS.fired_total - before
        # Both modes consumed the whole budget, in the same place.
        assert recorded["serial"] == recorded["parallel"] == 2
        assert manifest_payload(tmp_path, "serial") == manifest_payload(
            tmp_path, "parallel"
        )
        payload = manifest_payload(tmp_path, "parallel")
        assert payload["records"]["a"]["attempts"] == 3
        assert payload["records"]["b"]["attempts"] == 1

    def test_fail_hard_fault_errors_first_experiment_only(self, tmp_path):
        for run_id, jobs in (("serial", 1), ("parallel", 3)):
            FAULTS.reset()
            FAULTS.arm("exp.before", mode="fail-hard")
            config = CampaignConfig(
                ids=["a", "b", "c"], runs_dir=str(tmp_path), run_id=run_id, jobs=jobs
            )
            code, _, _ = run(config)
            assert code == EXIT_FAILED
        assert manifest_payload(tmp_path, "serial") == manifest_payload(
            tmp_path, "parallel"
        )
        payload = manifest_payload(tmp_path, "parallel")
        assert payload["records"]["a"]["status"] == "error"
        assert payload["records"]["b"]["status"] == "passed"

    def test_interrupt_fault_flushes_and_exits_130(self, tmp_path):
        for run_id, jobs in (("serial", 1), ("parallel", 4)):
            FAULTS.reset()
            FAULTS.arm("exp.before", mode="interrupt")
            config = CampaignConfig(
                ids=["a", "b", "c", "d"],
                runs_dir=str(tmp_path),
                run_id=run_id,
                jobs=jobs,
            )
            code, _, err = run(config)
            assert code == EXIT_INTERRUPTED
            assert f"--resume {run_id}" in err
        assert manifest_payload(tmp_path, "serial") == manifest_payload(
            tmp_path, "parallel"
        )
        payload = manifest_payload(tmp_path, "parallel")
        assert payload["interrupted"] is True
        assert payload["records"] == {}

    def test_resume_interrupted_parallel_run(self, tmp_path):
        FAULTS.reset()
        FAULTS.arm("exp.before", mode="interrupt")
        config = CampaignConfig(
            ids=["a", "b", "c", "d"], runs_dir=str(tmp_path), run_id="r", jobs=4
        )
        assert run(config)[0] == EXIT_INTERRUPTED
        FAULTS.reset()
        resumed = CampaignConfig(
            ids=[], runs_dir=str(tmp_path), resume="r", jobs=4
        )
        code, out, _ = run(resumed)
        assert code == EXIT_OK
        manifest = RunStore(tmp_path).load("r")
        assert sorted(manifest.records) == ["a", "b", "c", "d"]
        assert manifest.interrupted is False

    def test_resume_replays_then_runs_rest_in_parallel(self, tmp_path):
        # Stop after the first experiment, then finish with --jobs.
        FAULTS.reset()
        FAULTS.arm("exp.before", mode="interrupt")
        config = CampaignConfig(
            ids=["a", "b", "c"],
            runs_dir=str(tmp_path),
            run_id="r",
            jobs=1,
            retry=RetryPolicy(retries=0, backoff_s=0.001),
        )
        assert run(config)[0] == EXIT_INTERRUPTED
        FAULTS.reset()
        code, out, _ = run(
            CampaignConfig(ids=[], runs_dir=str(tmp_path), resume="r", jobs=3)
        )
        assert code == EXIT_OK
        assert "Resuming run r" in out


# ----------------------------------------------------------------------
# Fail-fast parity
# ----------------------------------------------------------------------
class TestFailFast:
    def test_fail_fast_leaves_later_experiments_pending(self, tmp_path):
        for run_id, jobs in (("serial", 1), ("parallel", 3)):
            FAULTS.reset()
            config = CampaignConfig(
                ids=["bad", "x", "y"],
                runs_dir=str(tmp_path),
                run_id=run_id,
                jobs=jobs,
                fail_fast=True,
            )
            code, _, err = run(config, bad_runner)
            assert code == EXIT_FAILED
            assert "Not run: 2 experiment(s)." in err
        assert manifest_payload(tmp_path, "serial") == manifest_payload(
            tmp_path, "parallel"
        )
        assert "x" not in manifest_payload(tmp_path, "parallel")["records"]


# ----------------------------------------------------------------------
# Circuit breaker (--max-failures) parity
# ----------------------------------------------------------------------
def _failing_prefix_runner(experiment_id, quick=False):
    if experiment_id.startswith("bad"):
        raise RuntimeError("numerical blow-up")
    return make_result(experiment_id)


class TestCircuitBreaker:
    def test_max_failures_stops_dispatch_with_serial_parity(self, tmp_path):
        ids = ["bad1", "bad2", "bad3", "ok1", "ok2"]
        for run_id, jobs in (("serial", 1), ("parallel", 3)):
            FAULTS.reset()
            config = CampaignConfig(
                ids=list(ids),
                runs_dir=str(tmp_path),
                run_id=run_id,
                jobs=jobs,
                max_failures=2,
            )
            code, _, err = run(config, _failing_prefix_runner)
            assert code == EXIT_FAILED
            assert "circuit breaker" in err
        # Both modes stop at the same plan index: bad1 and bad2 recorded,
        # everything after the trip left pending for --resume.
        assert manifest_payload(tmp_path, "serial") == manifest_payload(
            tmp_path, "parallel"
        )
        payload = manifest_payload(tmp_path, "parallel")
        assert sorted(payload["records"]) == ["bad1", "bad2"]

    def test_under_limit_campaign_unaffected(self, tmp_path):
        FAULTS.reset()
        config = CampaignConfig(
            ids=["bad", "x", "y"],
            runs_dir=str(tmp_path),
            run_id="r",
            jobs=2,
            max_failures=5,
        )
        code, _, err = run(config, bad_runner)
        assert code == EXIT_FAILED
        assert "circuit breaker" not in err
        assert sorted(manifest_payload(tmp_path, "r")["records"]) == ["bad", "x", "y"]


# ----------------------------------------------------------------------
# Worker-side failures are captured, classified, and tracebacked
# ----------------------------------------------------------------------
def _unsendable_runner(experiment_id, quick=False):
    result = make_result(experiment_id)
    result.check("detail cannot be pickled", True, threading.Lock())
    return result


class TestWorkerFailureCapture:
    def test_undispatchable_task_classified_with_traceback(self, tmp_path):
        # A result that cannot be pickled back to the parent (here a
        # check detail holding a lock) used to be swallowed as a silent
        # None result.  It must surface as a classified record carrying
        # the real traceback.
        config = CampaignConfig(
            ids=["a", "b"], runs_dir=str(tmp_path), run_id="r", jobs=2
        )
        code, _, err = run(config, runner=_unsendable_runner)
        assert code == EXIT_FAILED
        payload = manifest_payload(tmp_path, "r")
        assert sorted(payload["records"]) == ["a", "b"]
        for record in payload["records"].values():
            assert record["status"] == "error"
            assert record["error"]["category"] == "experiment"
            assert "Traceback" in record["error"]["traceback"]
        assert "Errors in: a, b" in err


# ----------------------------------------------------------------------
# Worker telemetry streams back into the campaign artifacts
# ----------------------------------------------------------------------
class TestTelemetryMerge:
    def test_worker_events_merge_into_run_artifacts(self, tmp_path):
        config = CampaignConfig(
            ids=["a", "b", "c"], runs_dir=str(tmp_path), run_id="r", jobs=3
        )
        code, _, _ = run(config)
        assert code == EXIT_OK
        events = read_events(tmp_path / "r" / "events.jsonl")
        names = {e["name"] for e in events if e["ph"] == "B"}
        assert {"exp.a", "exp.b", "exp.c"} <= names
        # Balanced spans: each experiment is a root on its own lane.
        roots = build_span_tree(events)
        exp_roots = [n for n in roots if n.name.startswith("exp.")]
        assert len(exp_roots) == 3
        assert all(n.end is not None for n in exp_roots)
        lanes = {n.tid for n in exp_roots}
        assert len(lanes) == 3  # one fresh lane per worker result
        metrics = json.loads((tmp_path / "r" / "metrics.json").read_text())
        assert metrics["gauges"]["campaign.passed"]["value"] == 3

    def test_worker_retry_metrics_accumulate(self, tmp_path):
        FAULTS.reset()
        FAULTS.arm("exp.before", mode="fail", times=2)
        config = CampaignConfig(
            ids=["a", "b"],
            runs_dir=str(tmp_path),
            run_id="r",
            jobs=2,
            retry=RetryPolicy(retries=2, backoff_s=0.001),
        )
        code, _, _ = run(config)
        assert code == EXIT_OK
        metrics = json.loads((tmp_path / "r" / "metrics.json").read_text())
        assert metrics["counters"]["campaign.retries"]["value"] == 2

    def test_no_save_parallel_campaign_touches_no_disk(self, tmp_path):
        config = CampaignConfig(
            ids=["a", "b"], runs_dir=str(tmp_path / "runs"), save=False, jobs=2
        )
        code, out, _ = run(config)
        assert code == EXIT_OK
        assert not (tmp_path / "runs").exists()


# ----------------------------------------------------------------------
# CLI plumbing
# ----------------------------------------------------------------------
class TestCli:
    def test_jobs_flag_rejects_nonpositive(self, capsys):
        from repro.exp.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--jobs", "0", "table1"])
        assert excinfo.value.code == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err

    def test_jobs_flag_reaches_config(self):
        from repro.exp import cli

        captured = {}

        def fake_run_campaign(config):
            captured["jobs"] = config.jobs
            return 0

        original = cli.run_campaign
        cli.run_campaign = fake_run_campaign
        try:
            assert cli.main(["--jobs", "4", "--no-save", "table1"]) == 0
        finally:
            cli.run_campaign = original
        assert captured["jobs"] == 4

    def test_supervision_flags_reach_config(self):
        from repro.exp import cli

        captured = {}

        def fake_run_campaign(config):
            captured["max_failures"] = config.max_failures
            captured["max_worker_crashes"] = config.max_worker_crashes
            captured["stall_timeout_s"] = config.stall_timeout_s
            return 0

        original = cli.run_campaign
        cli.run_campaign = fake_run_campaign
        try:
            assert (
                cli.main(
                    [
                        "--max-failures", "3",
                        "--max-worker-crashes", "5",
                        "--stall-timeout", "1.5",
                        "--no-save", "table1",
                    ]
                )
                == 0
            )
        finally:
            cli.run_campaign = original
        assert captured == {
            "max_failures": 3,
            "max_worker_crashes": 5,
            "stall_timeout_s": 1.5,
        }

    @pytest.mark.parametrize(
        "argv, complaint",
        [
            (["--max-failures", "-1"], "--max-failures must be >= 0"),
            (["--max-worker-crashes", "0"], "--max-worker-crashes must be >= 1"),
            (["--stall-timeout", "-0.5"], "--stall-timeout must be >= 0"),
        ],
    )
    def test_supervision_flags_validated(self, capsys, argv, complaint):
        from repro.exp.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "table1"])
        assert excinfo.value.code == 2
        assert complaint in capsys.readouterr().err
