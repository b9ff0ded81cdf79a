"""Chaos harness: campaigns under injected worker deaths.

The contract under test — the tentpole invariant of the supervision
layer: under seeded worker kills (``worker.crash``), wedges
(``worker.stall``), and delays (``worker.slow``), a ``--jobs`` campaign

* ends **complete-or-classified**: every planned experiment has a
  record, either ``passed`` or a structured ``worker-crash`` error
  (quarantine) — nothing vanishes, nothing hangs;
* stays **resumable**: ``--resume`` after any chaos run converges to a
  manifest byte-identical (modulo run identity and timing) to an
  uninterrupted serial run, and resuming a completed run is a no-op.

Runners live at module level so worker processes can unpickle them.
"""

import io
import json
import os
import random
import signal
import sys
import time

import pytest

from repro.exp.base import ExperimentResult
from repro.resilience.campaign import (
    EXIT_FAILED,
    EXIT_OK,
    CampaignConfig,
    run_campaign,
)
from repro.resilience.checkpoint import RunStore
from repro.resilience.faults import FAULTS
from repro.util.tables import TextTable


# ----------------------------------------------------------------------
# Picklable runner
# ----------------------------------------------------------------------
def ok_runner(experiment_id, quick=False):
    table = TextTable(["metric", "value"], title=f"Table for {experiment_id}")
    table.add_row(["misses", 12345])
    result = ExperimentResult(experiment_id, f"Table for {experiment_id}", table)
    result.check("shape holds", True, "measured detail")
    return result


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
IDS = ["e0", "e1", "e2", "e3", "e4", "e5"]


def run(config, runner=ok_runner):
    out, err = io.StringIO(), io.StringIO()
    code = run_campaign(config, out=out, err=err, runner=runner)
    return code, out.getvalue(), err.getvalue()


def chaos_config(tmp_path, run_id, **kwargs):
    kwargs.setdefault("ids", list(IDS))
    kwargs.setdefault("jobs", 3)
    return CampaignConfig(runs_dir=str(tmp_path), run_id=run_id, **kwargs)


def manifest_payload(tmp_path, run_id):
    """The manifest with run-identity and timing fields normalized."""
    path = tmp_path / run_id / "manifest.json"
    payload = json.loads(path.read_text())
    payload["run_id"] = "RUN"
    payload["created_at"] = "WHEN"
    for record in payload["records"].values():
        record["elapsed_s"] = 0.0
    return payload


def assert_complete_or_classified(manifest, planned):
    """Every planned experiment ended passed or quarantined — no gaps."""
    assert sorted(manifest.records) == sorted(planned)
    for record in manifest.records.values():
        if record.status == "passed":
            continue
        assert record.status == "error"
        assert record.error["category"] == "worker-crash"
        assert record.error["type"] == "WorkerCrashError"


# ----------------------------------------------------------------------
# Seeded kill storms
# ----------------------------------------------------------------------
class TestSeededCrashes:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_crash_storm_completes_or_classifies(self, tmp_path, seed):
        kills = random.Random(seed).randint(1, 4)
        FAULTS.reset()
        FAULTS.arm("worker.crash", times=kills)
        code, _, err = run(chaos_config(tmp_path, f"chaos{seed}"))
        manifest = RunStore(tmp_path).load(f"chaos{seed}")
        assert_complete_or_classified(manifest, IDS)
        quarantined = [
            experiment_id
            for experiment_id, record in manifest.records.items()
            if record.status == "error"
        ]
        # max_worker_crashes=2 (the default): every two kills quarantine
        # one experiment; an odd leftover kill is recovered by resubmit.
        assert len(quarantined) == kills // 2
        assert code == (EXIT_FAILED if quarantined else EXIT_OK)
        if quarantined:
            assert "quarantined" in err
        assert "worker crashed running" in err

    @pytest.mark.parametrize("seed", [0, 1])
    def test_resume_after_crash_storm_matches_serial(self, tmp_path, seed):
        kills = random.Random(seed).randint(2, 4)  # ensure a quarantine
        FAULTS.reset()
        FAULTS.arm("worker.crash", times=kills)
        run(chaos_config(tmp_path, "chaos"))
        # The storm is over; --resume retries the quarantined records.
        FAULTS.reset()
        code, out, _ = run(
            CampaignConfig(ids=[], runs_dir=str(tmp_path), resume="chaos", jobs=3)
        )
        assert code == EXIT_OK
        assert "Resuming run chaos" in out
        # Converged manifest == an uninterrupted serial run's manifest.
        serial = chaos_config(tmp_path, "serial", jobs=1)
        assert run(serial)[0] == EXIT_OK
        assert manifest_payload(tmp_path, "chaos") == manifest_payload(
            tmp_path, "serial"
        )

    def test_resume_of_completed_chaos_run_is_noop(self, tmp_path):
        FAULTS.reset()
        FAULTS.arm("worker.crash", times=1)
        assert run(chaos_config(tmp_path, "chaos"))[0] == EXIT_OK
        manifest_path = tmp_path / "chaos" / "manifest.json"
        before = manifest_path.read_bytes()
        FAULTS.reset()
        code, _, _ = run(
            CampaignConfig(ids=[], runs_dir=str(tmp_path), resume="chaos", jobs=3)
        )
        assert code == EXIT_OK
        assert manifest_path.read_bytes() == before

    def test_quarantine_record_is_retried_on_resume(self, tmp_path):
        FAULTS.reset()
        FAULTS.arm("worker.crash", times=2)
        code, _, err = run(chaos_config(tmp_path, "chaos"))
        assert code == EXIT_FAILED
        manifest = RunStore(tmp_path).load("chaos")
        record = manifest.records["e0"]
        assert record.status == "error"
        assert record.error["category"] == "worker-crash"
        assert record.error["context"]["crashes"] == 2
        assert "e0 quarantined after 2 worker death(s)" in err
        FAULTS.reset()
        code, _, _ = run(
            CampaignConfig(ids=[], runs_dir=str(tmp_path), resume="chaos", jobs=3)
        )
        assert code == EXIT_OK
        assert RunStore(tmp_path).load("chaos").records["e0"].status == "passed"


# ----------------------------------------------------------------------
# Stalls and slowdowns
# ----------------------------------------------------------------------
class TestStallsAndSlowdowns:
    def test_stalled_worker_killed_and_recovered(self, tmp_path):
        FAULTS.reset()
        FAULTS.arm("worker.stall", times=1)
        config = chaos_config(
            tmp_path, "stall", jobs=2, stall_timeout_s=0.4, max_worker_crashes=3
        )
        code, _, err = run(config)
        assert code == EXIT_OK
        assert "stalled and was killed" in err
        manifest = RunStore(tmp_path).load("stall")
        assert_complete_or_classified(manifest, IDS)
        assert all(r.status == "passed" for r in manifest.records.values())

    def test_slow_workers_are_not_failures(self, tmp_path):
        FAULTS.reset()
        FAULTS.arm("worker.slow", times=2)
        before = FAULTS.fired_total
        code, _, err = run(chaos_config(tmp_path, "slow", jobs=2))
        assert code == EXIT_OK
        assert FAULTS.fired_total - before == 2  # budget fully consumed
        assert "worker crashed" not in err
        manifest = RunStore(tmp_path).load("slow")
        assert all(r.status == "passed" for r in manifest.records.values())

    def test_mixed_chaos_completes_or_classifies(self, tmp_path):
        FAULTS.reset()
        FAULTS.arm("worker.crash", times=1)
        FAULTS.arm("worker.slow", times=1)
        code, _, _ = run(chaos_config(tmp_path, "mixed", jobs=2))
        assert code == EXIT_OK
        manifest = RunStore(tmp_path).load("mixed")
        assert_complete_or_classified(manifest, IDS)
        assert all(r.status == "passed" for r in manifest.records.values())


# ----------------------------------------------------------------------
# Supervision metrics surface in run artifacts
# ----------------------------------------------------------------------
class TestSupervisionTelemetry:
    def test_crash_counters_reach_metrics(self, tmp_path):
        FAULTS.reset()
        FAULTS.arm("worker.crash", times=1)
        code, _, _ = run(chaos_config(tmp_path, "metrics"))
        assert code == EXIT_OK
        metrics = json.loads((tmp_path / "metrics" / "metrics.json").read_text())
        assert metrics["counters"]["supervisor.crashes"]["value"] == 1
        assert metrics["gauges"]["supervisor.crashes_total"]["value"] == 1


# ----------------------------------------------------------------------
# Attribution: a death is charged to its own process, and promptly
# ----------------------------------------------------------------------
#: Directory the wedging runner leaves its marks in (set per test; a
#: forked worker inherits it).
MARKS = None


def bystander_runner(experiment_id, quick=False):
    """``poison`` kills its own process (no injected fault, so nothing
    makes it run alone) while ``steady`` runs beside it."""
    if experiment_id == "steady":
        time.sleep(1.0)
    elif experiment_id == "poison":
        time.sleep(0.2)
        os._exit(1)
    return ok_runner(experiment_id, quick)


def wedging_runner(experiment_id, quick=False):
    """``wedged`` stops its whole process on the first attempt, so no
    beat can leave it; the others are 30 ms jobs that note when they
    finished."""
    if experiment_id == "wedged":
        first = MARKS / "wedged.first"
        if not first.exists():
            first.touch()
            os.kill(os.getpid(), signal.SIGSTOP)
    else:
        time.sleep(0.03)
        (MARKS / f"{experiment_id}.done").write_text(repr(time.time()))
    return ok_runner(experiment_id, quick)


class StampedStream(io.StringIO):
    """An err stream noting when the wedged worker's kill was reported."""

    def __init__(self):
        super().__init__()
        self.stall_reports = []

    def write(self, text):
        if "stalled and was killed running wedged" in text:
            self.stall_reports.append(time.time())
        return super().write(text)


class TestAttribution:
    def test_crash_is_charged_to_the_process_that_died(self, tmp_path):
        config = chaos_config(
            tmp_path, "bystander", ids=["steady", "poison", "other"], jobs=2
        )
        code, _, err = run(config, runner=bystander_runner)
        assert code == EXIT_FAILED
        records = RunStore(tmp_path).load("bystander").records
        assert records["poison"].status == "error"
        assert records["poison"].error["category"] == "worker-crash"
        assert records["steady"].status == "passed"
        assert records["other"].status == "passed"
        assert "running steady" not in err

    def test_stall_kill_does_not_wait_for_short_jobs(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sys.modules[__name__], "MARKS", tmp_path)
        short = [f"s{i:03d}" for i in range(120)]
        config = chaos_config(
            tmp_path,
            "wedge",
            ids=["wedged", *short],
            jobs=2,
            stall_timeout_s=0.4,
            max_worker_crashes=3,
            save=False,
        )
        err = StampedStream()
        code = run_campaign(config, out=io.StringIO(), err=err, runner=wedging_runner)
        assert code == EXIT_OK, err.getvalue()
        finished = [float((tmp_path / f"{i}.done").read_text()) for i in short]
        assert len(err.stall_reports) == 1
        # The kill is reported while short jobs still complete around
        # it, not once they have all finished.
        assert err.stall_reports[0] < max(finished)
