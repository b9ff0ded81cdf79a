"""``repro-doctor``: verifying, deleting and sweeping the run store."""

import json

from repro.resilience.checkpoint import ExperimentRecord, RunStore
from repro.resilience.doctor import (
    CODES,
    audit_run,
    discover_runs,
    main,
    repair,
)


def make_store(tmp_path, ids=("a", "b"), run_id="r1", records=("a",)):
    """A run with ``records`` recorded out of the planned ``ids``."""
    store = RunStore(tmp_path)
    manifest = store.new_run(list(ids), run_id=run_id)
    for experiment_id in records:
        store.record(
            manifest,
            ExperimentRecord(
                experiment_id=experiment_id, status="passed", rendered="ok"
            ),
        )
    return store, manifest


def codes(findings):
    return sorted(f.code for f in findings)


def tear(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


class TestAudit:
    def test_clean_run_has_no_findings(self, tmp_path):
        store, _ = make_store(tmp_path)
        assert audit_run(store, "r1") == []

    def test_nothing_survives(self, tmp_path):
        store = RunStore(tmp_path)
        (tmp_path / "empty").mkdir()
        findings = audit_run(store, "empty")
        assert codes(findings) == ["D015"]
        assert not findings[0].repairable

    def test_corrupt_plan_is_d015_and_kept(self, tmp_path):
        store, _ = make_store(tmp_path)
        tear(store.plan_path("r1"))
        findings = audit_run(store, "r1")
        assert codes(findings) == ["D015"]
        assert findings[0].severity == "error"
        assert repair(findings) == []
        assert store.plan_path("r1").exists()

    def test_corrupt_record_is_d019(self, tmp_path):
        store, _ = make_store(tmp_path)
        tear(store.result_path("r1", "a"))
        findings = audit_run(store, "r1")
        assert codes(findings) == ["D019"]
        assert findings[0].severity == "warning"
        assert findings[0].paths == [store.result_path("r1", "a")]

    def test_unreadable_object_is_d002(self, tmp_path):
        store, _ = make_store(tmp_path)
        path = store.result_path("r1", "a")
        path.unlink()
        path.mkdir()  # reading a directory is an OSError, not corruption
        findings = audit_run(store, "r1")
        assert codes(findings) == ["D002"]
        assert not findings[0].repairable

    def test_manifest_report_is_not_audited(self, tmp_path):
        # --resume rewrites the report from the objects.
        store, _ = make_store(tmp_path)
        tear(store.manifest_path("r1"))
        assert audit_run(store, "r1") == []

    def test_orphaned_tmp(self, tmp_path):
        store, _ = make_store(tmp_path)
        (store.run_dir("r1") / "manifest.json.tmp").write_text("{}")
        assert "D011" in codes(audit_run(store, "r1"))


class TestDiscovery:
    def test_only_directories_with_artifacts(self, tmp_path):
        make_store(tmp_path)
        (tmp_path / "not-a-run").mkdir()
        (tmp_path / "stray.txt").write_text("x")
        orphan = tmp_path / "half-written"
        orphan.mkdir()
        (orphan / "manifest.json.tmp").write_text("{}")
        assert discover_runs(tmp_path) == ["half-written", "r1"]

    def test_missing_root(self, tmp_path):
        assert discover_runs(tmp_path / "absent") == []


class TestRepair:
    def test_repairs_debris(self, tmp_path):
        store, _ = make_store(tmp_path)
        (store.run_dir("r1") / "result.json.tmp").write_text("{}")
        assert repair(audit_run(store, "r1"))
        assert audit_run(store, "r1") == []
        assert not list(store.run_dir("r1").glob("*.tmp"))

    def test_repair_deletes_corrupt_record_so_it_reads_as_pending(
        self, tmp_path
    ):
        store, _ = make_store(tmp_path)
        tear(store.result_path("r1", "a"))
        actions = repair(audit_run(store, "r1"))
        assert actions == ["D019: deleted a.json"]
        assert not store.result_path("r1", "a").exists()
        assert audit_run(store, "r1") == []
        assert store.load("r1").remaining() == ["a", "b"]

    def test_unrepairable_run_stays_an_error(self, tmp_path):
        (tmp_path / "r1").mkdir()
        assert main(["--runs-dir", str(tmp_path), "r1", "--repair"]) == 1


class TestCli:
    def test_list_codes(self, capsys):
        assert main(["--list-codes"]) == 0
        out = capsys.readouterr().out
        for code in CODES:
            assert code in out
        assert len(out.splitlines()) == len(CODES) <= 4

    def test_no_runs_is_healthy(self, tmp_path, capsys):
        assert main(["--runs-dir", str(tmp_path)]) == 0
        assert "no runs" in capsys.readouterr().out

    def test_error_findings_exit_1_without_repair(self, tmp_path):
        store, _ = make_store(tmp_path)
        tear(store.plan_path("r1"))
        assert main(["--runs-dir", str(tmp_path)]) == 1

    def test_repair_exits_0_and_heals(self, tmp_path, capsys):
        store, _ = make_store(tmp_path)
        tear(store.result_path("r1", "a"))
        assert main(["--runs-dir", str(tmp_path), "--repair"]) == 0
        assert "deleted a.json" in capsys.readouterr().out
        assert main(["--runs-dir", str(tmp_path)]) == 0
        assert "0 error(s), 0 warning(s)" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        store, _ = make_store(tmp_path)
        (store.run_dir("r1") / "junk.tmp").write_text("")
        assert main(["--runs-dir", str(tmp_path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["code"] == "D011"
        assert payload["findings"][0]["paths"] == [
            str(store.run_dir("r1") / "junk.tmp")
        ]
        assert payload["healthy"] is False

    def test_unknown_run_id_reports_nothing_survives(self, tmp_path):
        make_store(tmp_path)
        assert main(["--runs-dir", str(tmp_path), "ghost"]) == 1


class TestEventBus:
    def test_findings_published_when_telemetry_live(self, tmp_path):
        from repro.obs.config import set_telemetry
        from repro.obs.telemetry import Telemetry

        store, _ = make_store(tmp_path)
        tear(store.plan_path("r1"))
        obs = Telemetry()
        previous = set_telemetry(obs)
        try:
            main(["--runs-dir", str(tmp_path), "-q"])
        finally:
            set_telemetry(previous)
        findings = [
            e for e in obs.bus.events if e["name"] == "doctor.finding"
        ]
        assert findings and findings[0]["args"]["code"] == "D015"
