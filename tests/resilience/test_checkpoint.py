"""Tests for the run store's sealed objects and the manifest report."""

import json

import pytest

from repro.exp.base import ExperimentResult
from repro.resilience.checkpoint import (
    ExperimentRecord,
    RunManifest,
    RunStore,
    atomic_write_json,
    checksum,
    read_object,
    seal,
    write_object,
)
from repro.resilience.errors import (
    CheckpointError,
    FaultInjected,
    SimulationError,
    StoreCorruptionError,
)
from repro.resilience.faults import FAULTS
from repro.util.tables import TextTable


def make_result(experiment_id="table1", passed=True):
    table = TextTable(["col"], title=f"Title {experiment_id}")
    table.add_row([1])
    result = ExperimentResult(experiment_id, f"Title {experiment_id}", table)
    result.check("claim holds", passed, "detail")
    return result


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "m.json"
        atomic_write_json(path, {"a": 1})
        atomic_write_json(path, {"a": 2})
        assert json.loads(path.read_text()) == {"a": 2}
        assert not list(tmp_path.glob("*.tmp"))

    def test_crash_during_write_keeps_previous_version(self, tmp_path):
        """An armed checkpoint.write fault simulates dying after the temp
        write but before the rename: the published file must be intact."""
        path = tmp_path / "m.json"
        atomic_write_json(path, {"generation": 1})
        FAULTS.arm("checkpoint.write", times=1)
        with pytest.raises(FaultInjected):
            atomic_write_json(path, {"generation": 2})
        assert json.loads(path.read_text()) == {"generation": 1}

    def test_unwritable_path_raises_checkpoint_error(self, tmp_path):
        missing_dir = tmp_path / "no" / "such" / "dir" / "m.json"
        with pytest.raises(CheckpointError):
            atomic_write_json(missing_dir, {})


class TestRecords:
    def test_from_result_roundtrip(self):
        record = ExperimentRecord.from_result(make_result(), 1.25, attempts=2)
        clone = ExperimentRecord.from_dict(record.to_dict())
        assert clone == record
        assert clone.status == "passed"
        assert clone.is_final
        assert clone.checks[0]["claim"] == "claim holds"

    def test_failed_checks_status(self):
        record = ExperimentRecord.from_result(make_result(passed=False), 0.5)
        assert record.status == "failed"
        assert record.is_final

    def test_from_error_captures_classification_and_context(self):
        exc = SimulationError("boom", machine="R8000/64", program="pde")
        record = ExperimentRecord.from_error("table4", exc, 0.1, attempts=3)
        assert record.status == "error"
        assert not record.is_final
        assert record.error["category"] == "simulation"
        assert record.error["context"]["machine"] == "R8000/64"
        assert record.attempts == 3


class TestManifest:
    def test_remaining_and_counts(self):
        manifest = RunManifest(run_id="r", ids=["a", "b", "c"])
        manifest.records["a"] = ExperimentRecord("a", "passed")
        manifest.records["b"] = ExperimentRecord("b", "error")
        assert manifest.remaining() == ["b", "c"]
        assert manifest.counts() == {
            "passed": 1,
            "failed": 0,
            "error": 1,
            "pending": 1,
        }

    def test_roundtrip(self):
        manifest = RunManifest(run_id="r", ids=["a"], quick=True, interrupted=True)
        manifest.records["a"] = ExperimentRecord("a", "failed", rendered="T")
        clone = RunManifest.from_dict(manifest.to_dict())
        assert clone == manifest


class TestRunStore:
    def test_new_run_persists_plan(self, tmp_path):
        store = RunStore(tmp_path)
        manifest = store.new_run(["a", "b"], quick=True, run_id="r1")
        loaded = store.load("r1")
        assert loaded.ids == ["a", "b"]
        assert loaded.quick
        assert loaded.remaining() == ["a", "b"]

    def test_record_writes_both_artifacts(self, tmp_path):
        store = RunStore(tmp_path)
        manifest = store.new_run(["table1"], run_id="r1")
        store.record(manifest, ExperimentRecord.from_result(make_result(), 0.2))
        per_experiment = json.loads(store.result_path("r1", "table1").read_text())
        assert per_experiment["status"] == "passed"
        report = json.loads(store.manifest_path("r1").read_text())
        assert report["records"]["table1"]["status"] == "passed"
        assert store.load("r1").records["table1"].status == "passed"

    def test_objects_are_sealed_with_their_checksum(self, tmp_path):
        store = RunStore(tmp_path)
        manifest = store.new_run(["a"], run_id="r1")
        record = ExperimentRecord("a", "passed", rendered="T")
        store.record(manifest, record)
        stored = json.loads(store.result_path("r1", "a").read_text())
        assert stored == seal(record.to_dict())
        assert stored["sha256"] == checksum(record.to_dict())
        plan = read_object(store.plan_path("r1"))
        assert plan == manifest.plan_payload()
        assert "sha256" not in json.loads(store.manifest_path("r1").read_text())

    def test_duplicate_run_id_rejected(self, tmp_path):
        store = RunStore(tmp_path)
        store.new_run(["a"], run_id="r1")
        with pytest.raises(CheckpointError, match="already exists"):
            store.new_run(["a"], run_id="r1")

    def test_load_missing_run_names_known_runs(self, tmp_path):
        store = RunStore(tmp_path)
        store.new_run(["a"], run_id="seen")
        with pytest.raises(CheckpointError, match="seen"):
            store.load("never-created")

    def test_load_never_reads_the_manifest_report(self, tmp_path):
        store = RunStore(tmp_path)
        manifest = store.new_run(["a", "b"], run_id="r1")
        store.record(manifest, ExperimentRecord("a", "passed", rendered="T"))
        store.manifest_path("r1").write_text("{ not json")
        loaded = store.load("r1")
        assert loaded.ids == ["a", "b"]
        assert loaded.records["a"].rendered == "T"

    def test_load_corrupt_plan_raises(self, tmp_path):
        store = RunStore(tmp_path)
        store.new_run(["a"], run_id="r1")
        store.plan_path("r1").write_text("{ not json")
        with pytest.raises(StoreCorruptionError, match="corrupt"):
            store.load("r1")

    def test_corrupt_or_misnamed_record_is_pending(self, tmp_path):
        store = RunStore(tmp_path)
        manifest = store.new_run(["a", "b"], run_id="r1")
        for experiment_id in ("a", "b"):
            store.record(manifest, ExperimentRecord(experiment_id, "passed"))
        store.result_path("r1", "a").write_text("{ torn")
        # Sealed and intact, but filed under another experiment's name.
        write_object(
            store.result_path("r1", "b"), ExperimentRecord("a", "passed").to_dict()
        )
        loaded = store.load("r1")
        assert loaded.records == {}
        assert loaded.corrupt == ["a", "b"]
        assert loaded.remaining() == ["a", "b"]

    def test_interrupted_flag_survives_a_reload(self, tmp_path):
        store = RunStore(tmp_path)
        manifest = store.new_run(["a"], run_id="r1")
        manifest.interrupted = True
        store.save(manifest)
        assert store.load("r1").interrupted
        manifest.interrupted = False
        store.save(manifest)
        assert not store.load("r1").interrupted

    def test_generated_run_ids_sortable(self):
        run_id = RunStore.generate_run_id()
        assert len(run_id.split("-")) == 3
