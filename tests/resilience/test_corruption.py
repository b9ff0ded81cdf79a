"""Seeded corruption suite: the object store under disk damage.

The contract of the run store: every stored thing is an object that
carries its own checksum, a corrupt object reads as missing, and a
missing record is re-run.  So for every way the bytes under
``runs/<run-id>/`` can be damaged — torn, bit-flipped or deleted
``manifest.json`` report, a record whose text changed but still
parses, a store write that fails or tears mid-campaign — ``--resume``
alone converges to a manifest byte-identical (modulo run identity and
timing, the chaos suite's convention) to an uninterrupted serial run.
Only ``plan.json`` cannot be recomputed: damaging it is a classified
``StoreCorruptionError``.  Plus: the every-byte-offset truncation
property on a record and on the plan, and the ``io.*`` fault sites'
observable behaviour.
"""

import json

import pytest

from repro.exp.cli import main as experiments_main
from repro.resilience.campaign import CampaignConfig
from repro.resilience.checkpoint import ExperimentRecord, RunStore
from repro.resilience.doctor import main as doctor_main
from repro.resilience.errors import (
    CheckpointError,
    ConfigError,
    FaultInjected,
    ReproError,
    StoreCorruptionError,
    classify_error,
)
from repro.resilience.faults import FAULTS
from tests.resilience.test_chaos import manifest_payload, ok_runner, run

IDS = ["e0", "e1", "e2", "e3", "e4", "e5"]


def serial_config(tmp_path, run_id, **kwargs):
    kwargs.setdefault("ids", list(IDS))
    return CampaignConfig(runs_dir=str(tmp_path), run_id=run_id, **kwargs)


def completed_run(tmp_path, run_id):
    code, _, _ = run(serial_config(tmp_path, run_id))
    assert code == 0
    return RunStore(tmp_path)


def arming_runner(arm_at, site):
    """A runner that arms ``site`` right before ``arm_at`` is recorded,
    so the fault lands on the store writes of that experiment —
    mid-campaign, after earlier experiments persisted cleanly."""

    def runner(experiment_id, quick=False):
        result = ok_runner(experiment_id, quick=quick)
        if experiment_id == arm_at:
            FAULTS.arm(site)
        return result

    return runner


def resume(tmp_path, run_id, runner=ok_runner):
    code, out, err = run(serial_config(tmp_path, None, resume=run_id), runner)
    assert code == 0, err
    return out, err


def flip_middle_byte(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


class TestSeededCorruptionConvergence:
    """Each scenario: damage, ``--resume`` alone, byte-identity."""

    def assert_converges(self, tmp_path, run_id="hurt"):
        resume(tmp_path, run_id)
        assert manifest_payload(tmp_path, run_id) == manifest_payload(
            tmp_path, "base"
        )

    def test_torn_manifest(self, tmp_path):
        completed_run(tmp_path, "base")
        store = completed_run(tmp_path, "hurt")
        data = store.manifest_path("hurt").read_bytes()
        store.manifest_path("hurt").write_bytes(data[: int(len(data) * 0.6)])
        self.assert_converges(tmp_path)

    def test_bit_flipped_manifest(self, tmp_path):
        completed_run(tmp_path, "base")
        store = completed_run(tmp_path, "hurt")
        flip_middle_byte(store.manifest_path("hurt"))
        self.assert_converges(tmp_path)

    def test_missing_manifest(self, tmp_path):
        completed_run(tmp_path, "base")
        store = completed_run(tmp_path, "hurt")
        store.manifest_path("hurt").unlink()
        self.assert_converges(tmp_path)

    def test_result_without_manifest_record_window(self, tmp_path, monkeypatch):
        # Crash between e2's record object and the report flush after
        # it: the record is published, the report never learns of it.
        completed_run(tmp_path, "base")
        store = RunStore(tmp_path)
        real_save = RunStore.save

        def save(self, manifest):
            if "e2" in manifest.records:
                raise FaultInjected("crash before the report flush")
            real_save(self, manifest)

        monkeypatch.setattr(RunStore, "save", save)
        with pytest.raises(FaultInjected):
            run(serial_config(tmp_path, "hurt"))
        monkeypatch.undo()
        manifested = json.loads(store.manifest_path("hurt").read_text())
        assert "e2" not in manifested["records"]
        assert store.load("hurt").records["e2"].status == "passed"
        self.assert_converges(tmp_path)

    def test_enospc_mid_campaign(self, tmp_path):
        completed_run(tmp_path, "base")
        with pytest.raises(CheckpointError, match="space"):
            run(
                serial_config(tmp_path, "hurt"),
                runner=arming_runner("e2", "io.enospc"),
            )
        manifested = json.loads(store_path(tmp_path, "hurt").read_text())
        assert "e2" not in manifested["records"]  # its writes never landed
        self.assert_converges(tmp_path)

    def test_edited_record_that_still_parses(self, tmp_path):
        completed_run(tmp_path, "base")
        store = completed_run(tmp_path, "hurt")
        path = store.result_path("hurt", "e3")
        payload = json.loads(path.read_text())
        payload["rendered"] = payload["rendered"].replace("Table", "Tabel", 1)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

        assert doctor_main(["--runs-dir", str(tmp_path), "hurt"]) == 0
        findings = [
            f for f in audit(tmp_path, "hurt") if f.code == "D019"
        ]
        assert [f.paths for f in findings] == [[path]]

        reran = []

        def counting_runner(experiment_id, quick=False):
            reran.append(experiment_id)
            return ok_runner(experiment_id, quick=quick)

        _, err = resume(tmp_path, "hurt", counting_runner)
        assert reran == ["e3"]
        assert "e3 are corrupt" in err
        assert manifest_payload(tmp_path, "hurt") == manifest_payload(
            tmp_path, "base"
        )
        assert audit(tmp_path, "hurt") == []


def audit(tmp_path, run_id):
    from repro.resilience.doctor import audit_run

    return audit_run(RunStore(tmp_path), run_id)


def store_path(tmp_path, run_id):
    return RunStore(tmp_path).manifest_path(run_id)


@pytest.mark.parametrize(
    "site, outcome",
    [
        ("checkpoint.write", "fault"),
        ("io.enospc", "checkpoint"),
        ("io.fsync-fail", "checkpoint"),
        ("io.torn-write", "checkpoint"),
        ("io.corrupt", 0),  # silent: the writer believes it succeeded
    ],
)
def test_store_fault_mid_campaign_converges_by_resume_alone(
    tmp_path, site, outcome
):
    completed_run(tmp_path, "base")
    try:
        ended, _, _ = run(
            serial_config(tmp_path, "hurt"), runner=arming_runner("e2", site)
        )
    except ReproError as exc:
        ended = classify_error(exc)
    assert ended == outcome
    resume(tmp_path, "hurt")
    assert manifest_payload(tmp_path, "hurt") == manifest_payload(
        tmp_path, "base"
    )


class TestDamagedPlan:
    """The plan is the one object nothing can recompute."""

    @pytest.mark.parametrize("damage", ["torn", "flipped"])
    def test_damaged_plan_is_classified_exit_2(self, tmp_path, capsys, damage):
        store = completed_run(tmp_path, "hurt")
        path = store.plan_path("hurt")
        if damage == "torn":
            path.write_bytes(path.read_bytes()[:40])
        else:
            flip_middle_byte(path)
        with pytest.raises(StoreCorruptionError) as excinfo:
            store.load("hurt")
        assert classify_error(excinfo.value) == "corruption"
        code = experiments_main(
            ["--runs-dir", str(tmp_path), "--resume", "hurt"]
        )
        assert code == 2
        assert "corrupt run store" in capsys.readouterr().err

    def test_run_without_plan_asks_for_a_new_run(self, tmp_path):
        store = RunStore(tmp_path)
        run_dir = store.run_dir("old")
        run_dir.mkdir()
        (run_dir / "manifest.json").write_text(
            json.dumps({"version": 2, "run_id": "old", "ids": ["a"]})
        )
        with pytest.raises(CheckpointError, match="start a new run") as excinfo:
            store.load("old")
        assert not isinstance(excinfo.value, StoreCorruptionError)


class TestTornWriteProperty:
    """Truncate an object at *every* byte offset: a record reads as
    pending, the plan as a classified corruption, and nothing else
    escapes."""

    def make_run(self, tmp_path):
        store = RunStore(tmp_path)
        manifest = store.new_run(["a", "b"], run_id="r1")
        store.record(
            manifest,
            ExperimentRecord(experiment_id="a", status="passed", rendered="ok"),
        )
        return store

    def test_every_truncation_of_a_record_reads_as_pending(self, tmp_path):
        store = self.make_run(tmp_path)
        path = store.result_path("r1", "a")
        data = path.read_bytes()
        for offset in range(len(data)):
            path.write_bytes(data[:offset])
            loaded = store.load("r1")  # never raises: the plan is intact
            assert loaded.ids == ["a", "b"]
            if "a" in loaded.records:  # only a complete object verifies
                assert data[:offset].rstrip() == data.rstrip()
            else:
                assert loaded.remaining() == ["a", "b"]

    def test_every_truncation_of_the_plan_is_classified(self, tmp_path):
        store = self.make_run(tmp_path)
        path = store.plan_path("r1")
        data = path.read_bytes()
        for offset in range(len(data)):
            path.write_bytes(data[:offset])
            try:
                store.load("r1")
            except StoreCorruptionError:
                continue
            assert data[:offset].rstrip() == data.rstrip()


class TestIoFaultSites:
    def test_enospc_keeps_previous_manifest(self, tmp_path):
        store = RunStore(tmp_path)
        manifest = store.new_run(["a"], run_id="r1")
        before = store.manifest_path("r1").read_bytes()
        FAULTS.arm("io.enospc")
        with pytest.raises(CheckpointError, match="disk full"):
            store.save(manifest)
        assert store.manifest_path("r1").read_bytes() == before
        assert not list(store.run_dir("r1").glob("*.tmp"))

    def test_fsync_fail_keeps_previous_manifest(self, tmp_path):
        store = RunStore(tmp_path)
        manifest = store.new_run(["a"], run_id="r1")
        before = store.manifest_path("r1").read_bytes()
        FAULTS.arm("io.fsync-fail")
        with pytest.raises(CheckpointError):
            store.save(manifest)
        assert store.manifest_path("r1").read_bytes() == before

    def test_torn_write_reads_as_missing(self, tmp_path):
        store = RunStore(tmp_path)
        manifest = store.new_run(["a"], run_id="r1")
        FAULTS.arm("io.torn-write")
        with pytest.raises(CheckpointError, match="torn"):
            store.record(
                manifest,
                ExperimentRecord(
                    experiment_id="a", status="passed", rendered="ok"
                ),
            )
        assert store.result_path("r1", "a").exists()  # the torn prefix
        loaded = store.load("r1")
        assert loaded.records == {}
        assert loaded.corrupt == ["a"]

    def test_silent_corruption_caught_on_next_load(self, tmp_path):
        store = RunStore(tmp_path)
        manifest = store.new_run(["a"], run_id="r1")
        FAULTS.arm("io.corrupt")
        store.record(  # "succeeds": the writer never sees the flip
            manifest,
            ExperimentRecord(experiment_id="a", status="passed", rendered="ok"),
        )
        loaded = store.load("r1")
        assert loaded.corrupt == ["a"]  # the checksum exposed the flip
        assert loaded.remaining() == ["a"]

    def test_unknown_io_site_lists_valid_sites(self):
        with pytest.raises(ConfigError, match="io.enospc"):
            FAULTS.arm_from_spec("io.bogus")

    def test_io_spec_arms_through_cli_grammar(self):
        fault = FAULTS.arm_from_spec("io.torn-write::2")
        assert fault.site == "io.torn-write"
        assert fault.times == 2
        FAULTS.reset()

    def test_io_sites_fire_in_parent_under_jobs(self):
        from repro.resilience.parallel import PARENT_SITES

        assert {
            "io.enospc", "io.fsync-fail", "io.torn-write", "io.corrupt",
        } <= set(PARENT_SITES)


class TestTmpSweep:
    def test_stray_tmp_removed_on_resume(self, tmp_path):
        store = completed_run(tmp_path, "r1")
        stray = store.run_dir("r1") / "manifest.json.tmp"
        stray.write_text("half-written")
        store.load("r1")  # a reader never sweeps: a writer may be live
        assert stray.exists()
        resume(tmp_path, "r1")
        assert not stray.exists()

    def test_stray_tmp_removed_on_new_run(self, tmp_path):
        store = RunStore(tmp_path)
        run_dir = store.run_dir("r1")
        run_dir.mkdir(parents=True)
        stray = run_dir / "e1.json.tmp"
        stray.write_text("half-written")
        store.new_run(["a"], run_id="r1")
        assert not stray.exists()


class TestSupervisorHeartbeatDir:
    def test_parallel_campaign_leaves_no_heartbeat_dir(self, tmp_path):
        config = CampaignConfig(
            ids=["e0", "e1"],
            runs_dir=str(tmp_path),
            run_id="par",
            jobs=2,
        )
        code, _, _ = run(config)
        assert code == 0
        assert not (tmp_path / "par" / ".hb").exists()


class TestTransientReadClassification:
    def test_unreadable_plan_is_transient_not_corrupt(self, tmp_path):
        store = RunStore(tmp_path)
        store.new_run(["a"], run_id="r1")
        path = store.plan_path("r1")
        # Make the read itself fail (IsADirectoryError is an OSError);
        # chmod tricks don't work when the tests run as root.
        path.unlink()
        path.mkdir()
        try:
            with pytest.raises(CheckpointError) as excinfo:
                store.load("r1")
        finally:
            path.rmdir()
        assert excinfo.value.transient
        assert not isinstance(excinfo.value, StoreCorruptionError)
        assert "transient" in str(excinfo.value)
