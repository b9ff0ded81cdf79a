"""Profile artifacts through the run store's objects and the doctor.

Profiles are objects like records: written whole and sealed with their
own checksum, verified by repro-doctor (D019 when corrupt) and deleted
by ``--repair``.  The campaign driver writes one
``<experiment>.profile.json`` per experiment when ``--profile`` is on,
identically from the serial and ``--jobs`` paths.
"""

import io
import json

from repro.exp.base import ExperimentResult
from repro.resilience.campaign import EXIT_OK, CampaignConfig, run_campaign
from repro.resilience.checkpoint import RunStore, read_object
from repro.resilience.doctor import audit_run, repair
from repro.util.tables import TextTable


def fake_runner(experiment_id, quick=False):
    table = TextTable(["metric", "value"], title=f"Table for {experiment_id}")
    table.add_row(["misses", 12345])
    result = ExperimentResult(experiment_id, f"Table for {experiment_id}", table)
    result.check("shape holds", True, "measured detail")
    return result


def run(config, runner=fake_runner):
    out, err = io.StringIO(), io.StringIO()
    code = run_campaign(config, out=out, err=err, runner=runner)
    return code, out.getvalue(), err.getvalue()


def profiled_run(tmp_path, run_id="r1", ids=("a",)):
    config = CampaignConfig(
        ids=list(ids), runs_dir=str(tmp_path), run_id=run_id, profile=True
    )
    code, out, _ = run(config)
    assert code == EXIT_OK
    return RunStore(tmp_path)


class TestArtifactPersistence:
    def test_profile_artifact_written_beside_result(self, tmp_path):
        store = profiled_run(tmp_path)
        path = tmp_path / "r1" / "a.profile.json"
        assert path.exists()
        payload = json.loads(path.read_text())
        assert payload["experiment_id"] == "a"
        assert payload["schema"] == 1

    def test_profile_artifact_sealed_by_checksum(self, tmp_path):
        profiled_run(tmp_path)
        payload = read_object(tmp_path / "r1" / "a.profile.json")
        assert payload["experiment_id"] == "a"
        assert "sha256" not in payload

    def test_profile_is_not_a_result_file(self, tmp_path):
        # The `<id>.profile` stem never collides with a record, so
        # resume keeps treating records as the source of truth and
        # profiles as companions.
        store = profiled_run(tmp_path)
        assert set(store.load("r1").records) == {"a"}

    def test_no_profile_flag_no_artifact(self, tmp_path):
        config = CampaignConfig(
            ids=["a"], runs_dir=str(tmp_path), run_id="r1"
        )
        code, _, _ = run(config)
        assert code == EXIT_OK
        assert not list((tmp_path / "r1").glob("*.profile.json"))


class TestDoctor:
    def test_profiled_run_audits_clean(self, tmp_path):
        store = profiled_run(tmp_path)
        assert audit_run(store, "r1") == []

    def test_corrupt_artifact_is_d019(self, tmp_path):
        store = profiled_run(tmp_path)
        path = tmp_path / "r1" / "a.profile.json"
        payload = json.loads(path.read_text())
        payload["experiment_id"] = "b"  # still parses, no longer matches
        path.write_text(json.dumps(payload))
        findings = audit_run(store, "r1")
        assert [f.code for f in findings] == ["D019"]
        repair(findings)
        assert not path.exists()
        assert audit_run(store, "r1") == []


class TestSerialParallelIdentity:
    def test_merged_profiles_byte_identical_to_serial(self, tmp_path):
        # Real experiments: the parallel path collects profiles in the
        # workers and persists them from the parent, and the payload is
        # deterministic, so the artifacts must match byte for byte.
        ids = ["table5", "table9"]
        for run_id, jobs in (("serial", 1), ("par", 2)):
            config = CampaignConfig(
                ids=list(ids),
                quick=True,
                runs_dir=str(tmp_path),
                run_id=run_id,
                profile=True,
                jobs=jobs,
            )
            out, err = io.StringIO(), io.StringIO()
            code = run_campaign(config, out=out, err=err)
            assert code == EXIT_OK, err.getvalue()
        for experiment_id in ids:
            name = f"{experiment_id}.profile.json"
            serial = (tmp_path / "serial" / name).read_bytes()
            parallel = (tmp_path / "par" / name).read_bytes()
            assert serial == parallel, name
