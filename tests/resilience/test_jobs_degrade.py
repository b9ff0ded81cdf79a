"""The --jobs auto-degrade gate on effectively single-CPU hosts.

Worker processes on one CPU cannot overlap any compute, so their
overhead only slows the campaign (BENCH_sim records the regression).
The gate downgrades to in-process runs, narrates why, and leaves the
campaign's observable results identical; ``--force-parallel`` keeps the
workers regardless.  The resilience suite's autouse ``plenty_of_cpus``
fixture pins an 8-CPU view, so each test here patches the count back
down explicitly.
"""

import io

from repro.exp.base import ExperimentResult
from repro.resilience import campaign as campaign_mod
from repro.resilience.campaign import (
    EXIT_OK,
    CampaignConfig,
    _effective_cpus,
    run_campaign,
)
from repro.resilience.checkpoint import RunStore
from repro.util.tables import TextTable


def make_result(experiment_id, passed=True):
    table = TextTable(["metric", "value"], title=f"Table for {experiment_id}")
    table.add_row(["misses", 12345])
    result = ExperimentResult(experiment_id, f"Table for {experiment_id}", table)
    result.check("shape holds", passed, "measured detail")
    return result


def fake_runner(experiment_id, quick=False):
    return make_result(experiment_id)


def run(config, runner=fake_runner):
    out, err = io.StringIO(), io.StringIO()
    code = run_campaign(config, out=out, err=err, runner=runner)
    return code, out.getvalue(), err.getvalue()


class TestAutoDegrade:
    def test_single_cpu_runs_serially_and_narrates(self, tmp_path, monkeypatch):
        monkeypatch.setattr(campaign_mod, "_effective_cpus", lambda: 1)

        def no_pool(*args, **kwargs):
            raise AssertionError("worker processes must not start on 1 CPU")

        monkeypatch.setattr(
            "repro.resilience.parallel.run_parallel", no_pool
        )
        config = CampaignConfig(
            ids=["a", "b", "c"], runs_dir=str(tmp_path), run_id="r1", jobs=3
        )
        code, out, _ = run(config)
        assert code == EXIT_OK
        assert "--jobs 3 requested but only 1 CPU(s)" in out
        assert "--force-parallel" in out
        manifest = RunStore(tmp_path).load("r1")
        assert [manifest.records[i].status for i in manifest.ids] == [
            "passed"
        ] * 3

    def test_degraded_manifest_matches_serial(self, tmp_path, monkeypatch):
        serial = CampaignConfig(
            ids=["a", "b"], runs_dir=str(tmp_path / "s"), run_id="r1"
        )
        code, _, _ = run(serial)
        assert code == EXIT_OK

        monkeypatch.setattr(campaign_mod, "_effective_cpus", lambda: 1)
        degraded = CampaignConfig(
            ids=["a", "b"], runs_dir=str(tmp_path / "d"), run_id="r1", jobs=4
        )
        code, _, _ = run(degraded)
        assert code == EXIT_OK

        left = RunStore(tmp_path / "s").load("r1")
        right = RunStore(tmp_path / "d").load("r1")
        assert left.ids == right.ids
        for i in left.ids:
            assert left.records[i].status == right.records[i].status
            assert left.records[i].checks == right.records[i].checks

    def test_multi_cpu_host_keeps_pool(self, tmp_path, monkeypatch):
        calls = []

        def fake_pool(config, *rest):
            calls.append(config.jobs)
            yield from ()  # a source of no records

        monkeypatch.setattr(
            "repro.resilience.parallel.run_parallel", fake_pool
        )
        config = CampaignConfig(
            ids=["a", "b"], runs_dir=str(tmp_path), run_id="r1", jobs=2
        )
        code, out, _ = run(config)
        assert calls == [2]
        assert "requested but only" not in out

    def test_force_parallel_overrides_gate(self, tmp_path, monkeypatch):
        monkeypatch.setattr(campaign_mod, "_effective_cpus", lambda: 1)
        calls = []

        def fake_pool(config, *rest):
            calls.append(config.jobs)
            yield from ()

        monkeypatch.setattr(
            "repro.resilience.parallel.run_parallel", fake_pool
        )
        config = CampaignConfig(
            ids=["a", "b"],
            runs_dir=str(tmp_path),
            run_id="r1",
            jobs=2,
            force_parallel=True,
        )
        code, out, _ = run(config)
        assert calls == [2]
        assert "requested but only" not in out


class TestEffectiveCpus:
    def test_returns_positive(self):
        assert _effective_cpus() >= 1

    def test_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr("os.sched_getaffinity", raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: None)
        assert _effective_cpus() == 1
