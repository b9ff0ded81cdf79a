"""The documented public API surface stays importable and coherent."""

import json
import os
import subprocess
import sys

import pytest

import repro


class TestTopLevelApi:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_readme_quickstart_snippet(self):
        """The exact snippet from README.md / the package docstring."""
        from repro import ThreadPackage

        package = ThreadPackage(l2_size=2 * 1024 * 1024)
        seen = []
        package.th_fork(
            lambda a, b: seen.append((a, b)), "hello", "world", hint1=0x10000
        )
        stats = package.th_run(0)
        assert seen == [("hello", "world")]
        assert stats.threads == 1

    def test_readme_simulator_snippet(self):
        from repro import Simulator, r8000
        from repro.apps.matmul import MatmulConfig, VERSIONS

        result = Simulator(r8000(256)).run(
            VERSIONS["threaded"](MatmulConfig(n=16))
        )
        assert "matmul_threaded" in result.summary()
        assert set(result.cache_table_column()) >= {
            "L2 compulsory",
            "L2 capacity",
            "L2 conflict",
        }

    def test_run_experiment_entry_point(self):
        from repro import run_experiment

        with pytest.raises(ValueError):
            run_experiment("not-a-table")


class TestSubpackageApis:
    def test_core_exports(self):
        from repro.core import (
            Bin,
            BinTable,
            LocalityScheduler,
            SchedulingStats,
            ThreadPackage,
            TRAVERSAL_POLICIES,
        )

        assert "greedy" in TRAVERSAL_POLICIES

    def test_extension_classes_importable(self):
        from repro.core.blocking import BlockingThreadPackage, Channel, Event
        from repro.core.deps import DependencyCycleError, DependentThreadPackage
        from repro.mem.paging import ColoredMapper, RandomMapper
        from repro.smp import SmpMachine, SmpSimulator

    def test_apps_registries(self):
        from repro.apps import matmul, nbody, pde, sor

        assert len(matmul.VERSIONS) == 5
        assert len(pde.VERSIONS) == 3
        assert len(sor.VERSIONS) == 3
        assert len(sor.EXTENSION_VERSIONS) == 2
        assert len(nbody.VERSIONS) == 2

    def test_experiment_registry_size(self):
        from repro.exp.registry import EXPERIMENTS

        assert len(EXPERIMENTS) == 15  # 10 paper + 4 extensions + 1 analysis

    def test_dinero_cli_importable(self):
        from repro.trace.dinero import main

        assert callable(main)

    def test_import_leaves_the_jobs_executor_unloaded(self):
        # The --jobs executor (and the multiprocessing it pulls in) loads
        # only when a campaign asks for workers: `import repro` needs the
        # exception types and nothing that runs a campaign.
        code = (
            "import json, sys, repro; "
            "print(json.dumps([m for m in sys.modules if m.startswith('repro.resilience')]))"
        )
        loaded = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        ).stdout
        assert set(json.loads(loaded)) <= {
            "repro.resilience",
            "repro.resilience.checkpoint",
            "repro.resilience.errors",
            "repro.resilience.faults",
            "repro.resilience.retry",
        }
