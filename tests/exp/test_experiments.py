"""Integration tests: every experiment runs in quick mode, preserves
the paper's qualitative shapes, and reproduces its pinned numbers."""

import hashlib
import json
import numbers
from pathlib import Path

import pytest

from repro.exp.registry import EXPERIMENTS, run_experiment

GOLDEN_QUICK = Path(__file__).with_name("golden_quick.json")

#: Fields left out of the golden digests: wall-clock measurements, and
#: payloads that pass through numpy/scipy builds rather than integers.
UNPINNED = {
    "table1": ("fork_us", "run_us"),
    "extension_deps": ("errors",),
}

#: Significant digits floats keep in a digest.
DIGEST_DIGITS = 10


@pytest.fixture(scope="module")
def quick_results():
    """Run every experiment once in quick mode (shared across tests)."""
    return {
        experiment_id: run_experiment(experiment_id, quick=True)
        for experiment_id in EXPERIMENTS
    }


class TestAllExperiments:
    @pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
    def test_shape_checks_pass(self, quick_results, experiment_id):
        result = quick_results[experiment_id]
        failed = [str(c) for c in result.checks if not c.passed]
        assert not failed, "\n".join(failed)

    @pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
    def test_has_checks_and_renders(self, quick_results, experiment_id):
        result = quick_results[experiment_id]
        assert result.checks, "every experiment asserts paper claims"
        rendered = result.render()
        assert result.title in rendered
        assert "PASS" in rendered


def _canonical(value):
    """``value`` with dict keys as strings and floats rounded."""
    if isinstance(value, dict):
        return {str(key): _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(f"{value:.{DIGEST_DIGITS}g}")
    return value


def golden_digest(experiment_id: str, raw: dict) -> str:
    """sha256 of an experiment's quick ``raw`` result, canonicalised."""
    pinned = {
        key: value
        for key, value in raw.items()
        if key not in UNPINNED.get(experiment_id, ())
    }
    text = json.dumps(_canonical(pinned), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
def test_quick_numbers_match_golden_digests(quick_results, experiment_id):
    """Every simulated number of every experiment, pinned.

    Counts and modeled times are digested (floats to
    ``DIGEST_DIGITS`` significant digits); table1's measured
    ``fork_us``/``run_us`` and extension_deps' numpy-computed ``errors``
    are left out (see ``UNPINNED``).  A change that moves a number
    re-pins ``golden_quick.json`` and says why in CHANGES.md.
    """
    expected = json.loads(GOLDEN_QUICK.read_text())
    actual = golden_digest(experiment_id, quick_results[experiment_id].raw)
    assert actual == expected[experiment_id], (
        f"{experiment_id}: quick numbers changed (digest {actual}); "
        f"raw = {quick_results[experiment_id].raw!r}"
    )


class TestTableContents:
    def test_table1_reports_measured_overhead(self, quick_results):
        raw = quick_results["table1"].raw
        assert raw["fork_us"] > 0
        assert raw["run_us"] > 0

    def test_table2_five_versions(self, quick_results):
        seconds = quick_results["table2"].raw["seconds"]
        assert set(seconds) == {
            "interchanged",
            "transposed",
            "tiled_interchanged",
            "tiled_transposed",
            "threaded",
        }
        assert all(len(v) == 2 for v in seconds.values())

    def test_table3_columns_match_paper(self, quick_results):
        raw = quick_results["table3"].raw
        assert set(raw) == {"interchanged", "tiled_interchanged", "threaded"}
        for column in raw.values():
            assert column["L2 misses"] >= column["L2 compulsory"]

    def test_cache_tables_classes_partition(self, quick_results):
        for experiment_id in ("table3", "table5", "table7", "table9"):
            for version, column in quick_results[experiment_id].raw.items():
                total = column["L2 misses"]
                parts = (
                    column["L2 compulsory"]
                    + column["L2 capacity"]
                    + column["L2 conflict"]
                )
                assert parts == total, (experiment_id, version)

    def test_figure4_has_all_series(self, quick_results):
        series = quick_results["figure4"].raw["series"]
        assert set(series) == {"matmul", "PDE", "SOR", "N-body"}
        assert all(len(times) == 7 for times in series.values())

    def test_figure4_times_positive_and_finite(self, quick_results):
        for times in quick_results["figure4"].raw["series"].values():
            assert all(0 < t < 1e6 for t in times)


class TestRegistry:
    def test_all_paper_tables_and_extensions_registered(self):
        from repro.exp.registry import EXTENSION_EXPERIMENTS, PAPER_EXPERIMENTS

        assert set(PAPER_EXPERIMENTS) == {
            f"table{i}" for i in range(1, 10)
        } | {"figure4"}
        from repro.exp.registry import ANALYSIS_EXPERIMENTS

        assert "extension_smp" in EXTENSION_EXPERIMENTS
        assert "analysis_crossover" in ANALYSIS_EXPERIMENTS
        assert set(EXPERIMENTS) == (
            set(PAPER_EXPERIMENTS)
            | set(EXTENSION_EXPERIMENTS)
            | set(ANALYSIS_EXPERIMENTS)
        )

    def test_unknown_id_raises(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_experiment("table42")
