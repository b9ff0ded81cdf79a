"""The differential gate: identical unhinted twins, no-worse hinted."""

from __future__ import annotations

from repro.opt import differential_check, optimize_program
from repro.sim.engine import Simulator

from tests.opt.conftest import load_corpus


def _passed(outcomes):
    return {o.name.split(": ", 1)[1]: o.passed for o in outcomes}


def _program(ctx):
    handle = ctx.allocate_array("data", (64,))
    package = ctx.make_thread_package()

    def proc(a, b):
        pass

    for i in range(4):
        package.th_fork(proc, i, None, handle.base + i * 8)
    package.th_run(0)


def _dropped_fork(ctx):
    handle = ctx.allocate_array("data", (64,))
    package = ctx.make_thread_package()

    def proc(a, b):
        pass

    for i in range(3):  # one thread short: not semantics-preserving
        package.th_fork(proc, i, None, handle.base + i * 8)
    package.th_run(0)


class TestDifferentialCheck:
    def test_rl004_plan_applies_under_the_simulator(self, machine):
        """The plan's expected hints come from capture; its arrays sit
        where the simulator puts them, so the plan is not stale there."""
        module = load_corpus("rl004_skewed_bins")
        result = optimize_program(module.PROGRAM, machine, name="rl004")
        assert result.changed
        assert Simulator(machine).run(result.program).forks == 64

    def test_identical_programs_pass_both_gates(self, machine):
        outcomes = differential_check(_program, _program, machine, name="id")
        assert _passed(outcomes) == {
            "unhinted-identical": True,
            "hinted-no-worse": True,
        }

    def test_dropped_work_fails_the_identity_gate(self, machine):
        outcomes = differential_check(
            _program, _dropped_fork, machine, name="broken"
        )
        assert not _passed(outcomes)["unhinted-identical"]
        failure = [o for o in outcomes if not o.passed][0]
        assert "forks" in failure.detail or "!=" in failure.detail

    def test_pruned_edges_survive_both_gates(self, machine):
        module = load_corpus("rc004_redundant_edges")
        result = optimize_program(module.PROGRAM, machine, name="rc004")
        assert result.changed
        outcomes = differential_check(
            result.original, result.program, machine, name="rc004"
        )
        assert all(o.passed for o in outcomes), [o.detail for o in outcomes]

    def test_rl006_original_raising_is_a_pass_with_note(self, machine):
        module = load_corpus("rl006_invalid_hint")
        result = optimize_program(module.PROGRAM, machine, name="rl006")
        outcomes = differential_check(
            result.original, result.program, machine, name="rl006"
        )
        verdicts = _passed(outcomes)
        assert verdicts["unhinted-identical"]
        assert verdicts["hinted-no-worse"]
        hinted = [o for o in outcomes if "hinted-no-worse" in o.name][0]
        assert "raises at runtime" in hinted.detail
