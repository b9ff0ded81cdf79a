"""Capture execution: real scheduler geometry, no cache simulation."""

from __future__ import annotations

import pytest

from repro.analysis.capture import run_capture
from repro.apps import LINT_PROGRAMS
from repro.core.package import PACKAGE_REGION_PREFIX
from repro.machine.presets import DEFAULT_SCALE, r8000
from repro.mem.arrays import RefSegment
from repro.sim.engine import Simulator
from repro.trace.blocks import SegmentSweep

MACHINE = r8000(DEFAULT_SCALE)


def test_fork_order_execution_and_footprints():
    executed = []

    def program(ctx):
        recorder = ctx.recorder
        handle = ctx.allocate_array("grid", (64, 64))
        package = ctx.make_thread_package()

        def proc(i, _unused):
            executed.append(i)
            recorder.record(
                RefSegment(handle.base + i * 512, 8, 64, 8), writes=64
            )

        for i in range(8):
            package.th_fork(proc, i, None, handle.base + i * 512)
        package.th_run(0)
        return {"handle": handle}

    capture = run_capture(program, MACHINE)
    # Procs execute in fork order (sequential program order).
    assert executed == list(range(8))
    (package,) = capture.packages
    (run,) = package.runs
    assert len(run.records) == 8
    for i, record in enumerate(run.records):
        assert record.ordinal == i
        (segment,) = record.footprint
        assert segment.lo == capture.space["grid"].base + i * 512
        assert segment.written
    assert capture.payload == {"handle": capture.payload["handle"]}


def test_fork_sites_point_at_caller():
    def program(ctx):
        package = ctx.make_thread_package()
        package.th_fork(lambda a, b: None, 0, None, 8)
        package.th_run(0)

    capture = run_capture(program, MACHINE)
    record = capture.packages[0].all_records[0]
    assert record.file == __file__
    assert record.line is not None


def test_bin_geometry_matches_real_scheduler():
    def program(ctx):
        package = ctx.make_thread_package()
        block = package.scheduler.block_size
        for i in range(12):
            package.th_fork(lambda a, b: None, i, None, 8 + (i % 3) * block)
        package.th_run(0)

    capture = run_capture(program, MACHINE)
    (run,) = capture.packages[0].runs
    assert sorted(run.bin_counts) == [4, 4, 4]
    assert len({record.bin_ref for record in run.records}) == 3


def test_multiple_runs_snapshot_separately():
    def program(ctx):
        package = ctx.make_thread_package()
        for sweep in range(3):
            for i in range(4):
                package.th_fork(lambda a, b: None, i, None, 8 + i)
            package.th_run(0)

    capture = run_capture(program, MACHINE)
    (package,) = capture.packages
    assert [run.index for run in package.runs] == [0, 1, 2]
    assert all(len(run.records) == 4 for run in package.runs)


def test_keep_retains_threads_across_runs():
    counts = []

    def program(ctx):
        package = ctx.make_thread_package()
        package.th_fork(lambda a, b: counts.append(a), 1, None, 8)
        package.th_run(1)  # keep
        package.th_run(0)

    capture = run_capture(program, MACHINE)
    assert counts == [1, 1]
    runs = capture.packages[0].runs
    assert [len(run.records) for run in runs] == [1, 1]


def test_activation_mirrors_stay_in_step():
    def program(ctx):
        package = ctx.make_dependent_thread_package()
        assert package.last_activations == package.last_sweeps == 0
        a = package.th_fork(lambda x, y: None, 0, None, 8)
        package.th_fork(lambda x, y: None, 1, None, 8, after=[a])
        package.th_run(0)
        assert package.last_activations == package.last_sweeps
        assert package.last_activations >= 1
        return {"activations": package.last_activations}

    capture = run_capture(program, MACHINE)
    assert capture.payload["activations"] >= 1


def test_dependent_capture_drops_bad_edges_and_reports():
    def program(ctx):
        package = ctx.make_dependent_thread_package()
        package.th_fork(lambda a, b: None, 0, None, 8)
        package.th_fork(lambda a, b: None, 1, None, 8, after=[5])
        package.th_run(0)

    capture = run_capture(program, MACHINE)
    (package,) = capture.packages
    (problem,) = [p for p in package.problems if p.code == "RC002"]
    assert "5" in problem.message
    # The bad edge is dropped, not kept: the second record has no deps.
    assert capture.packages[0].all_records[1].after == ()


def test_invalid_hints_reported_and_refork_unhinted():
    def program(ctx):
        package = ctx.make_thread_package()
        package.th_fork(lambda a, b: None, 0, None, -1)
        package.th_run(0)

    capture = run_capture(program, MACHINE)
    (package,) = capture.packages
    assert [p.code for p in package.problems] == ["RL006"]
    (record,) = package.all_records
    assert record.hints == (0, 0, 0)


def test_guarded_package_options_are_accepted():
    def program(ctx):
        package = ctx.make_guarded_thread_package(thread_budget=100)
        package.th_fork(lambda a, b: None, 0, None, 8)
        package.th_run(0)

    capture = run_capture(program, MACHINE)
    assert len(capture.packages[0].all_records) == 1


def test_unflushed_forks_are_captured():
    """A program that forks but never calls th_run still gets analysed."""

    def program(ctx):
        package = ctx.make_thread_package()
        for i in range(4):
            package.th_fork(lambda a, b: None, i, None, 8 + i)

    capture = run_capture(program, MACHINE)
    assert len(capture.packages[0].all_records) == 4


def test_program_exceptions_propagate():
    def program(ctx):
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="boom"):
        run_capture(program, MACHINE)


def _program_arrays(space):
    return [
        (region.name, region.base, region.size)
        for region in space.allocations
        if not region.name.startswith(PACKAGE_REGION_PREFIX)
    ]


@pytest.mark.parametrize(
    "app, version",
    [
        (app, version)
        for app, versions in LINT_PROGRAMS.items()
        for version in versions
    ],
)
def test_arrays_land_where_the_simulator_puts_them(app, version):
    """Capture packages allocate their own regions exactly as simulated
    packages do, so every program array has its simulated address."""
    make = LINT_PROGRAMS[app][version]
    spaces = []

    def simulated(ctx):
        spaces.append(ctx.space)
        return make()(ctx)

    Simulator(MACHINE, verify=False).run(simulated)
    capture = run_capture(make(), MACHINE)
    assert _program_arrays(capture.space) == _program_arrays(spaces[0])


def test_package_traffic_is_not_footprint():
    """Fork-time package traffic is simulated, never captured."""

    def program(ctx):
        package = ctx.make_thread_package()
        package.th_fork(lambda a, b: None, 0, None, 8)
        package.th_run(0)

    capture = run_capture(program, MACHINE)
    assert "th_hash_table" in capture.space
    (record,) = capture.packages[0].all_records
    assert record.footprint == []


def test_grid_footprints_follow_each_outer_iteration():
    """A grid is captured as its iterations would be one by one, with
    each iteration's trailing store operand written."""

    def proc(recorder, _unused):
        a = SegmentSweep(RefSegment(0x10000, 8, 4, 8), step=64)
        c = SegmentSweep(RefSegment(0x20000, 8, 4, 8))
        recorder.record_grid([[a, c, c]], outer=3, writes=12)

    def program(ctx):
        package = ctx.make_thread_package()
        package.th_fork(proc, ctx.recorder, None, 8)
        package.th_run(0)

    capture = run_capture(program, MACHINE)
    (record,) = capture.packages[0].all_records
    assert [(s.base, s.written) for s in record.footprint] == [
        (base, written)
        for iteration in range(3)
        for base, written in (
            (0x10000 + 64 * iteration, False),
            (0x20000, False),
            (0x20000, True),
        )
    ]
