"""Guarded execution: quarantine, budgets, contained procs, fault sites."""

from __future__ import annotations

import pytest

import repro.trace.recorder as recorder_module
from repro.cache.config import CacheConfig
from repro.cache.hierarchy import CacheHierarchy
from repro.mem.allocator import AddressSpace
from repro.mem.arrays import RefSegment
from repro.resilience.errors import (
    HintError,
    ThreadBudgetError,
    ThreadProcError,
    classify_error,
)
from repro.resilience.faults import FAULTS
from repro.trace.costmodel import ThreadCostModel
from repro.trace.recorder import TraceRecorder
from repro.verify.guarded import GuardedScheduler, GuardedThreadPackage, guarded_run

L2 = 64 * 1024


@pytest.fixture(autouse=True)
def clean_faults():
    FAULTS.reset()
    yield
    FAULTS.reset()


def make_package(**kwargs) -> GuardedThreadPackage:
    return GuardedThreadPackage(l2_size=L2, **kwargs)


class TestHintValidation:
    @pytest.mark.parametrize(
        "hints",
        [
            ("not-an-address", 0, 0),
            (None, 0, 0),
            (True, 0, 0),
            (-8, 0, 0),
            (0, 64, 0),  # gap: hint2 without hint1
        ],
    )
    def test_bad_hints_quarantine_into_fallback_bin(self, hints):
        package = make_package()
        ran = []
        package.th_fork(lambda a, b: ran.append(a), "good", None, hint1=64)
        package.th_fork(lambda a, b: ran.append(a), "bad", None, *hints)
        stats, report = guarded_run(package)
        assert sorted(ran) == ["bad", "good"]  # quarantined, not dropped
        assert package.quarantined == 1
        assert len(package.hint_errors) == 1
        assert isinstance(package.hint_errors[0], HintError)
        assert report[0]["kind"] == "hint"
        assert "bad" in report[0]["thread"]

    def test_out_of_range_hint_quarantined(self):
        package = make_package(max_address=1024)
        package.th_fork(lambda a, b: None, None, None, hint1=4096)
        assert package.quarantined == 1
        assert "beyond the simulated address space" in str(
            package.hint_errors[0]
        )

    def test_strict_hints_raise_instead(self):
        package = make_package(strict_hints=True)
        with pytest.raises(HintError) as excinfo:
            package.th_fork(lambda a, b: None, None, None, hint1=-1)
        assert classify_error(excinfo.value) == "verification"
        assert package.pending_threads == 0

    def test_clean_hints_not_quarantined(self):
        package = make_package(max_address=1 << 20)
        for i in range(10):
            package.th_fork(lambda a, b: None, i, None, hint1=8 * (i + 1))
        assert package.quarantined == 0
        stats, report = guarded_run(package)
        assert report == []

    def test_fork_hinted_rejects_too_many_hints(self):
        package = make_package()
        with pytest.raises(HintError) as excinfo:
            package.fork_hinted(lambda a, b: None, hints=(8, 16, 24, 32))
        assert "at most 3" in str(excinfo.value)

    def test_fork_hinted_zero_fills_short_sequences(self):
        package = make_package()
        package.fork_hinted(lambda a, b: None, hints=(64,))
        assert package.pending_threads == 1
        assert package.quarantined == 0


class TestBudget:
    def test_runaway_thread_is_stopped(self):
        package = make_package(thread_budget=200)

        def runaway(a, b):
            while True:
                pass

        ran = []
        package.th_fork(runaway, None, None)
        package.th_fork(lambda a, b: ran.append(a), "after", None)
        stats, report = guarded_run(package)
        assert ran == ["after"]  # the sweep continued past the runaway
        assert len(package.budget_errors) == 1
        error = package.budget_errors[0]
        assert isinstance(error, ThreadBudgetError)
        assert "runaway" in error.thread
        assert any(entry["kind"] == "budget" for entry in report)

    def test_budget_spares_terminating_threads(self):
        package = make_package(thread_budget=10_000)
        done = []
        package.th_fork(lambda a, b: done.append(sum(range(50))), None, None)
        guarded_run(package)
        assert done == [1225]
        assert package.budget_errors == []

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            make_package(thread_budget=-1)

    def test_budget_charges_only_the_threads_own_work(self, monkeypatch):
        # The budget counts line events in every frame below the proc,
        # the cache kernel's included.  Here the forks leave the
        # recorder's buffer one entry short of its threshold when the
        # first proc starts, so the proc's own one-entry record would
        # flush 256 entries — earlier threads' work — inside its budget
        # unless the package drains the buffer first.
        monkeypatch.setattr(recorder_module, "COALESCE_ENTRIES", 256)
        l1 = CacheConfig("L1", 2048, 32, 1)
        l2 = CacheConfig("L2", L2, 128, 4)
        recorder = TraceRecorder(CacheHierarchy(l1, l1, l2))
        space = AddressSpace()
        data = space.allocate("data", 8 * 126).base
        # One-entry records only: two per fork (hash probe, thread
        # record), three before the first proc (bin header, group,
        # thread record), so 126 forks leave 2 * 126 + 3 = 255.
        costs = ThreadCostModel(fork_extra_refs=1, run_extra_refs=1, slot_size=8)
        package = make_package(
            thread_budget=300, recorder=recorder, address_space=space, costs=costs
        )

        def proc(i, _):
            recorder.record(RefSegment(data + 8 * i, 8, 1, 8))

        for i in range(126):
            package.th_fork(proc, i, None)
        stats, report = guarded_run(package)
        assert report == []
        assert stats.threads == 126
        # Per thread: fork (2), dispatch and proc (1 each); plus the
        # bin header and group read once.
        assert recorder.hierarchy.snapshot().data_refs == 4 * 126 + 2


class TestContainedProcs:
    def test_crashing_proc_recorded_and_sweep_continues(self):
        package = make_package()
        ran = []

        def crasher(a, b):
            raise RuntimeError("boom")

        package.th_fork(crasher, "x", None, hint1=8)
        package.th_fork(lambda a, b: ran.append(a), "y", None, hint1=90000)
        stats, report = guarded_run(package)
        assert ran == ["y"]
        assert len(package.proc_errors) == 1
        error = package.proc_errors[0]
        assert isinstance(error, ThreadProcError)
        assert "boom" in error.message
        assert isinstance(error.__cause__, RuntimeError)
        assert classify_error(error) == "verification"

    def test_keyboard_interrupt_propagates(self):
        package = make_package()

        def interrupter(a, b):
            raise KeyboardInterrupt

        package.th_fork(interrupter, None, None)
        with pytest.raises(KeyboardInterrupt):
            package.th_run()

    def test_fault_count_totals_all_kinds(self):
        package = make_package(thread_budget=100)
        package.th_fork(lambda a, b: None, None, None, hint1=-5)  # hint

        def crasher(a, b):
            raise ValueError("nope")

        def runaway(a, b):
            while True:
                pass

        package.th_fork(crasher, None, None, hint1=64)
        package.th_fork(runaway, None, None, hint1=90000)
        guarded_run(package)
        assert package.fault_count == 3
        kinds = sorted(e["kind"] for e in package.fault_report())
        assert kinds == ["budget", "hint", "proc"]


class TestThreadProcFaultSite:
    def test_injected_thread_fault_is_contained(self):
        package = make_package()
        ran = []
        package.th_fork(lambda a, b: ran.append(a), 1, None, hint1=8)
        package.th_fork(lambda a, b: ran.append(a), 2, None, hint1=90000)
        FAULTS.arm("thread.proc", mode="fail", times=1)
        stats, report = guarded_run(package)
        assert ran == [2]  # first proc was killed by the fault, sweep went on
        assert len(package.proc_errors) == 1
        assert "injected fail at thread.proc" in package.proc_errors[0].message

    def test_alias_is_the_same_class(self):
        assert GuardedScheduler is GuardedThreadPackage
