"""Tests for the SMP simulator, package, recorder routing and ledger."""

import numpy as np
import pytest

from repro.apps.matmul import MatmulConfig, threaded
from repro.machine.presets import r8000
from repro.mem.allocator import AddressSpace
from repro.mem.arrays import RefSegment
from repro.resilience.errors import ConfigError
from repro.sim.engine import Simulator
from repro.smp.engine import SmpContext, SmpSimulator
from repro.smp.ledger import CpuLedger
from repro.smp.machine import SmpMachine
from repro.trace.blocks import SegmentSweep
from repro.trace.recorder import TraceRecorder

CFG = MatmulConfig(n=48)


@pytest.fixture(scope="module")
def serial():
    return Simulator(r8000(256)).run(threaded(CFG))


def smp_run(processors, assignment="chunked", cfg=CFG, scale=256):
    machine = SmpMachine(r8000(scale), processors)
    return SmpSimulator(machine).run(threaded(cfg), assignment=assignment)


class TestMachine:
    def test_name_and_hierarchies(self):
        machine = SmpMachine(r8000(64), 4)
        assert machine.name == "R8000/64x4"
        hierarchies = machine.build_hierarchies()
        assert len(hierarchies) == 4
        assert hierarchies[0] is not hierarchies[1]

    def test_invalid_processor_count(self):
        with pytest.raises(ValueError):
            SmpMachine(r8000(64), 0)

    def test_negative_dispatch_cost(self):
        with pytest.raises(ValueError):
            SmpMachine(r8000(64), 2, dispatch_cost_s=-1)


class TestSwitchableRecorder:
    """The SMP run's one recorder, switched between processors by
    ``SmpContext.switch_to``, and the per-CPU ledger observing it."""

    def make(self, cpus=2):
        machine = r8000(256)
        hierarchies = [machine.build_hierarchy() for _ in range(cpus)]
        recorder = TraceRecorder(hierarchies[0])
        ledger = CpuLedger(cpus, machine.l2.line_bits)
        recorder.observers.append(ledger)
        context = SmpContext(
            machine=machine,
            hierarchy=hierarchies[0],
            recorder=recorder,
            space=AddressSpace(),
            hierarchies=hierarchies,
            ledger=ledger,
        )
        return context, ledger

    def test_routing_follows_current(self):
        context, _ = self.make()
        context.recorder.record(RefSegment(0x10000, 8, 4, 8))
        context.switch_to(1)
        context.recorder.record(RefSegment(0x10000, 8, 4, 8))
        assert context.hierarchies[0].snapshot().data_refs == 4
        assert context.hierarchies[1].snapshot().data_refs == 4
        assert context.hierarchy is context.hierarchies[1]

    def test_instruction_totals_aggregate(self):
        context, ledger = self.make()
        recorder = context.recorder
        recorder.count_instructions(10)
        context.switch_to(1)
        recorder.count_instructions(20)
        recorder.count_thread_instructions(5)
        assert recorder.app_instructions == 30
        assert recorder.thread_instructions == 5
        assert ledger.app_instructions == [10, 20]
        fetches = [h.snapshot().inst_fetches for h in context.hierarchies]
        assert fetches == [10, 25]

    def test_invalid_cpu_rejected(self):
        context, _ = self.make()
        with pytest.raises(IndexError):
            context.switch_to(5)

    def test_write_sharing_detected(self):
        context, ledger = self.make()
        segment = RefSegment(0x10000, 8, 16, 8)  # one L2 line
        context.recorder.record(segment, writes=16)
        assert len(ledger.write_sharer_map) == 0
        context.switch_to(1)
        context.recorder.record(segment, writes=16)
        assert len(ledger.write_sharer_map) == 1

    def test_reads_do_not_count_as_sharing(self):
        context, ledger = self.make()
        segment = RefSegment(0x10000, 8, 16, 8)
        context.recorder.record(segment)
        context.switch_to(1)
        context.recorder.record(segment)
        assert ledger.written_lines == 0

    def test_interleaved_marks_only_trailing_store_segments(self):
        """The trace API's convention (shared with the capture layer):
        the stores of a load/.../store loop body come last."""
        context, ledger = self.make()
        load_a = RefSegment(0x10000, 8, 16, 8)
        load_b = RefSegment(0x40000, 8, 16, 8)
        store = RefSegment(0x80000, 8, 16, 8)
        context.recorder.record_interleaved([load_a, load_b, store], writes=16)
        context.switch_to(1)
        context.recorder.record_interleaved([load_a, load_b, store], writes=16)
        # Only the store segment's line is shared; the loads never
        # entered the ledger.
        assert ledger.written_lines == 1
        assert len(ledger.write_sharer_map) == 1
        l2_bits = context.machine.l2.line_bits
        assert set(ledger.write_sharer_map) == {0x80000 >> l2_bits}

    def test_record_lines_marks_only_trailing_writes(self):
        context, ledger = self.make()
        l1_bits = context.machine.l1d.line_bits
        lines = [0x10000 >> l1_bits, 0x40000 >> l1_bits, 0x80000 >> l1_bits]
        context.recorder.record_lines(lines, [4, 4, 3], writes=3)
        assert ledger.write_sharer_map == {} and ledger.written_lines == 1
        context.switch_to(1)
        context.recorder.record_lines(lines, [4, 4, 3], writes=3)
        assert len(ledger.write_sharer_map) == 1

    def test_empty_recorder_list_rejected(self):
        """An SMP run needs at least one processor to book to."""
        with pytest.raises(ValueError):
            CpuLedger(0, 7)

    def test_grid_marks_trailing_store_sweeps_per_iteration(self):
        """Interchanged matmul's grid: per outer iteration the second C
        column is the store, so only C's lines enter the ledger."""
        context, ledger = self.make()
        b = SegmentSweep(RefSegment(0x10000, 8, 1, 8), step=8)
        a = SegmentSweep(RefSegment(0x40000, 8, 16, 8), step=128)
        c = SegmentSweep(RefSegment(0x80000, 8, 16, 8))
        for cpu in (0, 1):
            context.switch_to(cpu)
            context.recorder.record_grid([[b], [a, c, c]], outer=4, writes=64)
        l2_bits = context.machine.l2.line_bits
        assert ledger.written_lines == 1
        assert set(ledger.write_sharer_map) == {0x80000 >> l2_bits}


class TestSmpPackageKinds:
    """Packages an SMP run cannot schedule are rejected by kind."""

    def run_with(self, factory_name):
        def program(ctx):
            getattr(ctx, factory_name)()

        machine = SmpMachine(r8000(256), 2)
        return SmpSimulator(machine).run(program)

    def test_dependent_package_rejected(self):
        with pytest.raises(ConfigError, match="dependent"):
            self.run_with("make_dependent_thread_package")

    def test_guarded_package_rejected(self):
        with pytest.raises(ConfigError, match="guarded"):
            self.run_with("make_guarded_thread_package")

    def test_sor_threaded_exact_rejected_by_name(self):
        from repro.apps.sor import SorConfig, threaded_exact

        machine = SmpMachine(r8000(256), 2)
        with pytest.raises(ConfigError, match="dependent thread package"):
            SmpSimulator(machine).run(
                threaded_exact(SorConfig(n=31, iterations=2))
            )


class TestSmpEquivalence:
    def test_one_cpu_matches_serial_misses(self, serial):
        one = smp_run(1)
        assert one.total_l2_misses == serial.l2_misses
        assert one.cpus[0].stats.l1.misses == serial.l1_misses

    def test_results_numerically_identical_across_p(self, serial):
        reference = serial.payload["A"] @ serial.payload["B"]
        for processors in (2, 4):
            result = smp_run(processors)
            np.testing.assert_allclose(
                result.payload["C"], reference, rtol=1e-10
            )

    def test_every_thread_dispatched_once(self, serial):
        result = smp_run(4)
        assert sum(c.dispatches for c in result.cpus) == CFG.n * CFG.n

    def test_bins_partitioned_across_cpus(self):
        result = smp_run(4)
        total_bins = sum(c.bins for c in result.cpus)
        assert total_bins == result.sched.bins


class TestSmpTiming:
    def test_makespan_below_serial_for_multiple_cpus(self, serial):
        assert smp_run(4).makespan < serial.modeled_seconds

    def test_makespan_includes_fork_section(self):
        result = smp_run(2)
        assert result.fork_time > 0
        assert result.makespan > result.fork_time

    def test_speedup_over(self):
        result = smp_run(2)
        assert result.speedup_over(2 * result.makespan) == pytest.approx(2.0)

    def test_load_imbalance_at_least_one(self):
        for processors in (1, 2, 4):
            assert smp_run(processors).load_imbalance >= 1.0 - 1e-9

    def test_summary_mentions_policy(self):
        result = smp_run(2, assignment="lpt")
        assert "lpt" in result.summary()
        assert result.assignment == "lpt"


class TestAssignmentEffects:
    def test_policies_leave_total_misses_close(self, serial):
        for policy in ("chunked", "round_robin", "lpt", "affinity"):
            result = smp_run(4, assignment=policy)
            assert result.total_l2_misses < 1.4 * serial.l2_misses, policy

    def test_custom_assignment_callable(self):
        def everything_on_last(bins, processors):
            queues = [[] for _ in range(processors)]
            queues[-1] = list(bins)
            return queues

        result = smp_run(2, assignment=everything_on_last)
        assert result.cpus[0].dispatches == 0
        assert result.cpus[1].dispatches == CFG.n * CFG.n
        assert result.assignment == "everything_on_last"
