"""Tests for the DineroIII din trace format layer."""

import io

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.config import CacheConfig
from repro.cache.hierarchy import CacheHierarchy
from repro.machine.presets import r8000
from repro.mem.arrays import RefSegment
from repro.trace.dinero import (
    IFETCH,
    READ,
    WRITE,
    DinWriter,
    main,
    read_din,
    simulate_din,
    write_din,
)
from repro.trace.blocks import SegmentSweep
from repro.trace.recorder import TraceRecorder


def small_configs():
    return (
        CacheConfig("L1", 256, 32, 1),
        CacheConfig("L2", 2048, 128, 2),
    )


class TestFormat:
    def test_round_trip(self):
        refs = [(READ, 0x1000), (WRITE, 0x2008), (IFETCH, 0x400000)]
        buffer = io.StringIO()
        assert write_din(buffer, refs) == 3
        buffer.seek(0)
        assert list(read_din(buffer)) == refs

    def test_read_skips_comments_and_blanks(self):
        text = "# pixie output\n\n0 10\n1 20\n"
        assert list(read_din(io.StringIO(text))) == [(0, 0x10), (1, 0x20)]

    def test_read_rejects_bad_label(self):
        with pytest.raises(ValueError, match="invalid label"):
            list(read_din(io.StringIO("7 10\n")))

    def test_read_rejects_malformed_line(self):
        with pytest.raises(ValueError, match="line 1"):
            list(read_din(io.StringIO("0 10 20\n")))

    def test_write_rejects_bad_label(self):
        with pytest.raises(ValueError):
            write_din(io.StringIO(), [(5, 0)])

    def test_write_rejects_negative_address(self):
        with pytest.raises(ValueError):
            write_din(io.StringIO(), [(0, -8)])

    def test_addresses_are_hex(self):
        buffer = io.StringIO()
        write_din(buffer, [(0, 255)])
        assert buffer.getvalue() == "0 ff\n"

    @settings(max_examples=50)
    @given(
        refs=st.lists(
            st.tuples(st.sampled_from([0, 1, 2]), st.integers(0, 1 << 40)),
            max_size=200,
        )
    )
    def test_property_round_trip(self, refs):
        buffer = io.StringIO()
        write_din(buffer, refs)
        buffer.seek(0)
        assert list(read_din(buffer)) == refs


class TestSimulateDin:
    def test_counts_match_labels(self):
        l1, l2 = small_configs()
        refs = [(READ, 0)] * 5 + [(WRITE, 0)] * 3 + [(IFETCH, 0x40000000)] * 7
        stats = simulate_din(refs, l1, l2)
        assert stats.data_reads == 5
        assert stats.data_writes == 3
        assert stats.inst_fetches == 7

    def test_same_line_hits_after_first(self):
        l1, l2 = small_configs()
        stats = simulate_din([(READ, 0)] * 10, l1, l2)
        assert stats.l1.misses == 1
        assert stats.l2.misses == 1

    def test_matches_direct_hierarchy_simulation(self):
        l1, l2 = small_configs()
        addresses = [(READ, (i * 37) % 4096 * 8) for i in range(5000)]
        stats = simulate_din(addresses, l1, l2)
        direct = CacheHierarchy(l1, l1, l2)
        direct.access_data([a >> l1.line_bits for _, a in addresses])
        expected = direct.snapshot()
        assert stats.l1.misses == expected.l1.misses
        assert stats.l2.misses == expected.l2.misses
        assert stats.l2.capacity == expected.l2.capacity

    def test_batching_boundary_is_transparent(self):
        """Streams longer than the internal batch behave identically."""
        l1, l2 = small_configs()
        refs = [(READ, (i % 64) * 32) for i in range(70000)]
        stats = simulate_din(refs, l1, l2)
        assert stats.data_refs == 70000
        # 64 lines cycling through an 8-line direct-mapped L1 never hit.
        assert stats.l1.misses == 70000
        assert stats.l1.compulsory == 64


class TestDinWriter:
    def make_recorder(self, writer=None):
        l1, l2 = small_configs()
        recorder = TraceRecorder(CacheHierarchy(l1, l1, l2))
        if writer is not None:
            recorder.observers.append(writer)
        return recorder

    def test_tee_preserves_simulation(self):
        plain = self.make_recorder()
        teed_recorder = self.make_recorder(DinWriter(io.StringIO()))
        segment = RefSegment(0x1000, 8, 64, 8)
        plain.record(segment, writes=16)
        teed_recorder.record(segment, writes=16)
        assert (
            plain.hierarchy.snapshot().l1.misses
            == teed_recorder.hierarchy.snapshot().l1.misses
        )

    def test_exported_trace_replays_to_same_misses(self):
        """The acid test: export a traced run, re-simulate the din file,
        get identical L1/L2 data misses."""
        l1, l2 = small_configs()
        buffer = io.StringIO()
        recorder = self.make_recorder(DinWriter(buffer))
        for j in range(8):
            recorder.record(RefSegment(0x1000 + j * 512, 8, 64, 8), writes=8)
        recorder.record_interleaved(
            [RefSegment(0x1000, 8, 32, 8), RefSegment(0x3000, 8, 32, 8)]
        )
        recorder.record_grid(
            [
                [SegmentSweep(RefSegment(0x5000, 8, 1, 8), step=8)],
                [
                    SegmentSweep(RefSegment(0x6000, 8, 16, 8), step=128),
                    SegmentSweep(RefSegment(0x7000, 8, 16, 8)),
                ],
            ],
            outer=6,
            writes=6 * 16,
        )
        recorder.record_lines([5, 6, 5], counts=[2, 1, 3])
        original = recorder.hierarchy.snapshot()

        buffer.seek(0)
        replayed = simulate_din(read_din(buffer), l1, l2)
        assert replayed.data_refs == original.data_refs
        assert replayed.data_writes == original.data_writes
        assert replayed.l1.misses == original.l1.misses
        assert replayed.l2.misses == original.l2.misses

    def test_grid_walks_the_addresses_grid_to_lines_does(self):
        buffer = io.StringIO()
        recorder = self.make_recorder(DinWriter(buffer))
        groups = [
            [
                SegmentSweep(RefSegment(0x1000, 8, 3, 8), step=64),
                SegmentSweep(RefSegment(0x2000, 8, 3, 8)),
            ]
        ]
        recorder.record_grid(groups, outer=2, writes=3)
        addresses = [
            int(line.split()[1], 16) for line in buffer.getvalue().splitlines()
        ]
        assert addresses == [
            0x1000, 0x2000, 0x1008, 0x2008, 0x1010, 0x2010,
            0x1040, 0x2000, 0x1048, 0x2008, 0x1050, 0x2010,
        ]
        labels = [line[0] for line in buffer.getvalue().splitlines()]
        assert labels == ["0"] * 9 + ["1"] * 3

    def test_write_labels_counted(self):
        buffer = io.StringIO()
        recorder = self.make_recorder(DinWriter(buffer))
        recorder.record(RefSegment(0x1000, 8, 4, 8), writes=4)
        labels = [line.split()[0] for line in buffer.getvalue().splitlines()]
        assert labels == ["1", "1", "1", "1"]

    def test_instruction_export_optional(self):
        buffer = io.StringIO()
        recorder = self.make_recorder(
            DinWriter(buffer, include_instructions=True)
        )
        recorder.count_instructions(100)
        assert buffer.getvalue().startswith("2 ")


class TestCli:
    def test_main_prints_classification(self, tmp_path, capsys):
        trace = tmp_path / "t.din"
        with open(trace, "w") as stream:
            write_din(stream, [(READ, i * 32) for i in range(100)])
        code = main(
            [
                str(trace),
                "--l1-size", "256", "--l1-line", "32", "--l1-assoc", "1",
                "--l2-size", "2048", "--l2-line", "128", "--l2-assoc", "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "D references" in out
        assert "L2 compulsory" in out
        assert "100" in out
