"""The recorder's batches, pinned: boundaries, contents and timing.

:class:`~repro.trace.recorder.TraceRecorder` queues records and converts
them array-at-a-time, but the batches it hands the hierarchy must be
exactly those of converting each record on its own
(:func:`segment_to_lines`, :func:`interleave_segments`,
:func:`grid_to_lines`) and cutting by the per-record rule: the buffer
goes out once it holds ``COALESCE_ENTRIES`` entries, a record that
alone reaches the threshold goes out alone behind the buffer, and a
drain (``drain()``, ``snapshot()``) empties the buffer.  Each batch must
also arrive during the same call as under that rule.
"""

import random
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro.trace.recorder as recorder_module
from repro.cache.config import CacheConfig
from repro.cache.hierarchy import CacheHierarchy
from repro.mem.allocator import AddressSpace
from repro.mem.arrays import RefSegment
from repro.machine import r8000
from repro.sim.engine import Simulator
from repro.trace.blocks import SegmentSweep, grid_to_lines
from repro.trace.recorder import (
    COALESCE_ENTRIES,
    TraceRecorder,
    interleave_segments,
    segment_to_lines,
)
from repro.trace.store import TraceCapture, TraceKey, TraceStore
from repro.verify.guarded import GuardedThreadPackage, guarded_run

LINE_BITS = 5
THRESHOLDS = (1, 2, 7, COALESCE_ENTRIES)


class LoggingHierarchy(CacheHierarchy):
    """Logs every ``access_data`` batch as lists, with the index of the
    call it arrived in."""

    def __init__(self) -> None:
        l1 = CacheConfig("L1", 256, 1 << LINE_BITS, 1)
        super().__init__(l1, l1, CacheConfig("L2", 1024, 128, 2))
        self.batches = []
        self.call = 0

    def access_data(self, lines, counts=None, writes=0):
        counts_list = (
            [1] * len(lines) if counts is None else np.asarray(counts).tolist()
        )
        self.batches.append(
            (self.call, np.asarray(lines).tolist(), counts_list, writes)
        )
        return super().access_data(lines, counts, writes)


# ----------------------------------------------------------------------
# Calls: ("record", segment), ("record_interleaved", segments),
# ("record_grid", groups, outer), ("record_lines", lines, counts), each
# followed by its writes; or ("drain",) / ("snapshot",).  An ("edge",
# form, offset) call becomes, at threshold T, a record of T + offset
# entries.
# ----------------------------------------------------------------------
def segments(count=None):
    """8-byte-element segments on a few nearby lines, so neighbouring
    records often share a boundary line, and far enough from 0 for
    negative strides."""
    return st.builds(
        lambda base, stride, n: RefSegment(65536 + 8 * base, 8 * stride, n, 8),
        st.integers(0, 48),
        st.integers(-6, 6),
        st.integers(1, 24) if count is None else st.just(count),
    )


@st.composite
def calls(draw):
    kind = draw(st.sampled_from(
        ["record", "record_interleaved", "record_grid", "record_lines",
         "edge", "drain", "snapshot"]
    ))
    if kind in ("drain", "snapshot"):
        return (kind,)
    if kind == "edge":
        form = draw(st.sampled_from(["record", "record_grid", "record_lines"]))
        return ("edge", form, draw(st.sampled_from([-1, 0, 1])),
                draw(st.integers(0, 48)), draw(st.floats(0, 1)))
    if kind == "record":
        segment = draw(segments())
        return ("record", segment, draw(st.integers(0, segment.count)))
    if kind == "record_interleaved":
        count = draw(st.integers(1, 12))
        group = draw(st.lists(segments(count), min_size=1, max_size=7))
        total = count * len(group)
        return ("record_interleaved", group, draw(st.integers(0, total)))
    if kind == "record_grid":
        count = draw(st.integers(1, 8))
        outer = draw(st.integers(1, 5))
        groups = [
            [
                SegmentSweep(segment, step=8 * draw(st.integers(-4, 4)))
                for segment in draw(st.lists(segments(count), min_size=1, max_size=3))
            ]
            for _ in range(draw(st.integers(1, 2)))
        ]
        total = outer * count * sum(len(group) for group in groups)
        return ("record_grid", groups, outer, draw(st.integers(0, total)))
    lines = draw(st.lists(st.integers(2048, 2100), max_size=20))
    counts = draw(st.none() | st.lists(
        st.integers(1, 5), min_size=len(lines), max_size=len(lines)
    ))
    total = len(lines) if counts is None else sum(counts)
    return ("record_lines", lines, counts, draw(st.integers(0, total)))


def materialize(call, threshold):
    """An ``edge`` call as a concrete record at ``threshold``."""
    if call[0] != "edge":
        return call
    _, form, offset, base, share = call
    size = max(1, threshold + offset)
    writes = int(share * size)
    base = 65536 + 8 * base
    # One element per line: the record has exactly `size` entries.
    if form == "record":
        return ("record", RefSegment(base, 1 << LINE_BITS, size, 8), writes)
    if form == "record_grid":
        sweep = SegmentSweep(RefSegment(base, 1 << LINE_BITS, size, 8))
        return ("record_grid", [[sweep]], 1, writes)
    lines = [(base >> LINE_BITS) + line for line in range(size)]
    return ("record_lines", lines, None, writes)


def spec_lines(call):
    """One record's stream as the per-record spec converts it."""
    kind = call[0]
    if kind == "record":
        return segment_to_lines(call[1], LINE_BITS)
    if kind == "record_interleaved":
        return interleave_segments(call[1], LINE_BITS)
    if kind == "record_grid":
        lines, counts = grid_to_lines(call[1], call[2], LINE_BITS)
        return lines.tolist(), counts.tolist()
    lines, counts = call[1], call[2]
    return list(lines), [1] * len(lines) if counts is None else list(counts)


def reference_batches(program, threshold):
    """The batches, and the call each arrives in, under the per-record
    cut rule; the program ends with a snapshot."""
    batches = []
    buffer = [[], [], 0]

    def drain(call):
        if buffer[0]:
            batches.append((call, buffer[0], buffer[1], buffer[2]))
            buffer[:] = [[], [], 0]

    for index, call in enumerate(program):
        if call[0] in ("drain", "snapshot"):
            drain(index)
            continue
        lines, counts = spec_lines(call)
        writes = call[-1]
        if len(lines) >= threshold:
            drain(index)
            batches.append((index, lines, counts, writes))
            continue
        buffer[0] = buffer[0] + lines
        buffer[1] = buffer[1] + counts
        buffer[2] += writes
        if len(buffer[0]) >= threshold:
            drain(index)
    drain(len(program))
    return batches


def recorded_batches(program, threshold):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(recorder_module, "COALESCE_ENTRIES", threshold)
        hierarchy = LoggingHierarchy()
        recorder = TraceRecorder(hierarchy)
        for index, call in enumerate(program):
            hierarchy.call = index
            kind = call[0]
            if kind == "drain":
                recorder.drain()
            elif kind == "snapshot":
                hierarchy.snapshot()
            else:
                getattr(recorder, kind)(*call[1:-1], writes=call[-1])
        hierarchy.call = len(program)
        hierarchy.snapshot()
    return hierarchy.batches


class TestBatchBoundaries:
    @settings(max_examples=80, deadline=None)
    @given(program=st.lists(calls(), max_size=30))
    @example(program=[
        # Two records meeting on one line stay two entries.
        ("record", RefSegment(65536, 0, 3, 8), 1),
        ("record_interleaved", [RefSegment(65536, 8, 2, 8)] * 2, 1),
        ("record_lines", [2048, 2048], [2, 1], 0),
        ("record", RefSegment(65536, 8, 1, 8), 0),
    ])
    def test_batches_match_the_per_record_rule(self, program):
        for threshold in THRESHOLDS:
            concrete = [materialize(call, threshold) for call in program]
            assert recorded_batches(concrete, threshold) == reference_batches(
                concrete, threshold
            ), threshold

    def test_a_long_run_of_small_records(self):
        # Thousands of records, several conversions per batch: the
        # 4 Ki rule over a realistic mix of thread-record sized calls.
        rng = random.Random(7)
        program = []
        for _ in range(3000):
            count = rng.randrange(1, 12)
            stride = 8 * rng.randrange(-3, 5)
            segment = RefSegment(65536 + 8 * rng.randrange(512), stride, count, 8)
            if rng.random() < 0.3:
                other = RefSegment(131072 + 8 * rng.randrange(512), 8, count, 8)
                program.append(("record_interleaved", [segment, other], count))
            else:
                program.append(("record", segment, rng.randrange(count + 1)))
        assert recorded_batches(program, COALESCE_ENTRIES) == reference_batches(
            program, COALESCE_ENTRIES
        )


# ----------------------------------------------------------------------
# Counts are checked at the record_lines call and in access_data
# ----------------------------------------------------------------------
def make_recorder():
    return TraceRecorder(LoggingHierarchy())


class TestRunLengthCounts:
    @pytest.mark.parametrize(
        "lines, counts",
        [
            ([100, 200, 300], [1, 1]),   # fewer counts than lines
            ([100], [1, 1]),             # more counts than lines
            ([100, 200, 300], [0, 0, 0]),
            ([5, 6], [5, -3]),
        ],
    )
    def test_record_lines_rejects_bad_counts_at_the_call(self, lines, counts):
        recorder = make_recorder()
        with pytest.raises(ValueError, match="counts"):
            recorder.record_lines(lines, counts)
        stats = recorder.hierarchy.snapshot()
        assert (stats.data_refs, stats.l1.misses) == (0, 0)

    @pytest.mark.parametrize(
        "lines, counts",
        [([100, 200, 300], [1, 1]), ([100, 200], [1, 0]), ([5, 6], [5, -3])],
    )
    def test_access_data_rejects_bad_counts(self, lines, counts):
        hierarchy = r8000().build_hierarchy()
        with pytest.raises(ValueError, match="counts"):
            hierarchy.access_data(lines, counts)
        assert hierarchy.snapshot().l1.accesses == 0


# ----------------------------------------------------------------------
# Negative addresses are rejected at the record* call
# ----------------------------------------------------------------------
class TestNegativeAddresses:
    def test_a_segment_below_zero(self):
        recorder = make_recorder()
        with pytest.raises(ValueError, match="non-negative"):
            recorder.record(RefSegment(-32, 8, 4, 8))

    def test_a_segment_walking_below_zero(self):
        recorder = make_recorder()
        with pytest.raises(ValueError, match="non-negative"):
            recorder.record(RefSegment(16, -8, 4, 8))

    def test_an_interleaved_segment_below_zero(self):
        recorder = make_recorder()
        with pytest.raises(ValueError, match="non-negative"):
            recorder.record_interleaved(
                [RefSegment(64, 8, 4, 8), RefSegment(8, -8, 4, 8)]
            )

    def test_a_grid_stepping_below_zero(self):
        recorder = make_recorder()
        sweep = SegmentSweep(RefSegment(64, 8, 4, 8), step=-64)
        with pytest.raises(ValueError, match="non-negative"):
            recorder.record_grid([[sweep]], 3)

    def test_a_negative_line(self):
        recorder = make_recorder()
        with pytest.raises(ValueError, match="non-negative"):
            recorder.record_lines([3, -1])

    def test_nothing_reaches_the_caches(self):
        recorder = make_recorder()
        for address in range(-32, 0, 8):
            with pytest.raises(ValueError):
                recorder.record(RefSegment(address, 8, 1, 8))
        assert recorder.hierarchy.snapshot().data_refs == 0

    def test_lines_from_zero_replay_as_they_ran(self, tmp_path):
        # Line 0 is an ordinary line to the numpy replay step; its
        # empty-set sentinel, line -1, can no longer be recorded.
        def near_zero(ctx):
            ctx.recorder.record(RefSegment(0, 8, 32, 8))
            ctx.recorder.record(RefSegment(0, 8192, 8, 8))
            ctx.recorder.record_lines([0, 1, 0])

        machine = r8000(64)
        simulator = Simulator(machine, verify=False)
        capture = TraceCapture()
        live = simulator.run(near_zero, capture=capture)
        store = TraceStore(tmp_path)
        key = TraceKey("synthetic", "near_zero", "config", "code")
        assert store.put(key, capture, live, machine, 4096) == key.digest
        replayed = simulator.replay(store.get(key))
        assert replayed.stats == live.stats
        assert live.stats.l1.misses > 0


# ----------------------------------------------------------------------
# A guarded budget may stop a proc at any line, recorder frames included
# ----------------------------------------------------------------------
def runaway_round(recorder, data):
    """One round of a runaway proc's records: a plain record, an
    interleaved one and a record_lines call, 9 elements in all."""
    recorder.record(RefSegment(data, 8, 3, 8), writes=1)
    recorder.record_interleaved(
        [RefSegment(data, 8, 2, 8), RefSegment(data + 64, 8, 2, 8)], writes=2
    )
    recorder.record_lines([data >> LINE_BITS, 1 + (data >> LINE_BITS)], [2, 1], writes=1)


def line_events(function) -> int:
    """Line events while ``function`` runs, as a guard's budget counts them."""
    events = 0

    def tracer(frame, event, arg):
        nonlocal events
        events += event == "line"
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        function()
    finally:
        sys.settrace(previous)
    return events


class TestStoppedMidRecord:
    def test_a_stopped_recorder_leaves_the_next_thread_whole(self, monkeypatch):
        # At threshold 8 a round queues descriptors, converts them ahead
        # of its record_lines call, and every round or two cuts a batch
        # and feeds the kernel.  Stop the runaway at each line event
        # that three rounds take: the package's drain before the next
        # proc must not fail it, and the recorder must go on feeding
        # the caches.
        monkeypatch.setattr(recorder_module, "COALESCE_ENTRIES", 8)
        data = 1 << 16
        probe = TraceRecorder(LoggingHierarchy())
        span = line_events(lambda: [runaway_round(probe, data) for _ in range(3)])
        assert len(probe.hierarchy.batches) >= 2  # the rounds cut batches
        # The next proc runs two lines (the spec's and its own).
        for budget in range(2, span):
            hierarchy = LoggingHierarchy()
            recorder = TraceRecorder(hierarchy)
            space = AddressSpace()
            space.allocate("data", 1 << 17)
            package = GuardedThreadPackage(
                l2_size=64 * 1024,
                thread_budget=budget,
                recorder=recorder,
                address_space=space,
            )
            ran = []

            def runaway(a, b):
                while True:
                    runaway_round(recorder, data)

            package.th_fork(runaway, None, None)
            package.th_fork(lambda a, b: ran.append(a), "after", None)
            _, report = guarded_run(package)
            assert ran == ["after"], budget
            assert [entry["kind"] for entry in report] == ["budget"], budget
            refs = hierarchy.snapshot().data_refs
            recorder.record(RefSegment(data, 0, 1000, 8))
            assert hierarchy.snapshot().data_refs == refs + 1000, budget
