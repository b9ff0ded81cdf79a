"""The simulator performance guard: kernel throughput + campaign scaling.

Two measurements, recorded in ``BENCH_sim.json`` at the repo root so the
perf trajectory lives in version control alongside the code:

**Kernel throughput.**  The table-3 threaded matmul is simulated once
with the L1D batch stream captured as the kernel gets it (the
recorder's int64 arrays), then that exact trace is replayed through the
optimized kernel (:meth:`ClassifyingCache.process`: the direct-mapped
array path for coalesced batches, the dict loop for small drains) and
through the naive per-line list-based reference model
(:mod:`repro.cache.reference`), fed the same lines as lists of ints,
that the golden-equivalence suite pins it to.  The optimized kernel must be at least ``KERNEL_SPEEDUP_MIN``
times faster — and must not regress more than 20% against the speedup
committed in ``BENCH_sim.json``.  The full-size R8000's 16,384-line L2
never reaches the set-associative array path, so ``l2_kernel`` times
that path on its own: the L2 batches of one quick table-3 threaded run
on the scaled R8000 (256 lines, 4-way: the level ``warm-tables``
replays), under the same two gates.

Each ratio's two sides are timed in turn within every repeat (the
optimized kernel, the reference and the stored replay share their
rounds), so a slow phase of a shared host hits both sides of a ratio
instead of one.

**Profiling-off cost.**  With no sidecar attached a hierarchy's
``access_data`` *is* the uninstrumented class method — attaching an
oracle/observer/profiler rebinds the instance to the instrumented
variant, and detaching restores the plain one.  Disabled profiling
therefore costs zero instructions by construction; shared-runner noise
here swamps any attempt to time a sub-1% delta (same-code A/A runs
measure ±15%), so the benchmark asserts the *binding* — deterministic
and flake-free — and records ``off_overhead_pct: 0.0`` with the method
stated.  What ``--profile`` costs is measured and recorded alongside
for information, as the seconds the profiler adds to one table-3
:meth:`Simulator.run` (``profiler_added_s``: the run inside
``collector_scope(ProfileCollector())`` less the same run without it,
so a faster kernel, which shortens both, does not move it); it gates
nothing (profiling is opt-in).

**Campaign scaling.**  The same four-experiment quick campaign is run
serially and with ``--jobs 4``.  On a runner with at least four CPUs
the parallel campaign must finish at least ``CAMPAIGN_SPEEDUP_MIN``
times faster; with two or three CPUs any speedup at all is still owed
(``CAMPAIGN_SPEEDUP_MIN_SMALL``); only a single-CPU machine — where the
workers purely time-share — records the ratio without enforcing it.
The benchmark forces the pool (``force_parallel``) so the regression it
measures is the real pool cost; ``auto_degraded`` records whether a
production run on this host would have taken the serial loop instead.

**Stored-trace replay.**  The table-3 stream is written to a
content-addressed :class:`repro.trace.store.TraceStore` and replayed
end to end (:meth:`Simulator.replay`, memory-mapped read, the L1D's
array path fed the stored shadow verdicts).  Replay must beat live regeneration by
``REPLAY_SPEEDUP_MIN`` with byte-identical statistics.  Its regression
gate compares replay with the reference model's time on the captured
L1D stream (``reference_speedup``, ``reference_s / replay_s``): the
reference is the spec, which no performance change moves, so a faster
live path cannot trip it.  It may not fall more than 20% below the
committed figure.  The per-stage split (generation vs. kernel vs. replay) is recorded so the
trajectory shows *where* simulation time goes.  A second figure replays
under a live :class:`~repro.obs.telemetry.Telemetry`, as saved
campaigns do: it must take the vectorized path with byte-identical
statistics, and its speedup is recorded, not gated.

Timing discipline: min-of-N wall clock (noise only ever adds time),
with the sides of each ratio interleaved.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
import time
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from repro.apps.matmul.config import MatmulConfig
from repro.apps.matmul.programs import threaded
from repro.cache.classify import ClassifyingCache
from repro.cache.reference import ReferenceClassifyingCache
from repro.exp.base import r8000_scaled
from repro.machine import r8000
from repro.obs.profile import LocalityProfiler, ProfileCollector, collector_scope
from repro.obs.telemetry import Telemetry
from repro.resilience.campaign import (
    EXIT_OK,
    CampaignConfig,
    _effective_cpus,
    run_campaign,
)
from repro.sim.engine import Simulator
import repro.trace.replay as replay_module
from repro.trace.store import TraceCapture, TraceStore, trace_key_for

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_FILE = REPO_ROOT / "BENCH_sim.json"

#: Acceptance floors (see ISSUE/DESIGN §10).
KERNEL_SPEEDUP_MIN = 1.5
#: Profiling *off* may cost at most this fraction of hierarchy replay
#: time (DESIGN §14).  Structurally 0.0 today — no sidecar means the
#: uninstrumented method is bound — the budget stays on record for any
#: future design that reintroduces a per-batch check.
PROFILING_OFF_BUDGET = 0.01
CAMPAIGN_SPEEDUP_MIN = 2.0
#: Floor applied when the runner has more than one CPU but fewer than
#: CAMPAIGN_JOBS: parallel dispatch must still beat serial outright.
CAMPAIGN_SPEEDUP_MIN_SMALL = 1.1
#: Replaying a stored trace end to end must beat regenerating it live
#: by at least this factor (mmap read + vectorized kernel vs. the full
#: program run).
REPLAY_SPEEDUP_MIN = 5.0
#: A run may not lose more than 20% of the committed kernel speedup or
#: of the committed replay-vs-reference ratio.
REGRESSION_FRACTION = 0.8

KERNEL_REPEATS = 3
REPLAY_REPEATS = 3
#: Repeats for the hierarchy replay and the informational profiler-on
#: cost (min-of-N).
PROFILING_REPEATS = 5
CAMPAIGN_REPEATS = 2
CAMPAIGN_IDS = ["table4", "table6", "table8", "extension_blocking"]
CAMPAIGN_JOBS = 4

#: The table-3 configuration: threaded matmul on the R8000 model.
TRACE_N = 64


def capture_batches(
    machine, config: MatmulConfig, level: str
) -> list[tuple[np.ndarray, dict]]:
    """One threaded matmul simulation on ``machine`` with every
    ``process`` batch of the ``level`` cache recorded as the kernel got
    it: the int64 lines array and the keyword arguments (the hierarchy
    passes an L1D batch's reference total as ``accesses``, not its run
    lengths)."""
    batches: list[tuple[np.ndarray, dict]] = []
    original = ClassifyingCache.process

    def recording(self, lines, counts=None, **kwargs):
        if self.config.name == level:
            assert counts is None
            batches.append((lines, kwargs))
        return original(self, lines, counts, **kwargs)

    ClassifyingCache.process = recording
    try:
        Simulator(machine).run(threaded(config), name="bench_capture")
    finally:
        ClassifyingCache.process = original
    return batches


def feed_seconds(factory, config, batches) -> float:
    """Seconds to feed ``batches``, (lines, keyword arguments) pairs, to
    a fresh ``factory`` cache of ``config``."""
    cache = factory(config)
    started = time.perf_counter()
    for lines, kwargs in batches:
        cache.process(lines, **kwargs)
    return time.perf_counter() - started


def interleaved_min(timers: dict, repeats: int) -> dict[str, float]:
    """Min-of-``repeats`` seconds of each timer (a call that returns
    the seconds of one repeat), the timers taking turns within each
    round."""
    best = dict.fromkeys(timers, float("inf"))
    for _ in range(repeats):
        for name, timer in timers.items():
            best[name] = min(best[name], timer())
    return best


def kernel_section(trace: str, batches, optimized_s, reference_s) -> dict:
    lines = sum(len(batch) for batch, _ in batches)
    return {
        "trace": trace,
        "batches": len(batches),
        "lines": lines,
        "repeats": KERNEL_REPEATS,
        "optimized_s": round(optimized_s, 4),
        "reference_s": round(reference_s, 4),
        "optimized_lines_per_s": round(lines / optimized_s),
        "reference_lines_per_s": round(lines / reference_s),
        "speedup": round(reference_s / optimized_s, 2),
    }


def hierarchy_replay_seconds(batches) -> float:
    """Replay the captured stream through ``access_data`` with every
    sidecar slot ``None`` — the shipped default, running the
    uninstrumented class method: the kernel share of a live run."""
    best = float("inf")
    machine = r8000()
    for _ in range(PROFILING_REPEATS):
        hierarchy = machine.build_hierarchy()
        started = time.perf_counter()
        for lines, _ in batches:
            hierarchy.access_data(lines)
        best = min(best, time.perf_counter() - started)
    return best


def profiled_run_seconds(profiled: bool) -> float:
    """Min-of-N table-3 :meth:`Simulator.run`, inside
    ``collector_scope(ProfileCollector())`` when ``profiled`` — what
    ``--profile`` does to every simulation of an experiment — or
    without it."""
    simulator = Simulator(r8000(), verify=False)
    config = MatmulConfig(n=TRACE_N)
    best = float("inf")
    for _ in range(PROFILING_REPEATS):
        collector = ProfileCollector() if profiled else None
        with collector_scope(collector):
            started = time.perf_counter()
            simulator.run(threaded(config))
            best = min(best, time.perf_counter() - started)
        if profiled:
            assert len(collector.profilers) == 1, "the run was not profiled"
    return best


def stored_replay_profile(timers: dict) -> tuple[dict, dict[str, float]]:
    """The stored-replay end of the stage profile.

    ``live_s`` is a full :meth:`Simulator.run` (stream generation plus
    cache kernel); ``replay_s`` is the complete stored path —
    ``TraceStore.get`` (mmap read) plus :meth:`Simulator.replay` —
    whose statistics must equal the live run's exactly;
    ``sampled_replay_s`` is the same path under a live ``Telemetry``,
    whose sampler must not cost the vectorized step.  The caller
    splits ``live_s`` into generation and kernel shares using its
    ``access_data`` replay of the same stream.  ``timers`` take turns
    with the replay repeats (:func:`interleaved_min`); their min times
    are returned beside the profile.
    """
    machine = r8000()
    config = MatmulConfig(n=TRACE_N)
    simulator = Simulator(machine, verify=False)
    with tempfile.TemporaryDirectory() as scratch:
        store = TraceStore(Path(scratch) / "traces")
        capture = TraceCapture()
        live = simulator.run(threaded(config), capture=capture)
        key = trace_key_for(threaded(config), config, machine, 4096)
        assert store.put(key, capture, live, machine, 4096) is not None

        live_s = float("inf")
        for _ in range(REPLAY_REPEATS):
            started = time.perf_counter()
            rerun = simulator.run(threaded(config))
            live_s = min(live_s, time.perf_counter() - started)
        assert rerun.stats == live.stats

        def replay_seconds() -> float:
            started = time.perf_counter()
            stored = store.get(key)
            replayed = simulator.replay(stored)
            elapsed = time.perf_counter() - started
            assert replayed.stats == live.stats
            assert replayed.time == live.time
            assert replace(replayed.sched, seq=0) == replace(live.sched, seq=0)
            return elapsed

        best = interleaved_min(
            {"replay": replay_seconds, **timers}, REPLAY_REPEATS
        )

        # replay_into calls replay_stream through the module global once
        # per vectorized replay.
        vectorized = []
        replay_stream = replay_module.replay_stream

        def counted(hierarchy, stored):
            vectorized.append(stored)
            replay_stream(hierarchy, stored)

        replay_module.replay_stream = counted
        try:
            sampled_s = float("inf")
            for _ in range(REPLAY_REPEATS):
                started = time.perf_counter()
                stored = store.get(key)
                sampled = simulator.replay(stored, telemetry=Telemetry())
                sampled_s = min(sampled_s, time.perf_counter() - started)
        finally:
            replay_module.replay_stream = replay_stream
        assert len(vectorized) == REPLAY_REPEATS, (
            "a replay under live telemetry left the vectorized path"
        )
        assert sampled.stats == live.stats
        assert sampled.time == live.time
    replay_s = best.pop("replay")
    profile = {
        "trace": f"table3 threaded matmul (n={TRACE_N}), stored end to end",
        "repeats": REPLAY_REPEATS,
        "live_s": live_s,
        "replay_s": replay_s,
        "speedup": live_s / replay_s,
        "sampled_replay_s": sampled_s,
        "sampled_speedup": live_s / sampled_s,
    }
    return profile, best


def campaign_seconds(jobs: int) -> float:
    best = float("inf")
    for _ in range(CAMPAIGN_REPEATS):
        # force_parallel keeps the pool even on a 1-CPU host: the point
        # of the parallel measurement is the pool's true cost, which is
        # exactly what the auto-degrade gate exists to avoid.
        config = CampaignConfig(
            ids=list(CAMPAIGN_IDS),
            quick=True,
            save=False,
            jobs=jobs,
            force_parallel=True,
        )
        out, err = io.StringIO(), io.StringIO()
        started = time.perf_counter()
        code = run_campaign(config, out=out, err=err)
        elapsed = time.perf_counter() - started
        assert code == EXIT_OK, err.getvalue()
        best = min(best, elapsed)
    return best


def committed(section: str, key: str = "speedup") -> float | None:
    if not RESULT_FILE.exists():
        return None
    try:
        return json.loads(RESULT_FILE.read_text())[section][key]
    except (json.JSONDecodeError, KeyError):
        return None


def test_kernel_and_campaign_throughput():
    batches = capture_batches(r8000(), MatmulConfig(n=TRACE_N), "L1D")
    l1d = r8000().l1d
    # The reference model takes its own input form, lists of ints.
    reference_batches = [(lines.tolist(), {}) for lines, _ in batches]
    l2_machine = r8000_scaled(True)
    l2_batches = capture_batches(l2_machine, MatmulConfig.quick(), "L2")
    l2_reference_batches = [(lines.tolist(), {}) for lines, _ in l2_batches]

    replay_profile, kernel = stored_replay_profile({
        "optimized": partial(feed_seconds, ClassifyingCache, l1d, batches),
        "reference": partial(
            feed_seconds, ReferenceClassifyingCache, l1d, reference_batches
        ),
    })
    optimized_s, reference_s = kernel["optimized"], kernel["reference"]
    kernel_speedup = reference_s / optimized_s
    baseline_speedup = committed("kernel")
    baseline_replay = committed("replay", "reference_speedup")

    l2 = interleaved_min({
        "optimized": partial(
            feed_seconds, ClassifyingCache, l2_machine.l2, l2_batches
        ),
        "reference": partial(
            feed_seconds, ReferenceClassifyingCache, l2_machine.l2,
            l2_reference_batches,
        ),
    }, KERNEL_REPEATS)
    l2_speedup = l2["reference"] / l2["optimized"]
    baseline_l2 = committed("l2_kernel")

    # Structural profiling-off guarantee: a fresh hierarchy binds the
    # uninstrumented class method; attaching a profiler installs the
    # instrumented variant per instance; detaching restores the plain
    # one.  This is the whole disabled-cost story — no sidecar, no
    # sidecar code — so the "measurement" is an identity check.
    probe = r8000().build_hierarchy()
    assert "access_data" not in vars(probe), (
        "a sidecar-free hierarchy must run the uninstrumented "
        "access_data (profiling off would no longer be free)"
    )
    probe.profiler = LocalityProfiler("bench_probe", "r8000")
    assert "access_data" in vars(probe), (
        "attaching a profiler must rebind access_data to the "
        "instrumented variant"
    )
    probe.profiler = None
    assert "access_data" not in vars(probe), (
        "detaching the last sidecar must restore the uninstrumented "
        "access_data"
    )
    off_overhead = 0.0

    kernel_s = hierarchy_replay_seconds(batches)
    off_s = profiled_run_seconds(profiled=False)
    profiler_on_s = profiled_run_seconds(profiled=True)

    replay_speedup = replay_profile["speedup"]
    reference_speedup = reference_s / replay_profile["replay_s"]

    serial_s = campaign_seconds(jobs=1)
    parallel_s = campaign_seconds(jobs=CAMPAIGN_JOBS)
    campaign_speedup = serial_s / parallel_s
    cpu_count = os.cpu_count() or 1
    # Whether a production (unforced) --jobs run on this host would
    # have taken the serial loop instead of the measured pool.
    auto_degraded = _effective_cpus() <= 1
    if cpu_count >= CAMPAIGN_JOBS:
        campaign_floor = CAMPAIGN_SPEEDUP_MIN
    elif cpu_count > 1:
        campaign_floor = CAMPAIGN_SPEEDUP_MIN_SMALL
    else:
        campaign_floor = None  # pure time-sharing: record, don't enforce

    payload = {
        "benchmark": "simulator kernel throughput + campaign parallelism",
        "kernel": kernel_section(
            f"table3 threaded matmul (n={TRACE_N}), R8000 L1D stream",
            batches, optimized_s, reference_s,
        ),
        "l2_kernel": kernel_section(
            "table3 threaded matmul (quick), scaled R8000 L2 stream "
            f"({l2_machine.l2.num_lines} lines, "
            f"{l2_machine.l2.associativity}-way)",
            l2_batches, l2["optimized"], l2["reference"],
        ),
        "profiling": {
            "trace": (
                f"table3 threaded matmul (n={TRACE_N}), Simulator.run with "
                "and without --profile's ProfileCollector"
            ),
            "repeats": PROFILING_REPEATS,
            "off_s": round(off_s, 4),
            "profiler_on_s": round(profiler_on_s, 4),
            "off_overhead_pct": round(100 * off_overhead, 2),
            "off_method": (
                "structural: with no sidecar attached, access_data is the "
                "uninstrumented class method (identity asserted)"
            ),
            "profiler_added_s": round(profiler_on_s - off_s, 4),
        },
        "replay": {
            "trace": replay_profile["trace"],
            "repeats": replay_profile["repeats"],
            "live_s": round(replay_profile["live_s"], 4),
            "replay_s": round(replay_profile["replay_s"], 4),
            "speedup": round(replay_speedup, 2),
            "reference_speedup": round(reference_speedup, 2),
            "sampled_replay_s": round(replay_profile["sampled_replay_s"], 4),
            "sampled_speedup": round(replay_profile["sampled_speedup"], 2),
            "stages": {
                # Where one live simulation's time goes: producing the
                # reference stream vs. the cache kernel consuming it —
                # and what the stored path costs instead.
                "generation_s": round(
                    max(replay_profile["live_s"] - kernel_s, 0.0), 4
                ),
                "kernel_s": round(kernel_s, 4),
                "replay_s": round(replay_profile["replay_s"], 4),
            },
        },
        "campaign": {
            "ids": list(CAMPAIGN_IDS),
            "quick": True,
            "jobs": CAMPAIGN_JOBS,
            "repeats": CAMPAIGN_REPEATS,
            "cpu_count": cpu_count,
            "forced_parallel": True,
            "auto_degraded": auto_degraded,
            "serial_s": round(serial_s, 2),
            "parallel_s": round(parallel_s, 2),
            "speedup": round(campaign_speedup, 2),
        },
        "floors": {
            "kernel_speedup_min": KERNEL_SPEEDUP_MIN,
            "replay_speedup_min": REPLAY_SPEEDUP_MIN,
            "profiling_off_budget_pct": 100 * PROFILING_OFF_BUDGET,
            "campaign_speedup_min": CAMPAIGN_SPEEDUP_MIN,
            "campaign_speedup_min_small": CAMPAIGN_SPEEDUP_MIN_SMALL,
            "campaign_floor_applied": campaign_floor,
            "campaign_floor_enforced": campaign_floor is not None,
            "regression_fraction": REGRESSION_FRACTION,
        },
    }
    RESULT_FILE.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\n{json.dumps(payload, indent=2)}")

    assert kernel_speedup >= KERNEL_SPEEDUP_MIN, (
        f"kernel speedup {kernel_speedup:.2f}x below the "
        f"{KERNEL_SPEEDUP_MIN}x floor"
    )
    assert off_overhead < PROFILING_OFF_BUDGET, (
        f"profiling-off cost {100 * off_overhead:.2f}% of hierarchy replay "
        f"(budget {100 * PROFILING_OFF_BUDGET:.0f}%)"
    )
    if baseline_speedup is not None:
        floor = REGRESSION_FRACTION * baseline_speedup
        assert kernel_speedup >= floor, (
            f"kernel speedup regressed: {kernel_speedup:.2f}x vs committed "
            f"{baseline_speedup:.2f}x (floor {floor:.2f}x)"
        )
    assert l2_speedup >= KERNEL_SPEEDUP_MIN, (
        f"L2 kernel speedup {l2_speedup:.2f}x below the "
        f"{KERNEL_SPEEDUP_MIN}x floor"
    )
    if baseline_l2 is not None:
        floor = REGRESSION_FRACTION * baseline_l2
        assert l2_speedup >= floor, (
            f"L2 kernel speedup regressed: {l2_speedup:.2f}x vs committed "
            f"{baseline_l2:.2f}x (floor {floor:.2f}x)"
        )
    assert replay_speedup >= REPLAY_SPEEDUP_MIN, (
        f"stored-trace replay only {replay_speedup:.2f}x faster than live "
        f"regeneration (floor {REPLAY_SPEEDUP_MIN}x)"
    )
    if baseline_replay is not None:
        floor = REGRESSION_FRACTION * baseline_replay
        assert reference_speedup >= floor, (
            f"replay regressed: {reference_speedup:.2f}x the reference "
            f"model's speed vs committed {baseline_replay:.2f}x "
            f"(floor {floor:.2f}x)"
        )
    if campaign_floor is not None:
        assert campaign_speedup >= campaign_floor, (
            f"--jobs {CAMPAIGN_JOBS} campaign speedup "
            f"{campaign_speedup:.2f}x below the {campaign_floor}x "
            f"floor on a {cpu_count}-CPU machine"
        )
