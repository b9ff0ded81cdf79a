"""Benchmark of the cache-locality simulator, end to end and per layer.

Run from the root of a checkout::

    python3 simbench/run.py --workload cold-tables --seed 1 --seconds 15 --trace 0

Workloads (single process, closed loop: each op starts when the
previous one returns):

* ``cold-tables`` -- the versions behind cache Tables 3/5/7/9, each
  pass against a fresh, empty trace store: every program runs live and
  its stream is stored.
* ``warm-tables`` -- the same ops against a store filled during set-up:
  every version replays from the store.
* ``threads`` -- Table 1's null threads forked and run by a traced
  program with no sidecars.

``--trace 0`` prints the end-to-end metrics; their times are in
seconds at reference host speed (see ``speed.py``), and the raw wall
times are printed beside them.  ``--trace 1`` wraps each layer's entry
points (see ``layers.py``) and prints per-layer self times (raw wall
time) and work counts instead.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
An op fails when it raises or when its result digests differ from the
reference pass (cold) or the set-up fill (warm), or, for the seed
every app config carries by default (1996), from those pinned in
``digests.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from speed import SpeedProbe

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("cold-tables", "warm-tables", "threads")
#: Fresh interpreters started to time set-up; the median is reported.
SETUP_PROBES = 3
#: Every run measures at least this many passes, to take a median.
MIN_PASSES = 2
#: A traced run whose spans cover less of the pass time than this is
#: reported as incorrect: the layer split would not explain the pass.
MIN_COVERAGE = 0.95


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_workloads(root: Path):
    """Import ``repro`` from ``root/src`` and the benchmark's modules."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"simbench: {src / 'repro'} not found; run from the root of "
            "a checkout of the repository"
        )
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    import repro
    import workloads

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"simbench: imported repro from {repro.__file__}")
    return workloads


def probe(args) -> None:
    """Set-up as a fresh interpreter pays it: import, then build ops."""
    with SpeedProbe() as speed:
        start = perf_counter()
        workloads = import_workloads(Path.cwd())
        import_s = perf_counter() - start
        if args.workload == "threads":
            workloads.null_threads_program(args.seed)
        else:
            workloads.table_ops(args.seed)
    print(json.dumps({"import_s": import_s, "spent_s": speed.spent_s,
                      "scale": speed.scale()}))


def run_probes(args) -> tuple[list[float], list[float]]:
    """(set-up seconds at reference speed, raw import seconds) of
    ``SETUP_PROBES`` fresh interpreters."""
    walls, imports = [], []
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--probe",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "0"]
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=120, check=True)
        wall = perf_counter() - start
        report = json.loads(done.stdout.splitlines()[-1])
        walls.append((wall - report["spent_s"]) * report["scale"])
        imports.append(report["import_s"])
    return walls, imports


class Run:
    """One benchmark run: set-up, the closed loop of passes, checks."""

    def __init__(self, args, workloads, scratch: Path, speed=None) -> None:
        self.args = args
        self.w = workloads
        self.scratch = scratch
        self.speed = speed
        self.attempted = 0
        self.failed = 0
        self.passes = []
        #: Each complete pass's time at reference speed (raw if tracing).
        self.pass_s: list[float] = []
        self.reference: dict[str, str] | None = None
        self.pinned: dict[str, str] = {}
        self.setup_extra_s = 0.0
        pinned = json.loads((BENCH_DIR / "digests.json").read_text())
        if args.seed == pinned["seed"]:
            key = "threads" if args.workload == "threads" else "tables"
            self.pinned = pinned[key]

    # -- set-up ----------------------------------------------------------
    def set_up(self) -> None:
        w = self.w
        if self.args.workload == "threads":
            self.program = w.null_threads_program(self.args.seed)
            return
        self.ops = w.table_ops(self.args.seed)
        if self.args.workload == "warm-tables":
            self.store = self.scratch / "store"
            mark = self.speed.mark() if self.speed else None
            start = perf_counter()
            fill = w.table_pass(self.ops, self.store)
            self.setup_extra_s = self.scaled(perf_counter() - start, mark)
            if fill.errors:
                raise RuntimeError(f"store fill failed: {fill.errors}")
            self.reference = fill.digests

    # -- the loop --------------------------------------------------------
    def one_pass(self):
        w = self.w
        workload = self.args.workload
        if workload == "threads":
            return w.threads_pass(self.program)
        if workload == "warm-tables":
            return w.table_pass(self.ops, self.store)
        store = self.scratch / f"cold-{len(self.passes)}"
        try:
            return w.table_pass(self.ops, store)
        finally:
            shutil.rmtree(store, ignore_errors=True)

    def check(self, record) -> None:
        """Count ``record``'s ops and those that failed."""
        bad = set(record.errors)
        for name, digest in record.digests.items():
            op = name.split("/")[0]
            expected = [self.pinned.get(name)]
            if self.reference is not None:
                expected.append(self.reference.get(name))
            for want in expected:
                if want is not None and want != digest:
                    print(f"digest mismatch: {name} {digest} != {want}",
                          file=sys.stderr)
                    bad.add(op)
        missing = [name for name in self.pinned
                   if name not in record.digests
                   and name.split("/")[0] not in record.errors]
        for name in missing:
            print(f"digest missing: {name}", file=sys.stderr)
            bad.add(name.split("/")[0])
        self.attempted += record.ops
        self.failed += len(bad)

    def loop(self, seconds: float) -> None:
        start = perf_counter()
        while len(self.passes) < MIN_PASSES or perf_counter() - start < seconds:
            # Collect the previous pass's garbage outside the timed pass.
            gc.collect()
            mark = self.speed.mark() if self.speed else None
            record = self.one_pass()
            self.check(record)
            if not record.errors:
                self.pass_s.append(self.scaled(record.seconds, mark))
                if self.reference is None:
                    self.reference = record.digests
            self.passes.append(record)

    def scaled(self, wall_s: float, mark) -> float:
        """``wall_s`` at reference speed, when the speed probe is on."""
        return wall_s if self.speed is None else self.speed.normalize(
            wall_s, mark)

    # -- results ---------------------------------------------------------
    def complete_passes(self):
        return [p for p in self.passes if not p.errors]


def end_to_end(run: Run, setup_walls: list[float]) -> dict:
    """Every end-to-end metric as (value, unit, samples)."""
    passes = run.complete_passes()
    n = len(passes)
    return {
        "setup_s": (statistics.median(setup_walls) + run.setup_extra_s, "s",
                    len(setup_walls)),
        "pass_s": (statistics.median(run.pass_s), "s", n),
        "thread_us": (statistics.median(
            s * 1e6 / p.threads for s, p in zip(run.pass_s, passes)), "us", n),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
    }


def app_seconds(run: Run) -> dict:
    """Median op time of each table app, as (value, unit, samples)."""
    out = {}
    for app in run.w.APPS:
        times = [p.op_seconds[app] for p in run.complete_passes()
                 if app in p.op_seconds]
        out[f"app_s.{app}"] = (
            statistics.median(times) if times else 0.0, "s", len(times))
    return out


SELF_TIMES = (
    ("apps.program_s", "apps.program"),
    ("core.proc_s", "core.proc"),
    ("core.fork_s", "core.fork"),
    ("core.dispatch_s", "core.dispatch"),
    ("trace.recorder_s", "trace.recorder"),
    ("cache.hierarchy_s", "cache.hierarchy"),
    ("cache.l1d.process_s", "cache.l1d"),
    ("cache.l2.process_s", "cache.l2"),
    ("trace.capture_s", "trace.capture"),
    ("trace.store.put_s", "trace.store.put"),
    ("trace.store.get_s", "trace.store.get"),
    ("sim.replay_s", "sim.replay"),
    ("obs.sampler_s", "obs.sampler"),
)
WORK_COUNTS = (
    "core.forks", "core.dispatches",
    "trace.recorder.batches", "cache.hierarchy.batches",
    "cache.l1d.entries", "cache.l1d.batches",
    "cache.l2.entries", "cache.l2.batches",
    "trace.store.puts", "trace.store.bytes",
    "sim.replays", "obs.sampler.batches",
)


def per_layer(run: Run, tracer, import_s: list[float]) -> dict:
    """Every per-layer metric as (value, unit, samples).  Self times
    and counts are per pass, averaged over the run's passes."""
    passes = run.complete_passes()
    n = len(passes)
    traced_s = sum(p.seconds for p in passes)
    refs = sum(p.data_refs for p in passes)
    t, c = tracer.self_s, tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {"setup.import_s": (statistics.median(import_s), "s",
                                  len(import_s))}
    metrics.update(app_seconds(run))
    metrics["trace.pass_s"] = (
        statistics.median(p.seconds for p in passes), "s", n)
    for name, layer in SELF_TIMES:
        metrics[name] = (t.get(layer, 0.0) / n, "s", n)
    for name in WORK_COUNTS:
        unit = "bytes" if name.endswith("bytes") else "count"
        metrics[name] = (c.get(name, 0) / n, unit, n)
    metrics["trace.recorder.entries_per_batch"] = (ratio(
        c.get("trace.recorder.entries", 0),
        c.get("trace.recorder.batches", 0)), "count", n)
    metrics["trace.store.hit_ratio"] = (ratio(
        c.get("trace.store.hits", 0), c.get("trace.store.gets", 0)),
        "ratio", n)
    metrics["sim.replay.fast_ratio"] = (ratio(
        c.get("sim.replays.fast", 0), c.get("sim.replays", 0)), "ratio", n)
    metrics["sim.refs_per_s"] = (ratio(refs, traced_s), "1/s", n)
    metrics["trace.coverage"] = (
        ratio(tracer.covered_s, traced_s), "ratio", n)
    metrics["trace.uncovered_s"] = ((traced_s - tracer.covered_s) / n, "s", n)
    return metrics


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def report(name: str, value: float, unit: str, samples: int) -> None:
    print(f"  {name:34s} {value:14.6g} {unit:6s} n={samples}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe:
        probe(args)
        return 0
    root = Path.cwd()
    workloads = import_workloads(root)
    setup_walls, import_s = run_probes(args)
    scratch = root / ".simbench" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    tracer = None
    # Traced runs report raw wall times: the probe's signal would land
    # inside whichever layer span is open.
    speed = None if args.trace else SpeedProbe()
    try:
        run = Run(args, workloads, scratch, speed)
        with speed or nullcontext():
            run.set_up()
            if args.trace:
                from layers import LayerTracer

                tracer = LayerTracer()
                tracer.install()
            run.loop(args.seconds)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run's scratch is still there

    correct = run.failed == 0 and bool(run.complete_passes())
    metrics: dict = {}
    extra: dict = {}
    if not run.complete_passes():
        pass
    elif args.trace:
        metrics = per_layer(run, tracer, import_s)
        coverage = metrics["trace.coverage"][0]
        if coverage < MIN_COVERAGE:
            print(f"spans cover {coverage:.1%} of traced pass time "
                  f"(< {MIN_COVERAGE:.0%})", file=sys.stderr)
            correct = False
    else:
        metrics = end_to_end(run, setup_walls)
        passes = run.complete_passes()
        extra = {"pass_s.raw": (
            statistics.median(p.seconds for p in passes), "s", len(passes))}
        if args.workload != "threads":
            extra.update(app_seconds(run))
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(run.passes)} passes, {run.attempted} ops attempted, "
          f"{run.failed} failed (failed_frac "
          f"{run.failed / max(run.attempted, 1):.3f})")
    for name, row in {**metrics, **extra}.items():
        report(name, *row)
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.CalledProcessError as exc:
        traceback.print_exc()
        print(exc.stderr, file=sys.stderr)
        sys.exit(1)
