"""Cache-locality profiler: who pays the misses, and where.

The simulator's aggregate tables say *how many* L1/L2 misses a run took;
this module says *which fork site, bin, and object segment* paid them.
It is the measurement layer the paper's argument implies but never
shows — hinted scheduling is supposed to concentrate each bin's misses
into its working set, and the profiler makes that visible per bin.

Three cooperating pieces:

* :class:`LocalityProfiler` — an opt-in sidecar on
  :class:`~repro.cache.hierarchy.CacheHierarchy` (same ``None``-means-off
  contract as the cache oracle and the telemetry observer; with no
  sidecar attached the hierarchy runs its uninstrumented class method,
  so the profiling-off hot path runs no profiler code at all).  The
  thread package tells it which fork site and bin are dispatching;
  every access batch is then charged to the current ``(site, bin)``
  pair, each run-length entry to the allocation that owns its address,
  and an interval sampler records cache-occupancy and miss-rate
  timelines (emitted live as Chrome-trace counter tracks when telemetry
  is on).
* :class:`ProfileCollector` — gathers one profiler per simulated run
  and serialises the lot into a schema-versioned, fully deterministic
  ``<experiment>.profile.json`` payload (byte-identical between serial
  and ``--jobs`` campaigns).
* the process-wide collector switch (:func:`current_collector`,
  :func:`collector_scope`) — mirrors ``repro.obs.config`` so
  ``repro-experiments --profile`` can arm profiling for a whole
  campaign without threading a parameter through every experiment.

Writebacks are not modelled by the kernel (no dirty-eviction traffic),
so stores are attributed as write *references* per context; see
DESIGN.md §14.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import chain
from typing import Any, Callable, Iterator

import numpy as np

from repro.obs.telemetry import DISABLED, Telemetry

#: Bump on any change to the payload layout; readers refuse newer schemas.
PROFILE_SCHEMA_VERSION = 1

#: Artifact name suffix: ``runs/<run-id>/<experiment>.profile.json``.
PROFILE_SUFFIX = ".profile"

#: Site charged for references outside any thread dispatch (program
#: setup, fork-time package bookkeeping, unthreaded program versions).
MAIN_SITE = "(main)"

#: Bin charged for references outside any bin sweep.
NO_BIN = "-"

#: Object segment for addresses no allocation owns.
UNMAPPED = "(unmapped)"

#: Object segment for L2 lines behind a virtual-to-physical page mapper
#: (physical line numbers cannot be inverted to an owning allocation).
TRANSLATED = "(translated)"

#: Access batches between occupancy/miss-rate timeline samples.
DEFAULT_SAMPLE_INTERVAL = 256

# Context counter slots (one list per (site, bin) pair — a list, not a
# dataclass, because this runs once per access batch).
_REFS, _WRITES, _L1, _L2, _COMP, _CAP, _CONF = range(7)


def _nothing_buffered() -> None:
    """The drain of a profiler whose references arrive unbuffered."""


def profile_artifact_name(experiment_id: str) -> str:
    """The run-store artifact name for one experiment's profile."""
    return f"{experiment_id}{PROFILE_SUFFIX}"


def fold_object_name(name: str) -> str:
    """Collapse per-instance allocation names into one object segment.

    The thread package allocates ``th_group_1``, ``th_group_2``, ... —
    hundreds of regions that are one *kind* of object.  Folding the
    trailing instance counter (``th_group_17`` → ``th_group``) keeps
    profiles small and readable; application arrays (``A``, ``B``,
    ``grid``) have no counter and pass through unchanged.
    """
    stripped = name.rstrip("0123456789")
    if stripped != name and stripped.endswith("_"):
        return stripped.rstrip("_")
    return name


class LocalityProfiler:
    """Charges every simulated reference to (fork site, bin, object).

    One instance profiles one ``Simulator.run``.  The cache hierarchy
    calls :meth:`on_batch` after every access batch; thread packages
    bracket bin sweeps and thread dispatches with
    :meth:`enter_bin`/:meth:`exit_bin` and
    :meth:`enter_site`/:meth:`exit_site`.  Everything outside a dispatch
    lands in the ``(main)`` site, so the charge is total by
    construction: the per-context counters always sum to the
    hierarchy's own totals (a test invariant).

    ``drain`` feeds the references a trace recorder still buffers; every
    scope change calls it first, so each reference is charged to the
    scope it was recorded in.  :meth:`finish` releases it.
    """

    def __init__(
        self,
        program: str,
        machine: str,
        space: Any = None,
        obs: Telemetry = DISABLED,
        interval: int = DEFAULT_SAMPLE_INTERVAL,
        drain: Callable[[], None] = _nothing_buffered,
    ) -> None:
        self.program = program
        self.machine = machine
        self.space = space
        self.obs = obs
        self.interval = interval
        self._drain = drain
        self._site = MAIN_SITE
        self._bin = NO_BIN
        self._site_stack: list[str] = []
        self._bin_stack: list[str] = []
        #: Keyed by the function object itself (not ``id()``: holding the
        #: reference pins the object, so a recycled id can never alias
        #: two different fork sites).
        self._site_names: dict[Any, str] = {}
        self._contexts: dict[tuple[str, str], list[int]] = {}
        self._objects: dict[str, list[int]] = {}
        self._batches = 0
        self._refs = 0
        self._writes = 0
        self._l1_misses = 0
        self._l2_misses = 0
        self._prev_l1_classes = (0, 0, 0)
        self._prev_rates: dict[str, tuple[int, int]] = {}
        self._timeline: list[dict[str, Any]] = []
        # Object index over the address space, rebuilt lazily as the
        # program allocates (the bump allocator only appends): the
        # allocations' bases and ends in base order behind a sentinel
        # that owns nothing, each one's object id, and the object names
        # by id, UNMAPPED last.
        self._indexed = -1
        self._bases = self._ends = np.full(1, -1, dtype=np.int64)
        self._ids = np.zeros(1, dtype=np.intp)
        self._names = [UNMAPPED]

    # ------------------------------------------------------------------
    # Context hooks (thread package)
    # ------------------------------------------------------------------
    def enter_bin(self, key: str) -> None:
        self._drain()
        self._bin_stack.append(self._bin)
        self._bin = key

    def exit_bin(self) -> None:
        self._drain()
        self._bin = self._bin_stack.pop()

    def enter_site(self, func: Any) -> None:
        self._drain()
        self._site_stack.append(self._site)
        name = self._site_names.get(func)
        if name is None:
            name = getattr(func, "__qualname__", None) or getattr(
                func, "__name__", repr(func)
            )
            self._site_names[func] = name
        self._site = name

    def exit_site(self) -> None:
        self._drain()
        self._site = self._site_stack.pop()

    # ------------------------------------------------------------------
    # Attribution (cache hierarchy sidecar)
    # ------------------------------------------------------------------
    def on_batch(
        self,
        hierarchy: Any,
        lines: np.ndarray,
        counts: np.ndarray | None,
        writes: int,
        l1_misses: list[int] | np.ndarray,
        l2_misses: list[int] | np.ndarray,
    ) -> None:
        """Charge one processed access batch (int64 lines and integer
        counts, as the kernel got it) and its misses (lists, or int64 arrays from a
        level's array path) to the current context."""
        total = int(counts.sum()) if counts is not None else len(lines)
        key = (self._site, self._bin)
        context = self._contexts.get(key)
        if context is None:
            context = self._contexts[key] = [0] * 7
        n_l1 = len(l1_misses)
        n_l2 = len(l2_misses)
        context[_REFS] += total
        context[_WRITES] += writes
        context[_L1] += n_l1
        context[_L2] += n_l2
        # The kernel reports miss classes only as level totals; the
        # batch's own split is the delta since the previous batch.
        stats = hierarchy.l1d.stats
        prev = self._prev_l1_classes
        context[_COMP] += stats.compulsory - prev[0]
        context[_CAP] += stats.capacity - prev[1]
        context[_CONF] += stats.conflict - prev[2]
        self._prev_l1_classes = (stats.compulsory, stats.capacity, stats.conflict)
        self._batches += 1
        self._refs += total
        self._writes += writes
        self._l1_misses += n_l1
        self._l2_misses += n_l2
        if self.space is not None:
            self._charge_objects(hierarchy, lines, counts, l1_misses, l2_misses)
        if self._batches % self.interval == 0:
            self._sample(hierarchy)

    def finish(self, hierarchy: Any) -> None:
        """Flush the tail timeline interval at the end of the run, and
        release the drain (it pins the run's recorder and hierarchy,
        which a collector holding this profiler must not keep alive)."""
        self._drain = _nothing_buffered
        if self._batches and (
            not self._timeline or self._timeline[-1]["batch"] != self._batches
        ):
            self._sample(hierarchy)

    # ------------------------------------------------------------------
    # Object attribution
    # ------------------------------------------------------------------
    def _rebuild_index(self) -> None:
        allocations = self.space.allocations
        self._indexed = len(allocations)
        ordered = sorted(allocations, key=lambda a: a.base)
        folded = [fold_object_name(a.name) for a in ordered]
        names = [*dict.fromkeys(folded), UNMAPPED]
        ids = {name: index for index, name in enumerate(names)}
        self._bases = np.array([-1] + [a.base for a in ordered], dtype=np.int64)
        self._ends = np.array([-1] + [a.end for a in ordered], dtype=np.int64)
        self._ids = np.array(
            [len(names) - 1] + [ids[name] for name in folded], dtype=np.intp
        )
        self._names = names
        for name in names:
            self._objects.setdefault(name, [0, 0, 0])

    def _owners(self, lines, shift: int) -> np.ndarray:
        """The object id of each line's first address: one
        ``np.searchsorted`` over the allocation bases, masked by their
        ends."""
        addresses = np.asarray(lines, dtype=np.int64) << shift
        index = np.searchsorted(self._bases, addresses, side="right") - 1
        return np.where(
            addresses < self._ends[index], self._ids[index], len(self._names) - 1
        )

    def _tally(self, ids: np.ndarray, weights=None) -> list[tuple[str, int]]:
        """``(object name, count)`` for each object that ``ids`` names,
        each entry counted ``weights`` times (once when ``None``)."""
        counts = np.bincount(ids, weights, minlength=len(self._names))
        counts = counts.astype(np.int64)  # weighted sums are exact floats
        names = self._names
        return [
            (names[index], int(counts[index]))
            for index in np.flatnonzero(counts).tolist()
        ]

    def _charge_objects(
        self,
        hierarchy: Any,
        lines: np.ndarray,
        counts: np.ndarray | None,
        l1_misses: list[int] | np.ndarray,
        l2_misses: list[int] | np.ndarray,
    ) -> None:
        if self._indexed != len(self.space.allocations):
            self._rebuild_index()
        shift = hierarchy.l1d.config.line_bits
        objects = self._objects
        charges = [
            (0, self._owners(lines, shift), counts),
            (1, self._owners(l1_misses, shift), None),
        ]
        if len(l2_misses):
            if hierarchy.l2_page_mapper is not None:
                translated = objects.setdefault(TRANSLATED, [0, 0, 0])
                translated[2] += len(l2_misses)
            else:
                l2_shift = hierarchy.l2.config.line_bits
                charges.append((2, self._owners(l2_misses, l2_shift), None))
        for column, ids, weights in charges:
            for name, count in self._tally(ids, weights):
                objects[name][column] += count

    # ------------------------------------------------------------------
    # Occupancy / miss-rate timeline
    # ------------------------------------------------------------------
    def _occupancy(self, hierarchy: Any, level_name: str, level: Any) -> dict:
        """Who owns which fraction of one cache level right now."""
        num_lines = level.config.num_lines
        if level_name == "l2" and hierarchy.l2_page_mapper is not None:
            resident = sum(len(s) for s in level.sets)
            if not resident:
                return {}
            return {TRANSLATED: round(resident / num_lines, 6)}
        if self.space is not None and self._indexed != len(self.space.allocations):
            self._rebuild_index()
        sets = level.sets
        lines = np.fromiter(
            chain.from_iterable(sets), dtype=np.int64, count=sum(map(len, sets))
        )
        held = self._tally(self._owners(lines, level.config.line_bits))
        return {name: round(count / num_lines, 6) for name, count in sorted(held)}

    def _sample(self, hierarchy: Any) -> None:
        sample: dict[str, Any] = {"batch": self._batches, "refs": self._refs}
        for level_name, level in (("l1", hierarchy.l1d), ("l2", hierarchy.l2)):
            stats = level.stats
            prev_accesses, prev_misses = self._prev_rates.get(level_name, (0, 0))
            delta_accesses = stats.accesses - prev_accesses
            delta_misses = stats.misses - prev_misses
            self._prev_rates[level_name] = (stats.accesses, stats.misses)
            rate = round(delta_misses / delta_accesses, 6) if delta_accesses else 0.0
            occupancy = self._occupancy(hierarchy, level_name, level)
            sample[level_name] = {"miss_rate": rate, "occupancy": occupancy}
            if self.obs.enabled:
                # Live Chrome-trace counter tracks, same ``ph: "C"`` path
                # as ``repro-trace --counters``.
                self.obs.bus.counter(
                    f"profile.{level_name}.occupancy", occupancy
                )
                self.obs.bus.counter(
                    f"profile.{level_name}.miss_rate", {"rate": rate}
                )
                self.obs.metrics.series(
                    f"profile.{level_name}.occupancy"
                ).append(self._batches, occupancy)
        self._timeline.append(sample)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def entry(self, seq: int) -> dict[str, Any]:
        """One run's profile as a deterministic, JSON-ready dict."""
        contexts = []
        dispatch_refs = 0
        binned_refs = 0
        for site, bin_key in sorted(self._contexts):
            c = self._contexts[(site, bin_key)]
            if site != MAIN_SITE:
                dispatch_refs += c[_REFS]
            if bin_key != NO_BIN:
                binned_refs += c[_REFS]
            contexts.append(
                {
                    "site": site,
                    "bin": bin_key,
                    "refs": c[_REFS],
                    "writes": c[_WRITES],
                    "l1_misses": c[_L1],
                    "l2_misses": c[_L2],
                    "l1_compulsory": c[_COMP],
                    "l1_capacity": c[_CAP],
                    "l1_conflict": c[_CONF],
                }
            )
        attributed = sum(c[_REFS] for c in self._contexts.values())
        objects = [
            {
                "object": name,
                "refs": slot[0],
                "l1_misses": slot[1],
                "l2_misses": slot[2],
            }
            for name, slot in sorted(self._objects.items())
            if any(slot)
        ]
        return {
            "program": self.program,
            "machine": self.machine,
            "seq": seq,
            "totals": {
                "refs": self._refs,
                "writes": self._writes,
                "l1_misses": self._l1_misses,
                "l2_misses": self._l2_misses,
                "batches": self._batches,
                "attributed_refs": attributed,
                "attributed_fraction": (
                    round(attributed / self._refs, 6) if self._refs else 1.0
                ),
                "dispatch_refs": dispatch_refs,
                "binned_refs": binned_refs,
            },
            "contexts": contexts,
            "objects": objects,
            "timeline": self._timeline,
        }


class ProfileCollector:
    """Accumulates one :class:`LocalityProfiler` per simulated run.

    The campaign driver installs one collector per experiment attempt
    (resetting on retry); ``Simulator.run`` hands every finished
    profiler to :meth:`add`.
    """

    def __init__(self) -> None:
        self.profilers: list[LocalityProfiler] = []

    def reset(self) -> None:
        self.profilers.clear()

    def add(self, profiler: LocalityProfiler) -> None:
        self.profilers.append(profiler)

    def payload(self, experiment_id: str) -> dict[str, Any]:
        """The experiment's ``profile.json`` payload.

        Deterministic by construction — entries in run order, contexts
        and objects sorted, timelines keyed on batch indices and
        cumulative reference counts (never wall clock) — so serial and
        ``--jobs`` campaigns produce byte-identical artifacts.
        """
        return {
            "schema": PROFILE_SCHEMA_VERSION,
            "experiment_id": experiment_id,
            "entries": [
                profiler.entry(seq)
                for seq, profiler in enumerate(self.profilers)
            ],
        }


def check_schema(payload: dict[str, Any], source: str = "profile") -> None:
    """Refuse payloads this reader does not understand."""
    schema = payload.get("schema")
    if schema != PROFILE_SCHEMA_VERSION:
        raise ValueError(
            f"{source}: unsupported profile schema {schema!r} "
            f"(this reader understands {PROFILE_SCHEMA_VERSION})"
        )


# ----------------------------------------------------------------------
# The process-wide collector switch, mirroring ``repro.obs.config``.
# ----------------------------------------------------------------------
_COLLECTOR: ProfileCollector | None = None


def current_collector() -> ProfileCollector | None:
    """The process-wide profile collector (``None`` = profiling off)."""
    return _COLLECTOR


def set_collector(collector: ProfileCollector | None) -> ProfileCollector | None:
    """Install a process-wide collector; returns the previous one."""
    global _COLLECTOR
    previous = _COLLECTOR
    _COLLECTOR = collector
    return previous


@contextmanager
def collector_scope(
    collector: ProfileCollector | None,
) -> Iterator[ProfileCollector | None]:
    """Install ``collector`` for the duration of a block."""
    previous = set_collector(collector)
    try:
        yield collector
    finally:
        set_collector(previous)
