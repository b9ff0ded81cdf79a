"""Two-level cache hierarchy matching the paper's SGI machines.

Both experiment machines have split first-level instruction/data caches
and a unified second-level cache.  Data references are simulated at L1D
granularity; L1D misses are forwarded to L2 (re-mapped to the larger L2
line size).  Instruction fetches are *counted* but not address-simulated:
the paper's kernels are tight loops whose code trivially stays resident
in L1I, so I-side misses are limited to a one-time compulsory charge for
the program's code footprint (see :meth:`CacheHierarchy.charge_code_footprint`).
This matches how the paper's tables are read — L1/L2 miss counts there are
dominated entirely by data traffic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.classify import ClassifyingCache, LevelStats
from repro.cache.config import CacheConfig


def check_writes(writes: int, total: int) -> None:
    """Reject a store count outside ``0..total`` references."""
    if writes < 0:
        raise ValueError(f"writes must be non-negative, got {writes}")
    if writes > total:
        raise ValueError(f"writes={writes} exceeds total references {total}")


@dataclass
class HierarchyStats:
    """Reference and miss totals for a full hierarchy, paper-table shaped."""

    inst_fetches: int
    data_reads: int
    data_writes: int
    l1: LevelStats
    l2: LevelStats

    @property
    def data_refs(self) -> int:
        return self.data_reads + self.data_writes

    @property
    def l1_miss_rate(self) -> float:
        """L1 misses per *total* reference (instructions + data), the rate
        definition used in the paper's Tables 3, 5, 7 and 9."""
        total = self.inst_fetches + self.data_refs
        if total == 0:
            return 0.0
        return self.l1.misses / total

    @property
    def l2_miss_rate(self) -> float:
        """L2 misses per L1 miss (local miss rate), as in the paper."""
        if self.l1.misses == 0:
            return 0.0
        return self.l2.misses / self.l1.misses


class CacheHierarchy:
    """Split L1 I/D over a unified L2, simulated for data references."""

    def __init__(
        self,
        l1i: CacheConfig,
        l1d: CacheConfig,
        l2: CacheConfig,
        l2_page_mapper=None,
    ) -> None:
        if l2.line_size < l1d.line_size:
            raise ValueError(
                "L2 line size must be >= L1D line size "
                f"({l2.line_size} < {l1d.line_size})"
            )
        self.l1i_config = l1i
        self.l1d = ClassifyingCache(l1d)
        self.l2 = ClassifyingCache(l2)
        #: Optional virtual-to-physical translation in front of the
        #: (physically indexed) L2; the L1s stay virtually indexed.
        self.l2_page_mapper = l2_page_mapper
        self._l2_shift = l2.line_bits - l1d.line_bits
        self._inst_fetches = 0
        self._data_reads = 0
        self._data_writes = 0
        self._l1i_compulsory = 0
        self._l2_code_lines = 0
        self._oracle = None
        self._observer = None
        self._profiler = None
        self._tap = None
        #: Set by a producer that buffers references (the trace
        #: recorder): called before anything reads or empties the
        #: caches, so it can hand its buffer to :meth:`access_data`
        #: first.  ``None`` when nothing buffers.
        self.drain_hook = None

    # ------------------------------------------------------------------
    # Sidecars
    # ------------------------------------------------------------------
    # The sidecar slots rebind ``access_data`` per instance: with no
    # sidecar attached, the *class* method — the uninstrumented kernel
    # path, no sidecar code at all — handles every batch, so disabled
    # verification/telemetry/profiling is structurally free (the
    # benchmark asserts this binding rather than trying to time a
    # zero-cost delta).  Attaching any sidecar installs
    # ``_access_data_instrumented`` as an instance attribute, which
    # shadows the class method until the last sidecar detaches.

    @property
    def has_sidecars(self) -> bool:
        """Whether any sidecar is attached (so ``access_data`` is the
        instrumented variant)."""
        return (
            self._oracle is not None
            or self._observer is not None
            or self._profiler is not None
            or self._tap is not None
        )

    def _rebind_access_data(self) -> None:
        if self.has_sidecars:
            self.access_data = self._access_data_instrumented
        else:
            self.__dict__.pop("access_data", None)

    @property
    def oracle(self):
        """Optional :class:`repro.verify.cache_oracle.CacheOracle`,
        consulted after every access batch.  ``None`` (the default)
        keeps the hot path free of verification work."""
        return self._oracle

    @oracle.setter
    def oracle(self, value) -> None:
        self._oracle = value
        self._rebind_access_data()

    @property
    def observer(self):
        """Optional telemetry observer (``repro.obs.sampler.CacheSampler``)
        with an ``on_batch(hierarchy, refs)`` method, called after every
        access batch with the batch's reference count.  Same contract as
        ``oracle``: ``None`` means off.

        An observer reads statistics only (``l1d.stats``, ``l2.stats``).
        That lets a stored-trace replay keep its vectorized step with an
        observer attached (:mod:`repro.trace.replay`): there it is called
        once per replay chunk, and the L1D's set and shadow dicts stay
        empty."""
        return self._observer

    @observer.setter
    def observer(self, value) -> None:
        self._observer = value
        self._rebind_access_data()

    @property
    def profiler(self):
        """Optional :class:`repro.obs.profile.LocalityProfiler` charged
        with per-(fork site, bin, object) miss attribution after every
        access batch.  Same sidecar contract: ``None`` means off, and the
        off path runs no profiler code at all — which is how the batched
        kernel's speedup survives profiling being compiled in."""
        return self._profiler

    @profiler.setter
    def profiler(self, value) -> None:
        self._profiler = value
        self._rebind_access_data()

    @property
    def tap(self):
        """Optional trace tap (:class:`repro.trace.store.TraceCapture`)
        with an ``on_access(lines, counts, writes, shadow_misses)``
        method — the capture point for the content-addressed trace
        store.  It runs after the L1D kernel, and is fed every data
        batch verbatim plus the kernel's verdicts on it: the batch
        positions where the fully-associative shadow missed
        (:attr:`ClassifyingCache.shadow_miss_positions`; ``None`` for a
        set-associative L1D, whose kernel keeps none).  Same sidecar
        contract: ``None`` means off."""
        return self._tap

    @tap.setter
    def tap(self, value) -> None:
        self._tap = value
        self._rebind_access_data()

    # ------------------------------------------------------------------
    # Reference streams
    # ------------------------------------------------------------------
    def access_data(
        self,
        lines: list[int],
        counts: list[int] | None = None,
        writes: int = 0,
    ) -> tuple[list[int], list[int]]:
        """Simulate a batch of data references; return its L1 and L2
        miss lines (L2 lines as the L2 saw them).

        Parameters
        ----------
        lines:
            L1D line numbers, run-length compressed (no consecutive
            duplicates required when ``counts`` is given).
        counts:
            Element-reference multiplicity per entry of ``lines``; when
            omitted each entry stands for one reference.
        writes:
            How many of the references are stores (only read/write
            bookkeeping; allocation policy treats loads and stores alike,
            as DineroIII's default demand-fetch policy does).
        """
        total = sum(counts) if counts is not None else len(lines)
        self.count_data(total, writes)
        l1_misses = self.l1d.process(lines, counts)
        if not l1_misses:
            return l1_misses, []
        shift = self._l2_shift
        if shift:
            l2_lines = [line >> shift for line in l1_misses]
        else:
            l2_lines = l1_misses
        mapper = self.l2_page_mapper
        if mapper is not None:
            bits = self.l2.config.line_bits
            l2_lines = [mapper.translate_line(line, bits) for line in l2_lines]
        return l1_misses, self.l2.process(l2_lines)

    #: The plain kernel for the instrumented variant, which shadows
    #: ``access_data`` on the instance; a wrapper on the class attribute
    #: (simbench's layer tracer) then still sees each batch once.
    _access_data_plain = access_data

    def _access_data_instrumented(
        self,
        lines: list[int],
        counts: list[int] | None = None,
        writes: int = 0,
    ) -> tuple[list[int], list[int]]:
        """:meth:`access_data` plus the sidecar hooks.

        Installed as the instance's ``access_data`` while any sidecar is
        attached (see :meth:`_rebind_access_data`): the plain kernel
        simulates the batch, then the tap records it with the L1D's
        shadow verdicts, and the oracle, observer and profiler look at
        the result.  The cache work is the plain kernel's own, so
        attaching a sidecar changes *observation*, never *simulation*.
        """
        accesses = self.l1d.stats.accesses
        l1_misses, l2_misses = self._access_data_plain(lines, counts, writes)
        if self._tap is not None:
            self._tap.on_access(
                lines, counts, writes, self.l1d.shadow_miss_positions
            )
        if self._oracle is not None:
            self._oracle.after_batch(self)
        if self._observer is not None:
            self._observer.on_batch(self, self.l1d.stats.accesses - accesses)
        if self._profiler is not None:
            self._profiler.on_batch(self, lines, counts, writes, l1_misses, l2_misses)
        return l1_misses, l2_misses

    def count_data(self, total: int, writes: int) -> None:
        """Book ``total`` data references, ``writes`` of them stores —
        the read/write bookkeeping of one access batch."""
        check_writes(writes, total)
        self._data_reads += total - writes
        self._data_writes += writes

    def drain(self) -> None:
        """Feed the references a buffering producer still holds (see
        :attr:`drain_hook`); :meth:`snapshot`, :meth:`flush` and
        :meth:`reset` call this before they touch the caches."""
        if self.drain_hook is not None:
            self.drain_hook()

    def fetch_instructions(self, count: int) -> None:
        """Record ``count`` instruction fetches (counted, not simulated)."""
        if count < 0:
            raise ValueError(f"instruction count must be non-negative, got {count}")
        self._inst_fetches += count

    def charge_code_footprint(self, size_bytes: int) -> None:
        """Charge the one-time compulsory I-side misses for loading
        ``size_bytes`` of code through L1I and the unified L2."""
        if size_bytes < 0:
            raise ValueError(f"size_bytes must be non-negative, got {size_bytes}")
        self._l1i_compulsory += -(-size_bytes // self.l1i_config.line_size)
        # Code occupies L2 lines too, but the fill must not pass through the
        # simulated L2: inserting code lines into the fully-associative
        # classification shadow (and the first-touch history) would occupy
        # shadow capacity and skew early *data* misses between capacity and
        # conflict.  Charge the one-time compulsory misses as a hierarchy-
        # level count folded into :meth:`snapshot`, leaving the L2's
        # classification state to data lines only.
        self._l2_code_lines += -(-size_bytes // self.l2.config.line_size)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def l1i_compulsory(self) -> int:
        """Compulsory I-cache misses charged via code footprints."""
        return self._l1i_compulsory

    def snapshot(self) -> HierarchyStats:
        """Current cumulative statistics (copies; safe to keep)."""
        self.drain()
        l1 = LevelStats()
        l1.merge(self.l1d.stats)
        l1.accesses += self._inst_fetches
        l1.misses += self._l1i_compulsory
        l1.compulsory += self._l1i_compulsory
        l2 = LevelStats()
        l2.merge(self.l2.stats)
        l2.accesses += self._l2_code_lines
        l2.misses += self._l2_code_lines
        l2.compulsory += self._l2_code_lines
        return HierarchyStats(
            inst_fetches=self._inst_fetches,
            data_reads=self._data_reads,
            data_writes=self._data_writes,
            l1=l1,
            l2=l2,
        )

    def flush(self) -> None:
        """Empty all caches, preserving statistics and touch history."""
        self.drain()
        self.l1d.flush()
        self.l2.flush()

    def reset(self) -> None:
        """Empty all caches and zero every statistic."""
        self.drain()
        self.l1d.reset()
        self.l2.reset()
        self._inst_fetches = 0
        self._data_reads = 0
        self._data_writes = 0
        self._l1i_compulsory = 0
        self._l2_code_lines = 0
