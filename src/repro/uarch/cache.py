"""Set-associative cache hierarchy with LRU replacement.

The hierarchy mirrors Table I: split L1I/L1D backed by a unified L2 and a
last-level cache. Lookups walk down the levels; a miss at the LLC is
serviced by memory. Lines written at any level are tracked so evictions
of dirty lines can be charged as writeback traffic for the bandwidth
model.

Service levels returned by the simulation functions are encoded as:

====  =================================
-1    not a memory access
 0    L1 hit
 1    L2 hit
 2    L3 (LLC) hit
 3    serviced by main memory
====  =================================

Two engines back :func:`simulate_cache_hierarchy`, and it picks the same
way every compiled model does:

* the **scalar** reference walks one access at a time through
  MRU-ordered tag lists (:func:`simulate_cache_hierarchy_scalar`), and
* the **compiled** engine feeds each level a whole access stream
  through the exact-LRU C loop of :mod:`repro.uarch._lru_kernel`, over
  flat tag/recency-stamp/dirty arrays.

The compiled engine runs whenever the kernel is built; without a
compiler, or under ``REPRO_KERNELS=off``, the scalar reference runs.
Both produce bit-identical service levels and :class:`CacheStats`;
``tests/test_vectorized_equivalence.py`` enforces that on randomized
traces.

The hierarchy is non-inclusive, so the LLC's input streams (the L2
misses of the data path, then of the fetch path) do not depend on the
LLC's own geometry. :func:`simulate_cache_hierarchy` therefore accepts
several LLCs at once. The compiled engine walks the L1/L2 levels once
and replays their miss streams into each LLC, in the order a single
hierarchy would see them; the scalar reference runs each LLC's
hierarchy in full.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from ..config import CacheConfig, MachineConfig
from ..host.isa import InstrKind
from . import _lru_kernel

SERVICE_NONE = -1
SERVICE_L1 = 0
SERVICE_L2 = 1
SERVICE_L3 = 2
SERVICE_MEM = 3


@dataclass
class CacheStats:
    """Per-level access/miss counters plus traffic for the DRAM model."""

    name: str
    accesses: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class _Level:
    """One cache level. Sets are MRU-ordered lists of tags."""

    __slots__ = ("config", "stats", "sets", "set_mask", "line_bits",
                 "ways", "dirty")

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.stats = CacheStats(config.name)
        num_sets = config.num_sets
        self.sets: list[list[int]] = [[] for _ in range(num_sets)]
        self.set_mask = num_sets - 1
        self.line_bits = config.line_size.bit_length() - 1
        self.ways = config.ways
        self.dirty: set[int] = set()

    def access(self, line: int, write: bool) -> bool:
        """Look up one line; returns True on hit. Updates LRU and dirty."""
        stats = self.stats
        stats.accesses += 1
        set_idx = line & self.set_mask
        tag = line >> 1  # any injective function of the line id works
        ways = self.sets[set_idx]
        try:
            pos = ways.index(tag)
        except ValueError:
            stats.misses += 1
            ways.insert(0, tag)
            if len(ways) > self.ways:
                victim = ways.pop()
                stats.evictions += 1
                if (set_idx, victim) in self.dirty:
                    self.dirty.discard((set_idx, victim))
                    stats.writebacks += 1
            if write:
                self.dirty.add((set_idx, tag))
            return False
        if pos:
            ways.insert(0, ways.pop(pos))
        if write:
            self.dirty.add((set_idx, tag))
        return True


class CacheHierarchy:
    """L1I + L1D + unified L2 + LLC, non-inclusive."""

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self.l1i = _Level(config.l1i)
        self.l1d = _Level(config.l1d)
        self.l2 = _Level(config.l2)
        self.l3 = _Level(config.l3)
        self.line_size = config.l1d.line_size
        self.line_bits = self.line_size.bit_length() - 1

    def data_access(self, line: int, write: bool) -> int:
        """Walk the data path for one line; return the service level."""
        if self.l1d.access(line, write):
            return SERVICE_L1
        if self.l2.access(line, write):
            return SERVICE_L2
        if self.l3.access(line, write):
            return SERVICE_L3
        return SERVICE_MEM

    def fetch_access(self, line: int) -> int:
        """Walk the instruction-fetch path for one line."""
        if self.l1i.access(line, False):
            return SERVICE_L1
        if self.l2.access(line, False):
            return SERVICE_L2
        if self.l3.access(line, False):
            return SERVICE_L3
        return SERVICE_MEM

    def stats(self) -> dict[str, CacheStats]:
        return {"L1I": self.l1i.stats, "L1D": self.l1d.stats,
                "L2": self.l2.stats, "L3": self.l3.stats}


@dataclass
class HierarchySimResult:
    """Per-instruction service levels plus per-level counters."""

    dlevel: np.ndarray   # int8, SERVICE_* per instruction (-1 if not mem)
    ilevel: np.ndarray   # int8, fetch service level (0 if same-line fetch)
    stats: dict[str, CacheStats] = field(default_factory=dict)
    mem_lines: int = 0   # lines transferred from memory (fills + writebacks)

    @property
    def llc_miss_rate(self) -> float:
        llc = self.stats["L3"]
        return llc.miss_rate


def simulate_cache_hierarchy_scalar(trace_arrays: dict[str, np.ndarray],
                                    config: MachineConfig,
                                    ) -> HierarchySimResult:
    """Reference engine: one Python-level ``access()`` call per line.

    Instruction fetch is simulated at line granularity: consecutive
    instructions on the same line share one fetch access, the way a fetch
    buffer would.
    """
    hierarchy = CacheHierarchy(config)
    n = len(trace_arrays["pc"])
    dlevel = np.full(n, SERVICE_NONE, dtype=np.int8)
    ilevel = np.zeros(n, dtype=np.int8)
    if n == 0:
        return HierarchySimResult(dlevel, ilevel, hierarchy.stats(), 0)

    line_bits = hierarchy.line_bits
    kinds = trace_arrays["kind"]
    addrs = trace_arrays["addr"]

    # --- data path -----------------------------------------------------
    mem_mask = (kinds == int(InstrKind.LOAD)) | \
               (kinds == int(InstrKind.STORE))
    mem_idx = np.nonzero(mem_mask)[0]
    if len(mem_idx):
        mem_lines = (addrs[mem_idx] >> line_bits).tolist()
        mem_writes = (kinds[mem_idx] == int(InstrKind.STORE)).tolist()
        access = hierarchy.data_access
        results = [access(line, write)
                   for line, write in zip(mem_lines, mem_writes)]
        dlevel[mem_idx] = results

    # --- instruction fetch path -----------------------------------------
    pc_lines = trace_arrays["pc"] >> line_bits
    change = np.empty(n, dtype=bool)
    change[0] = True
    np.not_equal(pc_lines[1:], pc_lines[:-1], out=change[1:])
    fetch_idx = np.nonzero(change)[0]
    fetch_lines = pc_lines[fetch_idx].tolist()
    fetch = hierarchy.fetch_access
    ilevel[fetch_idx] = [fetch(line) for line in fetch_lines]

    stats = hierarchy.stats()
    mem_lines_moved = (stats["L3"].misses + stats["L3"].writebacks)
    return HierarchySimResult(dlevel, ilevel, stats, mem_lines_moved)


# ----------------------------------------------------------------------
# Compiled engine
# ----------------------------------------------------------------------

class _CompiledLevel:
    """One cache level fed whole access streams by the LRU kernel.

    State lives in flat ``num_sets * ways`` arrays: the resident tag,
    a recency stamp (-1 = empty way; larger = more recently used), and
    a dirty bit per way. Because LRU order only compares stamps within
    one set, a single monotonically increasing clock serves every set.
    Exactly equivalent to :class:`_Level` fed the same stream.
    """

    __slots__ = ("stats", "set_mask", "ways", "_tags", "_stamps",
                 "_dirty", "_clock", "_kernel")

    def __init__(self, config: CacheConfig, kernel) -> None:
        self.stats = CacheStats(config.name)
        self.set_mask = config.num_sets - 1
        self.ways = config.ways
        size = config.num_sets * config.ways
        self._tags = np.full(size, -1, dtype=np.int64)
        self._stamps = np.full(size, -1, dtype=np.int64)
        self._dirty = np.zeros(size, dtype=bool)
        self._clock = 1
        self._kernel = kernel

    def access_many(self, lines: np.ndarray, writes: np.ndarray,
                    ) -> np.ndarray:
        """Process a stream of line accesses; returns per-access hits."""
        hits, (self._clock, misses, evictions, writebacks) = \
            _lru_kernel.walk(self._kernel, lines, writes, self.set_mask,
                             self.ways, self._tags, self._stamps,
                             self._dirty, self._clock)
        stats = self.stats
        stats.accesses += len(lines)
        stats.misses += misses
        stats.evictions += evictions
        stats.writebacks += writebacks
        return hits


def simulate_cache_hierarchy_compiled(
        trace_arrays: dict[str, np.ndarray], config: MachineConfig,
        l3s, kernel) -> list[HierarchySimResult]:
    """Level-at-a-time walk through the compiled LRU kernel.

    Returns one result per LLC in ``l3s``, each bit-identical to the
    scalar reference. Each level sees the scalar engine's access order:
    L2 gets the data path's L1D misses, then the fetch path's L1I
    misses, and every LLC gets the L2 misses in that same order.
    """
    n = len(trace_arrays["pc"])
    dlevel = np.full(n, SERVICE_NONE, dtype=np.int8)
    ilevel = np.zeros(n, dtype=np.int8)
    l1i = _CompiledLevel(config.l1i, kernel)
    l1d = _CompiledLevel(config.l1d, kernel)
    l2 = _CompiledLevel(config.l2, kernel)
    levels = (dlevel, ilevel)
    streams = []  # (L2-miss lines, writes, instruction index, slot)
    if n:
        line_bits = config.l1d.line_size.bit_length() - 1
        kinds = trace_arrays["kind"]
        addrs = trace_arrays["addr"]

        def upper(first: _CompiledLevel, lines: np.ndarray,
                  writes: np.ndarray, slot: int, idx: np.ndarray) -> None:
            """Send a stream through ``first`` -> L2, filling
            ``levels[slot]``; queue what L2 misses for the LLCs."""
            for level, service in ((first, SERVICE_L1), (l2, SERVICE_L2)):
                hits = level.access_many(lines, writes)
                levels[slot][idx[hits]] = service
                miss = ~hits
                idx = idx[miss]
                lines = lines[miss]
                writes = writes[miss]
            streams.append((lines, writes, idx, slot))

        # --- data path -------------------------------------------------
        mem_mask = (kinds == int(InstrKind.LOAD)) | \
                   (kinds == int(InstrKind.STORE))
        mem_idx = np.nonzero(mem_mask)[0]
        if len(mem_idx):
            upper(l1d, addrs[mem_idx] >> line_bits,
                  kinds[mem_idx] == int(InstrKind.STORE), 0, mem_idx)

        # --- instruction fetch path ------------------------------------
        pc_lines = trace_arrays["pc"] >> line_bits
        change = np.empty(n, dtype=bool)
        change[0] = True
        np.not_equal(pc_lines[1:], pc_lines[:-1], out=change[1:])
        fetch_idx = np.nonzero(change)[0]
        upper(l1i, pc_lines[fetch_idx],
              np.zeros(len(fetch_idx), dtype=bool), 1, fetch_idx)

    results = []
    for l3_config in l3s:
        l3 = _CompiledLevel(l3_config, kernel)
        out = [level.copy() for level in levels]
        for lines, writes, idx, slot in streams:
            hits = l3.access_many(lines, writes)
            out[slot][idx] = np.where(hits, SERVICE_L3, SERVICE_MEM)
        stats = {name: dataclasses.replace(level.stats)
                 for name, level in (("L1I", l1i), ("L1D", l1d),
                                     ("L2", l2))}
        stats["L3"] = l3.stats
        results.append(HierarchySimResult(
            out[0], out[1], stats,
            l3.stats.misses + l3.stats.writebacks))
    return results


def simulate_cache_hierarchy(trace_arrays: dict[str, np.ndarray],
                             config: MachineConfig, l3s=None):
    """Run the whole trace through a fresh cache hierarchy.

    Uses the compiled LRU kernel when it is built, else the scalar
    reference; both return bit-identical results.

    With ``l3s`` (a sequence of LLC :class:`CacheConfig`), returns a
    list with one result per LLC, each identical to a run of ``config``
    with that LLC; with the kernel, the L1/L2 levels are walked only
    once for all of them.
    """
    llcs = l3s if l3s is not None else (config.l3,)
    kernel = _lru_kernel.get_kernel()
    if kernel is None:
        results = [simulate_cache_hierarchy_scalar(
            trace_arrays, dataclasses.replace(config, l3=l3))
            for l3 in llcs]
    else:
        results = simulate_cache_hierarchy_compiled(
            trace_arrays, config, llcs, kernel)
    return results if l3s is not None else results[0]
