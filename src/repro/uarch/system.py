"""Whole-system simulation: trace in, cycles and statistics out.

:class:`SimulatedSystem` wires the cache hierarchy, branch predictor, DRAM
model, and a core model together. The memory side is two independent
parts, each a function of the trace and of its own slice of the machine
config only: the *cache part* (service levels and per-level counters,
keyed by :func:`cache_part_key`) and the *branch part* (mispredict flags
and counters, keyed by :func:`branch_part_key`). Latencies, bandwidth
and core widths only enter the core models, so the experiment sweeps
reuse parts across those axes, across the LLC axis for the branch part,
and across the predictor axis for the cache part.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..config import MachineConfig, skylake_config
from ..host.trace import InstructionTrace
from ..telemetry import TELEMETRY
from .branch import BranchStats, simulate_branches
from .cache import CacheStats, HierarchySimResult, simulate_cache_hierarchy
from .ooo_core import ooo_cycles, ooo_cycles_many
from .simple_core import attribute_cycles, simple_core_cycles

#: The cache part of a memory side: per-instruction service levels,
#: per-level counters and memory line traffic.
CachePart = HierarchySimResult


@dataclass
class BranchPart:
    """Branch-predictor outputs for one (trace, predictor) pair."""

    mispredicted: np.ndarray
    stats: BranchStats


def cache_part_key(config: MachineConfig) -> tuple:
    """Everything a cache part depends on: each level's geometry."""
    return tuple((level.size, level.ways, level.line_size)
                 for level in (config.l1i, config.l1d, config.l2, config.l3))


def branch_part_key(config: MachineConfig) -> tuple:
    """Everything a branch part depends on: the predictor table shapes."""
    branch = config.branch
    return (branch.l1_entries, branch.history_bits, branch.l2_entries,
            branch.btb_entries, branch.scale)


def simulate_parts(trace: InstructionTrace, cache_configs=(),
                   branch_configs=(),
                   ) -> tuple[list[CachePart], list[BranchPart]]:
    """Cache parts for ``cache_configs`` and branch parts for
    ``branch_configs``, in input order.

    Configs whose L1/L2 geometry agrees share one walk of those levels
    (one :func:`simulate_cache_hierarchy` call that replays the L2 miss
    streams into each of their LLCs); each predictor runs once per
    config. Every part is bit-identical to a per-config simulation.
    """
    start = time.perf_counter() if TELEMETRY.enabled else 0.0
    arrays = trace.arrays()
    groups: dict[tuple, list[int]] = {}
    for i, config in enumerate(cache_configs):
        groups.setdefault(cache_part_key(config)[:3], []).append(i)
    cache_parts: list[CachePart | None] = [None] * len(cache_configs)
    for positions in groups.values():
        results = simulate_cache_hierarchy(
            arrays, cache_configs[positions[0]],
            l3s=[cache_configs[i].l3 for i in positions])
        for i, result in zip(positions, results):
            cache_parts[i] = result
    branch_parts = [BranchPart(*simulate_branches(arrays, config.branch))
                    for config in branch_configs]
    if TELEMETRY.enabled and (cache_parts or branch_parts):
        # One memory side's worth of instructions per config simulated.
        SimulatedSystem._note_throughput(
            "memory_side",
            len(trace) * max(len(cache_parts), len(branch_parts)),
            time.perf_counter() - start)
    return cache_parts, branch_parts


@dataclass
class MemorySideState:
    """The cache and branch parts of one (trace, config) pair."""

    cache: CachePart
    branch: BranchPart

    @property
    def dlevel(self) -> np.ndarray:
        return self.cache.dlevel

    @property
    def ilevel(self) -> np.ndarray:
        return self.cache.ilevel

    @property
    def cache_stats(self) -> dict[str, CacheStats]:
        return self.cache.stats

    @property
    def mem_lines(self) -> int:
        return self.cache.mem_lines

    @property
    def mispredicted(self) -> np.ndarray:
        return self.branch.mispredicted

    @property
    def branch_stats(self) -> BranchStats:
        return self.branch.stats

    @property
    def llc_miss_rate(self) -> float:
        return self.cache.llc_miss_rate


@dataclass
class SimResult:
    """Timing result for one trace on one machine configuration."""

    instructions: int
    cycles: float
    core_model: str
    cache_stats: dict[str, CacheStats]
    branch_stats: BranchStats
    #: Cycles per category (simple core only; index = OverheadCategory).
    category_cycles: np.ndarray | None = None
    #: Per-instruction cycles (simple core only).
    per_instruction: np.ndarray | None = field(default=None, repr=False)

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    @property
    def llc_miss_rate(self) -> float:
        return self.cache_stats["L3"].miss_rate


class SimulatedSystem:
    """The paper's Zsim-analog: Table I machine by default."""

    def __init__(self, config: MachineConfig | None = None) -> None:
        self.config = config if config is not None else skylake_config()

    @staticmethod
    def _note_throughput(stage: str, instructions: int,
                         elapsed: float) -> None:
        """Gauge: simulated instructions per host second, per stage."""
        if elapsed > 0:
            TELEMETRY.metrics.gauge(
                "sim.instructions_per_second",
                stage=stage).set(instructions / elapsed)

    def memory_side(self, trace: InstructionTrace) -> MemorySideState:
        """Run cache hierarchy and branch predictor over the trace."""
        (cache,), (branch,) = simulate_parts(trace, [self.config],
                                             [self.config])
        return MemorySideState(cache, branch)

    def run(self, trace: InstructionTrace, core: str = "ooo",
            state: MemorySideState | None = None) -> SimResult:
        """Simulate the trace end to end.

        ``core`` selects the timing model: ``"simple"`` for per-category
        attribution (Section IV-B.2) or ``"ooo"`` for the sweeps.
        A precomputed ``state`` may be passed to reuse memory-side
        results.
        """
        arrays = trace.arrays()
        if state is None:
            state = self.memory_side(trace)
        start = time.perf_counter() if TELEMETRY.enabled else 0.0
        if core == "simple":
            per_instruction = simple_core_cycles(
                state.dlevel, state.ilevel, self.config)
            category_cycles = attribute_cycles(
                arrays["category"], per_instruction)
            cycles = float(per_instruction.sum())
            if TELEMETRY.enabled:
                self._note_throughput("core.simple", len(trace),
                                      time.perf_counter() - start)
            return SimResult(
                instructions=len(trace), cycles=cycles, core_model="simple",
                cache_stats=state.cache_stats,
                branch_stats=state.branch_stats,
                category_cycles=category_cycles,
                per_instruction=per_instruction)
        if core == "ooo":
            cycles = ooo_cycles(arrays, state.dlevel, state.ilevel,
                                state.mispredicted, self.config)
            if TELEMETRY.enabled:
                self._note_throughput("core.ooo", len(trace),
                                      time.perf_counter() - start)
            return SimResult(
                instructions=len(trace), cycles=cycles, core_model="ooo",
                cache_stats=state.cache_stats,
                branch_stats=state.branch_stats)
        raise ValueError(f"unknown core model: {core!r}")

    @staticmethod
    def run_many_configs(trace: InstructionTrace, configs,
                         states, core: str = "ooo") -> list[SimResult]:
        """Simulate one trace under many configs in batched walks.

        ``configs`` and ``states`` are parallel sequences; configs that
        share a :class:`MemorySideState` *object* (a latency/bandwidth/
        issue-width axis over one trace) share one prepared trace in
        :func:`~repro.uarch.ooo_core.ooo_cycles_many`, which runs the
        configs on threads. Results are bit-identical to per-config
        :meth:`run` calls, in input order.
        """
        if len(states) != len(configs):
            raise ValueError("states and configs must be parallel "
                             "sequences")
        if core != "ooo":
            return [SimulatedSystem(config).run(trace, core=core,
                                                state=state)
                    for config, state in zip(configs, states)]
        arrays = trace.arrays()
        start = time.perf_counter() if TELEMETRY.enabled else 0.0
        cycles = ooo_cycles_many(arrays, states, configs)
        if TELEMETRY.enabled and cycles:
            SimulatedSystem._note_throughput(
                "core.ooo", len(trace) * len(configs),
                time.perf_counter() - start)
        return [SimResult(instructions=len(trace), cycles=c,
                          core_model="ooo",
                          cache_stats=state.cache_stats,
                          branch_stats=state.branch_stats)
                for c, state in zip(cycles, states)]
