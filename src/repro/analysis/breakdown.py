"""Execution-time breakdowns (Figures 4, 5, 6 and the C-library split).

Breakdowns use the simple core model so that every cycle belongs to one
instruction and hence one category (Section IV-B.2), and resolve
caller-dependent sites through the pintool's origin rules. Given the
runner that produced a run, they read its service levels from the
runner's cached cache part, the one the sweeps share.
"""

from __future__ import annotations

import numpy as np

from ..categories import OverheadCategory
from ..config import MachineConfig, skylake_config
from ..host.isa import InstrKind
from ..pintool.annotate import AnnotationTable
from ..pintool.postprocess import Breakdown, resolve_categories
from ..uarch.simple_core import simple_core_cycles
from ..uarch.system import simulate_parts
from ..experiments.runner import ExperimentRunner, RunHandle

_CCALL = int(OverheadCategory.C_FUNCTION_CALL)


def simple_cycles(handle: RunHandle, config: MachineConfig | None,
                  runner: ExperimentRunner | None) -> np.ndarray:
    """Per-instruction simple-core cycles of one run.

    The service levels come from ``runner``'s cached cache part when a
    runner is given (it must be the one that produced ``handle``), and
    are simulated afresh otherwise.
    """
    if config is None:
        config = skylake_config()
    if runner is not None:
        part = runner.cache_part(handle, config)
    else:
        (part,), _ = simulate_parts(handle.trace, [config])
    return simple_core_cycles(part.dlevel, part.ilevel, config)


def breakdown_for_run(handle: RunHandle,
                      config: MachineConfig | None = None,
                      annotations: AnnotationTable | None = None,
                      runner: ExperimentRunner | None = None,
                      ) -> Breakdown:
    """Category breakdown of one finished run."""
    cycles = simple_cycles(handle, config, runner)
    categories = resolve_categories(handle.trace, handle.site_table,
                                    annotations)
    sums = np.bincount(categories, weights=cycles, minlength=32)
    breakdown = Breakdown(runtime=handle.runtime, workload=handle.workload)
    for category in OverheadCategory:
        value = float(sums[int(category)])
        if value > 0:
            breakdown.cycles[category] = value
    return breakdown


def suite_breakdowns(runner: ExperimentRunner, workloads,
                     runtime: str = "cpython", jit: bool = True,
                     nursery: int = 1024 * 1024,
                     config: MachineConfig | None = None,
                     ) -> dict[str, Breakdown]:
    """Breakdowns for a list of workloads on one runtime."""
    results: dict[str, Breakdown] = {}
    for name in workloads:
        handle = runner.run(name, runtime=runtime, jit=jit,
                            nursery=nursery)
        results[name] = breakdown_for_run(handle, config, runner=runner)
    return results


def average_shares(breakdowns: dict[str, Breakdown],
                   ) -> dict[OverheadCategory, float]:
    """Arithmetic mean of per-workload category shares (paper style)."""
    if not breakdowns:
        return {}
    totals: dict[OverheadCategory, float] = {}
    for breakdown in breakdowns.values():
        for category in OverheadCategory:
            totals[category] = totals.get(category, 0.0) \
                + breakdown.share(category)
    count = len(breakdowns)
    return {category: value / count for category, value in totals.items()
            if value > 0}


def indirect_call_fraction(handle: RunHandle,
                           config: MachineConfig | None = None,
                           runner: ExperimentRunner | None = None,
                           ) -> tuple:
    """(indirect share of C-call cycles, indirect share of all cycles).

    Section IV-C.1 reports indirect calls as 11.9% of the C function
    call overhead and ~1.9% of overall execution on average.
    """
    cycles = simple_cycles(handle, config, runner)
    arrays = handle.trace.arrays()
    categories = arrays["category"]
    kinds = arrays["kind"]
    ccall_mask = categories == _CCALL
    indirect_mask = ccall_mask & (kinds == int(InstrKind.ICALL))
    ccall_cycles = float(cycles[ccall_mask].sum())
    indirect_cycles = float(cycles[indirect_mask].sum())
    total = float(cycles.sum())
    if ccall_cycles == 0 or total == 0:
        return 0.0, 0.0
    return indirect_cycles / ccall_cycles, indirect_cycles / total
