"""Memory-side parts: equivalence with per-config runs, and work counts.

The runner caches a memory side as a cache part (keyed by the four
cache levels' geometry) and a branch part (keyed by the predictor), and
computes all the missing parts of one trace together: the L1/L2 levels
are walked once per distinct upper geometry, with their miss streams
replayed into each LLC. These tests pin both halves of that contract:
the assembled parts are bit-identical to a per-config scalar run, and
the work done is exactly one walk per distinct input.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.analysis.sweeps import SWEEP_AXES, axis_config
from repro.config import scaled_config, skylake_config
from repro.experiments import figures
from repro.experiments.diskcache import DiskCache
from repro.experiments.runner import ExperimentRunner
from repro.uarch import system
from repro.uarch.branch import simulate_branches_scalar
from repro.uarch.cache import simulate_cache_hierarchy_scalar
from repro.uarch.system import BranchPart, MemorySideState


def _full_axis_configs(base):
    return [axis_config(base, axis, value)
            for axis, (values, _) in SWEEP_AXES.items()
            for value in values]


@pytest.mark.parametrize("base", [skylake_config(), scaled_config(3)],
                         ids=["skylake", "scaled3"])
def test_runner_parts_match_per_config_scalar_runs(base):
    runner = ExperimentRunner(scale=1, disk_cache=DiskCache(None))
    handle = runner.run("sym_sum", runtime="pypy", jit=True)
    configs = _full_axis_configs(base)
    states = runner.memory_sides(handle, configs)
    references = {}
    for config, state in zip(configs, states):
        # Keyed independently of the code under test: every field the
        # memory side could read (latencies included).
        key = (config.l1i, config.l1d, config.l2, config.l3,
               config.branch)
        if key not in references:
            arrays = handle.trace.arrays()
            references[key] = MemorySideState(
                simulate_cache_hierarchy_scalar(arrays, config),
                BranchPart(*simulate_branches_scalar(arrays,
                                                     config.branch)))
        ref = references[key]
        assert np.array_equal(state.dlevel, ref.dlevel), config
        assert np.array_equal(state.ilevel, ref.ilevel), config
        assert state.cache_stats == ref.cache_stats, config
        assert state.mem_lines == ref.mem_lines, config
        assert np.array_equal(state.mispredicted, ref.mispredicted), config
        assert state.branch_stats == ref.branch_stats, config
    # Latency, bandwidth and width axes add no memory side of their own.
    assert len({(id(s.cache), id(s.branch)) for s in states}) \
        == len(references)


class _Calls:
    """Counts calls into the memory-side simulators, by trace length."""

    def __init__(self, monkeypatch):
        self.cache: list[int] = []
        self.branch: list[int] = []
        cache_fn = system.simulate_cache_hierarchy
        branch_fn = system.simulate_branches

        def cache(arrays, *args, **kwargs):
            self.cache.append(len(arrays["pc"]))
            return cache_fn(arrays, *args, **kwargs)

        def branch(arrays, *args, **kwargs):
            self.branch.append(len(arrays["pc"]))
            return branch_fn(arrays, *args, **kwargs)

        monkeypatch.setattr(system, "simulate_cache_hierarchy", cache)
        monkeypatch.setattr(system, "simulate_branches", branch)


def test_quick_fig7_walks_each_distinct_input_once(monkeypatch):
    monkeypatch.setattr(figures, "SWEEP_BENCHMARKS", ("sym_sum",))
    calls = _Calls(monkeypatch)
    runner = ExperimentRunner(scale=1, disk_cache=DiskCache(None))
    figures.fig7(runner, quick=True, jobs=1)
    assert len(runner._traces) == 3  # cpython, pypy-nojit, pypy-jit
    traces = Counter(len(h.trace) for h in runner._traces.values())
    # Per trace: 3 distinct L1/L2 geometries (line sizes 64/512/4096;
    # the 64 B walk also feeds the 256 kB and 16 MB LLCs) and 4
    # predictors (scales 1, 0.5, 2, 8). Every call walks a whole trace,
    # and the phase table reuses the baseline cache part.
    assert Counter(calls.cache) == {n: 3 * k for n, k in traces.items()}
    assert Counter(calls.branch) == {n: 4 * k for n, k in traces.items()}


def test_repeated_fig5_in_a_warm_runner_does_no_work(monkeypatch,
                                                     tmp_path):
    monkeypatch.setattr(figures, "BREAKDOWN_QUICK_SUITE",
                        ("sym_sum", "nbody"))
    runner = ExperimentRunner(scale=1,
                              disk_cache=DiskCache(tmp_path / "cache"))
    first = figures.fig5(runner, quick=True, jobs=1)
    calls = _Calls(monkeypatch)
    loads = []
    for name in ("load_run", "load_state"):
        original = getattr(DiskCache, name)

        def counted(self, *args, _original=original, **kwargs):
            loads.append(args)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(DiskCache, name, counted)
    second = figures.fig5(runner, quick=True, jobs=1)
    assert second.rendered == first.rendered
    assert calls.cache == [] and calls.branch == []
    assert loads == []
