"""Fast engines must match the scalar references bit for bit.

Property-style checks: randomized traces (hot/cold address mixes,
conditional/indirect branch patterns, dependence forests with long
edges) run through the scalar references and through the engines the
pipeline uses — the compiled cache and OOO kernels (or, under
``REPRO_KERNELS=off``, the scalar fallback they dispatch to) and the
NumPy branch predictor. Every output the rest of the pipeline consumes
— per-instruction service levels, mispredict flags, aggregate
statistics, core cycle counts — must be bit-identical for single- and
batched-config walks alike.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import _cc
from repro.config import (
    BranchPredictorConfig,
    MachineConfig,
    scaled_config,
    skylake_config,
)
from repro.host.isa import (
    FLAG_COND,
    FLAG_INDIRECT,
    FLAG_TAKEN,
    KIND_LATENCY,
    InstrKind,
)
from repro.host.trace import InstructionTrace
from repro.uarch import _ooo_kernel, ooo_core
from repro.uarch.branch import (
    simulate_branches,
    simulate_branches_scalar,
)
from repro.uarch.cache import (
    simulate_cache_hierarchy,
    simulate_cache_hierarchy_scalar,
)
from repro.uarch.ooo_core import (
    KIND_LATENCY_TICKS,
    TICKS,
    ooo_cycles,
    ooo_cycles_many,
    ooo_cycles_scalar,
    ring_size,
)
from repro.uarch.system import simulate_parts

_KINDS = (InstrKind.ALU, InstrKind.LOAD, InstrKind.STORE,
          InstrKind.BRANCH, InstrKind.ICALL, InstrKind.CALL,
          InstrKind.RET, InstrKind.FPU)
_KIND_P = (0.30, 0.25, 0.10, 0.20, 0.05, 0.04, 0.04, 0.02)


def random_trace(seed: int, n: int) -> dict[str, np.ndarray]:
    """A trace with hot and cold addresses and mixed branch behavior."""
    rng = np.random.default_rng(seed)
    kind = rng.choice([int(k) for k in _KINDS], size=n,
                      p=_KIND_P).astype(np.int8)
    # PCs: a small pool so branch sites repeat and predictors can learn,
    # with enough spread to alias on scaled-down tables.
    pc = (0x400000 + 4 * rng.integers(0, 512, size=n)).astype(np.int64)
    # Data addresses: 70% from a hot working set, 30% cold.
    hot = 0x10000 + 64 * rng.integers(0, 64, size=n)
    cold = 0x800000 + 64 * rng.integers(0, 1 << 16, size=n)
    use_hot = rng.random(n) < 0.7
    addr = np.where(use_hot, hot, cold).astype(np.int64)
    is_mem = (kind == int(InstrKind.LOAD)) | (kind == int(InstrKind.STORE))
    addr[~is_mem] = 0
    flags = np.zeros(n, dtype=np.int8)
    is_branch = kind == int(InstrKind.BRANCH)
    cond = is_branch & (rng.random(n) < 0.8)
    # Taken bias per PC: some sites strongly biased, some noisy.
    bias = rng.random(512)[((pc - 0x400000) // 4) % 512]
    taken = rng.random(n) < bias
    flags[cond] |= FLAG_COND
    flags[is_branch & taken] |= FLAG_TAKEN
    is_icall = kind == int(InstrKind.ICALL)
    flags[is_icall] |= FLAG_INDIRECT | FLAG_TAKEN
    # Indirect-call targets: mono- and polymorphic sites.
    addr[is_icall] = (0x500000
                      + 0x1000 * rng.integers(0, 3, size=int(is_icall.sum())))
    return {"pc": pc, "kind": kind, "addr": addr, "flags": flags,
            "size": np.full(n, 8, dtype=np.int8)}


def tiny_config() -> MachineConfig:
    """A deliberately cramped machine: constant evictions and aliasing."""
    return scaled_config(6)


_CONFIGS = {
    "skylake": skylake_config,
    "scaled4": lambda: scaled_config(4),
    "tiny": tiny_config,
}


#: The two ways a trace reaches the cache and branch engines, used as a
#: test axis: ``vector`` calls the engine function directly; ``auto``
#: goes through :func:`simulate_parts`, the dispatch the pipeline uses
#: (configs grouped by L1/L2 geometry, one predictor run per config).
_ENTRIES = ["vector", "auto"]


def _engine_parts(arrays, config: MachineConfig, entry: str):
    """The cache result and the branch (mispredicts, stats) pair for
    ``config`` over ``arrays``, reached through ``entry``."""
    if entry == "vector":
        return (simulate_cache_hierarchy(arrays, config),
                simulate_branches(arrays, config.branch))
    trace = InstructionTrace()
    try:
        columns = [arrays[name].tolist()
                   for name in ("pc", "kind", "addr", "size", "flags")]
        for pc, kind, addr, size, flags in zip(*columns):
            trace.append(pc, kind, 0, addr, size, flags=flags)
        (cache,), (branch,) = simulate_parts(trace, [config], [config])
    finally:
        trace.close()
    return cache, (branch.mispredicted, branch.stats)


@pytest.mark.parametrize("entry", _ENTRIES)
@pytest.mark.parametrize("config_name", sorted(_CONFIGS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cache_engines_bit_identical(seed, config_name, entry,
                                    monkeypatch):
    """Compiled LRU walk (kernels on) and its scalar fallback (off)."""
    arrays = random_trace(seed, 6000)
    config = _CONFIGS[config_name]()
    ref = simulate_cache_hierarchy_scalar(arrays, config)
    for kernels in ("auto", "off"):
        monkeypatch.setenv(_cc.KERNELS_ENV, kernels)
        out, _ = _engine_parts(arrays, config, entry)
        assert np.array_equal(ref.dlevel, out.dlevel), kernels
        assert np.array_equal(ref.ilevel, out.ilevel), kernels
        assert ref.mem_lines == out.mem_lines, kernels
        assert set(ref.stats) == set(out.stats)
        for name in ref.stats:
            assert ref.stats[name] == out.stats[name], (kernels, name)


@pytest.mark.parametrize("kernels", ["auto", "off"])
@pytest.mark.parametrize("config_name", sorted(_CONFIGS))
def test_llc_fan_out_matches_separate_runs(config_name, kernels,
                                           monkeypatch):
    """One upper walk replayed into several LLCs == one run per LLC."""
    monkeypatch.setenv(_cc.KERNELS_ENV, kernels)
    arrays = random_trace(5, 6000)
    config = _CONFIGS[config_name]()
    sizes = (config.l3.size // 4, config.l3.size, config.l3.size * 8)
    l3s = [config.with_llc_size(size).l3 for size in sizes]
    many = simulate_cache_hierarchy(arrays, config, l3s=l3s)
    assert len(many) == len(sizes)
    for size, out in zip(sizes, many):
        ref = simulate_cache_hierarchy_scalar(
            arrays, config.with_llc_size(size))
        assert np.array_equal(ref.dlevel, out.dlevel), size
        assert np.array_equal(ref.ilevel, out.ilevel), size
        assert ref.stats == out.stats, size
        assert ref.mem_lines == out.mem_lines, size


@pytest.mark.parametrize("entry", _ENTRIES)
@pytest.mark.parametrize("scale", [1.0, 1 / 64])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_branch_engines_bit_identical(seed, scale, entry):
    arrays = random_trace(seed, 6000)
    config = BranchPredictorConfig(scale=scale)
    ref_mis, ref_stats = simulate_branches_scalar(arrays, config)
    machine = dataclasses.replace(skylake_config(), branch=config)
    _, (out_mis, out_stats) = _engine_parts(arrays, machine, entry)
    assert np.array_equal(ref_mis, out_mis)
    assert ref_stats == out_stats


def test_empty_trace_all_backends(monkeypatch):
    arrays = random_trace(0, 0)
    config = skylake_config()
    for kernels in ("auto", "off"):
        monkeypatch.setenv(_cc.KERNELS_ENV, kernels)
        result = simulate_cache_hierarchy(arrays, config)
        assert len(result.dlevel) == 0
        mis, _ = simulate_branches(arrays, config.branch)
        assert len(mis) == 0


# ----------------------------------------------------------------------
# OOO core: scalar reference vs compiled kernel, single and batched
# ----------------------------------------------------------------------

_LOAD = int(InstrKind.LOAD)
_STORE = int(InstrKind.STORE)


def random_ooo_inputs(seed: int, n: int, max_dep: int = 300):
    """Synthetic OOO-core inputs: dep forests, misses, mispredicts."""
    rng = np.random.default_rng(seed)
    kinds = rng.integers(0, len(InstrKind), n).astype(np.int64)
    dep = rng.integers(0, 4, n).astype(np.int64)
    big = rng.random(n) < 0.03
    dep[big] = rng.integers(1, max_dep, int(big.sum()))
    dl = np.where(rng.random(n) < 0.1,
                  rng.integers(0, 4, n), -1).astype(np.int64)
    kinds[dl >= 0] = _LOAD
    stores = rng.random(n) < 0.05
    kinds[stores] = _STORE
    dl[stores] = np.where(rng.random(int(stores.sum())) < 0.3, 3, 0)
    il = np.where(rng.random(n) < 0.05,
                  rng.integers(1, 4, n), 0).astype(np.int64)
    misp = rng.random(n) < 0.03
    trace = {"pc": np.arange(n, dtype=np.int64), "kind": kinds,
             "dep": dep}
    return trace, dl, il, misp


def _ooo_sweep_configs() -> list[MachineConfig]:
    base = skylake_config()
    small_rob = dataclasses.replace(
        base, core=dataclasses.replace(base.core, rob_entries=64))
    return [base, scaled_config(2), small_rob, base.with_issue_width(8),
            base.with_memory_latency(400),
            base.with_memory_bandwidth(200)]


@dataclasses.dataclass
class _State:
    dlevel: np.ndarray
    ilevel: np.ndarray
    mispredicted: np.ndarray


def test_ooo_kernel_bit_identical():
    """Compiled kernel path == scalar loop (single and batched)."""
    if _ooo_kernel.get_kernel() is None:
        pytest.skip("no C compiler available")
    configs = _ooo_sweep_configs()
    for seed, n in ((0, 2500), (1, 5000)):
        trace, dl, il, misp = random_ooo_inputs(seed, n)
        ref = [ooo_cycles_scalar(trace, dl, il, misp, c) for c in configs]
        state = _State(dl, il, misp)
        got = ooo_cycles_many(trace, [state] * len(configs), configs)
        assert got == ref
        one = [_ooo_kernel.run_kernel(trace, dl, il, misp, c)
               for c in configs]
        assert one == ref


@pytest.mark.parametrize("backend", ["scalar", "vector", "auto"])
def test_ooo_backend_arg_dispatch(backend, monkeypatch):
    """``scalar`` (``REPRO_KERNELS=off``) must run the scalar reference;
    ``auto`` (:func:`ooo_cycles`) and ``vector`` (the batched
    :func:`ooo_cycles_many`) must run the kernel whenever it is built."""
    trace, dl, il, misp = random_ooo_inputs(3, 4000)
    config = skylake_config()
    ref = ooo_cycles_scalar(trace, dl, il, misp, config)
    calls = []

    def counted(*args):
        calls.append(args)
        return ooo_cycles_scalar(*args)

    monkeypatch.setattr(ooo_core, "ooo_cycles_scalar", counted)
    monkeypatch.setenv(_cc.KERNELS_ENV,
                       "off" if backend == "scalar" else "auto")
    if backend == "vector":
        got = ooo_cycles_many(trace, [_State(dl, il, misp)], [config])
        assert got == [ref]
    else:
        assert ooo_cycles(trace, dl, il, misp, config) == ref
    kernel_built = _ooo_kernel.get_kernel() is not None
    assert len(calls) == (0 if kernel_built else 1)
    if backend == "scalar":
        assert not kernel_built


def test_ooo_many_configs_matches_per_config_runs(monkeypatch):
    """Batched walk == per-config scalar walks, in input order, shared
    or distinct states, mixed ROB sizes included, with the kernel and
    with its scalar fallback."""
    trace, dl, il, misp = random_ooo_inputs(4, 6000)
    shared = _State(dl, il, misp)
    dl2, il2, misp2 = dl.copy(), il.copy(), misp.copy()
    dl2[::7] = 3
    other = _State(dl2, il2, misp2)
    configs = _ooo_sweep_configs()
    states = [shared, shared, shared, other, shared, other]
    ref = [ooo_cycles_scalar(trace, s.dlevel, s.ilevel, s.mispredicted, c)
           for s, c in zip(states, configs)]
    for kernels in ("auto", "off"):
        monkeypatch.setenv(_cc.KERNELS_ENV, kernels)
        assert ooo_cycles_many(trace, states, configs) == ref, kernels
        assert [ooo_cycles(trace, s.dlevel, s.ilevel, s.mispredicted, c)
                for s, c in zip(states, configs)] == ref, kernels


def test_ooo_long_dependence_and_large_rob_regression():
    """Dep distances and ROBs beyond the old 4096-slot ring stay exact.

    The seed engine's fixed ring silently dropped dependences >= 4096
    instructions back and corrupted the ROB constraint for
    rob_entries >= 4096; the ring now grows to cover both.
    """
    n = 10_000
    trace, dl, il, misp = random_ooo_inputs(5, n)
    # A slow producer feeding a consumer 6000 instructions later.
    trace["dep"] = trace["dep"].copy()
    trace["kind"][2000] = _LOAD
    dl[2000] = 3
    trace["dep"][8000] = 6000
    assert ring_size(224, trace["dep"]) > 4096
    base = skylake_config()
    huge_rob = dataclasses.replace(
        base, core=dataclasses.replace(base.core, rob_entries=8192))
    assert ring_size(8192, trace["dep"]) > 8192
    for config in (base, huge_rob):
        ref = ooo_cycles_scalar(trace, dl, il, misp, config)
        assert ooo_cycles(trace, dl, il, misp, config) == ref


def test_kind_latency_table_derived_from_isa():
    """Every InstrKind indexes the tick table at its ISA latency."""
    assert len(KIND_LATENCY_TICKS) == max(int(k) for k in InstrKind) + 1
    for kind in InstrKind:
        assert KIND_LATENCY_TICKS[int(kind)] == KIND_LATENCY[kind] * TICKS


def test_ooo_empty_and_tiny_traces():
    config = skylake_config()
    empty = {"pc": np.zeros(0, dtype=np.int64),
             "kind": np.zeros(0, dtype=np.int64),
             "dep": np.zeros(0, dtype=np.int64)}
    zeros = np.zeros(0, dtype=np.int64)
    state = _State(zeros, zeros, zeros.astype(bool))
    assert ooo_cycles_many(empty, [state], [config]) == [0.0]
    assert ooo_cycles_many(empty, [], []) == []
    for n in (1, 3, 17):
        trace, dl, il, misp = random_ooo_inputs(6, n)
        ref = ooo_cycles_scalar(trace, dl, il, misp, config)
        state = _State(dl, il, misp)
        assert ooo_cycles_many(trace, [state], [config]) == [ref]


def test_real_guest_trace_bit_identical(pypy_run):
    """End-to-end: a real VM trace, not just synthetic columns."""
    _, machine = pypy_run(
        "total = 0\n"
        "for i in range(400):\n"
        "    total = total + i * i\n"
        "print(total)\n")
    arrays = machine.trace.arrays()
    config = skylake_config()
    ref = simulate_cache_hierarchy_scalar(arrays, config)
    out = simulate_cache_hierarchy(arrays, config)
    assert np.array_equal(ref.dlevel, out.dlevel)
    assert np.array_equal(ref.ilevel, out.ilevel)
    for name in ref.stats:
        assert ref.stats[name] == out.stats[name], name
    ref_mis, ref_stats = simulate_branches_scalar(arrays, config.branch)
    out_mis, out_stats = simulate_branches(arrays, config.branch)
    assert np.array_equal(ref_mis, out_mis)
    assert ref_stats == out_stats
