"""Per-layer ledger: self time and exact work counts at repro's public calls.

:func:`install` replaces the public entry points of each ``repro`` layer
with timing wrappers, from outside the package: module functions are
rebound in every ``repro`` module that imported them by name (so the
direct ``simulate_cache_hierarchy`` calls of ``analysis.breakdown`` are
caught as well as the ones made by ``uarch.system``), and methods are
replaced on their class. A wrapped call's *self time* is its duration
minus the time of wrapped calls nested inside it on the same thread.

Fork-context fan-out workers inherit the wrappers. Each worker resets
the ledger it inherited at the start of a cell and ships its own totals
back inside the fan-out's existing worker payload; the parent merges
them when the supervised fan-out returns. Worker totals add to the
layer metrics, but not to the parent's own self time: the parent waits
for workers inside ``fan_out``, so that wait is ``fan_out_s`` and the
parent's self times alone sum to its wall-clock. Cells whose payload
never returns (a crashed worker) leave only that wait behind.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from collections import defaultdict

#: Key under which a worker ships its ledger inside the fan-out payload.
PAYLOAD_KEY = "perfbench_ledger"

#: Counts that must repeat exactly between runs of the same inputs.
EXACT_COUNTS = (
    "vm.instructions", "uarch.cache_rows", "uarch.branch_rows",
    "uarch.ooo_rows", "experiments.diskcache.hits",
    "experiments.diskcache.misses", "experiments.parallel.cells",
)

#: The exact counts that stay exact with more than one fan-out worker.
#: The pool hands each cell to whichever worker is free, and a worker
#: loads from disk what its own runner has not seen yet, so the disk
#: cache's hit and miss counts follow the scheduling.
SERIAL_COUNTS = tuple(name for name in EXACT_COUNTS
                      if not name.startswith("experiments.diskcache."))

#: Every time metric the wrappers can charge.
TIME_METRICS = (
    "frontend.compile_s", "vm.run_s", "host.codec.encode_s",
    "host.codec.decode_s", "experiments.diskcache.load_s",
    "experiments.diskcache.store_s", "experiments.runner.self_s",
    "uarch.cache_s", "uarch.branch_s", "uarch.ooo_s", "uarch.simple_s",
    "pintool.resolve_s", "analysis.breakdown_s", "analysis.sweeps_s",
    "analysis.render_s", "experiments.parallel.fan_out_s",
    "experiments.server.execute_s", "setup.kernel_build_s",
)


class Ledger:
    """Self seconds per time metric and work counts, for one process."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        #: Self seconds charged in this process (workers excluded).
        self.local_seconds = 0.0
        self._tls = threading.local()

    def reset(self) -> None:
        self.seconds.clear()
        self.counts.clear()
        self.local_seconds = 0.0
        self._tls.stack = []

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def timed(self, fn, metric, before=None, after=None):
        """Wrap ``fn``: charge its self time to ``metric`` (a name, or a
        function of the call's arguments returning one), then call
        ``after(counts, args, kwargs, result, before(args, kwargs))``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            stack = self._stack()
            nested = [0.0]
            stack.append(nested)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                own = elapsed - nested[0]
                name = metric(args, kwargs) if callable(metric) else metric
                self.seconds[name] += own
                self.local_seconds += own
            if after is not None:
                after(self.counts, args, kwargs, result, token)
            return result

        return wrapper

    def export(self) -> dict:
        return {"seconds": dict(self.seconds), "counts": dict(self.counts)}

    def merge(self, exported: dict) -> None:
        for name, value in exported["seconds"].items():
            self.seconds[name] += value
        for name, value in exported["counts"].items():
            self.counts[name] += value

    def report(self, wall: float) -> dict:
        """The per-layer metrics of one traced workload pass of ``wall``
        seconds (``trace_overhead_frac`` is added by the caller, which
        also ran the pass untraced)."""
        counts = self.counts
        out = {name: self.seconds.get(name, 0.0) for name in TIME_METRICS}
        for name in EXACT_COUNTS + ("host.codec.bytes",):
            out[name] = counts.get(name, 0)
        for kind in ("trace", "state"):
            calls = counts.get(f"runner.{kind}_calls", 0)
            hits = counts.get(f"runner.{kind}_hits", 0)
            # No call at all wasted no work either.
            out[f"experiments.runner.{kind}_hit_ratio"] = \
                hits / calls if calls else 1.0
        out["experiments.parallel.cell_s"] = \
            counts.get("parallel.cell_us", 0) / 1e6
        out["unattributed_s"] = wall - self.local_seconds
        return out


# ----------------------------------------------------------------------
# Count hooks
# ----------------------------------------------------------------------

def _rows(arrays) -> int:
    return len(next(iter(arrays.values()))) if arrays else 0


def _core(args, kwargs) -> str:
    return kwargs.get("core", args[2] if len(args) > 2 else "ooo")


def _many_core(args, kwargs) -> str:
    return kwargs.get("core", args[3] if len(args) > 3 else "ooo")


def _hit_ratio(ledger: Ledger, kind: str, work: tuple):
    """A runner call is a hit when none of the ``work`` calls ran
    inside it."""

    def before(args, kwargs):
        return sum(ledger.counts.get(name, 0) for name in work)

    def after(counts, args, kwargs, result, token):
        counts[f"runner.{kind}_calls"] += 1
        if before(args, kwargs) == token:
            counts[f"runner.{kind}_hits"] += 1

    return before, after


def _vm_before(args, kwargs):
    return len(args[0].machine.trace)


def _vm_after(counts, args, kwargs, result, token):
    counts["vm.runs"] += 1
    counts["vm.instructions"] += len(args[0].machine.trace) - token


def _cache_after(counts, args, kwargs, result, token):
    counts["uarch.cache_calls"] += 1
    counts["uarch.cache_rows"] += _rows(args[0])


def _branch_after(counts, args, kwargs, result, token):
    counts["uarch.branch_calls"] += 1
    counts["uarch.branch_rows"] += _rows(args[0])


def _run_after(counts, args, kwargs, result, token):
    if _core(args, kwargs) == "ooo":
        counts["uarch.ooo_rows"] += len(args[1])


def _many_after(counts, args, kwargs, result, token):
    if _many_core(args, kwargs) == "ooo":
        counts["uarch.ooo_rows"] += len(args[0]) * len(args[1])


def _load_after(counts, args, kwargs, result, token):
    counts["experiments.diskcache.hits" if result is not None
           else "experiments.diskcache.misses"] += 1


def _save_after(counts, args, kwargs, result, token):
    counts["host.codec.bytes"] += os.path.getsize(args[1])


def _column_after(counts, args, kwargs, result, token):
    counts["host.codec.bytes"] += result.nbytes


def _range_after(counts, args, kwargs, result, token):
    counts["host.codec.bytes"] += sum(a.nbytes for a in result.values())


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------

def _rebind(original, wrapper) -> None:
    """Point every ``repro`` module binding of ``original`` at
    ``wrapper`` (``from x import f`` copies the reference)."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _wrap_function(ledger, module, name, metric, before=None, after=None):
    original = getattr(module, name)
    _rebind(original, ledger.timed(original, metric, before, after))


def _wrap_method(ledger, cls, name, metric, before=None, after=None):
    raw = cls.__dict__[name]
    for kind in (staticmethod, classmethod):
        if isinstance(raw, kind):
            wrapped = ledger.timed(raw.__func__, metric, before, after)
            setattr(cls, name, kind(wrapped))
            return
    setattr(cls, name, ledger.timed(raw, metric, before, after))


def install() -> Ledger:
    """Wrap every layer's public calls; returns the process ledger."""
    # Every module that imports a wrapped function by name must be
    # loaded before the rebinding sweep.
    import repro.__main__  # noqa: F401
    import repro.experiments.figures  # noqa: F401
    from repro.analysis import breakdown, nursery, report, sweeps
    from repro.experiments import diskcache, parallel, runner
    from repro.experiments import server
    from repro.frontend import compiler
    from repro.host import _codec_kernel, _emit_kernel, codec, trace
    from repro.pintool import postprocess
    from repro.uarch import _ooo_kernel, branch, cache, simple_core, system
    from repro.vm import base

    ledger = Ledger()
    fn, method = functools.partial(_wrap_function, ledger), \
        functools.partial(_wrap_method, ledger)

    fn(compiler, "compile_source", "frontend.compile_s")
    method(base.BaseVM, "run", "vm.run_s", _vm_before, _vm_after)

    method(trace.InstructionTrace, "save", "host.codec.encode_s",
           after=_save_after)
    method(trace.InstructionTrace, "load", "host.codec.decode_s")
    method(codec.FrameReader, "column", "host.codec.decode_s",
           after=_column_after)
    method(codec.FrameReader, "decode_range", "host.codec.decode_s",
           after=_range_after)

    cache_cls = diskcache.DiskCache
    for name in ("load_run", "load_state"):
        method(cache_cls, name, "experiments.diskcache.load_s",
               after=_load_after)
    for name in ("store_run", "store_state"):
        method(cache_cls, name, "experiments.diskcache.store_s")

    runner_cls = runner.ExperimentRunner
    method(runner_cls, "run", "experiments.runner.self_s",
           *_hit_ratio(ledger, "trace", ("vm.runs",)))
    method(runner_cls, "memory_side", "experiments.runner.self_s",
           *_hit_ratio(ledger, "state", ("uarch.cache_calls",
                                         "uarch.branch_calls")))
    for name in ("simulate", "simulate_many_configs"):
        method(runner_cls, name, "experiments.runner.self_s")

    fn(cache, "simulate_cache_hierarchy", "uarch.cache_s",
       after=_cache_after)
    fn(branch, "simulate_branches", "uarch.branch_s", after=_branch_after)
    method(system.SimulatedSystem, "run",
           lambda a, k: "uarch.simple_s" if _core(a, k) == "simple"
           else "uarch.ooo_s", after=_run_after)
    method(system.SimulatedSystem, "run_many_configs",
           lambda a, k: "uarch.simple_s" if _many_core(a, k) == "simple"
           else "uarch.ooo_s", after=_many_after)
    fn(simple_core, "simple_core_cycles", "uarch.simple_s")

    fn(postprocess, "resolve_categories", "pintool.resolve_s")
    for name in ("breakdown_for_run", "indirect_call_fraction"):
        fn(breakdown, name, "analysis.breakdown_s")
    for module, name in ((sweeps, "run_sweep"), (sweeps, "phase_cpis"),
                         (nursery, "nursery_sweep")):
        fn(module, name, "analysis.sweeps_s")
    for name in ("render_table", "render_series"):
        fn(report, name, "analysis.render_s")

    fn(parallel, "fan_out", "experiments.parallel.fan_out_s")
    _install_worker_shipping(ledger, parallel)

    method(server.SweepServer, "_execute", "experiments.server.execute_s")
    # The build behind a kernel's first ``get_kernel()``: later calls
    # come from the OOO core's config threads, and a timed call there
    # would overlap the main thread's.
    for module in (_emit_kernel, _codec_kernel, _ooo_kernel):
        fn(module, "_build", "setup.kernel_build_s")
    return ledger


def _install_worker_shipping(ledger: Ledger, parallel) -> None:
    """Carry each worker's ledger back in the fan-out cell payload."""
    run_cell = parallel._run_cell

    @functools.wraps(run_cell)
    def worker_cell(payload):
        ledger.reset()
        start = time.perf_counter()
        out = run_cell(payload)
        ledger.counts["parallel.cell_us"] += round(
            (time.perf_counter() - start) * 1e6)
        ledger.counts["experiments.parallel.cells"] += 1
        out[PAYLOAD_KEY] = ledger.export()
        ledger.reset()
        return out

    parallel._run_cell = worker_cell
    supervise = parallel._Supervisor.run

    @functools.wraps(supervise)
    def supervised_run(self):
        results = supervise(self)
        for payload in self.dumps:
            if payload and PAYLOAD_KEY in payload:
                ledger.merge(payload.pop(PAYLOAD_KEY))
        return results

    parallel._Supervisor.run = supervised_run
