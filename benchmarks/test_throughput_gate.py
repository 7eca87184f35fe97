"""Simulation-throughput regression gates.

Fails the bench suite when a gated pipeline stage — ``guest`` (trace
emission by the interpreter models), ``sim.memory_side`` (cache +
branch simulation) or ``sim.core.ooo`` (the batched OOO core) — falls
below half of its checked-in baseline throughput, so a change that
quietly de-vectorizes a hot loop or de-fuses the burst emitter cannot
land unnoticed. Every stage is read from the telemetry gauge the
production pipeline updates (``sim.instructions_per_second`` for the
simulator stages, ``guest.instructions_per_second`` for emission,
``trace.codec.bytes_per_second`` for the columnar trace codec's
encode and decode paths).

Refresh the baselines on the target machine with one command:

    REPRO_REFRESH_BASELINES=1 python -m pytest \
        benchmarks/test_throughput_gate.py -q
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from conftest import save_text

from repro.config import skylake_config
from repro.experiments.runner import ExperimentRunner
from repro.telemetry import TELEMETRY
from repro.uarch.system import SimulatedSystem

BASELINE_PATH = Path(__file__).parent / "baselines" / "throughput.json"
REFRESH_ENV = "REPRO_REFRESH_BASELINES"

#: Fail when measured throughput drops below this fraction of baseline.
GATE_FRACTION = 0.5


def _gauge(stage: str) -> float:
    return TELEMETRY.metrics.snapshot().get(
        f"sim.instructions_per_second{{stage={stage}}}", 0.0)


def _guest_gauge() -> float:
    return TELEMETRY.metrics.snapshot().get(
        "guest.instructions_per_second{runtime=cpython}", 0.0)


def _codec_gauge(op: str) -> float:
    return TELEMETRY.metrics.snapshot().get(
        f"trace.codec.bytes_per_second{{op={op}}}", 0.0)


def _measure(repeats: int = 3, scratch: Path | None = None) -> dict:
    """Best observed throughput per gated stage, instructions/second
    (canonical bytes/second for the ``trace.codec.*`` stages)."""
    import tempfile

    from repro.experiments.diskcache import DiskCache
    from repro.host.trace import InstructionTrace
    best = {"guest": 0.0, "sim.memory_side": 0.0, "sim.core.ooo": 0.0,
            "trace.codec.encode": 0.0, "trace.codec.decode": 0.0}
    handle = None
    for _ in range(repeats):
        # A fresh cache-bypassing runner per repeat: the gauge is only
        # set by a run that actually interprets.
        bypass = ExperimentRunner(scale=2, disk_cache=DiskCache(None))
        handle = bypass.run("deltablue", runtime="cpython")
        best["guest"] = max(best["guest"], _guest_gauge())
    config = skylake_config()
    system = SimulatedSystem(config)
    state = None
    for _ in range(repeats):
        state = system.memory_side(handle.trace)
        best["sim.memory_side"] = max(best["sim.memory_side"],
                                      _gauge("memory_side"))
    for _ in range(repeats):
        SimulatedSystem.run_many_configs(
            handle.trace, [config], [state])
        best["sim.core.ooo"] = max(best["sim.core.ooo"],
                                   _gauge("core.ooo"))
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        path = Path(tmp) / "trace.rpt"
        for _ in range(repeats):
            handle.trace.save(path)
            best["trace.codec.encode"] = max(
                best["trace.codec.encode"], _codec_gauge("encode"))
        for _ in range(repeats):
            loaded = InstructionTrace.load(path)
            loaded.arrays()
            loaded.close()
            best["trace.codec.decode"] = max(
                best["trace.codec.decode"], _codec_gauge("decode"))
    return {"instructions": len(handle.trace), "best": best}


def test_simulation_throughput_gates(tmp_path):
    measured = _measure(scratch=tmp_path)
    instructions = measured["instructions"]
    best = measured["best"]
    for stage, value in best.items():
        assert value > 0, f"telemetry gauge missing for {stage}"
    if os.environ.get(REFRESH_ENV, "").strip() not in ("", "0"):
        BASELINE_PATH.parent.mkdir(exist_ok=True)
        BASELINE_PATH.write_text(json.dumps({
            stage: {
                "instructions_per_second": value,
                "workload": "deltablue",
                "runtime": "cpython",
                "scale": 2,
                "trace_instructions": instructions,
            } for stage, value in best.items()}, indent=2) + "\n")
    baseline = json.loads(BASELINE_PATH.read_text())
    lines = ["simulation throughput gates "
             "(deltablue, cpython, scale 2)",
             f"trace length : {instructions:,} instructions"]
    failures = []
    for stage, value in best.items():
        base = baseline[stage]["instructions_per_second"]
        floor = base * GATE_FRACTION
        unit = "B/s" if stage.startswith("trace.codec") else "instr/s"
        lines.append(f"{stage:18s}: {value:,.0f} {unit} "
                     f"(baseline {base:,.0f}, gate >= {floor:,.0f})")
        if value < floor:
            failures.append(
                f"{stage} throughput {value:,.0f} instr/s is below "
                f"{GATE_FRACTION:.0%} of the checked-in baseline "
                f"({floor:,.0f} instr/s)")
    lines.append(f"refresh with : {REFRESH_ENV}=1 python -m pytest "
                 "benchmarks/test_throughput_gate.py -q")
    save_text("throughput_gate", "\n".join(lines))
    assert not failures, "; ".join(
        failures) + f"; refresh with {REFRESH_ENV}=1 if the machine " \
        "legitimately changed"
