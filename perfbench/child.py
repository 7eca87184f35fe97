"""One figure-workload pass in a fresh interpreter, started by run.py.

Renders the named quick figures the way ``repro figures`` does (one
runner per scale, telemetry on) and writes a JSON report to ``--out``:
the pass's wall-clock, each figure's time and SHA-256, the peak RSS of
this process plus its largest fan-out worker, and with ``--trace`` the
per-layer ledger.
"""

from __future__ import annotations

import argparse
import multiprocessing.util
import os
import resource
import time
from pathlib import Path

import common


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _write_worker_rss(directory: str) -> None:
    Path(directory, str(os.getpid())).write_text(f"{_max_rss_mb()!r}")


def _track_worker_rss(directory: str) -> None:
    """Have every forked multiprocessing worker record its peak RSS in
    ``directory`` when it exits."""
    def after_fork(_):
        multiprocessing.util.Finalize(None, _write_worker_rss,
                                      args=(directory,), exitpriority=0)

    multiprocessing.util.register_after_fork(_track_worker_rss, after_fork)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--figures", required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--rss-dir", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    start = time.perf_counter()
    import repro.__main__  # noqa: F401 - the CLI's import cost
    from repro import telemetry
    from repro.experiments import figures
    from repro.experiments.runner import ExperimentRunner
    import_s = time.perf_counter() - start
    ledger = None
    if args.trace:
        import ledger as ledger_mod
        ledger = ledger_mod.install()
    _track_worker_rss(args.rss_dir)
    common.seed_suites(figures, args.seed)

    telemetry.enable()
    runners: dict = {}
    rendered = []
    start = time.perf_counter()
    for name in args.figures.split(","):
        t0 = time.perf_counter()
        scale = figures.figure_scale(name)
        if scale not in runners:
            runners[scale] = ExperimentRunner(scale=scale)
        try:
            result = figures.ALL_FIGURES[name](runners[scale], quick=True,
                                               jobs=args.jobs)
            digest, error = common.digest(str(result)), None
        except Exception as exc:  # noqa: BLE001 - reported as a failure
            digest, error = None, repr(exc)
        rendered.append({"figure": name, "digest": digest, "error": error,
                         "seconds": time.perf_counter() - t0})
    wall = time.perf_counter() - start
    telemetry.disable()

    workers = [float(path.read_text())
               for path in Path(args.rss_dir).iterdir()]
    report = {"wall_s": wall, "import_s": import_s, "figures": rendered,
              "rss_mb": _max_rss_mb() + max(workers, default=0.0)}
    if ledger is not None:
        report["ledger"] = ledger.report(wall)
    common.write_json(Path(args.out), report)


if __name__ == "__main__":
    main()
