"""``repro serve`` in its own process, started by run.py.

Usage: ``serve_main.py --report FILE [--trace] -- <repro serve args>``.
Runs the CLI's ``serve`` command unchanged (with the per-layer ledger
installed when ``--trace`` is given) and, once it has drained, writes
its peak RSS and ledger to ``--report``.
"""

from __future__ import annotations

import argparse
import resource
import sys
from pathlib import Path

import common


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]

    from repro.__main__ import main as repro_main
    ledger = None
    if args.trace:
        import ledger as ledger_mod
        ledger = ledger_mod.install()
    rc = repro_main(["serve", *serve_args])
    report = {"rss_mb": resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024}
    if ledger is not None:
        report["ledger"] = ledger.export()
        report["local_seconds"] = ledger.local_seconds
    common.write_json(Path(args.report), report)
    return rc


if __name__ == "__main__":
    sys.exit(main())
