"""Compare two sets of benchmark runs: where did the time go?

Usage::

    python3 perfbench/compare.py BEFORE AFTER

Each file holds run records, one JSON object per line: what
``run.py --out FILE`` appends, or ``run.py``'s captured standard output
(its ``{"perfbench": ...}`` line). Other lines are ignored.

Prints, per workload and metric, the median and quartiles of each side
and the change of the median; then, per workload, the per-layer self
times and work counts of the traced runs; then every figure whose seed-0
SHA-256 differs between the sides (a moved number).
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict


def load(path: str) -> list[dict]:
    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            try:
                item = json.loads(line)
            except ValueError:
                continue
            if isinstance(item, dict):
                item = item.get("perfbench", item)
                if "workload" in item:
                    records.append(item)
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def collect(records: list[dict], section: str) -> dict:
    """workload -> metric -> values over the runs that report it."""
    table: dict = defaultdict(lambda: defaultdict(list))
    for record in records:
        for name, value in (record.get(section) or {}).items():
            table[record["workload"]][name].append(value)
    return table


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def _change(before: float, after: float) -> str:
    if before == 0:
        return "" if after == 0 else "new"
    return f"{100 * (after - before) / abs(before):+.1f}%"


def end_to_end(before: list[dict], after: list[dict]) -> None:
    a, b = collect(before, "end_to_end"), collect(after, "end_to_end")
    print("end-to-end (median [q1, q3] n)")
    for workload in sorted(set(a) | set(b)):
        print(f"  {workload}")
        for name in sorted(set(a[workload]) | set(b[workload])):
            cells = []
            medians = []
            for side in (a[workload].get(name), b[workload].get(name)):
                if not side:
                    cells.append("-")
                    medians.append(None)
                    continue
                q1, median, q3 = quartiles(side)
                medians.append(median)
                cells.append(f"{_fmt(median)} [{_fmt(q1)}, {_fmt(q3)}] "
                             f"{len(side)}")
            change = _change(*medians) if None not in medians else ""
            print(f"    {name:16s} {cells[0]:34s} {cells[1]:34s} {change}")


def per_layer(before: list[dict], after: list[dict]) -> None:
    a, b = collect(before, "per_layer"), collect(after, "per_layer")
    print("\nper layer, traced runs (median before -> after, delta)")
    for workload in sorted(set(a) ^ set(b)):
        print(f"  {workload}: traced on one side only")
    for workload in sorted(set(a) & set(b)):
        rows = []
        for name in set(a[workload]) | set(b[workload]):
            x = statistics.median(a[workload].get(name) or [0])
            y = statistics.median(b[workload].get(name) or [0])
            rows.append((name, x, y))
        # Times first, largest movement first; then counts and ratios.
        rows.sort(key=lambda row: (not row[0].endswith("_s"),
                                   -abs(row[2] - row[1]), row[0]))
        print(f"  {workload}")
        for name, x, y in rows:
            print(f"    {name:36s} {_fmt(x):>12s} -> {_fmt(y):>12s}"
                  f"  {_fmt(y - x):>12s} {_change(x, y)}")


def digests(before: list[dict], after: list[dict]) -> None:
    def seed0(records):
        out = {}
        for record in records:
            if record.get("seed") == 0:
                out.update(record.get("digests") or {})
        return out

    a, b = seed0(before), seed0(after)
    moved = sorted(fig for fig in set(a) & set(b) if a[fig] != b[fig])
    print("\nseed-0 figure digests: " + (
        "moved: " + ", ".join(moved) if moved
        else f"{len(set(a) & set(b))} compared, none moved"))
    for label, records in (("before", before), ("after", after)):
        bad = [f"{r['workload']}@{r['seed']}" for r in records
               if not r.get("correct", True) or r.get("failed")]
        if bad:
            print(f"incorrect or failed runs {label}: {', '.join(bad)}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("before")
    parser.add_argument("after")
    args = parser.parse_args(argv)
    before, after = load(args.before), load(args.after)
    end_to_end(before, after)
    per_layer(before, after)
    digests(before, after)


if __name__ == "__main__":
    main()
