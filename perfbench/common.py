"""Workload definitions and helpers shared by the benchmark's processes."""

from __future__ import annotations

import hashlib
import json
import os
import random
from pathlib import Path

#: Figure workloads: the figures one pass renders, the ``jobs`` it
#: renders them with, and the cache template it starts from (None =
#: an empty cache).
FIGURE_WORKLOADS = {
    "sweep_cold": {"figures": ("fig7",), "jobs": 2, "template": None},
    "sweep_warm": {"figures": ("fig7", "fig8"), "jobs": 2,
                   "template": "sweep"},
    "breakdown_warm": {"figures": ("fig4", "fig5", "fig13"), "jobs": 1,
                       "template": "breakdown"},
}

#: The serving workload's query mix; it starts from the ``serve``
#: template.
SERVE_FIGURES = ("fig5", "fig6", "fig9")

WORKLOADS = tuple(FIGURE_WORKLOADS) + ("serve_warm",)

#: Cache templates: the figures one untimed serial pass renders to fill
#: a cache, which every pass of a warm workload then starts from.
TEMPLATES = {
    "sweep": ("fig7", "fig8"),
    "breakdown": ("fig4", "fig5", "fig13"),
    "serve": SERVE_FIGURES,
}

#: Module-level workload suites of ``repro.experiments.figures``. The
#: quick grids take them whole or by their first four names.
SUITES = ("SWEEP_BENCHMARKS", "BREAKDOWN_QUICK_SUITE",
          "NURSERY_BENCHMARKS", "_JS_QUICK")
SUITE_BLOCK = 4


def seed_suites(figures, seed: int) -> None:
    """Rebind the figure module's suites to a seed-picked order.

    Names are shuffled only within consecutive blocks of four, so every
    quick grid keeps its set of workloads (and its cost) and only the
    order it visits and renders them changes. Seed 0 keeps the
    committed order: its output is exactly ``repro figure``'s.
    """
    if seed == 0:
        return
    rng = random.Random(seed)
    for name in SUITES:
        names = list(getattr(figures, name))
        for start in range(0, len(names), SUITE_BLOCK):
            block = names[start:start + SUITE_BLOCK]
            rng.shuffle(block)
            names[start:start + SUITE_BLOCK] = block
        setattr(figures, name, tuple(names))


def digest(text: str) -> str:
    """SHA-256 of a figure as ``repro figure`` prints it."""
    return hashlib.sha256((text + "\n").encode("utf-8")).hexdigest()


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1) of a non-empty list."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def write_json(path: Path, payload) -> None:
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(payload, indent=1, sort_keys=True))
    os.replace(tmp, path)
