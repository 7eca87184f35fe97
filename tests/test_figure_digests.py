"""Pinned figure bytes: quick ``fig7`` and ``fig5`` hash to fixed values.

Each digest is the SHA-256 of the figure exactly as ``repro figure``
prints it (text plus the trailing newline), rendered from an empty disk
cache. A change that moves any number in either figure fails here and
must update the pin with an explained diff. ``fig7`` covers the sweep
path (cache hierarchy, branch predictor and OOO core across the Table I
axes); ``fig5`` covers the breakdown path (simple core and category
attribution).
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments import figures

PINNED = {
    "fig7": "8de0af130a1622dc1244221b3a6332611943d11d91cb75da28f67e1a71399b73",
    "fig5": "01032554baacdab5beac4f1eebdaa68f4ebb264dba05dba865b2d6d6de848ffe",
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_quick_figure_digest_is_pinned(name):
    rendered = str(figures.ALL_FIGURES[name](quick=True))
    digest = hashlib.sha256((rendered + "\n").encode("utf-8")).hexdigest()
    assert digest == PINNED[name], (
        f"{name} bytes changed: {digest} != {PINNED[name]}")
