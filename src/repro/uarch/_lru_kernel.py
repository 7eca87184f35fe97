"""Optional compiled kernel for one exact-LRU cache level.

A set-associative LRU level is a sequential state machine, so a ~40-line
C loop walks an access stream in program order: for each access it
scans the set's ways, refreshes the recency stamp and dirty bit, and
counts misses, evictions and writebacks, over flat tag/stamp/dirty
arrays and one clock. :mod:`repro._cc` builds it at first use. Without
a compiler, or under ``REPRO_KERNELS=off``, the cache hierarchy falls
back to the scalar reference
(:func:`~repro.uarch.cache.simulate_cache_hierarchy_scalar`), with the
same contract: bit-identical hits and counters for every stream and
geometry.
"""

from __future__ import annotations

import ctypes

import numpy as np

from .. import _cc

_SOURCE = r"""
#include <stdint.h>

void lru_walk(int64_t n, const int64_t *lines, const uint8_t *writes,
              int64_t set_mask, int64_t ways,
              int64_t *tags, int64_t *stamps, uint8_t *dirty,
              uint8_t *hits,
              int64_t *io /* in: clock; out: clock, misses, evictions,
                             writebacks */)
{
    int64_t clock = io[0], misses = 0, evictions = 0, writebacks = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t line = lines[i];
        int64_t base = (line & set_mask) * ways;
        int64_t tag = line >> 1;  /* the scalar engine's tag function */
        int64_t *t = tags + base, *s = stamps + base;
        uint8_t *d = dirty + base;
        int64_t way = -1, victim = 0;
        for (int64_t j = 0; j < ways; j++) {
            if (s[j] >= 0 && t[j] == tag) {
                way = j;
                break;
            }
            if (s[j] < s[victim]) victim = j;
        }
        if (way >= 0) {
            d[way] |= writes[i];
            hits[i] = 1;
        } else {
            way = victim;
            misses++;
            if (s[way] >= 0) {
                evictions++;
                writebacks += d[way];
            }
            t[way] = tag;
            d[way] = writes[i];
            hits[i] = 0;
        }
        s[way] = clock++;
    }
    io[0] = clock;
    io[1] = misses;
    io[2] = evictions;
    io[3] = writebacks;
}
"""


def _build() -> ctypes.CDLL | None:
    dll = _cc.load("lru_kernel", _SOURCE)
    if dll is None:
        return None
    i64 = ctypes.c_int64
    p64 = ctypes.POINTER(ctypes.c_int64)
    pu8 = ctypes.POINTER(ctypes.c_uint8)
    dll.lru_walk.restype = None
    dll.lru_walk.argtypes = [i64, p64, pu8, i64, i64, p64, p64, pu8, pu8,
                             p64]
    return dll


_once = _cc.Once()


def get_kernel() -> ctypes.CDLL | None:
    """The compiled kernel, building it on first use (or ``None``)."""
    return _once(_build)


def walk(dll: ctypes.CDLL, lines: np.ndarray, writes: np.ndarray,
         set_mask: int, ways: int, tags: np.ndarray, stamps: np.ndarray,
         dirty: np.ndarray, clock: int) -> tuple[np.ndarray, list[int]]:
    """Feed one access stream through a level's state, in order.

    ``tags``/``stamps`` are int64 and ``dirty`` bool arrays of
    ``num_sets * ways`` entries, updated in place. Returns the per-access
    hit flags and ``[clock, misses, evictions, writebacks]``.
    """
    n = len(lines)
    lines = np.ascontiguousarray(lines, dtype=np.int64)
    writes = np.ascontiguousarray(writes, dtype=bool).view(np.uint8)
    hits = np.empty(n, dtype=np.uint8)
    io = np.array([clock, 0, 0, 0], dtype=np.int64)
    p64 = ctypes.POINTER(ctypes.c_int64)
    pu8 = ctypes.POINTER(ctypes.c_uint8)
    dll.lru_walk(n, lines.ctypes.data_as(p64), writes.ctypes.data_as(pu8),
                 set_mask, ways, tags.ctypes.data_as(p64),
                 stamps.ctypes.data_as(p64),
                 dirty.view(np.uint8).ctypes.data_as(pu8),
                 hits.ctypes.data_as(pu8), io.ctypes.data_as(p64))
    return hits.view(bool), io.tolist()
