"""Batched-NumPy engine for the approximate OOO core.

The scalar reference in :mod:`~repro.uarch.ooo_core` is a per-instruction
loop over five coupled timing constraints. This engine reproduces it
bit-for-bit by processing the trace in blocks and solving each block's
recurrences by **monotone fixed-point relaxation**: starting from a
lower bound (all finish times zero), a relaxation pass recomputes every
instruction's issue/finish time from the current estimates, and because
every constraint is monotone (raising any finish time can only raise
others) the estimates climb to the unique solution — the exact values
the scalar loop produces in order.

A naive Jacobi pass only extends resolved dependence chains by one hop,
so a pass is built from *exact closures*, one per constraint family,
each of which resolves arbitrarily long chains of its own kind in a
constant number of vector operations:

* **front-end restarts** (mispredicts): the recurrence
  ``front = max(front + delta, restart)`` unrolls to a running maximum
  of ``restart_j - prefix_j``, one ``maximum.accumulate``;
* **register dependences**: the static dep forest is decomposed into
  contiguous runs (dep distance one — the overwhelming majority in
  interpreter traces) plus a sparse set of non-contiguous edges
  bucketed into dependency levels once per block. Subtracting each
  node's exact root-to-node path latency turns the max-plus closure
  into a plain ancestor maximum, solved by one rank-offset running max
  per run plus one level-ordered gather chain for the sparse edges —
  a handful of vector ops regardless of chain length or nesting depth.
  Blocks with too many sparse edges (or offsets that could overflow
  the rank trick) fall back to pointer doubling over the same forest;
* **ROB / MSHR windows**: stride-``k`` recurrences
  ``f_i = max(o_i, f_{i-k} + lat_i)`` reshape into ``k`` independent
  columns where ``f_r = clat_r + cummax(o_u - clat_u)`` (a cumsum and a
  ``maximum.accumulate`` along the row axis).

All time arithmetic is int64 **ticks** (see
:data:`~repro.uarch.ooo_core.TICKS`), so reassociating sums and maxima
inside the scans is exact and the result matches the scalar engine to
the bit for any block size.

:func:`ooo_cycles_many_vector` additionally batches a whole parameter
sweep: configs sharing one memory-side state (a latency, bandwidth, or
issue-width axis over one trace) are stacked along a leading config
axis, so the trace — and all the trace-shaped bookkeeping above — is
walked once per *axis*, not once per *point*.

When a C compiler is present, single-config walks short-circuit to the
per-process compiled kernel in :mod:`~repro.uarch._ooo_kernel` — the
recurrence is a pure forward loop, so the kernel reproduces the scalar
engine bit for bit at memory speed, and batched walks thread it across
configs (it releases the GIL). ``REPRO_KERNELS=off`` or a missing
compiler falls back to the relaxation engine below; all three paths
return identical bits.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..errors import ReproError
from ..telemetry import TELEMETRY
from . import _ooo_kernel
from .ooo_core import (
    KIND_LATENCY_TICKS,
    MSHRS,
    TICKS,
    _LOAD,
    _STORE,
    _fetch_penalties,
    _load_latencies,
    front_interval_ticks,
    ticks_per_byte,
)

#: Block size for the fixed-point relaxation; override for testing with
#: the ``REPRO_OOO_CHUNK`` environment variable (results are identical
#: for every value, only speed changes).
CHUNK_ENV = "REPRO_OOO_CHUNK"
_DEFAULT_CHUNK = 16384

#: "No constraint" sentinel: far below any reachable time, far above
#: int64 underflow even after subtracting the largest prefix offsets.
_MIN = -(1 << 62)


def _chunk_size(chunk: int | None) -> int:
    if chunk is None:
        env = os.environ.get(CHUNK_ENV, "").strip()
        chunk = int(env) if env else _DEFAULT_CHUNK
    if chunk < 4:
        raise ReproError(f"OOO chunk size must be >= 4, got {chunk}")
    return chunk


def _stride_closure(f: np.ndarray, lat: np.ndarray, stride: int,
                    ) -> np.ndarray:
    """Exact closure of ``f_i = max(f_i, f_{i-stride} + lat_i)``.

    ``f``/``lat`` are ``(C, W)``; the recurrence runs along each of the
    ``stride`` interleaved columns independently.
    """
    c_axis, w = f.shape
    rows = -(-w // stride)
    padded = rows * stride
    q = np.full((c_axis, padded), _MIN, dtype=np.int64)
    q[:, :w] = f
    latp = np.zeros((c_axis, padded), dtype=np.int64)
    latp[:, :w] = lat
    qm = q.reshape(c_axis, rows, stride)
    clat = np.cumsum(latp.reshape(c_axis, rows, stride), axis=1)
    out = np.maximum.accumulate(qm - clat, axis=1) + clat
    return out.reshape(c_axis, padded)[:, :w]


class _BatchState:
    """Carried simulation state for one batch of configs (one group)."""

    def __init__(self, n_configs: int) -> None:
        self.front = np.zeros((n_configs, 1), dtype=np.int64)
        self.ring = np.zeros((n_configs, MSHRS), dtype=np.int64)
        self.miss_seen = 0
        self.last_finish = np.zeros((n_configs, 1), dtype=np.int64)


def ooo_cycles_many_vector(trace_arrays: dict[str, np.ndarray],
                           dlevel: np.ndarray, ilevel: np.ndarray,
                           mispredicted: np.ndarray, configs,
                           chunk: int | None = None) -> list[float]:
    """OOO cycles for every config in one batched walk of the trace.

    All configs must agree with the supplied memory-side arrays (same
    line size); configs whose ROB sizes differ are split into uniform
    sub-batches. Bit-identical to per-config
    :func:`~repro.uarch.ooo_core.ooo_cycles_scalar`.
    """
    n = len(trace_arrays["pc"])
    n_cfg = len(configs)
    if n_cfg == 0:
        return []
    if n == 0:
        return [0.0] * n_cfg

    line_size = configs[0].l1d.line_size
    for config in configs[1:]:
        if config.l1d.line_size != line_size:
            raise ReproError(
                "ooo_cycles_many_vector: all configs in one batch must "
                "share the memory-side geometry (line size differs)")

    # Compiled fast path: the recurrence is a pure forward walk, so
    # when a C compiler is present each config runs through the
    # per-process kernel (bit-identical to the scalar loop, GIL
    # released, configs threaded). ``REPRO_KERNELS=off`` or a
    # missing compiler falls back to the relaxation below.
    if _ooo_kernel.get_kernel() is not None:
        if TELEMETRY.enabled:
            TELEMETRY.metrics.counter(
                "sim.ooo_vector.kernel_calls").inc(n_cfg)
        prep = _ooo_kernel.prepare(trace_arrays, dlevel, ilevel,
                                   mispredicted)
        if n_cfg == 1:
            return [_ooo_kernel.run_prepared(prep, configs[0])]
        workers = min(n_cfg, os.cpu_count() or 1)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(
                lambda config: _ooo_kernel.run_prepared(prep, config),
                configs))

    robs = [config.core.rob_entries for config in configs]
    if len(set(robs)) > 1:
        # Uniform ROB keeps the stride closure a single reshape; mixed
        # batches (rare: no sweep axis varies the ROB directly) recurse
        # into uniform sub-batches.
        out: list[float] = [0.0] * n_cfg
        by_rob: dict[int, list[int]] = {}
        for i, rob in enumerate(robs):
            by_rob.setdefault(rob, []).append(i)
        for positions in by_rob.values():
            cycles = ooo_cycles_many_vector(
                trace_arrays, dlevel, ilevel, mispredicted,
                [configs[i] for i in positions], chunk=chunk)
            for pos, value in zip(positions, cycles):
                out[pos] = value
        return out

    chunk = _chunk_size(chunk)
    rob = robs[0]

    # ------------------------------------------------------------------
    # Shared (config-independent) trace/state precomputation
    # ------------------------------------------------------------------
    kinds = np.asarray(trace_arrays["kind"], dtype=np.int64)
    dep = np.asarray(trace_arrays["dep"], dtype=np.int64)
    dl = np.asarray(dlevel, dtype=np.int64)
    il = np.asarray(ilevel, dtype=np.int64)
    misp = np.asarray(mispredicted, dtype=bool)
    idx = np.arange(n, dtype=np.int64)

    dep_valid = (dep > 0) & (dep <= idx)
    dep_src = np.where(dep_valid, idx - dep, idx)
    is_load = kinds == _LOAD
    is_store = kinds == _STORE
    data_miss = (is_load | is_store) & (dl == 3)
    ifetch_miss = il == 3
    # Off-chip lines transferred up to and *including* instruction i's
    # fetch and data fills — the scalar loop reads the bus envelope
    # after charging both.
    line_count = np.cumsum(ifetch_miss.astype(np.int64)
                           + data_miss.astype(np.int64))
    load_srv = is_load & (dl >= 0)
    has_bubble = il > 0

    # ------------------------------------------------------------------
    # Per-config parameters, stacked on the leading axis
    # ------------------------------------------------------------------
    front_int = np.array([front_interval_ticks(c) for c in configs],
                         dtype=np.int64)[:, None]
    penalty = np.array([c.branch.mispredict_penalty * TICKS
                        for c in configs], dtype=np.int64)[:, None]
    mem_lat = np.array([c.memory.latency * TICKS for c in configs],
                       dtype=np.int64)[:, None]
    tpb = np.array([ticks_per_byte(c) for c in configs],
                   dtype=np.int64)[:, None]
    load_lat = np.array([_load_latencies(c) for c in configs],
                        dtype=np.int64)
    fetch_pen = np.array([_fetch_penalties(c) for c in configs],
                         dtype=np.int64)

    fin = np.zeros((n_cfg, n), dtype=np.int64)
    state = _BatchState(n_cfg)
    metrics = TELEMETRY.metrics if TELEMETRY.enabled else None

    for a in range(0, n, chunk):
        b = min(a + chunk, n)
        _relax_block(a, b, fin, state, kinds=kinds, dep_valid=dep_valid,
                     dep_src=dep_src, dl=dl, il=il, misp=misp,
                     data_miss=data_miss, line_count=line_count,
                     load_srv=load_srv, has_bubble=has_bubble,
                     is_store=is_store, line_size=line_size, rob=rob,
                     front_int=front_int, penalty=penalty,
                     mem_lat=mem_lat, tpb=tpb, load_lat=load_lat,
                     fetch_pen=fetch_pen, metrics=metrics)

    total = np.maximum(state.last_finish[:, 0], state.front[:, 0])
    return [ticks / TICKS for ticks in total.tolist()]


def _relax_block(a: int, b: int, fin: np.ndarray, state: _BatchState, *,
                 kinds, dep_valid, dep_src, dl, il, misp, data_miss,
                 line_count, load_srv, has_bubble, is_store, line_size,
                 rob, front_int, penalty, mem_lat, tpb, load_lat,
                 fetch_pen, metrics) -> None:
    """Fixed-point solve of one block; writes final times into ``fin``."""
    w = b - a
    n_cfg = fin.shape[0]

    # Per-block, estimate-independent quantities ------------------------
    # (dense np.where/np.take throughout: boolean fancy indexing costs
    # ~6x as much as a full-width take on these block shapes)
    lat = np.where(load_srv[a:b],
                   np.take(load_lat, np.maximum(dl[a:b], 0), axis=1),
                   KIND_LATENCY_TICKS[kinds[a:b]])
    lat = np.where(is_store[a:b], TICKS, lat)
    bubble = np.take(fetch_pen, np.maximum(il[a:b], 0), axis=1)

    delta = front_int + bubble
    pd = np.cumsum(delta, axis=1)          # inclusive front prefix
    excl = pd - delta                      # exclusive front prefix
    ebc = excl + bubble                    # front-issue base less front
    misp_b = misp[a:b][None, :]

    # Static start-time candidates: deps and ROB edges that reach into
    # earlier (already final) blocks.
    dsrc_b = dep_src[a:b]
    dv_b = dep_valid[a:b]
    local_dep = dv_b & (dsrc_b >= a)
    ext_dep = dv_b & (dsrc_b < a)
    s_ext = np.full((n_cfg, w), _MIN, dtype=np.int64)
    if ext_dep.any():
        s_ext[:, ext_dep] = fin[:, dsrc_b[ext_dep]]
    rsrc = np.arange(a, b, dtype=np.int64) - rob
    rob_ext = (rsrc >= 0) & (rsrc < a)
    if rob_ext.any():
        s_ext[:, rob_ext] = np.maximum(s_ext[:, rob_ext],
                                       fin[:, rsrc[rob_ext]])
    rob_local = rsrc >= a
    rob_lsrc = rsrc[rob_local] - a
    ldep_src = np.where(local_dep, dsrc_b - a, 0)
    have_local_dep = bool(local_dep.any())

    # Data misses: bus-ready times and MSHR ring geometry.
    mloc = np.flatnonzero(data_miss[a:b])
    n_miss = len(mloc)
    if n_miss:
        bus = line_count[a:b][mloc] * line_size * tpb - mem_lat  # (C,K)
        off = state.miss_seen % MSHRS
        total_miss = off + n_miss
        mshr_rows = -(-total_miss // MSHRS)
        cols = np.arange(MSHRS)
        first_idx = np.where(cols >= off, cols, cols + MSHRS)
        seed_cols = cols[first_idx - off < n_miss]
        seed_rows = (seed_cols < off).astype(np.int64)
        row_lat = (np.arange(mshr_rows, dtype=np.int64)[None, :, None]
                   * mem_lat[:, :, None])

    # Dep-forest geometry (shared across configs and passes). The
    # forest is decomposed into *contiguous runs* (dep distance 1 —
    # the vast majority on interpreter traces) stitched together by
    # sparse non-contiguous edges grouped into dependency levels, so
    # every chain computation below is one prefix scan plus a handful
    # of small batched gathers instead of log-depth pointer doubling
    # over the whole block. Doubling survives as the fallback for
    # adversarial forests.
    loc_idx = np.arange(w, dtype=np.int64)
    parent = np.where(local_dep, dsrc_b - a, loc_idx)
    jumps = [parent]

    def _extend_jumps(depth=None):
        """Grow the pointer-doubling tables to ``depth`` (or to root)."""
        while depth is None or len(jumps) < depth:
            nxt = np.take(jumps[-1], jumps[-1])
            if np.array_equal(nxt, jumps[-1]):
                return
            jumps.append(nxt)

    dep_weight = None

    def dep_closure(f):
        """Exact max-plus closure by pointer doubling (fallback path)."""
        nonlocal dep_weight
        _extend_jumps()
        if dep_weight is None:
            dep_weight = np.where(local_dep, lat, 0)
        weight = dep_weight
        for jump in jumps:
            f = np.maximum(f, np.take(f, jump, axis=1) + weight)
            weight = weight + np.take(weight, jump, axis=1)
        return f

    contig = local_dep & (parent == loc_idx - 1)
    is_head = ~contig
    n_heads = int(is_head.sum())
    nc_pos = np.flatnonzero(local_dep & is_head)
    # The segment path needs one python pass over the non-contiguous
    # edges; ``seg_closure`` additionally isolates runs inside a single
    # ``maximum.accumulate`` by offsetting each run by its head rank
    # times ``_BREAK``, so the rank products must stay well inside
    # int64 and every input's span below ``_BREAK`` (checked per call).
    _BREAK = 1 << 50
    use_seg = nc_pos.size <= 4096
    seg_ok = use_seg and (n_heads + 1) * _BREAK < (1 << 61)

    nc_levels = []
    if use_seg:
        seg_head = np.maximum.accumulate(np.where(is_head, loc_idx, 0))
        if nc_pos.size:
            # Level of a non-contiguous head = 1 + level of its
            # source's run head (0 for true roots): all heads on one
            # level chain independently and batch into numpy ops.
            src_head = seg_head[parent[nc_pos]]
            lvl_of: dict[int, int] = {}
            buckets: list[tuple[list, list, list]] = []
            for h, src, sh in zip(nc_pos.tolist(),
                                  parent[nc_pos].tolist(),
                                  src_head.tolist()):
                lv = lvl_of.get(sh, 0)
                lvl_of[h] = lv + 1
                if lv == len(buckets):
                    buckets.append(([], [], []))
                buckets[lv][0].append(h)
                buckets[lv][1].append(src)
                buckets[lv][2].append(sh)
            nc_levels = [tuple(np.array(c, dtype=np.int64) for c in b3)
                         for b3 in buckets]

        # Dep-path latency P (root-exclusive, self-inclusive prefix of
        # ``lat`` along each dep path): prefix sums within runs, head
        # values chained through the non-contiguous edges level by
        # level — exact for any nesting depth, no sentinels involved.
        cs = np.cumsum(np.where(contig, lat, 0), axis=1)
        cs_head = np.take(cs, seg_head, axis=1)
        headP = np.zeros((n_cfg, w), dtype=np.int64)
        for h_arr, src_arr, sh_arr in nc_levels:
            headP[:, h_arr] = (headP[:, sh_arr] + cs[:, src_arr]
                               - cs[:, sh_arr] + lat[:, h_arr])
        path_lat = np.take(headP, seg_head, axis=1) + cs - cs_head
        del headP
    else:
        _extend_jumps()
        path_lat = np.where(local_dep, lat, 0)
        for jump in jumps:
            path_lat = path_lat + np.take(path_lat, jump, axis=1)

    if seg_ok:
        rank_big = np.cumsum(is_head) * _BREAK

    def seg_closure(g):
        """Max of ``g`` over each position's dep ancestors (and self).

        One rank-offset running maximum closes every contiguous run
        (a value leaking across a run boundary loses at least
        ``_BREAK - span`` and lands strictly below every true
        candidate), then the sparse head chains fold in level by
        level. Exact for any nesting depth; callers guarantee the
        span bound.
        """
        acc = g + rank_big
        np.maximum.accumulate(acc, axis=1, out=acc)
        acc -= rank_big
        if nc_levels:
            head_max = np.full((n_cfg, w), _MIN, dtype=np.int64)
            for h_arr, src_arr, sh_arr in nc_levels:
                head_max[:, h_arr] = np.maximum(acc[:, src_arr],
                                                head_max[:, sh_arr])
            np.maximum(acc, np.take(head_max, seg_head, axis=1),
                       out=acc)
        return acc

    def pass_closure(f):
        """Exact dep closure of the per-pass start+latency values.

        ``closure(f)_i = max_j (f_j + P_i - P_j)`` over ancestors
        ``j``, so subtracting P turns it into a plain ancestor max.
        """
        if not seg_ok:
            return dep_closure(f)
        gg = f - path_lat
        mn = int(gg.min())
        if int(gg.max()) - mn >= _BREAK:
            return dep_closure(f)
        gg -= mn
        out = seg_closure(gg)
        out += path_lat
        out += mn
        return out

    # Constant (estimate-independent) finish-time lower bounds, pushed
    # through the dep forest once per block:
    #
    # * ``c_const``: finishes forced by previous blocks (external dep /
    #   ROB sources) and by the bus envelope, plus the dep chains
    #   hanging off them;
    # * ``c_front``: the finish each instruction reaches if some dep
    #   ancestor issues straight off the front end — the *front base*
    #   (``max(carried front, in-block restarts)``) still has to be
    #   added, which is what the restart solver below does.
    #
    # Seeding the relaxation at these bounds (and solving restart
    # chains exactly inside each pass) keeps the pass count a small
    # constant instead of one pass per mispredict "generation".
    k_gain = ebc + lat - path_lat
    if seg_ok and int(k_gain.max()) - int(k_gain.min()) < _BREAK:
        c_front = path_lat + seg_closure(k_gain)
    else:
        c_front = dep_closure(ebc + lat)

    g0 = np.full((n_cfg, w), _MIN, dtype=np.int64)
    ext_any = ext_dep | rob_ext
    has_ext = bool(ext_any.any())
    if has_ext:
        g0[:, ext_any] = s_ext[:, ext_any] + lat[:, ext_any]
    if n_miss:
        g0[:, mloc] = np.maximum(g0[:, mloc], bus + lat[:, mloc])
    if not (has_ext or n_miss):
        c_const = g0
    else:
        # Seed values are absolute times; rebase by a conservative
        # floor of the real (non-sentinel) entries so the span check
        # only sees the real spread. Sentinels stay ~``_MIN`` and any
        # cross-run leakage lands below zero, which the seed's final
        # ``max(..., 0)`` washes out.
        gg0 = g0 - path_lat
        lo = -int(mem_lat.max()) - int(path_lat.max())
        if seg_ok and int(gg0.max()) - lo < _BREAK:
            gg0 -= lo
            c_const = seg_closure(gg0) + path_lat
            c_const += lo
        else:
            c_const = dep_closure(g0)

    # Restart-chain solver. On the subsequence of mispredicted
    # branches (positions ``p_0 < p_1 < ...``), the restart value
    # ``rf_m = fin_m + penalty - pd_m`` of branch ``m`` is reached
    # through some dep ancestor ``j`` that issued off the front end:
    #
    #   rf_m >= (excl_j + bubble_j + lat_j - P_j) + P_m
    #           + penalty - pd_m + max(front_base, R_j)
    #
    # where ``P`` is the dep-path latency from the forest root and
    # ``R_j`` the strongest restart issued before ``j``. On real traces
    # the binding anchor sits just *after* the previous mispredict (the
    # restart bumps the front above the dep chain), so ``R_j`` is the
    # previous branch's own restart and the whole subsystem is the
    # max-plus recurrence ``v_m = max(base_m, v_{m-1} + K_m)`` with
    #
    #   K_m = max{ k_j : j in ancestors(p_m), j > p_{m-1} }
    #         + P_m + penalty - pd_m,   k_j = (excl+bubble+lat-P)_j,
    #
    # solved *exactly* by one cumsum + running maximum. The
    # range-restricted ancestor maximum is a binary-lifting query over
    # the same ``jumps`` tables the dep closure uses (positions strictly
    # decrease along a dep path, so "ancestor above the previous
    # mispredict" is a monotone predicate). Anchors older than the
    # previous mispredict are covered by the all-ancestor bound
    # ``c_front`` (with the restart count at the forest root) and by the
    # estimate floor.
    misp_cols = np.flatnonzero(misp[a:b])
    n_misp = len(misp_cols)
    if n_misp:
        # Anchor gain k_j = (excl + bubble + lat - P)_j — the same
        # array that seeds ``c_front``.
        anchor_gain = k_gain

        # Per mispredict, the strongest anchor strictly above the
        # previous mispredicted position (the branch itself counts).
        thr = np.empty(n_misp, dtype=np.int64)
        thr[0] = -1
        thr[1:] = misp_cols[:-1]

        # Binary-lifting tables — lift[d][:, i] is the max anchor gain
        # over ``i`` and its next ``2**d - 1`` dep ancestors — built
        # only as deep as the widest query window needs (ancestor hops
        # never exceed the position distance to the threshold).
        max_win = int((misp_cols - thr).max())
        _extend_jumps(max(1, max_win.bit_length()))
        n_lift = min(len(jumps), max(1, max_win.bit_length()))
        lift = [anchor_gain]
        for jump in jumps[:n_lift - 1]:
            lift.append(np.maximum(lift[-1],
                                   np.take(lift[-1], jump, axis=1)))

        cur = misp_cols.copy()
        anchor_max = np.full((n_cfg, n_misp), _MIN, dtype=np.int64)
        for d in range(n_lift - 1, -1, -1):
            nxt = jumps[d][cur]
            take = nxt > thr
            if take.any():
                tc = cur[take]
                anchor_max[:, take] = np.maximum(anchor_max[:, take],
                                                 lift[d][:, tc])
                cur[take] = nxt[take]
        anchor_max = np.maximum(anchor_max, anchor_gain[:, cur])
        del lift

        if use_seg:
            head_root = loc_idx.copy()
            for h_arr, _src_arr, sh_arr in nc_levels:
                head_root[h_arr] = head_root[sh_arr]
            root_at_misp = head_root[seg_head[misp_cols]]
        else:
            _extend_jumps()
            root_at_misp = jumps[-1][misp_cols]
        misp_before_root = np.searchsorted(misp_cols, root_at_misp)
        pen_less_pd = penalty - pd[:, misp_cols]
        restart_root = c_front[:, misp_cols] + pen_less_pd
        chain_offset = anchor_max + path_lat[:, misp_cols] + pen_less_pd
        chain_sum = np.cumsum(chain_offset, axis=1)
        has_root_anchor = bool((misp_before_root > 0).any())

    def solve_restarts(est):
        """Lower-bound fixed point of the mispredict restart chain."""
        floor = est[:, misp_cols] + pen_less_pd
        base = np.maximum(floor, restart_root + state.front)
        v = None
        for _ in range(n_misp + 2):
            # Exact solution of v_m = max(base_m, v_{m-1} + K_m).
            running = (np.maximum.accumulate(base - chain_sum, axis=1)
                       + chain_sum)
            if not has_root_anchor:
                return running
            # Cross-chain anchors at the forest root: restarts issued
            # before the root raise the front the whole chain rides on.
            acc = np.maximum.accumulate(running, axis=1)
            at_root = np.where(
                misp_before_root > 0,
                acc[:, np.maximum(misp_before_root - 1, 0)], _MIN)
            v_new = np.maximum(
                running,
                restart_root + np.maximum(state.front, at_root))
            if v is not None and np.array_equal(v_new, v):
                return v
            v = v_new
            np.maximum(base, v, out=base)
        raise ReproError(
            "restart chain failed to converge")  # pragma: no cover

    # Fixed-point relaxation --------------------------------------------
    # The in-block ROB constraints start disabled: at realistic ROB
    # sizes they bind on a fraction of a percent of instructions, so
    # the common case converges without them and a single vectorized
    # check proves the solution already satisfies them (the relaxed
    # fixed point is then the true one). Only on a violation do they
    # switch on and the relaxation continue.
    est = np.maximum(c_const, c_front + state.front)
    np.maximum(est, 0, out=est)
    rob_active = False
    miss_starts = None
    passes = 0
    for _ in range(2 * (w + 2)):
        passes += 1
        # 1) Front end with mispredict restarts (solved on the
        #    mispredict subsequence, then scanned over the block).
        if n_misp:
            radj = np.full((n_cfg, w), _MIN, dtype=np.int64)
            radj[:, misp_cols] = solve_restarts(est)
            acc = np.maximum.accumulate(radj, axis=1)
            shifted = np.empty_like(acc)
            shifted[:, 0] = _MIN
            shifted[:, 1:] = acc[:, :-1]
            s = ebc + np.maximum(state.front, shifted)
        else:
            s = ebc + state.front
        # 2) Dep/ROB constraints: final (previous blocks) and estimated.
        s = np.maximum(s, s_ext)
        if have_local_dep:
            np.maximum(s, np.where(local_dep,
                                   np.take(est, ldep_src, axis=1),
                                   _MIN), out=s)
        if rob_active and rob_lsrc.size:
            s[:, rob_local] = np.maximum(s[:, rob_local],
                                         est[:, rob_lsrc])
        # 3) Bus envelope + MSHR window on the miss subsequence.
        if n_miss:
            sm = np.maximum(s[:, mloc], bus)
            padded = np.full((n_cfg, mshr_rows * MSHRS), _MIN,
                             dtype=np.int64)
            padded[:, off:off + n_miss] = sm
            grid = padded.reshape(n_cfg, mshr_rows, MSHRS)
            if seed_cols.size:
                grid[:, seed_rows, seed_cols] = np.maximum(
                    grid[:, seed_rows, seed_cols],
                    state.ring[:, seed_cols])
            closed = (np.maximum.accumulate(grid - row_lat, axis=1)
                      + row_lat)
            miss_starts = closed.reshape(
                n_cfg, mshr_rows * MSHRS)[:, off:off + n_miss]
            s[:, mloc] = miss_starts
        # 4) Dep-chain closure (segmented scans, doubling fallback).
        f = pass_closure(s + lat)
        # 5) ROB window closure (stride-rob chains inside the block).
        if rob_active and rob < w:
            f = _stride_closure(f, lat, rob)
        # Force ascent so the iteration climbs monotonically from the
        # seeded lower bound to the least fixed point.
        np.maximum(f, est, out=f)
        if np.array_equal(f, est):
            if rob_active or not rob_lsrc.size:
                break
            violated = (est[:, rob_local]
                        < est[:, rob_lsrc] + lat[:, rob_local])
            if not violated.any():
                break
            rob_active = True
        est = f
    else:
        raise ReproError("OOO relaxation failed to converge "
                         f"(block {a}:{b})")  # pragma: no cover

    if metrics is not None:
        metrics.counter("sim.ooo_vector.blocks").inc()
        metrics.counter("sim.ooo_vector.passes").inc(passes)

    # Commit the block: final times and carried state -------------------
    fin[:, a:b] = est
    state.last_finish = np.maximum(state.last_finish,
                                   est.max(axis=1, keepdims=True))
    radj = np.where(misp_b, est + penalty - pd, _MIN)
    state.front = pd[:, -1:] + np.maximum(
        state.front, radj.max(axis=1, keepdims=True))
    if n_miss:
        cols = np.arange(MSHRS)
        r_last = (off + n_miss - 1 - cols) // MSHRS
        p_last = r_last * MSHRS + cols
        live = (p_last >= off) & (r_last >= 0)
        state.ring[:, cols[live]] = (miss_starts[:, p_last[live] - off]
                                     + mem_lat)
        state.miss_seen += n_miss
