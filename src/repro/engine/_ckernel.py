"""Optional C hot loop for the array-native kernel.

The array kernel (:mod:`repro.engine.arraypath`) keeps all simulation
state in flat, C-contiguous buffers: int64 tag/age arrays per cache
level, a uint8 line-state byte per line address (bit 0 dirty, bits 1-7
the line's L3 way + 1, so an L3 lookup is one load instead of a set
scan), float64 arrival slots for prefetch-staged lines, and small
register blocks for the
bandwidth arbiter and the per-core stride prefetchers. That layout is
deliberately a stable ABI: this module compiles (at first use, with the
system C compiler, via stdlib ``ctypes`` — no third-party build
dependency) a small shared object whose ``run_chunk`` walks the same
buffers natively.

Semantics are a line-for-line port of the reference list kernel
(:class:`repro.engine.fastpath.FastSocket`) with the per-set recency
lists replaced by monotonic age counters (LRU = the first min-age slot,
picked with conditional moves rather than branches; empty slots carry
age 0 and are therefore filled first, in slot order, which reproduces
the list kernel's append-then-evict order exactly). All
floating-point expressions mirror the Python operand order and the
library is built with ``-ffp-contract=off``, so chunk finish times and
arbiter state are bit-identical to the list kernel, not merely close.

If no compiler is available (or ``REPRO_NO_CKERNEL=1``), ``load()``
returns ``None``: simulators then fall back to the list kernel, and the
scheduler to its pure-Python macro step.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sys
import tempfile
from typing import List, Optional

i64 = ctypes.c_longlong

#: Empty-slot tag sentinel. Not -1: staged lines can in principle have
#: negative addresses (descending streams near the address-space origin)
#: and must not collide with the sentinel.
EMPTY_TAG = -(2**63)

C_SOURCE = r"""
#include <stdint.h>

typedef int64_t i64;
typedef unsigned char u8;

#define EMPTY_TAG INT64_MIN

/* All members are 8 bytes wide so the layout has no padding and the
 * ctypes mirror cannot drift. */
typedef struct {
    /* cache state */
    i64 *tags1; i64 *ages1;      /* per-core blocks of blk1 entries */
    i64 *tags2; i64 *ages2;      /* per-core blocks of blk2 entries */
    i64 *tags3; i64 *ages3;      /* shared, n3sets*w3 entries */
    i64 *owner3;                 /* NULL when owner tracking is off */
    double *arrival3;            /* per L3 slot; < 0 means none pending */
    u8  *lstate;                 /* by line address: bit 0 dirty, bits 1-7
                                    L3 way + 1 (0 = not in L3) */
    /* scalar registers: [0]=agec3 [1]=n_pending [2+2c]=agec1 [3+2c]=agec2 */
    i64 *iregs;
    /* arbiter: [0]=hwm [1]=window_start [2]=rho [3]=rho_smooth
     *          [4]=delay [5]=knee [6]=busy_ns */
    double *aregs;
    /* arbiter ints: [0]=window_count [1]=window_demand
     *               [2]=fill_bytes [3]=writeback_bytes */
    i64 *airegs;
    /* prefetcher state, per-core blocks of nstreams entries */
    i64 *pf_sid; i64 *pf_last; i64 *pf_stride; i64 *pf_streak;
    i64 *pf_expected; i64 *pf_order;
    i64 *pf_count;               /* per core */
    i64 *pf_issued;              /* per core */
    /* geometry */
    i64 l1_mask; i64 l2_mask; i64 l3_mask;
    i64 w1; i64 w2; i64 w3;
    i64 blk1; i64 blk2;
    i64 lstate_cap;
    /* timing */
    double l1_ns; double l2_ns; double l3_ns; double pf_ns;
    double service_ns;
    /* arbiter parameters */
    i64 window_fills;
    double min_window_span; double damping; double max_delay_services;
    i64 line_bytes; i64 throttle_wb;
    /* prefetcher parameters */
    i64 pf_enabled; i64 pf_degree; i64 pf_detect_after; i64 pf_nstreams;
} KS;

static double arb_fill(KS *k, double now, int demand)
{
    if (now > k->aregs[0]) k->aregs[0] = now;
    k->airegs[0] += 1;
    if (demand) k->airegs[1] += 1;
    double span = k->aregs[0] - k->aregs[1];
    if (k->airegs[0] >= k->window_fills && span >= k->min_window_span) {
        double n = (double)k->airegs[0];
        k->aregs[2] = n * k->service_ns / span;
        double deficit = n * k->service_ns - span;
        i64 wd = k->airegs[1]; if (wd < 1) wd = 1;
        double correction = deficit / (double)wd;
        double delay = k->aregs[4] + k->damping * correction;
        double max_delay = k->max_delay_services * k->service_ns;
        if (delay < 0.0) delay = 0.0;
        if (delay > max_delay) delay = max_delay;
        k->aregs[4] = delay;
        k->aregs[3] += 0.3 * (k->aregs[2] - k->aregs[3]);
        double rho_k = k->aregs[3] < 0.97 ? k->aregs[3] : 0.97;
        double target = k->service_ns * rho_k * rho_k / (1.0 - rho_k);
        k->aregs[5] += 0.25 * (target - k->aregs[5]);
        k->aregs[1] = k->aregs[0];
        k->airegs[0] = 0;
        k->airegs[1] = 0;
    }
    k->aregs[6] += k->service_ns;
    k->airegs[2] += k->line_bytes;
    return k->aregs[4] + k->aregs[5];
}

static void arb_wb(KS *k, double now)
{
    k->airegs[3] += k->line_bytes;
    if (k->throttle_wb) {
        if (now > k->aregs[0]) k->aregs[0] = now;
        k->airegs[0] += 1;
        k->aregs[6] += k->service_ns;
    }
}

/* Stride-stream detector; mirrors StridePrefetcher.observe_miss.
 * Returns the number of lines to stage (0 or degree) and writes the
 * stride. The stream table keeps dict insertion order: eviction pops
 * the oldest-inserted tracker, exactly like the Python dict pop. */
static i64 pf_observe(KS *k, i64 core, i64 a, i64 sid, i64 *stride_out)
{
    if (!k->pf_enabled || k->pf_degree == 0) return 0;
    i64 ns = k->pf_nstreams;
    i64 *sids = k->pf_sid + core * ns;
    i64 *last = k->pf_last + core * ns;
    i64 *strd = k->pf_stride + core * ns;
    i64 *strk = k->pf_streak + core * ns;
    i64 *expd = k->pf_expected + core * ns;
    i64 *order = k->pf_order + core * ns;
    i64 cnt = k->pf_count[core];
    i64 slot = -1;
    for (i64 i = 0; i < cnt; i++) {
        if (sids[order[i]] == sid) { slot = order[i]; break; }
    }
    if (slot < 0) {
        if (cnt >= ns) {
            slot = order[0];
            for (i64 i = 1; i < cnt; i++) order[i - 1] = order[i];
            cnt -= 1;
        } else {
            slot = cnt;  /* before first eviction, used slots are 0..cnt-1 */
        }
        order[cnt] = slot;
        k->pf_count[core] = cnt + 1;
        sids[slot] = sid;
        last[slot] = -1;
        strd[slot] = 0;
        strk[slot] = 0;
        expd[slot] = -1;
    }
    i64 degree = k->pf_degree;
    if (expd[slot] == a) {
        last[slot] = a;
        expd[slot] = a + (degree + 1) * strd[slot];
        k->pf_issued[core] += 1;
        *stride_out = strd[slot];
        return degree;
    }
    i64 stride = (last[slot] >= 0) ? (a - last[slot]) : 0;
    if (stride == 0) strk[slot] = 0;
    else if (stride == strd[slot]) strk[slot] += 1;
    else strk[slot] = 1;
    strd[slot] = stride;
    last[slot] = a;
    if (stride != 0 && strk[slot] >= k->pf_detect_after) {
        expd[slot] = a + (degree + 1) * stride;
        k->pf_issued[core] += 1;
        *stride_out = stride;
        return degree;
    }
    expd[slot] = -1;
    return 0;
}

/* LRU victim of the set at b: the first min-age slot. The conditional
 * moves keep the scan free of data-dependent branches (random ages
 * mispredict a compare-and-branch); strict < keeps the first slot on
 * ties, so empty slots (age 0) still fill in slot order. */
static inline i64 lru_victim(const i64 *ages, i64 b, i64 w)
{
    i64 vs = b, va = ages[b];
    for (i64 j = 1; j < w; j++) {
        i64 x = ages[b + j];
        int lt = x < va;
        va = lt ? x : va;
        vs = lt ? b + j : vs;
    }
    return vs;
}

/* L3 way of line a, or -1: O(1) through the line-state byte when a is
 * inside the table, a set scan otherwise (out-of-range prefetch
 * candidates only). */
static inline i64 l3_way(const i64 *tags3, const u8 *ls, i64 cap,
                         i64 a, i64 b3, i64 w3)
{
    if (a >= 0 && a < cap) return (i64)(ls[a] >> 1) - 1;
    for (i64 j = 0; j < w3; j++)
        if (tags3[b3 + j] == a) return j;
    return -1;
}

/* Evict the L3 slot vs to make room: pop its pending arrival, write it
 * back if dirty, and clear its line-state byte. */
static inline void l3_evict(KS *k, i64 vs, u8 *ls, i64 cap, double t,
                            i64 *nwb)
{
    i64 v = k->tags3[vs];
    if (v == EMPTY_TAG) return;
    if (k->arrival3[vs] >= 0.0) { k->arrival3[vs] = -1.0; k->iregs[1] -= 1; }
    if (v >= 0 && v < cap) {
        if (ls[v] & 1) {
            arb_wb(k, t);
            *nwb += 1;
        }
        ls[v] = 0;
    }
}

double run_chunk(KS *k, i64 core, const i64 *lines, i64 n,
                 i64 is_write, i64 pf_on, i64 sid,
                 double ops_ns, double dram_ns, double t, i64 *out)
{
    i64 *tags1 = k->tags1 + core * k->blk1;
    i64 *ages1 = k->ages1 + core * k->blk1;
    i64 *tags2 = k->tags2 + core * k->blk2;
    i64 *ages2 = k->ages2 + core * k->blk2;
    i64 *tags3 = k->tags3, *ages3 = k->ages3, *owner3 = k->owner3;
    double *arr3 = k->arrival3;
    u8 *ls = k->lstate;
    i64 cap = k->lstate_cap;
    i64 m1 = k->l1_mask, m2 = k->l2_mask, m3 = k->l3_mask;
    i64 w1 = k->w1, w2 = k->w2, w3 = k->w3;
    double l1_ns = k->l1_ns, l2_ns = k->l2_ns, l3_ns = k->l3_ns;
    double pf_ns = k->pf_ns, service_ns = k->service_ns;
    i64 *agec1 = &k->iregs[2 + 2 * core];
    i64 *agec2 = &k->iregs[3 + 2 * core];
    i64 *agec3 = &k->iregs[0];
    i64 *npend = &k->iregs[1];
    i64 n1 = 0, n2 = 0, n3 = 0, npf = 0, nmiss = 0, npfill = 0, nwb = 0;
    int w = (int)is_write;

    /* Demand lines are always inside the line-state table (the Python
     * side grows it before each chunk or block), so their L3 way is one
     * byte load away. */
    for (i64 i = 0; i < n; i++) {
        i64 a = lines[i];
        t += ops_ns;
        i64 b1 = (a & m1) * w1;
        i64 h1 = -1;
        for (i64 j = 0; j < w1; j++)
            if (tags1[b1 + j] == a) { h1 = j; break; }
        if (h1 >= 0) {
            t += l1_ns;
            n1 += 1;
            ages1[b1 + h1] = ++(*agec1);
            if (w) ls[a] |= 1;
            /* hit-streak fast path: a run of accesses to the same line
             * stays an L1 MRU hit with no state change; charge the run
             * with the same per-access float adds, skipping the probes. */
            while (i + 1 < n && lines[i + 1] == a) {
                i += 1;
                t += ops_ns;
                t += l1_ns;
                n1 += 1;
            }
            continue;
        }
        i64 b2 = (a & m2) * w2;
        i64 h2 = -1;
        for (i64 j = 0; j < w2; j++)
            if (tags2[b2 + j] == a) { h2 = j; break; }
        if (h2 >= 0) {
            t += l2_ns;
            n2 += 1;
            i64 h3 = (i64)(ls[a] >> 1) - 1;
            if (*npend > 0 && h3 >= 0) {
                /* A pending staged line is always still L3-resident
                 * (eviction pops its arrival), so the L3 slot holds
                 * exactly the dict entry of the list kernel. */
                i64 s3 = (a & m3) * w3 + h3;
                double arr = arr3[s3];
                if (arr >= 0.0) {
                    arr3[s3] = -1.0;
                    *npend -= 1;
                    npf += 1;
                    n2 -= 1;
                    if (arr > t) t = arr;
                }
            }
            ages2[b2 + h2] = ++(*agec2);
        } else {
            i64 b3 = (a & m3) * w3;
            i64 h3 = (i64)(ls[a] >> 1) - 1;
            if (h3 >= 0) {
                double arr = (*npend > 0) ? arr3[b3 + h3] : -1.0;
                if (arr >= 0.0) {
                    arr3[b3 + h3] = -1.0;
                    *npend -= 1;
                    t += pf_ns;
                    if (arr > t) t = arr;
                    npf += 1;
                } else {
                    t += l3_ns;
                    n3 += 1;
                }
                ages3[b3 + h3] = ++(*agec3);
                if (owner3) owner3[b3 + h3] = core;
            } else {
                /* demand miss: stall for DRAM + link queueing */
                nmiss += 1;
                t += dram_ns + arb_fill(k, t, 1);
                i64 vs = lru_victim(ages3, b3, w3);
                l3_evict(k, vs, ls, cap, t, &nwb);
                tags3[vs] = a;
                ages3[vs] = ++(*agec3);
                arr3[vs] = -1.0;
                if (owner3) owner3[vs] = core;
                ls[a] = (u8)(((vs - b3 + 1) << 1) | (w ? (ls[a] & 1) : 0));
            }
            if (pf_on) {
                i64 stride = 0;
                i64 cnt = pf_observe(k, core, a, sid, &stride);
                i64 kf = 0;
                for (i64 q = 1; q <= cnt; q++) {
                    i64 p = a + stride * q;
                    i64 bp = (p & m3) * w3;
                    if (l3_way(tags3, ls, cap, p, bp, w3) < 0) {
                        double delay = arb_fill(k, t, 0);
                        kf += 1;
                        npfill += 1;
                        i64 vs = lru_victim(ages3, bp, w3);
                        l3_evict(k, vs, ls, cap, t, &nwb);
                        tags3[vs] = p;
                        ages3[vs] = ++(*agec3);
                        arr3[vs] = t + dram_ns + delay + (double)kf * service_ns;
                        *npend += 1;
                        if (owner3) owner3[vs] = core;
                        if (p >= 0 && p < cap)
                            ls[p] = (u8)((ls[p] & 1) | ((vs - bp + 1) << 1));
                    }
                    i64 bp2 = (p & m2) * w2;
                    i64 hq = -1;
                    for (i64 j = 0; j < w2; j++)
                        if (tags2[bp2 + j] == p) { hq = j; break; }
                    if (hq < 0) {
                        i64 vs = lru_victim(ages2, bp2, w2);
                        tags2[vs] = p;
                        ages2[vs] = ++(*agec2);
                    }
                }
            }
            /* fill L2 (silent private eviction) */
            {
                i64 vs = lru_victim(ages2, b2, w2);
                tags2[vs] = a;
                ages2[vs] = ++(*agec2);
            }
        }
        /* fill L1 */
        {
            i64 vs = lru_victim(ages1, b1, w1);
            tags1[vs] = a;
            ages1[vs] = ++(*agec1);
        }
        if (w) ls[a] |= 1;
        /* hit-streak after a fill: the line is now L1-MRU */
        while (i + 1 < n && lines[i + 1] == a) {
            i += 1;
            t += ops_ns;
            t += l1_ns;
            n1 += 1;
        }
    }
    out[0] = n1; out[1] = n2; out[2] = n3; out[3] = npf;
    out[4] = nmiss; out[5] = npfill; out[6] = nwb;
    return t;
}

/* Macro-stepped multicore scheduler state (see repro.engine.blockq for
 * the queue layout and repro.engine.scheduler for the contract). All
 * members are 8 bytes wide, like KS, so the ctypes mirror cannot drift.
 * Per-slot arrays are indexed in roster order (CoreStates sorted by
 * core_id), which is exactly the min-scan tie-break order. */
typedef struct {
    i64 *core_ids;   /* [n] physical core per roster slot */
    double *clock;   /* [n] per-core simulated clocks */
    i64 *accesses;   /* [n] lifetime access counts */
    i64 *flags;      /* [n] bit0 done, bit1 main, bit2 exhausted */
    double *finish;  /* [n] completion time, valid once done */
    i64 *goal;       /* [n] absolute access count that ends the window's
                        budget for this main; -1 = no budget */
    i64 *head;       /* [n] next chunk to consume per slot */
    i64 *count;      /* [n] chunks queued per slot */
    i64 *qlines;     /* [n][line_cap] packed chunk line addresses */
    i64 *qoff; i64 *qlen; i64 *qwrite; i64 *qops;   /* [n][chunk_cap] */
    i64 *qsid; i64 *qser; i64 *qpf;                 /* [n][chunk_cap] */
    double *qextra;                                 /* [n][chunk_cap] */
    i64 *cnt;        /* [n][9] int event-counter accumulators:
                        accesses,l1,l2,l3,pf_hits,miss,pf_fills,wb,ops */
    double *fcnt;    /* [n][4] float accumulators:
                        compute_ns,offsocket_ns,stall_ns,elapsed_ns */
    i64 n; i64 chunk_cap; i64 line_cap;
    double ns_per_op; double dram_mlp_ns; double dram_serial_ns;
    i64 max_total;   /* safety limit (pre-dispatch check) */
    i64 total;       /* in/out: accesses dispatched this window */
    i64 active_mains;/* in/out */
    i64 event;       /* out: the slot that caused status 1 or 2 */
} SCH;

/* Min-clock interleave over the queued blocks: repeatedly select the
 * least-advanced non-done slot (strict <, first slot wins ties — the
 * exact tie-break of the Python chunk loop) and execute its next queued
 * chunk via run_chunk. Float accumulation mirrors the Python wrapper's
 * per-chunk `+=` order exactly, so flushing fcnt back over the live
 * CoreCounters is bit-identical to having run chunk-at-a-time.
 *
 * Returns: 0 = window complete (no active mains left)
 *          1 = the selected slot's queue is empty and it is not
 *              exhausted (event = slot; caller refills and re-enters)
 *          2 = dispatching the selected slot's next chunk would cross
 *              max_total (event = slot; caller raises)
 *          3 = max_steps chunks consumed (caller just re-enters)      */
i64 sched_step(KS *k, SCH *s, i64 max_steps, i64 *out)
{
    i64 n = s->n, cc = s->chunk_cap, lc = s->line_cap;
    i64 steps = 0;
    while (s->active_mains > 0) {
        if (steps >= max_steps) return 3;
        i64 best = -1;
        double best_clock = 0.0;
        for (i64 i = 0; i < n; i++) {
            if (s->flags[i] & 1) continue;
            if (best < 0 || s->clock[i] < best_clock) {
                best = i;
                best_clock = s->clock[i];
            }
        }
        /* active_mains > 0 guarantees a runnable slot exists */
        if (s->head[best] >= s->count[best]) {
            if (!(s->flags[best] & 4)) { s->event = best; return 1; }
            /* drained and exhausted: the thread completes here, at the
             * clock it would have been selected — same instant the
             * chunk loop sees the generator end. */
            s->flags[best] |= 1;
            s->finish[best] = s->clock[best];
            if (s->flags[best] & 2) s->active_mains -= 1;
            steps += 1;
            continue;
        }
        i64 c = best * cc + s->head[best];
        i64 len = s->qlen[c];
        if (s->total + len > s->max_total) { s->event = best; return 2; }
        double ops_ns = (double)s->qops[c] * s->ns_per_op;
        double dram = s->qser[c] ? s->dram_serial_ns : s->dram_mlp_ns;
        double extra = s->qextra[c];
        double now = s->clock[best];
        double t = run_chunk(k, s->core_ids[best],
                             s->qlines + best * lc + s->qoff[c], len,
                             s->qwrite[c], s->qpf[c], s->qsid[c],
                             ops_ns, dram, now + extra, out);
        i64 *cn = s->cnt + best * 9;
        cn[0] += len;
        cn[1] += out[0]; cn[2] += out[1]; cn[3] += out[2]; cn[4] += out[3];
        cn[5] += out[4]; cn[6] += out[5]; cn[7] += out[6];
        cn[8] += len * s->qops[c];
        double *fc = s->fcnt + best * 4;
        fc[0] += (double)len * ops_ns;
        fc[1] += extra;
        fc[2] += (t - now) - (double)len * ops_ns - extra;
        fc[3] += t - now;
        s->clock[best] = t;
        s->accesses[best] += len;
        s->total += len;
        s->head[best] += 1;
        steps += 1;
        if ((s->flags[best] & 2) && s->goal[best] >= 0
            && s->accesses[best] >= s->goal[best]) {
            s->flags[best] |= 1;
            s->finish[best] = t;
            s->active_mains -= 1;
        }
    }
    return 0;
}

/* Set-sampled LRU batch for SampledL3: flat tag/age arrays over the
 * sampled sets only (compact index = full set index >> sample_shift).
 * Lines must be pre-filtered to the sampled population. Returns hits. */
i64 lru_sampled(i64 *tags, i64 *ages, i64 *agec, i64 ways,
                i64 set_mask, i64 sample_shift,
                const i64 *lines, i64 n)
{
    i64 hits = 0;
    for (i64 i = 0; i < n; i++) {
        i64 a = lines[i];
        i64 b = ((a & set_mask) >> sample_shift) * ways;
        i64 h = -1;
        for (i64 j = 0; j < ways; j++)
            if (tags[b + j] == a) { h = j; break; }
        if (h >= 0) {
            hits += 1;
            ages[b + h] = ++(*agec);
        } else {
            i64 vs = lru_victim(ages, b, ways);
            tags[vs] = a;
            ages[vs] = ++(*agec);
        }
    }
    return hits;
}
"""


class KStruct(ctypes.Structure):
    """ctypes mirror of the C ``KS`` struct (all members 8 bytes)."""

    _fields_ = [
        ("tags1", ctypes.c_void_p), ("ages1", ctypes.c_void_p),
        ("tags2", ctypes.c_void_p), ("ages2", ctypes.c_void_p),
        ("tags3", ctypes.c_void_p), ("ages3", ctypes.c_void_p),
        ("owner3", ctypes.c_void_p),
        ("arrival3", ctypes.c_void_p),
        ("lstate", ctypes.c_void_p),
        ("iregs", ctypes.c_void_p),
        ("aregs", ctypes.c_void_p),
        ("airegs", ctypes.c_void_p),
        ("pf_sid", ctypes.c_void_p), ("pf_last", ctypes.c_void_p),
        ("pf_stride", ctypes.c_void_p), ("pf_streak", ctypes.c_void_p),
        ("pf_expected", ctypes.c_void_p), ("pf_order", ctypes.c_void_p),
        ("pf_count", ctypes.c_void_p), ("pf_issued", ctypes.c_void_p),
        ("l1_mask", i64), ("l2_mask", i64), ("l3_mask", i64),
        ("w1", i64), ("w2", i64), ("w3", i64),
        ("blk1", i64), ("blk2", i64),
        ("lstate_cap", i64),
        ("l1_ns", ctypes.c_double), ("l2_ns", ctypes.c_double),
        ("l3_ns", ctypes.c_double), ("pf_ns", ctypes.c_double),
        ("service_ns", ctypes.c_double),
        ("window_fills", i64),
        ("min_window_span", ctypes.c_double),
        ("damping", ctypes.c_double),
        ("max_delay_services", ctypes.c_double),
        ("line_bytes", i64), ("throttle_wb", i64),
        ("pf_enabled", i64), ("pf_degree", i64),
        ("pf_detect_after", i64), ("pf_nstreams", i64),
    ]


class SCHStruct(ctypes.Structure):
    """ctypes mirror of the C ``SCH`` struct (all members 8 bytes)."""

    _fields_ = [
        ("core_ids", ctypes.c_void_p),
        ("clock", ctypes.c_void_p),
        ("accesses", ctypes.c_void_p),
        ("flags", ctypes.c_void_p),
        ("finish", ctypes.c_void_p),
        ("goal", ctypes.c_void_p),
        ("head", ctypes.c_void_p),
        ("count", ctypes.c_void_p),
        ("qlines", ctypes.c_void_p),
        ("qoff", ctypes.c_void_p), ("qlen", ctypes.c_void_p),
        ("qwrite", ctypes.c_void_p), ("qops", ctypes.c_void_p),
        ("qsid", ctypes.c_void_p), ("qser", ctypes.c_void_p),
        ("qpf", ctypes.c_void_p),
        ("qextra", ctypes.c_void_p),
        ("cnt", ctypes.c_void_p),
        ("fcnt", ctypes.c_void_p),
        ("n", i64), ("chunk_cap", i64), ("line_cap", i64),
        ("ns_per_op", ctypes.c_double),
        ("dram_mlp_ns", ctypes.c_double),
        ("dram_serial_ns", ctypes.c_double),
        ("max_total", i64),
        ("total", i64),
        ("active_mains", i64),
        ("event", i64),
    ]


#: ``SCH.flags`` bits, shared with the pure-Python macro step.
F_DONE, F_MAIN, F_EXHAUSTED = 1, 2, 4

#: ``sched_step`` return codes.
STEP_DONE, STEP_REFILL, STEP_LIMIT, STEP_MAXSTEPS = 0, 1, 2, 3

def _cache_dir() -> str:
    root = os.environ.get("REPRO_CKERNEL_CACHE")
    if not root:
        base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
            os.path.expanduser("~"), ".cache"
        )
        root = os.path.join(base, "repro-ckernel")
    return root


def _find_cc() -> Optional[str]:
    """Resolved path of the first C compiler found (``$CC`` first)."""
    import shutil

    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        path = cand and shutil.which(cand)
        if path:
            return path
    return None


def _compile_cmd(cc: str, src: str, out: str) -> List[str]:
    # -ffp-contract=off: no FMA contraction, so every double
    # expression evaluates exactly like the CPython reference.
    return [cc, "-O2", "-fPIC", "-shared", "-ffp-contract=off", src, "-o", out]


def _tag(cc: str) -> str:
    """Cache key of the built library: the source, the compiler and the
    full compile command, so a library built by one compiler or flag
    set is never loaded for another."""
    h = hashlib.sha256(C_SOURCE.encode())
    for part in _compile_cmd(cc, "<src>", "<out>"):
        h.update(b"\0" + part.encode())
    return h.hexdigest()[:16]


def _build(cc: str, cache: str, tag: str) -> Optional[str]:
    lib = os.path.join(cache, f"reprokernel-{tag}.so")
    if os.path.exists(lib):
        return lib
    try:
        os.makedirs(cache, exist_ok=True)
        fd, src = tempfile.mkstemp(suffix=".c", dir=cache)
        with os.fdopen(fd, "w") as f:
            f.write(C_SOURCE)
        tmp = lib + f".tmp{os.getpid()}"
        res = subprocess.run(
            _compile_cmd(cc, src, tmp),
            capture_output=True, text=True, timeout=120, check=False,
        )
        if res.returncode != 0:
            return None
        os.replace(tmp, lib)
        return lib
    except (OSError, subprocess.SubprocessError):
        return None
    finally:
        try:
            os.unlink(src)
        except (OSError, UnboundLocalError):
            pass


_LOADED: Optional[object] = None
_TRIED = False


def load() -> Optional[ctypes.CDLL]:
    """Compile (once, cached by :func:`_tag`) and load the C kernel.

    Returns ``None`` when disabled (``REPRO_NO_CKERNEL=1``), when no C
    compiler is on PATH, or when the build fails for any reason — the
    caller falls back to the list kernel.
    """
    global _LOADED, _TRIED
    if _TRIED:
        return _LOADED  # type: ignore[return-value]
    _TRIED = True
    if os.environ.get("REPRO_NO_CKERNEL"):
        return None
    cc = _find_cc()
    if cc is None:
        return None
    tag = _tag(cc)
    lib_path = _build(cc, _cache_dir(), tag)
    if lib_path is None:
        # Retry in a temp dir (e.g. read-only home).
        lib_path = _build(cc, os.path.join(tempfile.gettempdir(), "repro-ckernel"), tag)
    if lib_path is None:
        return None
    try:
        lib = ctypes.CDLL(lib_path)
    except OSError:
        return None
    lib.run_chunk.restype = ctypes.c_double
    lib.run_chunk.argtypes = [
        ctypes.POINTER(KStruct), i64, ctypes.c_void_p, i64,
        i64, i64, i64,
        ctypes.c_double, ctypes.c_double, ctypes.c_double,
        ctypes.c_void_p,
    ]
    lib.sched_step.restype = i64
    lib.sched_step.argtypes = [
        ctypes.POINTER(KStruct), ctypes.POINTER(SCHStruct), i64,
        ctypes.c_void_p,
    ]
    lib.lru_sampled.restype = i64
    lib.lru_sampled.argtypes = [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, i64,
        i64, i64, ctypes.c_void_p, i64,
    ]
    _LOADED = lib
    return lib


def available() -> bool:
    """True when the compiled kernel can be (or has been) loaded."""
    return load() is not None


if __name__ == "__main__":  # pragma: no cover - manual smoke test
    lib = load()
    print("ckernel:", "loaded" if lib is not None else "unavailable", file=sys.stderr)
