"""Compiled C backend: SPRING's hot kernels as native code via ctypes.

The compiled tier.  It needs only what almost every host already has —
a C compiler — and the standard library: the kernel source below is
compiled to a shared object on first use (cached on disk, keyed by a
hash of source and flags) and loaded with ``ctypes``.  No third-party
dependency, no build step at install time; when no compiler is present
the registry simply reports the backend unavailable and selection
falls back to numpy.  Banks on a custom local distance have no compiled
fused step: they get the reference bank kernel, still running over this
backend's column update.

**Bit-exactness.**  The C kernels replicate the NumPy min-plus scan of
:func:`repro.core.state.update_columns` operation for operation:

* the vertical/diagonal choice uses ``vertical <= diagonal`` (vertical
  wins ties), false for NaN, exactly like ``np.where(v <= d, ...)``;
* the running prefix minimum takes a new minimum only on strict ``<``
  (earliest argmin on ties = horizontal continuation, Equation 5) and
  adopts NaN exactly when ``np.minimum`` would (first NaN sticks);
* cells where the horizontal run ends keep the exact ``e_i`` rather
  than the round-tripped ``(e_i - C_i) + C_i``, same as the NumPy
  ``np.where(source == indices, e, c_sum + running)``;
* compilation runs with ``-ffp-contract=off`` so no multiply-add is
  fused — an FMA rounds once where NumPy's separate ufuncs round
  twice, which would break bit parity on the cumulative-sum trick;
* local costs for the bank kernel inline the named distances over the
  trailing length-1 axis (``(x-y)**2`` / ``|x-y|``), which is the
  identity reduction NumPy performs for scalar streams.

One deliberate carve-out: when an addition has **two** NaN operands the
IEEE result is "a NaN" with an unspecified payload, and NumPy itself
propagates *different* payloads for the same input depending on array
shape (its SIMD main loops keep one operand's bits, its scalar tails
the other's).  No reimplementation can match that per element, so the
contract is: exact bits for every non-NaN cell, exact NaN *placement*,
NaN payloads unspecified.  This is observationally invisible — every
consumer of ``d`` compares (false for any NaN), confirmed matches are
never NaN, and checkpoints serialise NaN as a payload-less token.  Note
the fused bank path never even produces NaN in ``d``: stream values are
validated finite, so costs and their cumulative sums are finite and
the recurrence stays in ``{finite, +inf}``.

**Speed.**  Straightforward scalar C compiles to compare-and-branch
selects (GCC emits ``comisd``/``jnb`` even for ternaries at ``-O2``),
which the data-dependent tie pattern of the recurrence mispredicts
into ~13 ns/cell.  The bank sweep therefore walks the column dimension
outermost over a *transposed* copy of the query bank and processes two
queries per 128-bit SSE2 vector, expressing every select as a compare
mask plus bitwise blend (``cmple/cmplt/cmpord`` + ``and/andnot/or``)
that never leaves the SIMD domain — branch-free, ~2.5 ns/cell, and
bit-identical because mask blends select operand bits verbatim.  Rows
are swept longest query first, so column ``j`` runs only the prefix of
rows whose query is longer than ``j``: a tick costs the sum of the
stepped queries' lengths, never a padded cell (those keep the
``+inf`` / ``0`` the engine starts them at).  An odd prefix runs its
last row as a pair that stores one lane.  A scalar branch-free form
(`row_sweep_one`, bounded by the row's own length) serves replays and
non-SSE2 targets.

**Pruned batches.**  `spring_extend_pruned` runs the admission cascade
of :mod:`repro.core.admission` inside the extend loop — ring push,
corridor test (flat, or grouped with descent), wake by replay with the
certification tripwire or by deep wake, parking, then the hot-row sweep
and report — making the Python cascade's decisions in its order.  It
reads and advances the cascade's arrays in place through a second
parameter block (the ``_AP_*`` slots) and hands control back after any
grouped tick that changed the parked set, so the group index is rebuilt
before the next tick.

A self-test at load time re-derives a column update on an adversarial
case (ties, infinities, NaN costs, NaN already in ``d``) and compares
*bytes* (after canonicalising NaN payloads) against the NumPy
reference; any mismatch marks the backend unavailable rather than
risking silent drift on an exotic platform.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from time import perf_counter
from typing import List, Optional, Tuple

import numpy as np

from repro.core.backends.base import BankKernel, KernelBackend
from repro.core.matches import Match
from repro.core.state import SpringState, update_columns
from repro.exceptions import ValidationError
from repro.obs import tracing

__all__ = ["CExtBackend", "probe"]

#: Distance-kind codes shared with the C source.
_KIND_CODES = {"squared": 0, "absolute": 1}

# Parameter-block slots (int64 each): constants and array base addresses
# an engine-bound kernel needs.  One block per kernel, built once at
# bind time, so a step call marshals two scalars instead of twenty
# arrays.  Must mirror the PP_* defines in the C source.
_PP_KIND = 0  # 0 squared, 1 absolute
_PP_Q = 1
_PP_MMAX = 2
_PP_Y = 3  # double*  (Q, m_max) query bank
_PP_MLEN = 4  # int64_t* (Q,) true query lengths
_PP_EPS = 5  # double*  (Q,) thresholds
_PP_D = 6  # double*  (Q, m_max+1) distance columns
_PP_S = 7  # int64_t* (Q, m_max+1) start columns
_PP_TICKS = 8  # int64_t* (Q,) applied ticks
_PP_DMIN = 9  # double*  (Q,) held optimum distance
_PP_TS = 10  # int64_t* (Q,) held optimum start
_PP_TE = 11  # int64_t* (Q,) held optimum end
_PP_BEST_D = 12  # double*  (Q,) best-so-far distance
_PP_BEST_S = 13  # int64_t* (Q,) best-so-far start
_PP_BEST_E = 14  # int64_t* (Q,) best-so-far end
_PP_EMIT_CAP = 15
_PP_EMIT_Q = 16  # int64_t* emission ring: query index
_PP_EMIT_D = 17  # double*  emission ring: distance
_PP_EMIT_TS = 18  # int64_t* emission ring: start
_PP_EMIT_TE = 19  # int64_t* emission ring: end
_PP_EMIT_T = 20  # int64_t* emission ring: output time
_PP_SCR_F = 21  # double*  (3, Q+1) column-sweep chain state (csum/running/diag)
_PP_SCR_I = 22  # int64_t* (3, Q+1) column-sweep chain state (src/start/diag_s)
_PP_YT = 23  # double*  (m_max, Q) transposed query bank (vector sweep)
_PP_ORDER = 24  # int64_t* (2, Q+1) sweep order: whole bank, hot-subset scratch
_PP_ACTIVE = 25  # int64_t* (2, m_max+1) rows with >= c cells, same halves
_PP_SLOTS = 26

# Admission-block slots of the pruned extend loop.  Array addresses are
# bound once per cascade (ring and group index again when they are
# replaced); the seven state scalars (_AP_STATE onwards, in
# AdmissionCascade.native_state order) are loaded before each call and
# committed back after it.  Must mirror the AP_* defines in the C source.
_AP_GROUPED = 0  # 0 flat cascade, 1 grouped (tiered) cascade
_AP_RING = 1  # double*  replay ring storage
_AP_CAP = 2  # ring capacity
_AP_PARKED = 3  # bool*    (Q,) parked mask
_AP_PARK_POS = 4  # int64_t* (Q,) ring position each parked row stopped at
_AP_LO = 5  # double*  (Q,) corridor lower bounds
_AP_HI = 6  # double*  (Q,) corridor upper bounds
_AP_SCRATCH = 7  # int64_t* (3Q,) woken rows / hot rows / park positions
_AP_G_COUNT = 8  # groups in the parked index (0: no index)
_AP_G_SIZE = 9  # members per group
_AP_G_MEMBERS = 10  # rows in the index
_AP_G_ROWS = 11  # int64_t* member rows in index order
_AP_G_LO = 12  # double*  per-group merged corridor
_AP_G_HI = 13
_AP_G_EPS = 14  # double*  per-group loosest threshold
_AP_STATE = 15  # in/out: values pushed, parked count, the five counters
_AP_N_EMIT = 22  # out: emissions buffered by the call
_AP_CHANGED = 23  # out: the parked set changed
_AP_VIOLATION = 24  # out: the replay tripwire fired
_AP_SLOTS = 25

_SOURCE = r"""
/* SPRING hot kernels — bit-exact C replication of the NumPy min-plus
 * scan (see repro/core/state.py) plus the fused Figure-4 report logic
 * (see repro/core/fused.py).  Compile with -ffp-contract=off: fused
 * multiply-adds round differently from NumPy's separate ufuncs.
 *
 * All pointers cross the ctypes boundary as int64_t addresses so the
 * Python-side declarations stay uniform on LP64 platforms.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>
#ifdef __SSE2__
#include <emmintrin.h>
#endif

#define PP_KIND 0
#define PP_Q 1
#define PP_MMAX 2
#define PP_Y 3
#define PP_MLEN 4
#define PP_EPS 5
#define PP_D 6
#define PP_S 7
#define PP_TICKS 8
#define PP_DMIN 9
#define PP_TS 10
#define PP_TE 11
#define PP_BEST_D 12
#define PP_BEST_S 13
#define PP_BEST_E 14
#define PP_EMIT_CAP 15
#define PP_EMIT_Q 16
#define PP_EMIT_D 17
#define PP_EMIT_TS 18
#define PP_EMIT_TE 19
#define PP_EMIT_T 20
#define PP_SCR_F 21
#define PP_SCR_I 22
#define PP_YT 23
#define PP_ORDER 24
#define PP_ACTIVE 25

/* Admission block of the pruned extend loop (mirrors the _AP_* slots). */
#define AP_GROUPED 0
#define AP_RING 1
#define AP_CAP 2
#define AP_PARKED 3
#define AP_PARK_POS 4
#define AP_LO 5
#define AP_HI 6
#define AP_SCRATCH 7
#define AP_G_COUNT 8
#define AP_G_SIZE 9
#define AP_G_MEMBERS 10
#define AP_G_ROWS 11
#define AP_G_LO 12
#define AP_G_HI 13
#define AP_G_EPS 14
#define AP_COUNT 15
#define AP_NPARKED 16
#define AP_PRUNED 17
#define AP_REPLAYS 18
#define AP_REPLAYED 19
#define AP_G_CERT 20
#define AP_G_DESC 21
#define AP_N_EMIT 22
#define AP_CHANGED 23
#define AP_VIOLATION 24

#define DPTR(a) ((double *)(intptr_t)(a))
#define IPTR(a) ((int64_t *)(intptr_t)(a))

static double local_cost(int64_t kind, double x, double y) {
    double t = x - y;
    return kind == 0 ? t * t : fabs(t);
}

/* cond-mask ? a : b, branch-free and bit-exact: the selects in the
 * recurrence are data-dependent and unpredictable, so branches cost a
 * mispredict per cell; blending through the integer domain selects the
 * exact bit pattern without ever re-deriving a value.  `m` is all-ones
 * or all-zero (from -(int64_t)(cond)). */
static inline double dsel(int64_t m, double a, double b) {
    uint64_t ua, ub, ur;
    memcpy(&ua, &a, 8);
    memcpy(&ub, &b, 8);
    ur = (ua & (uint64_t)m) | (ub & ~(uint64_t)m);
    memcpy(&a, &ur, 8);
    return a;
}

static inline int64_t isel(int64_t m, int64_t a, int64_t b) {
    return (a & m) | (b & ~m);
}

/* Out-of-place column update for one query row: the exact NumPy
 * update_column(s) semantics.  `dp`/`sp` are the previous column
 * (m+1 cells incl. the star row), `dn`/`sn` the fresh outputs. */
static void row_update(const double *dp, const int64_t *sp,
                       const double *cost, int64_t m, int64_t tick,
                       double *dn, int64_t *sn) {
    dn[0] = 0.0;
    sn[0] = tick + 1;
    double csum = 0.0, running = 0.0;
    int64_t src = 0, start_src = 0;
    for (int64_t j = 0; j < m; j++) {
        double c = cost[j];
        double e;
        int64_t vs;
        if (j == 0) {
            /* e[0] = cost[0], vd_start[0] = tick: the horizontal-first
             * star-row entry always wins row 1. */
            e = c;
            vs = tick;
            csum = c;
            running = e - csum;
            src = 0;
            start_src = vs;
            dn[1] = e; /* src == 0: keep the exact e */
            sn[1] = vs;
            continue;
        }
        double v = dp[j + 1], dg = dp[j];
        /* `v <= dg` is false for NaN, routing NaN to the diagonal
         * operand exactly like np.where(v <= d, v, d). */
        int64_t take_v = -(int64_t)(v <= dg);
        e = c + dsel(take_v, v, dg);
        vs = isel(take_v, sp[j + 1], sp[j]);
        csum += c;
        double g = e - csum;
        /* np.minimum.accumulate: strict < moves the argmin (earliest
         * argmin on ties, Equation 5); a NaN g poisons a finite running
         * minimum (first NaN sticks) without moving it. */
        int64_t new_min = -(int64_t)(g < running);
        int64_t poison = -(int64_t)((running == running) & (g != g));
        running = dsel(new_min | poison, g, running);
        src = isel(new_min, j, src);
        start_src = isel(new_min, vs, start_src);
        /* src == j exactly when this cell became the new minimum */
        dn[j + 1] = dsel(new_min, e, csum + running);
        sn[j + 1] = start_src;
    }
}

/* In-place column update for one query row over its own m_q cells (the
 * padded tail is never touched), the whole recurrence in registers.
 * Used by replays and as the portable fallback of the vector sweep. */
static void row_sweep_one(const int64_t *pp, double x, int64_t qi) {
    int64_t mmax = pp[PP_MMAX];
    int64_t stride = mmax + 1;
    int64_t m = IPTR(pp[PP_MLEN])[qi];
    double *d = DPTR(pp[PP_D]) + qi * stride;
    int64_t *s = IPTR(pp[PP_S]) + qi * stride;
    const double *y = DPTR(pp[PP_Y]) + qi * mmax;
    int64_t kind = pp[PP_KIND];
    int64_t tick = ++IPTR(pp[PP_TICKS])[qi];

    double diag = d[1]; /* previous column's cell 1: j = 1's diagonal */
    int64_t diag_s = s[1];
    d[0] = 0.0;
    s[0] = tick + 1;
    /* j == 0: e = cost, start = tick (star-row entry wins row 1). */
    double c0 = local_cost(kind, x, y[0]);
    double csum = c0;
    double running = c0 - c0; /* e - csum; 0.0, or NaN for infinite cost */
    int64_t src = 0, start_src = tick;
    d[1] = c0; /* src == j: keep the exact e */
    s[1] = tick;
    for (int64_t j = 1; j < m; j++) {
        double c = local_cost(kind, x, y[j]);
        double v = d[j + 1];
        int64_t sv = s[j + 1];
        int64_t take_v = -(int64_t)(v <= diag);
        double e = c + dsel(take_v, v, diag);
        int64_t vs = isel(take_v, sv, diag_s);
        csum += c;
        double g = e - csum;
        int64_t new_min = -(int64_t)(g < running);
        int64_t poison = -(int64_t)((running == running) & (g != g));
        running = dsel(new_min | poison, g, running);
        src = isel(new_min, j, src);
        start_src = isel(new_min, vs, start_src);
        diag = v;
        diag_s = sv;
        d[j + 1] = dsel(new_min, e, csum + running);
        s[j + 1] = start_src;
    }
    (void)src;
}

/* Order the rows a sweep visits longest query first: `out` receives
 * every row of the bank (rows == 0) or rows[0..n), and active[c] the
 * number of them whose query has at least c cells, so column j runs the
 * prefix of active[j + 1] rows.  A counting sort over the lengths
 * (equal lengths keep their relative order).  out[n] repeats out[n - 1]
 * so that an odd active prefix can load a full pair. */
static void order_rows(const int64_t *pp, int64_t n, const int64_t *rows,
                       int64_t *out, int64_t *active) {
    int64_t mmax = pp[PP_MMAX];
    const int64_t *mlen = IPTR(pp[PP_MLEN]);
    memset(active, 0, (size_t)(mmax + 1) * sizeof(int64_t));
    for (int64_t r = 0; r < n; r++) active[mlen[rows ? rows[r] : r]]++;
    /* active[c]: where the run of length c starts (the longer rows) */
    for (int64_t c = mmax, start = 0; c >= 1; c--) {
        int64_t k = active[c];
        active[c] = start;
        start += k;
    }
    for (int64_t r = 0; r < n; r++) {
        int64_t qi = rows ? rows[r] : r;
        out[active[mlen[qi]]++] = qi;
    }
    /* each run's end: active[c] now counts the rows of length >= c */
    out[n] = out[n - 1];
}

/* The whole bank's sweep order, computed once when a kernel binds. */
void spring_bank_order(int64_t pp_addr) {
    const int64_t *pp = IPTR(pp_addr);
    order_rows(pp, pp[PP_Q], 0, IPTR(pp[PP_ORDER]), IPTR(pp[PP_ACTIVE]));
}

/* In-place column update for the whole bank (or a row subset), swept
 * column-by-column with the per-row scan state (cumulative cost,
 * running minimum, argmin, saved diagonal) spilled to scratch arrays.
 * Sweeping j in the outer loop makes the Q scan chains independent in
 * the inner loop, so the serial (csum, running) dependency of one row
 * no longer bounds throughput; on x86-64 the inner loop runs two rows
 * per 128-bit vector with the compare masks and blends staying in the
 * SIMD domain (branch-free: the selects are unpredictable, and the
 * lane-wise cmple/cmplt/cmpord semantics are exactly NumPy's — false
 * for NaN, strict < for new minima, bitwise-exact blends).
 *
 * Rows are visited longest query first, so column j runs only the
 * prefix of rows whose query has a cell j + 1: a tick sweeps the sum of
 * the stepped queries' lengths (Lemma 4's O(m) per query), never a
 * padded cell.  An odd prefix runs its last row as a pair whose second
 * lane is loaded but not stored.  Also increments the tick counters. */
static void bank_update_sweep(const int64_t *pp, double x, int64_t nrows,
                              const int64_t *rows) {
    int64_t q = pp[PP_Q], mmax = pp[PP_MMAX];
    int64_t n = rows ? nrows : q;
#ifndef __SSE2__
    for (int64_t r = 0; r < n; r++) {
        row_sweep_one(pp, x, rows ? rows[r] : r);
    }
#else
    if (n <= 0) return;
    int64_t *order = IPTR(pp[PP_ORDER]);
    int64_t *active = IPTR(pp[PP_ACTIVE]);
    if (rows) { /* a hot subset, ordered in the scratch halves */
        order += q + 1;
        active += mmax + 1;
        order_rows(pp, n, rows, order, active);
    }
    int64_t stride = mmax + 1;
    double *dd = DPTR(pp[PP_D]);
    int64_t *ss = IPTR(pp[PP_S]);
    int64_t *ticks = IPTR(pp[PP_TICKS]);
    const double *yt = DPTR(pp[PP_YT]); /* (m_max, q) transposed bank */
    int64_t kind = pp[PP_KIND];
    int64_t sq = q + 1; /* scratch stride: a spare slot for the odd lane */
    double *csum = DPTR(pp[PP_SCR_F]);
    double *running = csum + sq;
    double *diag_d = csum + 2 * sq;
    int64_t *src = IPTR(pp[PP_SCR_I]);
    int64_t *start_src = src + sq;
    int64_t *diag_s = src + 2 * sq;
    int64_t mtop = IPTR(pp[PP_MLEN])[order[0]]; /* longest swept query */

    /* j == 0: e = cost, start = tick (star-row entry wins row 1). */
    for (int64_t r = 0; r < n; r++) {
        int64_t qi = order[r];
        int64_t tick = ++ticks[qi];
        double *d = dd + qi * stride;
        int64_t *s = ss + qi * stride;
        diag_d[r] = d[1]; /* previous column's cell 1: j = 1's diagonal */
        diag_s[r] = s[1];
        d[0] = 0.0;
        s[0] = tick + 1;
        double c = local_cost(kind, x, yt[qi]);
        csum[r] = c;
        running[r] = c - c; /* e - csum; 0.0, or NaN for infinite cost */
        src[r] = 0;
        start_src[r] = tick;
        d[1] = c; /* src == j: keep the exact e */
        s[1] = tick;
    }
    const __m128d xv = _mm_set1_pd(x);
    const __m128d sign = _mm_set1_pd(-0.0);
    for (int64_t j = 1; j < mtop; j++) {
        int64_t na = active[j + 1]; /* rows with m_q > j */
        const double *yrow = yt + j * q;
        const __m128d jv = _mm_castsi128_pd(_mm_set1_epi64x(j));
        for (int64_t r = 0; r < na; r += 2) {
            int64_t qi0 = order[r];
            int64_t qi1 = order[r + 1];
            double *d0 = dd + qi0 * stride + j + 1;
            double *d1 = dd + qi1 * stride + j + 1;
            int64_t *s0 = ss + qi0 * stride + j + 1;
            int64_t *s1 = ss + qi1 * stride + j + 1;
            __m128d t = _mm_sub_pd(
                xv, _mm_loadh_pd(_mm_load_sd(yrow + qi0), yrow + qi1));
            __m128d c = kind == 0 ? _mm_mul_pd(t, t) : _mm_andnot_pd(sign, t);
            __m128d v = _mm_loadh_pd(_mm_load_sd(d0), d1);
            __m128d sv = _mm_castsi128_pd(_mm_unpacklo_epi64(
                _mm_loadl_epi64((const __m128i *)s0),
                _mm_loadl_epi64((const __m128i *)s1)));
            __m128d dg = _mm_loadu_pd(diag_d + r);
            __m128d dgs = _mm_castsi128_pd(
                _mm_loadu_si128((const __m128i *)(diag_s + r)));
            /* vertical <= diagonal: vertical wins ties, false for NaN */
            __m128d take = _mm_cmple_pd(v, dg);
            __m128d e = _mm_add_pd(
                c, _mm_or_pd(_mm_and_pd(take, v), _mm_andnot_pd(take, dg)));
            __m128d vs =
                _mm_or_pd(_mm_and_pd(take, sv), _mm_andnot_pd(take, dgs));
            __m128d cs = _mm_add_pd(_mm_loadu_pd(csum + r), c);
            _mm_storeu_pd(csum + r, cs);
            __m128d g = _mm_sub_pd(e, cs);
            __m128d run = _mm_loadu_pd(running + r);
            /* np.minimum.accumulate: strict < moves the argmin; a NaN
             * g poisons a finite running minimum without moving it. */
            __m128d nm = _mm_cmplt_pd(g, run);
            __m128d po =
                _mm_and_pd(_mm_cmpord_pd(run, run), _mm_cmpunord_pd(g, g));
            __m128d adopt = _mm_or_pd(nm, po);
            __m128d newrun =
                _mm_or_pd(_mm_and_pd(adopt, g), _mm_andnot_pd(adopt, run));
            _mm_storeu_pd(running + r, newrun);
            __m128d srcv = _mm_castsi128_pd(
                _mm_loadu_si128((const __m128i *)(src + r)));
            srcv = _mm_or_pd(_mm_and_pd(nm, jv), _mm_andnot_pd(nm, srcv));
            _mm_storeu_si128((__m128i *)(src + r), _mm_castpd_si128(srcv));
            __m128d ssv = _mm_castsi128_pd(
                _mm_loadu_si128((const __m128i *)(start_src + r)));
            ssv = _mm_or_pd(_mm_and_pd(nm, vs), _mm_andnot_pd(nm, ssv));
            _mm_storeu_si128((__m128i *)(start_src + r), _mm_castpd_si128(ssv));
            _mm_storeu_pd(diag_d + r, v);
            _mm_storeu_si128((__m128i *)(diag_s + r), _mm_castpd_si128(sv));
            /* src == j exactly when this cell became the new minimum */
            __m128d dnew = _mm_or_pd(
                _mm_and_pd(nm, e), _mm_andnot_pd(nm, _mm_add_pd(cs, newrun)));
            __m128i ssi = _mm_castpd_si128(ssv);
            _mm_storel_pd(d0, dnew);
            _mm_storel_epi64((__m128i *)s0, ssi);
            if (r + 1 < na) { /* the last lane of an odd prefix is idle */
                _mm_storeh_pd(d1, dnew);
                _mm_storel_epi64((__m128i *)s1, _mm_unpackhi_epi64(ssi, ssi));
            }
        }
    }
#endif
}

/* Figure-4 report logic for one query row, identical decision order to
 * FusedSpring._report_logic: emit a blocked pending optimum (Equation
 * 9), reset, then capture / track the best from the updated d_m.
 * Returns the updated emission count. */
static int64_t row_report(const int64_t *pp, int64_t qi, int64_t n_emit) {
    int64_t mmax = pp[PP_MMAX];
    int64_t stride = mmax + 1;
    double *d = DPTR(pp[PP_D]) + qi * stride;
    int64_t *s = IPTR(pp[PP_S]) + qi * stride;
    int64_t mlen = IPTR(pp[PP_MLEN])[qi];
    double eps = DPTR(pp[PP_EPS])[qi];
    double *dmin = DPTR(pp[PP_DMIN]) + qi;
    int64_t *ts = IPTR(pp[PP_TS]) + qi;
    int64_t *te = IPTR(pp[PP_TE]) + qi;
    double *bd = DPTR(pp[PP_BEST_D]) + qi;
    int64_t *bs = IPTR(pp[PP_BEST_S]) + qi;
    int64_t *be = IPTR(pp[PP_BEST_E]) + qi;
    int64_t tick = IPTR(pp[PP_TICKS])[qi];

    double dm0 = *dmin;
    if (isfinite(dm0) && dm0 <= eps) {
        /* Equation 9 over the valid cells 1..m_q; padded cells hold
         * +inf, which blocks them by itself.  Branch-free
         * accumulation: the per-cell outcome is unpredictable, and the
         * scan is short enough that finishing it beats mispredicting
         * an early exit.  `dm0 <= d[c]` is
         * d[c] >= dm0 with NumPy's false-for-NaN semantics. */
        int64_t blocked_all = 1;
        int64_t te_v0 = *te;
        for (int64_t c = 1; c <= mlen; c++) {
            blocked_all &= (int64_t)((dm0 <= d[c]) | (s[c] > te_v0));
        }
        if (blocked_all) {
            if (n_emit < pp[PP_EMIT_CAP]) {
                IPTR(pp[PP_EMIT_Q])[n_emit] = qi;
                DPTR(pp[PP_EMIT_D])[n_emit] = dm0;
                IPTR(pp[PP_EMIT_TS])[n_emit] = *ts;
                IPTR(pp[PP_EMIT_TE])[n_emit] = *te;
                IPTR(pp[PP_EMIT_T])[n_emit] = tick;
                n_emit++;
            }
            /* Reset: forget the reported optimum and kill every path
             * that started inside it (padded cells are +inf already). */
            int64_t te_v = *te;
            *dmin = HUGE_VAL;
            for (int64_t c = 1; c <= mlen; c++) {
                if (s[c] <= te_v) d[c] = HUGE_VAL;
            }
        }
    }
    double d_m = d[mlen];
    int64_t s_m = s[mlen];
    if (d_m <= eps && d_m < *dmin) {
        *dmin = d_m; *ts = s_m; *te = tick;
    }
    if (d_m < *bd) {
        *bd = d_m; *bs = s_m; *be = tick;
    }
    return n_emit;
}

/* Column update plus report for all queries (rows == 0) or a hot
 * subset (ascending row indices, from the pruned loop), appending
 * emissions after `n_emit`.  Returns the updated emission count. */
static int64_t step_report(const int64_t *pp, double x, int64_t nrows,
                           const int64_t *rows, int64_t n_emit) {
    int64_t n = rows ? nrows : pp[PP_Q];
    bank_update_sweep(pp, x, nrows, rows);
    for (int64_t r = 0; r < n; r++) {
        n_emit = row_report(pp, rows ? rows[r] : r, n_emit);
    }
    return n_emit;
}

/* One stream tick for all queries.  Increments the tick counters
 * itself.  Returns the number of buffered emissions. */
int64_t spring_step_bank(int64_t pp_addr, double x) {
    return step_report(IPTR(pp_addr), x, 0, 0, 0);
}

/* A block of stream ticks for all queries.  skip[t] != 0 advances time
 * without a column update (the missing="skip" policy).  Stops early
 * when the emission buffer could not hold another full tick; returns
 * the number of ticks consumed and writes the emission count. */
int64_t spring_extend_bank(int64_t pp_addr, int64_t xs_addr,
                           int64_t skip_addr, int64_t n,
                           int64_t n_emit_addr) {
    const int64_t *pp = IPTR(pp_addr);
    int64_t q = pp[PP_Q];
    int64_t *ticks = IPTR(pp[PP_TICKS]);
    const double *xs = DPTR(xs_addr);
    const unsigned char *skip = (const unsigned char *)(intptr_t)skip_addr;
    int64_t emit_cap = pp[PP_EMIT_CAP];
    int64_t n_emit = 0;
    int64_t t = 0;
    for (; t < n; t++) {
        if (n_emit + q > emit_cap) break;
        if (skip[t]) {
            for (int64_t qi = 0; qi < q; qi++) ticks[qi]++;
            continue;
        }
        n_emit = step_report(pp, xs[t], 0, 0, n_emit);
    }
    IPTR(n_emit_addr)[0] = n_emit;
    return t;
}

/* Corridor admission bound of one query (or merged group) for a scalar
 * x: repro.dtw.lower_bounds.lb_corridor.  max-then-min clamp == np.clip. */
static inline double corridor_lb(int64_t kind, double x, double lo,
                                 double hi) {
    double cl = x;
    if (cl < lo) cl = lo;
    if (cl > hi) cl = hi;
    double delta = x - cl;
    return kind == 0 ? delta * delta : fabs(delta);
}

static int cmp_i64(const void *a, const void *b) {
    int64_t u = *(const int64_t *)a, v = *(const int64_t *)b;
    return (u > v) - (u < v);
}

/* Wake the parked `rows[0..k)` before ring position `total` is
 * processed — AdmissionCascade.wake_rows.  A span the ring still holds
 * is replayed value by value, re-checking the park certificate after
 * every applied value (any capture or best-match update is a
 * certification violation: returns 1 with the engine state
 * undefined); a span that outgrew the ring wakes through the reset
 * representation.  `replays` counts distinct park positions. */
static int wake_rows(const int64_t *pp, int64_t *ap, const int64_t *rows,
                     int64_t k, int64_t total, int64_t *pos) {
    const double *ring = DPTR(ap[AP_RING]);
    int64_t cap = ap[AP_CAP];
    unsigned char *parked = (unsigned char *)(intptr_t)ap[AP_PARKED];
    const int64_t *park_pos = IPTR(ap[AP_PARK_POS]);
    int64_t mmax = pp[PP_MMAX], stride = mmax + 1;
    double *dd = DPTR(pp[PP_D]);
    int64_t *ticks = IPTR(pp[PP_TICKS]);
    const int64_t *mlen = IPTR(pp[PP_MLEN]);
    const double *eps = DPTR(pp[PP_EPS]);
    const double *best = DPTR(pp[PP_BEST_D]);
    int64_t n_pos = 0;
    for (int64_t i = 0; i < k; i++) {
        int64_t r = rows[i];
        int64_t p = park_pos[r];
        int64_t span = total - 1 - p;
        parked[r] = 0;
        ap[AP_NPARKED]--;
        if (span <= 0) continue;
        if (total - p > cap) {
            double *d = dd + r * stride;
            for (int64_t c = 1; c <= mlen[r]; c++) d[c] = HUGE_VAL;
            ticks[r] += span;
            continue;
        }
        pos[n_pos++] = p;
        ap[AP_REPLAYED] += span;
        const double *dm = dd + r * stride + mlen[r];
        for (int64_t tk = p + 1; tk < total; tk++) {
            double v = ring[(tk - 1) % cap];
            if (v != v) { /* skipped reading: time advances, column holds */
                ticks[r]++;
                continue;
            }
            row_sweep_one(pp, v, r);
            if (*dm <= eps[r] || *dm < best[r]) return 1;
        }
    }
    if (n_pos > 1) qsort(pos, (size_t)n_pos, sizeof(int64_t), cmp_i64);
    for (int64_t i = 0; i < n_pos; i++) {
        if (i == 0 || pos[i] != pos[i - 1]) ap[AP_REPLAYS]++;
    }
    return 0;
}

/* A block of stream ticks with the admission cascade inside the loop:
 * per tick, push the value to the replay ring, wake parked rows whose
 * corridor bound dipped to eps (flat: one test per parked row; grouped:
 * one merged-envelope test per index group, exact member tests only
 * below uncertified groups), park hot rows the bound certifies cold
 * (no pending optimum, best-so-far <= eps), then update and report the
 * hot rows.  The same decisions, in the same order, as
 * AdmissionCascade.admit followed by the hot-row kernel step; skip[t]
 * marks a NaN reading (FlatAdmission.tick_missing).
 *
 * Stops early when the emission buffer could not hold another full
 * tick, when a grouped tick changed the parked set (the caller rebuilds
 * the index before the next tick), or when the replay tripwire fires
 * (AP_VIOLATION).  Returns the number of ticks consumed. */
int64_t spring_extend_pruned(int64_t pp_addr, int64_t ap_addr,
                             int64_t xs_addr, int64_t skip_addr, int64_t n) {
    const int64_t *pp = IPTR(pp_addr);
    int64_t *ap = IPTR(ap_addr);
    int64_t q = pp[PP_Q], kind = pp[PP_KIND];
    const double *xs = DPTR(xs_addr);
    const unsigned char *skip = (const unsigned char *)(intptr_t)skip_addr;
    const double *eps = DPTR(pp[PP_EPS]);
    const double *dmin = DPTR(pp[PP_DMIN]);
    const double *best = DPTR(pp[PP_BEST_D]);
    int64_t *ticks = IPTR(pp[PP_TICKS]);
    double *ring = DPTR(ap[AP_RING]);
    int64_t cap = ap[AP_CAP];
    unsigned char *parked = (unsigned char *)(intptr_t)ap[AP_PARKED];
    int64_t *park_pos = IPTR(ap[AP_PARK_POS]);
    const double *lo = DPTR(ap[AP_LO]), *hi = DPTR(ap[AP_HI]);
    int64_t grouped = ap[AP_GROUPED];
    int64_t *woke = IPTR(ap[AP_SCRATCH]);
    int64_t *hot = woke + q;
    int64_t *pos = woke + 2 * q;
    int64_t emit_cap = pp[PP_EMIT_CAP];
    int64_t n_emit = 0;
    int64_t t = 0;
    ap[AP_CHANGED] = 0;
    ap[AP_VIOLATION] = 0;
    for (; t < n; t++) {
        if (n_emit + q > emit_cap) break;
        int64_t n_parked = ap[AP_NPARKED];
        if (skip[t]) {
            /* A missing reading never wakes or parks anything. */
            ring[ap[AP_COUNT] % cap] = NAN;
            ap[AP_COUNT]++;
            if (n_parked < q) {
                for (int64_t qi = 0; qi < q; qi++) ticks[qi] += !parked[qi];
            }
            ap[AP_PRUNED] += n_parked;
            continue;
        }
        double x = xs[t];
        ring[ap[AP_COUNT] % cap] = x;
        int64_t total = ++ap[AP_COUNT];
        int changed = 0;
        if (n_parked) {
            int64_t n_woke = 0;
            if (grouped) {
                int64_t ng = ap[AP_G_COUNT], gs = ap[AP_G_SIZE];
                int64_t members = ap[AP_G_MEMBERS];
                const int64_t *grows = IPTR(ap[AP_G_ROWS]);
                const double *glo = DPTR(ap[AP_G_LO]);
                const double *ghi = DPTR(ap[AP_G_HI]);
                const double *geps = DPTR(ap[AP_G_EPS]);
                int64_t certified = 0;
                for (int64_t g = 0; g < ng; g++) {
                    if (corridor_lb(kind, x, glo[g], ghi[g]) > geps[g]) {
                        certified++;
                        continue;
                    }
                    int64_t end = (g + 1) * gs < members ? (g + 1) * gs : members;
                    for (int64_t p = g * gs; p < end; p++) {
                        int64_t r = grows[p];
                        if (!(corridor_lb(kind, x, lo[r], hi[r]) > eps[r])) {
                            woke[n_woke++] = r;
                        }
                    }
                }
                ap[AP_G_CERT] += certified;
                ap[AP_G_DESC] += ng - certified;
            } else {
                for (int64_t qi = 0; qi < q; qi++) {
                    if (parked[qi]
                        && !(corridor_lb(kind, x, lo[qi], hi[qi]) > eps[qi])) {
                        woke[n_woke++] = qi;
                    }
                }
            }
            if (n_woke) {
                changed = 1;
                if (wake_rows(pp, ap, woke, n_woke, total, pos)) {
                    ap[AP_CHANGED] = 1;
                    ap[AP_VIOLATION] = 1;
                    break;
                }
                n_parked = ap[AP_NPARKED];
            }
            if (n_parked == q) {
                ap[AP_PRUNED] += q;
                continue;
            }
        }
        int64_t n_hot = 0;
        for (int64_t qi = 0; qi < q; qi++) {
            if (parked[qi]) continue;
            if (corridor_lb(kind, x, lo[qi], hi[qi]) > eps[qi]
                && !isfinite(dmin[qi]) && best[qi] <= eps[qi]) {
                parked[qi] = 1;
                park_pos[qi] = total - 1;
                n_parked++;
                changed = 1;
            } else {
                hot[n_hot++] = qi;
            }
        }
        ap[AP_NPARKED] = n_parked;
        ap[AP_PRUNED] += n_parked;
        if (n_hot) {
            n_emit = step_report(pp, x, n_hot, n_hot == q ? 0 : hot, n_emit);
        }
        if (changed) {
            ap[AP_CHANGED] = 1;
            if (grouped) {
                t++;
                break;
            }
        }
    }
    ap[AP_N_EMIT] = n_emit;
    return t;
}

/* Generic out-of-place column update: repro.core.state.update_columns
 * for pre-computed (Q, m) costs and per-row ticks. */
void spring_update_columns(int64_t q, int64_t m, int64_t d_in, int64_t s_in,
                           int64_t cost, int64_t ticks, int64_t d_out,
                           int64_t s_out) {
    const double *dp = DPTR(d_in);
    const int64_t *sp = IPTR(s_in);
    const double *cc = DPTR(cost);
    const int64_t *tk = IPTR(ticks);
    double *dn = DPTR(d_out);
    int64_t *sn = IPTR(s_out);
    int64_t stride = m + 1;
    for (int64_t r = 0; r < q; r++) {
        row_update(dp + r * stride, sp + r * stride, cc + r * m, m, tk[r],
                   dn + r * stride, sn + r * stride);
    }
}

/* Scalar-engine column update: repro.core.state.update_column. */
void spring_update_column(int64_t m, int64_t d_in, int64_t s_in,
                          int64_t cost, int64_t tick, int64_t d_out,
                          int64_t s_out) {
    row_update(DPTR(d_in), IPTR(s_in), DPTR(cost), m, tick, DPTR(d_out),
               IPTR(s_out));
}

"""

_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")


def _find_compiler() -> Optional[str]:
    override = os.environ.get("REPRO_CC")
    candidates = [override] if override else []
    candidates += ["cc", "gcc", "clang"]
    for cand in candidates:
        if cand:
            path = shutil.which(cand)
            if path:
                return path
    return None


def _cache_dir() -> str:
    override = os.environ.get("REPRO_CEXT_CACHE")
    if override:
        return override
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return os.path.join(tempfile.gettempdir(), f"repro-cext-{uid}")


def _build_library(compiler: str) -> Tuple[ctypes.CDLL, str]:
    """Compile (or reuse) the kernel shared object and load it."""
    digest = hashlib.sha256(
        (_SOURCE + "\0" + " ".join(_CFLAGS)).encode()
    ).hexdigest()[:16]
    cache = _cache_dir()
    os.makedirs(cache, mode=0o700, exist_ok=True)
    so_path = os.path.join(cache, f"spring-kernels-{digest}.so")
    if not os.path.exists(so_path):
        src_path = os.path.join(cache, f"spring-kernels-{digest}.c")
        tmp_path = f"{so_path}.{os.getpid()}.tmp"
        with open(src_path, "w") as handle:
            handle.write(_SOURCE)
        cmd = [compiler, *_CFLAGS, src_path, "-o", tmp_path, "-lm"]
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120
        )
        if proc.returncode != 0:
            tail = (proc.stderr or proc.stdout or "").strip()[-400:]
            raise RuntimeError(f"kernel compilation failed: {tail}")
        os.replace(tmp_path, so_path)  # atomic under concurrent builds
        detail = f"compiled with {os.path.basename(compiler)}"
    else:
        detail = "reused cached build"
    lib = ctypes.CDLL(so_path)
    i64, f64 = ctypes.c_int64, ctypes.c_double
    lib.spring_step_bank.restype = i64
    lib.spring_step_bank.argtypes = [i64, f64]
    lib.spring_extend_bank.restype = i64
    lib.spring_extend_bank.argtypes = [i64, i64, i64, i64, i64]
    lib.spring_extend_pruned.restype = i64
    lib.spring_extend_pruned.argtypes = [i64, i64, i64, i64, i64]
    lib.spring_bank_order.restype = None
    lib.spring_bank_order.argtypes = [i64]
    lib.spring_update_columns.restype = None
    lib.spring_update_columns.argtypes = [i64] * 8
    lib.spring_update_column.restype = None
    lib.spring_update_column.argtypes = [i64] * 7
    return lib, f"{detail} ({so_path})"


def _self_test(backend: "CExtBackend") -> None:
    """Byte-compare one adversarial column update against NumPy.

    Covers ties (vertical == diagonal, repeated running minima),
    infinities from resets, NaN cost poisoning, mixed ticks, and
    both-NaN additions.  The comparison is byte-exact after NaN
    *payloads* are canonicalised: NumPy's own payload bits for a
    both-NaN add depend on which SIMD loop the shape dispatches to, so
    the contract is exact bits for every non-NaN cell and exact NaN
    placement (payloads are observationally irrelevant — every consumer
    compares, and comparisons are false for any NaN).  Raises on any
    mismatch.
    """
    d = np.array(
        [
            [0.0, 1.0, 1.0, np.inf, 2.5, 0.125],
            [0.0, np.inf, np.inf, np.inf, np.inf, np.inf],
            [0.0, 0.5, 0.5, 0.5, 0.5, 0.5],
            [0.0, 1.0, np.nan, np.inf, np.nan, 0.25],
        ]
    )
    s = np.array(
        [
            [7, 3, 3, 1, 2, 6],
            [4, 0, 0, 0, 0, 0],
            [9, 8, 8, 8, 8, 8],
            [5, 2, 2, 3, 3, 4],
        ],
        dtype=np.int64,
    )
    cost = np.array(
        [
            [0.25, 0.25, 0.25, 4.0, 0.0],
            [1.0, np.nan, 2.0, 0.5, 0.5],
            [0.0, 0.0, 0.0, 0.0, 0.0],
            [np.inf, np.nan, np.nan, 1.0, np.nan],
        ]
    )
    ticks = np.array([7, 4, 9, 2], dtype=np.int64)
    with np.errstate(invalid="ignore"):  # NaN costs warn in the reference
        want_d, want_s = update_columns(d, s, cost, ticks)
    got_d, got_s = backend.update_columns(d, s, cost, ticks)
    want_d, got_d = want_d.copy(), got_d.copy()
    want_d[np.isnan(want_d)] = np.nan  # canonical payload
    got_d[np.isnan(got_d)] = np.nan
    if want_d.tobytes() != got_d.tobytes() or want_s.tobytes() != got_s.tobytes():
        raise RuntimeError("compiled column update diverges from numpy")


def _address(arr: np.ndarray, dtype, size: Optional[int] = None) -> int:
    """Base address of a 1-D array the compiled loop reads or writes,
    after checking its dtype, contiguity and (optionally) length."""
    if (
        arr.dtype != dtype
        or arr.ndim != 1
        or not arr.flags["C_CONTIGUOUS"]
        or (size is not None and arr.shape[0] != size)
    ):
        raise ValidationError(
            f"admission array of dtype {arr.dtype} and shape {arr.shape} "
            f"does not fit the bank kernel"
        )
    return arr.ctypes.data


class _CExtBankKernel(BankKernel):
    """Fused-step kernel bound to one ``FusedSpring`` via a param block.

    Each stepping method is one native call (traced as
    ``kernel.step_bank`` / ``kernel.extend_bank``) that advances the
    engine's master arrays in place; confirmations come back through
    emission buffers the kernel owns.
    """

    __slots__ = (
        "_lib", "_q", "_pp", "_pp_addr", "_scr_f", "_scr_i", "_yt",
        "_order", "_active", "_ap", "_ap_addr", "_scr_adm", "_cascade",
        "_ring", "_index",
        "_emit_q", "_emit_d", "_emit_ts", "_emit_te", "_emit_t",
    )

    compiled = True
    runs_admission = True

    def __init__(self, engine, backend: "CExtBackend") -> None:
        bank = engine.bank
        super().__init__(engine, backend)
        # One slot per query suffices for a single tick (a query emits
        # at most one confirmation per tick); extend() batches up to
        # ``emit_capacity`` before handing control back to Python, which
        # only happens once a call has buffered more than 3 * q.  Sized
        # by the bank, so a one-query bank costs 4 slots, not kilobytes.
        cap = 4 * bank.q
        self._emit_q = np.empty(cap, dtype=np.int64)
        self._emit_d = np.empty(cap, dtype=np.float64)
        self._emit_ts = np.empty(cap, dtype=np.int64)
        self._emit_te = np.empty(cap, dtype=np.int64)
        self._emit_t = np.empty(cap, dtype=np.int64)
        self._lib = backend._lib
        self._q = bank.q
        self._scr_f = np.empty(3 * (bank.q + 1), dtype=np.float64)
        self._scr_i = np.empty(3 * (bank.q + 1), dtype=np.int64)
        # Transposed copy of the (zero-padded) query bank for the
        # vectorised column sweep: adjacent rows sit in adjacent lanes.
        self._yt = np.ascontiguousarray(bank.padded[:, :, 0].T)
        # Sweep order, longest query first: the whole bank's (computed
        # below, once) and scratch for each tick's hot subset.
        self._order = np.empty(2 * (bank.q + 1), dtype=np.int64)
        self._active = np.empty(2 * (bank.m_max + 1), dtype=np.int64)
        pp = np.zeros(_PP_SLOTS, dtype=np.int64)
        pp[_PP_KIND] = _KIND_CODES[engine._prune_kind]
        pp[_PP_Q] = bank.q
        pp[_PP_MMAX] = bank.m_max
        # Addresses are cached for the kernel's lifetime: the engine
        # never rebinds its master arrays while a kernel is attached.
        for slot, arr in (
            (_PP_Y, bank.padded),
            (_PP_MLEN, bank.lengths),
            (_PP_EPS, bank.epsilons),
            (_PP_D, engine._d),
            (_PP_S, engine._s),
            (_PP_TICKS, engine._ticks),
            (_PP_DMIN, engine._dmin),
            (_PP_TS, engine._ts),
            (_PP_TE, engine._te),
            (_PP_BEST_D, engine._best_d),
            (_PP_BEST_S, engine._best_s),
            (_PP_BEST_E, engine._best_e),
            (_PP_EMIT_Q, self._emit_q),
            (_PP_EMIT_D, self._emit_d),
            (_PP_EMIT_TS, self._emit_ts),
            (_PP_EMIT_TE, self._emit_te),
            (_PP_EMIT_T, self._emit_t),
            (_PP_SCR_F, self._scr_f),
            (_PP_SCR_I, self._scr_i),
            (_PP_YT, self._yt),
            (_PP_ORDER, self._order),
            (_PP_ACTIVE, self._active),
        ):
            if not arr.flags["C_CONTIGUOUS"]:  # pragma: no cover - invariant
                raise ValidationError("bank kernel requires contiguous arrays")
            pp[slot] = arr.ctypes.data
        pp[_PP_EMIT_CAP] = self.emit_capacity
        self._pp = pp  # keeps the block alive; addresses stay valid
        self._pp_addr = int(pp.ctypes.data)
        self._lib.spring_bank_order(self._pp_addr)

        ap = np.zeros(_AP_SLOTS, dtype=np.int64)
        self._scr_adm = np.empty(3 * bank.q, dtype=np.int64)
        ap[_AP_LO] = bank.corridor_lo.ctypes.data
        ap[_AP_HI] = bank.corridor_hi.ctypes.data
        ap[_AP_SCRATCH] = self._scr_adm.ctypes.data
        self._ap = ap
        self._ap_addr = int(ap.ctypes.data)
        self._cascade = None
        self._ring = None
        self._index = None

    @property
    def emit_capacity(self) -> int:
        """Confirmation slots available per foreign call."""
        return int(self._emit_q.shape[0])

    def collect(self, n: int) -> List[Tuple[int, Match]]:
        """Materialise the first ``n`` buffered emissions as matches."""
        eq, ed = self._emit_q, self._emit_d
        ets, ete, et = self._emit_ts, self._emit_te, self._emit_t
        return [
            (
                int(eq[i]),
                Match(
                    start=int(ets[i]),
                    end=int(ete[i]),
                    distance=float(ed[i]),
                    output_time=int(et[i]),
                ),
            )
            for i in range(n)
        ]

    def step(self, x: float):
        return tracing.call("kernel.step_bank", self._step, x)

    def _step(self, x: float):
        n = self._lib.spring_step_bank(self._pp_addr, x)
        return self.collect(n) if n else []

    def extend(self, xs: np.ndarray, skip: np.ndarray):
        return tracing.call("kernel.extend_bank", self._extend, xs, skip)

    def extend_pruned(self, xs: np.ndarray, skip: np.ndarray, cascade):
        return tracing.call(
            "kernel.extend_bank", self._extend_pruned, xs, skip, cascade
        )

    def _extend(self, xs: np.ndarray, skip: np.ndarray):
        xs = np.ascontiguousarray(xs, dtype=np.float64)
        skip = np.ascontiguousarray(skip, dtype=np.uint8)
        out: List[Tuple[int, object]] = []
        n = int(xs.shape[0])
        n_emit = np.zeros(1, dtype=np.int64)
        pos = 0
        while pos < n:
            consumed = self._lib.spring_extend_bank(
                self._pp_addr,
                xs[pos:].ctypes.data,
                skip[pos:].ctypes.data,
                n - pos,
                n_emit.ctypes.data,
            )
            count = int(n_emit[0])
            if count:
                out.extend(self.collect(count))
            if consumed <= 0:  # pragma: no cover - cap >= q guarantees progress
                raise RuntimeError("extend kernel made no progress")
            pos += consumed
        return out

    def _extend_pruned(self, xs: np.ndarray, skip: np.ndarray, cascade):
        xs = np.ascontiguousarray(xs, dtype=np.float64)
        skip = np.ascontiguousarray(skip, dtype=np.uint8)
        ap = self._ap
        if cascade is not self._cascade:
            # The parked mask and park positions are mutated in place
            # for the cascade's lifetime.
            ap[_AP_GROUPED] = cascade.kind == "grouped"
            ap[_AP_PARKED] = _address(cascade.parked, np.bool_, self._q)
            ap[_AP_PARK_POS] = _address(cascade.park_pos, np.int64, self._q)
            self._cascade = cascade
            self._ring = self._index = None
        out: List[Tuple[int, object]] = []
        n = int(xs.shape[0])
        pos = 0
        while pos < n:
            ring = cascade.buffer.storage  # replaced on checkpoint restore
            if ring is not self._ring:
                ap[_AP_RING] = _address(ring, np.float64)
                ap[_AP_CAP] = ring.shape[0]
                self._ring = ring
            index = cascade.native_index()  # rebuilt after parked-set changes
            if index is None:
                ap[_AP_G_COUNT] = 0
            elif index is not self._index:
                n_groups = index.n_groups
                ap[_AP_G_COUNT] = n_groups
                ap[_AP_G_SIZE] = index.group_size
                ap[_AP_G_MEMBERS] = index.rows.shape[0]
                ap[_AP_G_ROWS] = _address(index.rows, np.int64)
                ap[_AP_G_LO] = _address(index.lo, np.float64, n_groups)
                ap[_AP_G_HI] = _address(index.hi, np.float64, n_groups)
                ap[_AP_G_EPS] = _address(index.eps, np.float64, n_groups)
            self._index = index  # keeps the bound arrays alive
            ap[_AP_STATE:_AP_N_EMIT] = cascade.native_state()
            consumed = self._lib.spring_extend_pruned(
                self._pp_addr,
                self._ap_addr,
                xs[pos:].ctypes.data,
                skip[pos:].ctypes.data,
                n - pos,
            )
            count = int(ap[_AP_N_EMIT])
            if count:
                out.extend(self.collect(count))
            cascade.native_commit(
                ap[_AP_STATE:_AP_N_EMIT].tolist(), bool(ap[_AP_CHANGED])
            )
            if ap[_AP_VIOLATION]:
                raise RuntimeError(
                    "pruning certification violated: a parked span "
                    "produced a capture or best-match update at replay"
                )
            if consumed <= 0:  # pragma: no cover - cap >= q guarantees progress
                raise RuntimeError("extend kernel made no progress")
            pos += consumed
        return out


class CExtBackend(KernelBackend):
    """Native kernels compiled on demand from embedded C source."""

    name = "cext"
    compiled = True

    def __init__(self, lib: ctypes.CDLL, warmup_seconds: float) -> None:
        self._lib = lib
        self.warmup_seconds = float(warmup_seconds)

    def update_column(self, state: SpringState, cost: np.ndarray, tick: int) -> None:
        cost = np.ascontiguousarray(cost, dtype=np.float64)
        m = cost.shape[0]
        d_new = np.empty(m + 1, dtype=np.float64)
        s_new = np.empty(m + 1, dtype=np.int64)
        # state.d may have been rebound since the last call (restores,
        # write_back); reading the address per call keeps this safe.
        self._lib.spring_update_column(
            m,
            state.d.ctypes.data,
            state.s.ctypes.data,
            cost.ctypes.data,
            int(tick),
            d_new.ctypes.data,
            s_new.ctypes.data,
        )
        state.d = d_new
        state.s = s_new

    def update_columns(self, d, s, cost, ticks):
        d = np.ascontiguousarray(d, dtype=np.float64)
        s = np.ascontiguousarray(s, dtype=np.int64)
        cost = np.ascontiguousarray(cost, dtype=np.float64)
        ticks = np.ascontiguousarray(ticks, dtype=np.int64)
        q, m = cost.shape
        d_new = np.empty((q, m + 1), dtype=np.float64)
        s_new = np.empty((q, m + 1), dtype=np.int64)
        self._lib.spring_update_columns(
            q,
            m,
            d.ctypes.data,
            s.ctypes.data,
            cost.ctypes.data,
            ticks.ctypes.data,
            d_new.ctypes.data,
            s_new.ctypes.data,
        )
        return d_new, s_new

    def bank_kernel(self, engine) -> BankKernel:
        if engine._prune_kind not in _KIND_CODES:
            # Custom local distance: no compiled fused step, so the
            # reference kernel runs over this backend's update_columns.
            return super().bank_kernel(engine)
        return _CExtBankKernel(engine, self)


def probe() -> Tuple[Optional[CExtBackend], str]:
    """Build, load, and self-test the backend; never raises."""
    compiler = _find_compiler()
    if compiler is None:
        return None, "no C compiler found (tried $REPRO_CC, cc, gcc, clang)"
    started = perf_counter()
    try:
        lib, detail = _build_library(compiler)
        backend = CExtBackend(lib, warmup_seconds=perf_counter() - started)
        _self_test(backend)
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"
    return backend, detail
