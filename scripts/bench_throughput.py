#!/usr/bin/env python
"""Measure end-to-end monitoring throughput (ticks/sec) and record it.

Three scenarios, matching the performance architecture's design points
(docs/algorithm.md):

* ``spring_1q`` — one ``Spring.step`` per tick (the scalar fast path).
* ``monitor_64q`` — a 64-query single-stream ``StreamMonitor`` driven
  value-by-value (``push``) and batched (``push_many``); this is the
  query-fusion axis.  The push scenario is also repeated with the
  metrics recorder enabled (``monitor_64q_push_metrics``) and the
  slowdown recorded as ``metrics_overhead_pct`` — the observability
  layer's regression gate.
* ``monitor_64q_8s`` — 64 queries x 8 streams driven with ``push_many``
  per stream.
* ``monitor_64q_low_sel`` — a low-selectivity workload for the exact
  lower-bound admission cascade: 64 queries shaped around value 100, a
  short warm excursion that arms every query's best-so-far, then a
  long cold tail near 0.  Run with pruning on and off (identical match
  streams — the cascade is exact) and with the metrics recorder
  enabled; reports ``prune_speedup`` and
  ``metrics_overhead_pruned_pct``.

For the 64-query scenario the script also times the pre-fusion
execution model — 64 independent ``Spring`` objects stepped in a Python
loop — and reports the fused/per-query speedup, so the recorded JSON
carries its own baseline instead of a stale constant.

The legacy scenarios construct their monitors with ``prune=False`` so
``fused_speedup_vs_per_query`` and ``metrics_overhead_pct`` keep
measuring query fusion and observability cost in isolation; the
cascade's contribution is measured only by the low-selectivity pair.
For the same reason every legacy scenario pins ``backend="numpy"`` —
each recorded ratio isolates exactly one effect, and the compiled
kernel backend's contribution is measured by its own pair:

* ``fused_10000q_low_sel_{flat,grouped}`` — the tiered admission pair:
  a 10,000-query low-selectivity bank stepped through the fused engine
  directly under the flat cascade and under grouped (envelope-index)
  admission, back-to-back per round on the numpy backend.  The
  per-round minimum of the grouped/flat throughput ratio is recorded
  as ``index_admission_speedup`` (gated at 3x in CI) — the sublinear
  admission claim, measured where it bites: O(Q) flat work per cold
  tick vs one merged-corridor test per group.

* ``monitor_64q_push_<backend>`` — the 64-query push scenario on the
  *compiled* kernel backend (cext), measured against back-to-back
  numpy rounds; the per-round minimum ratio is
  recorded as ``kernel_speedup_vs_numpy`` (the compiled-kernel
  regression gate, floored at 5x in CI).  Warm-up — backend probe +
  compilation plus the first-tick dispatch — happens on a throwaway
  monitor *before* timing starts and is recorded separately under
  ``kernel_warmup``, so steady-state throughput is never diluted by
  compilation cost (and compilation cost is never hidden).  When no compiled backend
  is available the pair is skipped and the ratio recorded as null.

* ``monitor_64q_low_sel_push_many_cext{,_noprune}`` — the low-selectivity
  workload in the shipping configuration: the cext backend, ``push_many``
  in 40-tick batches, pruning on and off back-to-back per round.  The
  per-round minimum of the on/off ratio is recorded as
  ``prune_speedup_cext`` (gated at 1x in CI: pruning must never cost
  throughput on the compiled batch path), and the two sides' match
  streams are compared (``prune_cext_identical``).  When cext is
  unavailable the pair is skipped and the reason recorded as
  ``prune_speedup_cext_skipped``.

* ``dynnorm_1q_low_sel_{push,push_noprune}`` — the per-window-normalised
  matcher (``DynNormSpring``) on a low-selectivity stream: a distance-0
  affine copy of the query up front arms the best-so-far (the corner
  bound only skips a window when it can neither qualify nor improve the
  best match), then a long noise tail where the bound disqualifies
  almost every window before its DP.  Pruning is exact (identical match
  streams by construction), so the per-round minimum of the on/off
  throughput ratio is recorded as ``dynnorm_prune_speedup`` and gated
  at an absolute 2x floor in CI.  The tick count is reduced relative to
  the 64-query scenarios: the unpruned side runs a full normalised DP
  per candidate length per tick by design — the very cost being
  measured.

* ``monitor_1000q_64s_shard_{1,4}w`` — the sharded serving runtime on
  a 64-stream x 1000-query workload, run with one worker and with four
  workers back-to-back per round.  The per-round minimum of the 4w/1w
  throughput ratio is recorded as ``shard_scaling_speedup`` (and
  divided by the worker count as ``shard_scaling_efficiency``), with
  ``cpu_count`` recorded alongside so the CI gate can skip the floor
  on machines that physically cannot scale (fewer than 4 cores).
  Worker restarts during a timed round are recorded in the row — a
  nonzero count means the timing includes a recovery, not steady
  state.  Both sides pin ``backend="numpy"`` like every other pair:
  the ratio isolates sharding, nothing else.

Results are written to ``BENCH_throughput.json`` at the repo root (or
``--output``).  Runtimes are wall-clock and machine-dependent; the JSON
is a record of relative speedups, not a regression gate.

Usage::

    PYTHONPATH=src python scripts/bench_throughput.py [--ticks N] [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent

QUERY_COUNT = 64
STREAM_COUNT = 8
QUERY_LENGTHS = (8, 16, 24, 32)


def _queries(rng: np.random.Generator, count: int) -> List[np.ndarray]:
    return [
        np.cumsum(rng.normal(size=QUERY_LENGTHS[i % len(QUERY_LENGTHS)]))
        for i in range(count)
    ]


def _timed(run: Callable[[], int]) -> Dict[str, float]:
    start = time.perf_counter()
    ticks = run()
    seconds = time.perf_counter() - start
    return {
        "ticks": ticks,
        "seconds": round(seconds, 6),
        "ticks_per_sec": round(ticks / seconds, 1) if seconds > 0 else float("inf"),
    }


def bench_spring_1q(ticks: int, rng: np.random.Generator) -> Dict[str, float]:
    from repro.core import Spring

    spring = Spring(_queries(rng, 1)[0], epsilon=2.0, backend="numpy")
    stream = [float(v) for v in np.cumsum(rng.normal(size=ticks))]

    def run() -> int:
        for value in stream:
            spring.step(value)
        return ticks

    return _timed(run)


def bench_per_query_64q(ticks: int, rng: np.random.Generator) -> Dict[str, float]:
    """The pre-fusion model: one Python-level step call per query per tick."""
    from repro.core import Spring

    springs = [
        Spring(q, epsilon=2.0, backend="numpy")
        for q in _queries(rng, QUERY_COUNT)
    ]
    stream = [float(v) for v in np.cumsum(rng.normal(size=ticks))]

    def run() -> int:
        for value in stream:
            for spring in springs:
                spring.step(value)
        return ticks

    return _timed(run)


def _monitor(rng: np.random.Generator, streams: int, backend: str = "numpy"):
    from repro.core import StreamMonitor

    # prune=False, backend="numpy": these scenarios gate fusion and
    # metrics cost in isolation; the admission cascade and the compiled
    # kernel backend are each benchmarked by their own pair.
    monitor = StreamMonitor(history_limit=1024, prune=False, backend=backend)
    for s in range(streams):
        monitor.add_stream(f"s{s}")
    for i, query in enumerate(_queries(rng, QUERY_COUNT)):
        monitor.add_query(f"q{i}", query, epsilon=2.0)
    return monitor


def bench_monitor_push(
    ticks: int, rng: np.random.Generator, backend: str = "numpy"
) -> Dict[str, float]:
    monitor = _monitor(rng, streams=1, backend=backend)
    stream = [float(v) for v in np.cumsum(rng.normal(size=ticks))]

    def run() -> int:
        for value in stream:
            monitor.push("s0", value)
        return ticks

    return _timed(run)


def bench_monitor_push_many(ticks: int, rng: np.random.Generator) -> Dict[str, float]:
    monitor = _monitor(rng, streams=1)
    stream = np.cumsum(rng.normal(size=ticks))

    def run() -> int:
        monitor.push_many("s0", stream)
        return ticks

    return _timed(run)


def bench_monitor_push_metrics(
    ticks: int, rng: np.random.Generator
) -> Dict[str, float]:
    """The 64-query push scenario with the metrics recorder enabled.

    Compared against ``monitor_64q_push`` (same workload, no-op
    recorder) to compute ``metrics_overhead_pct`` — the observability
    layer's price on the hottest per-tick path.
    """
    monitor = _monitor(rng, streams=1)
    monitor.enable_metrics()
    stream = [float(v) for v in np.cumsum(rng.normal(size=ticks))]

    def run() -> int:
        for value in stream:
            monitor.push("s0", value)
        return ticks

    return _timed(run)


def bench_monitor_multistream(ticks: int, rng: np.random.Generator) -> Dict[str, float]:
    monitor = _monitor(rng, streams=STREAM_COUNT)
    streams = [np.cumsum(rng.normal(size=ticks)) for _ in range(STREAM_COUNT)]

    def run() -> int:
        for s, values in enumerate(streams):
            monitor.push_many(f"s{s}", values)
        return ticks * STREAM_COUNT

    return _timed(run)


# ε must be loose enough that the warm excursion arms *every* query's
# best-so-far (a park precondition): one query left hot keeps the
# partial-row kernel running each tick and caps the whole scenario's
# speedup, burying the cascade's effect under per-tick Python overhead.
PRUNE_EPSILON = 16.0
WARM_TICKS = 48


def _cold_queries(rng: np.random.Generator, count: int) -> List[np.ndarray]:
    """Queries clustered around 100 — far from the cold stream tail."""
    return [
        100.0
        + np.cumsum(
            rng.normal(scale=0.05, size=QUERY_LENGTHS[i % len(QUERY_LENGTHS)])
        )
        for i in range(count)
    ]


def _low_selectivity_stream(rng: np.random.Generator, ticks: int) -> List[float]:
    """A short warm excursion near 100, then a long cold tail near 0.

    The excursion arms every query's best-so-far (``best_d <= eps``),
    after which the corridor bound certifies the tail cold and the
    cascade parks all 64 queries for the rest of the stream.
    """
    warm = 100.0 + rng.normal(scale=0.1, size=min(WARM_TICKS, ticks))
    cold = rng.normal(scale=0.5, size=max(ticks - warm.size, 0))
    return [float(v) for v in np.concatenate([warm, cold])]


def _low_selectivity_monitor(
    rng: np.random.Generator, prune: bool, backend: str, metrics: bool = False
):
    from repro.core import StreamMonitor

    monitor = StreamMonitor(history_limit=1024, prune=prune, backend=backend)
    if metrics:
        monitor.enable_metrics()
    monitor.add_stream("s0")
    for i, query in enumerate(_cold_queries(rng, QUERY_COUNT)):
        monitor.add_query(f"q{i}", query, epsilon=PRUNE_EPSILON)
    return monitor


def bench_low_selectivity(
    ticks: int,
    rng: np.random.Generator,
    prune: bool,
    metrics: bool = False,
) -> Dict[str, float]:
    monitor = _low_selectivity_monitor(rng, prune, "numpy", metrics)
    stream = _low_selectivity_stream(rng, ticks)

    def run() -> int:
        for value in stream:
            monitor.push("s0", value)
        return ticks

    return _timed(run)


def _prune_pair(repeats: int, ticks: int, seed: int):
    """The pruning on/off/metered triple, measured noise-robustly.

    Same discipline as :func:`_overhead_pair`: each round runs all
    three sides back-to-back and the per-round ratios are reduced with
    ``min`` — the conservative direction for both numbers.  For
    ``prune_speedup`` the minimum *understates* the cascade's benefit,
    so a gate floor it still clears is trustworthy; for
    ``metrics_overhead_pruned_pct`` the minimum tracks the true cost
    from above exactly as in the unpruned pair.
    """
    sides = (
        ("monitor_64q_low_sel_push", True, False),
        ("monitor_64q_low_sel_push_noprune", False, False),
        ("monitor_64q_low_sel_push_metrics", True, True),
    )
    best = {}
    speedup = None
    overhead_pct = None
    for _ in range(repeats):
        rows = {}
        for name, prune, metrics in sides:
            row = bench_low_selectivity(
                ticks, np.random.default_rng(seed), prune=prune,
                metrics=metrics,
            )
            rows[name] = row
            if (
                name not in best
                or row["ticks_per_sec"] > best[name]["ticks_per_sec"]
            ):
                best[name] = row
        unpruned = rows["monitor_64q_low_sel_push_noprune"]["ticks_per_sec"]
        metered = rows["monitor_64q_low_sel_push_metrics"]["ticks_per_sec"]
        pruned = rows["monitor_64q_low_sel_push"]["ticks_per_sec"]
        if unpruned:
            round_speedup = pruned / unpruned
            if speedup is None or round_speedup < speedup:
                speedup = round_speedup
        if metered:
            round_pct = 100.0 * (pruned / metered - 1.0)
            if overhead_pct is None or round_pct < overhead_pct:
                overhead_pct = round_pct
    return (
        best,
        None if speedup is None else round(speedup, 2),
        None if overhead_pct is None else round(overhead_pct, 2),
    )


#: Ticks per ``push_many`` call in the cext prune pair.
PRUNE_CEXT_BATCH = 40


def bench_low_selectivity_batched(
    ticks: int, rng: np.random.Generator, prune: bool
):
    """The low-selectivity workload on cext, pushed in 40-tick batches.

    Returns the timing row and the match stream, so the pair can check
    that pruning left the events byte-identical.
    """
    monitor = _low_selectivity_monitor(rng, prune, "cext")
    stream = _low_selectivity_stream(rng, ticks)
    events = []

    def run() -> int:
        for lo in range(0, ticks, PRUNE_CEXT_BATCH):
            events.extend(
                monitor.push_many("s0", stream[lo:lo + PRUNE_CEXT_BATCH])
            )
        return ticks

    row = _timed(run)
    return row, [
        (e.query, e.match.start, e.match.end, e.match.distance,
         e.match.output_time)
        for e in events
    ]


def _prune_cext_pair(repeats: int, ticks: int, seed: int):
    """The pruning on/off pair on the cext batch path, noise-robustly.

    Same discipline as :func:`_prune_pair`: each round runs both sides
    back-to-back and the per-round pruned/unpruned ratios reduce with
    ``min``.  Returns ``(rows, speedup, identical, skipped)``; with cext
    unavailable only ``skipped`` (the reason) is set.
    """
    from repro.core.backends import available_backends, backend_infos

    if "cext" not in available_backends():
        detail = next(
            (info.detail for info in backend_infos() if info.name == "cext"),
            "cext backend not registered",
        )
        return {}, None, None, f"cext unavailable: {detail}"
    sides = (
        ("monitor_64q_low_sel_push_many_cext", True),
        ("monitor_64q_low_sel_push_many_cext_noprune", False),
    )
    best = {}
    speedup = None
    identical = True
    for _ in range(repeats):
        rows, streams = {}, []
        for name, prune in sides:
            row, events = bench_low_selectivity_batched(
                ticks, np.random.default_rng(seed), prune=prune
            )
            rows[name] = row
            streams.append(events)
            if (
                name not in best
                or row["ticks_per_sec"] > best[name]["ticks_per_sec"]
            ):
                best[name] = row
        identical = identical and streams[0] == streams[1]
        unpruned = rows["monitor_64q_low_sel_push_many_cext_noprune"][
            "ticks_per_sec"
        ]
        if unpruned:
            ratio = rows["monitor_64q_low_sel_push_many_cext"][
                "ticks_per_sec"
            ] / unpruned
            if speedup is None or ratio < speedup:
                speedup = ratio
    return (
        best,
        None if speedup is None else round(speedup, 2),
        identical,
        None,
    )


DYNNORM_QUERY_LENGTH = 16
DYNNORM_EPSILON = 0.01


def bench_dynnorm(ticks: int, seed: int, prune: bool) -> Dict[str, float]:
    """One ``DynNormSpring`` on a warm-copy-then-cold-noise stream.

    The warm prefix is an affine copy of the query — a distance-0
    window that arms the best match, after which the corner lower bound
    can actually skip windows (a bound only prunes when it exceeds both
    epsilon and the running best distance).  The noise tail is the
    timed regime: with a tiny epsilon nearly every window's corner cost
    disqualifies it before the O(len x m) normalised DP runs.
    """
    from repro.core import DynNormSpring

    rng = np.random.default_rng(seed)
    query = np.cumsum(rng.normal(size=DYNNORM_QUERY_LENGTH))
    matcher = DynNormSpring(query, epsilon=DYNNORM_EPSILON, prune=prune)
    for value in 3.0 * query + 7.0:  # arm the best match (distance 0)
        matcher.step(float(value))
    stream = [float(v) for v in rng.normal(size=ticks)]

    def run() -> int:
        for value in stream:
            matcher.step(value)
        return ticks

    row = _timed(run)
    row["prune"] = prune
    return row


def _dynnorm_pair(repeats: int, ticks: int, seed: int):
    """The dynnorm pruning on/off pair, measured noise-robustly.

    Same discipline as the other ratio pairs: each round runs both
    sides back-to-back on the identical stream and the per-round
    pruned/unpruned ratios reduce with ``min`` — the conservative
    direction (the minimum understates the bound's benefit, so the 2x
    gate floor it still clears is trustworthy).  The tick count is
    reduced: the unpruned side pays a full DP per candidate length per
    tick by design, which is the effect being measured.
    """
    pair_ticks = max(ticks // 20, 200)
    sides = (
        ("dynnorm_1q_low_sel_push", True),
        ("dynnorm_1q_low_sel_push_noprune", False),
    )
    best = {}
    speedup = None
    for _ in range(repeats):
        rows = {}
        for name, prune in sides:
            row = bench_dynnorm(pair_ticks, seed, prune)
            rows[name] = row
            if (
                name not in best
                or row["ticks_per_sec"] > best[name]["ticks_per_sec"]
            ):
                best[name] = row
        unpruned = rows["dynnorm_1q_low_sel_push_noprune"]["ticks_per_sec"]
        if unpruned:
            ratio = rows["dynnorm_1q_low_sel_push"]["ticks_per_sec"] / unpruned
            if speedup is None or ratio < speedup:
                speedup = ratio
    return best, None if speedup is None else round(speedup, 2)


ADMISSION_QUERY_COUNT = 10_000
ADMISSION_GROUP_SIZE = 64


def bench_admission(
    ticks: int, seed: int, admission: str
) -> Dict[str, float]:
    """A 10k-query fully-parked bank stepped through the fused engine.

    Exercises the *admission* axis in isolation: with every query parked
    on the cold tail, the flat cascade still pays O(Q) numpy work per
    tick while the grouped strategy pays one certified group test per
    ``ADMISSION_GROUP_SIZE`` queries.  The warm excursion and the park
    transition happen *outside* the timer — a single dense 10k-query
    warm tick costs as much as hundreds of cold ticks and is identical
    on both sides, so timing it would only dilute the ratio being
    measured.  The timed region is the steady cold state, which is
    where a low-selectivity deployment spends its life.  The engine is
    driven directly (no ``StreamMonitor``) so per-tick Python dispatch
    — identical on both sides — stays as thin as possible around the
    cascade itself.
    """
    from repro.core import FusedSpring, QueryBank

    rng = np.random.default_rng(seed)
    queries = _cold_queries(rng, ADMISSION_QUERY_COUNT)
    engine = FusedSpring(
        QueryBank(queries, epsilons=PRUNE_EPSILON),
        prune_buffer=1024,
        backend="numpy",
        admission=admission,
        admission_group_size=ADMISSION_GROUP_SIZE,
    )
    # Arm and park everything before the clock starts.
    warmup = _low_selectivity_stream(
        np.random.default_rng(seed), WARM_TICKS + 64
    )
    for value in warmup:
        engine.step(value)
    assert engine.parked.all(), "admission bench failed to park its bank"
    cold = [
        float(v)
        for v in np.random.default_rng(seed + 1).normal(scale=0.5, size=ticks)
    ]

    def run() -> int:
        for value in cold:
            engine.step(value)
        return ticks

    row = _timed(run)
    row["admission"] = admission
    row["parked"] = int(engine.parked.sum())
    row["groups_certified"] = engine.groups_certified
    return row


def _admission_pair(repeats: int, ticks: int, seed: int):
    """The grouped / flat admission pair, measured noise-robustly.

    Same discipline as the other ratio pairs: each round runs flat then
    grouped back-to-back on the identical 10k-query workload and the
    per-round grouped/flat ratios reduce with ``min`` — the conservative
    direction (the minimum understates the index's benefit, so the 3x
    gate floor it still clears is trustworthy).  The tick count is
    reduced relative to the 64-query scenarios: the flat side costs
    O(10k) per tick by design, which is the very effect being measured.
    """
    pair_ticks = max(ticks // 10, 256)
    sides = (
        ("fused_10000q_low_sel_flat", "flat"),
        ("fused_10000q_low_sel_grouped", "grouped"),
    )
    best = {}
    speedup = None
    for _ in range(repeats):
        rows = {}
        for name, admission in sides:
            row = bench_admission(pair_ticks, seed, admission)
            rows[name] = row
            if (
                name not in best
                or row["ticks_per_sec"] > best[name]["ticks_per_sec"]
            ):
                best[name] = row
        flat = rows["fused_10000q_low_sel_flat"]["ticks_per_sec"]
        if flat:
            ratio = (
                rows["fused_10000q_low_sel_grouped"]["ticks_per_sec"] / flat
            )
            if speedup is None or ratio < speedup:
                speedup = ratio
    return best, None if speedup is None else round(speedup, 2)


def _kernel_pair(repeats: int, ticks: int, seed: int):
    """The compiled-kernel / numpy push pair, measured noise-robustly.

    Same discipline as the other ratio pairs: each round runs the numpy
    and compiled sides back-to-back and the per-round ratios reduce
    with ``min`` — the conservative direction (the minimum understates
    the kernel's benefit, so a gate floor it still clears is
    trustworthy).  Only the compiled side's best row enters the
    per-scenario table; the canonical numpy ``monitor_64q_push`` row
    comes from the overhead pair.

    Warm-up is spent — and recorded — *before* any timed round:
    resolving the backend runs the probe + compilation + self-test, and
    a throwaway monitor absorbs the first-tick dispatch cost.  Timed
    rounds therefore see only steady state, and the JIT bill is
    reported under ``kernel_warmup`` instead of silently diluting (or
    inflating) the throughput numbers.
    """
    from repro.core.backends import best_compiled, resolve_backend

    # best_compiled() triggers the probe (import / C compilation / self
    # test) and the warm-up, so the timer around it captures the whole
    # one-time bill; resolve_backend() afterwards is a cache hit.
    resolve_started = time.perf_counter()
    name = best_compiled()
    resolve_seconds = time.perf_counter() - resolve_started
    if name is None:
        return {}, None, None, None
    backend = resolve_backend(name)
    warm_started = time.perf_counter()
    warm_monitor = _monitor(np.random.default_rng(seed), streams=1, backend=name)
    for value in np.cumsum(np.random.default_rng(seed).normal(size=256)):
        warm_monitor.push("s0", float(value))
    warmup = {
        "backend": name,
        "compile_seconds": round(backend.warmup_seconds, 6),
        "resolve_seconds": round(resolve_seconds, 6),
        "first_256_ticks_seconds": round(
            time.perf_counter() - warm_started, 6
        ),
    }

    row_name = f"monitor_64q_push_{name}"
    best = {}
    speedup = None
    for _ in range(repeats):
        numpy_row = bench_monitor_push(
            ticks, np.random.default_rng(seed), backend="numpy"
        )
        kernel_row = bench_monitor_push(
            ticks, np.random.default_rng(seed), backend=name
        )
        if (
            row_name not in best
            or kernel_row["ticks_per_sec"] > best[row_name]["ticks_per_sec"]
        ):
            best[row_name] = kernel_row
        if numpy_row["ticks_per_sec"]:
            round_ratio = (
                kernel_row["ticks_per_sec"] / numpy_row["ticks_per_sec"]
            )
            if speedup is None or round_ratio < speedup:
                speedup = round_ratio
    return (
        best,
        None if speedup is None else round(speedup, 2),
        name,
        warmup,
    )


SHARD_STREAMS = 64
SHARD_QUERY_COUNT = 1000
SHARD_WORKERS = 4
SHARD_CHUNK = 16


def bench_sharded(ticks: int, seed: int, workers: int) -> Dict[str, float]:
    """The sharded runtime on 64 streams x 1000 queries, ``workers`` wide.

    Worker start-up (process spawn + interpreter import) is paid before
    the clock starts; the timed region is pushes plus ``finish`` — the
    steady-state serving path including the drain barrier and the
    deterministic merge.  Streams are fed round-robin in small chunks
    so every worker always has runnable input.
    """
    from repro.runtime import ShardedMonitor

    rng = np.random.default_rng(seed)
    queries = _queries(rng, SHARD_QUERY_COUNT)
    streams = [
        np.cumsum(rng.normal(size=ticks)) for _ in range(SHARD_STREAMS)
    ]
    monitor = ShardedMonitor(shards=workers, backend="numpy")
    for s in range(SHARD_STREAMS):
        monitor.add_stream(f"s{s}")
    for i, query in enumerate(queries):
        monitor.add_query(f"q{i}", query, epsilon=2.0)
    reports = []
    with monitor:
        monitor.start()

        def run() -> int:
            for off in range(0, ticks, SHARD_CHUNK):
                for s, values in enumerate(streams):
                    monitor.push_many(
                        f"s{s}", values[off:off + SHARD_CHUNK]
                    )
            reports.append(monitor.finish(flush=True))
            return ticks * SHARD_STREAMS

        row = _timed(run)
    row["workers"] = workers
    row["restarts"] = reports[0].restarts
    return row


def _shard_pair(repeats: int, ticks: int, seed: int):
    """The 1-worker / 4-worker sharded pair, measured noise-robustly.

    Same discipline as the other ratio pairs: each round runs both
    sides back-to-back and the per-round 4w/1w ratios reduce with
    ``min`` — the conservative direction (the minimum understates the
    scaling benefit, so a gate floor it still clears is trustworthy).
    The pair is much heavier than the in-process scenarios (it spawns
    five interpreters per round), so it runs at most two rounds and on
    a reduced tick count.
    """
    shard_ticks = max(ticks // 500, 8)
    rounds = max(1, min(repeats, 2))
    sides = {
        workers: f"monitor_1000q_64s_shard_{workers}w"
        for workers in (1, SHARD_WORKERS)
    }
    best = {}
    speedup = None
    for _ in range(rounds):
        rows = {}
        for workers, name in sides.items():
            row = bench_sharded(shard_ticks, seed, workers)
            rows[name] = row
            if (
                name not in best
                or row["ticks_per_sec"] > best[name]["ticks_per_sec"]
            ):
                best[name] = row
        base = rows[sides[1]]["ticks_per_sec"]
        if base:
            ratio = rows[sides[SHARD_WORKERS]]["ticks_per_sec"] / base
            if speedup is None or ratio < speedup:
                speedup = ratio
    return (
        best,
        None if speedup is None else round(speedup, 2),
        None if speedup is None else round(speedup / SHARD_WORKERS, 3),
    )


def _overhead_pair(repeats: int, ticks: int, seed: int):
    """The push / push-with-metrics pair, measured noise-robustly.

    Single runs of the push scenarios jitter by +-10% on a noisy
    machine — wider than the 5% overhead budget the pair is used to
    gate — so the overhead is estimated as the **minimum per-round
    ratio**: each round runs baseline then metered back-to-back (so
    machine phases hit both sides alike), computes the round's
    slowdown, and the smallest round wins.  Noise only ever *inflates*
    a round's ratio symmetrically-at-best, so the minimum tracks the
    true cost from above, while a genuine regression shows up in every
    round and survives the min.  Each side's best (max ticks/sec) row
    is kept for the per-scenario table.
    """
    best = {}
    overhead_pct = None
    for _ in range(repeats):
        rows = {}
        for name, bench in (
            ("monitor_64q_push", bench_monitor_push),
            ("monitor_64q_push_metrics", bench_monitor_push_metrics),
        ):
            row = bench(ticks, np.random.default_rng(seed))
            rows[name] = row
            if (
                name not in best
                or row["ticks_per_sec"] > best[name]["ticks_per_sec"]
            ):
                best[name] = row
        metered = rows["monitor_64q_push_metrics"]["ticks_per_sec"]
        if metered:
            round_pct = 100.0 * (
                rows["monitor_64q_push"]["ticks_per_sec"] / metered - 1.0
            )
            if overhead_pct is None or round_pct < overhead_pct:
                overhead_pct = round_pct
    return (
        best["monitor_64q_push"],
        best["monitor_64q_push_metrics"],
        None if overhead_pct is None else round(overhead_pct, 2),
    )


def run_suite(
    ticks: int, seed: int = 20070415, repeats: int = 3
) -> Dict[str, object]:
    """Run every scenario and return the report dict (pure; no I/O).

    ``repeats`` applies to the push/push-with-metrics pair only — the
    two sides of the ``metrics_overhead_pct`` ratio.
    """
    push_row, push_metrics_row, metrics_overhead_pct = _overhead_pair(
        repeats, ticks, seed
    )
    prune_rows, prune_speedup, metrics_overhead_pruned_pct = _prune_pair(
        repeats, ticks, seed
    )
    admission_rows, index_admission_speedup = _admission_pair(
        repeats, ticks, seed
    )
    (
        prune_cext_rows,
        prune_speedup_cext,
        prune_cext_identical,
        prune_cext_skipped,
    ) = _prune_cext_pair(repeats, ticks, seed)
    dynnorm_rows, dynnorm_prune_speedup = _dynnorm_pair(repeats, ticks, seed)
    kernel_rows, kernel_speedup, kernel_backend, kernel_warmup = _kernel_pair(
        repeats, ticks, seed
    )
    shard_rows, shard_speedup, shard_efficiency = _shard_pair(
        repeats, ticks, seed
    )
    results = {
        "spring_1q": bench_spring_1q(ticks * 4, np.random.default_rng(seed)),
        "per_query_64q": bench_per_query_64q(
            max(ticks // 8, 64), np.random.default_rng(seed)
        ),
        "monitor_64q_push": push_row,
        "monitor_64q_push_metrics": push_metrics_row,
        "monitor_64q_push_many": bench_monitor_push_many(
            ticks, np.random.default_rng(seed)
        ),
        "monitor_64q_8s_push_many": bench_monitor_multistream(
            max(ticks // 4, 64), np.random.default_rng(seed)
        ),
    }
    results.update(prune_rows)
    results.update(prune_cext_rows)
    results.update(admission_rows)
    results.update(dynnorm_rows)
    results.update(kernel_rows)
    results.update(shard_rows)
    fused = results["monitor_64q_push"]["ticks_per_sec"]
    baseline = results["per_query_64q"]["ticks_per_sec"]
    return {
        "benchmark": "monitor throughput (ticks/sec)",
        "config": {
            "queries": QUERY_COUNT,
            "query_lengths": list(QUERY_LENGTHS),
            "streams": STREAM_COUNT,
            "prune_epsilon": PRUNE_EPSILON,
            "warm_ticks": WARM_TICKS,
            "prune_cext_batch": PRUNE_CEXT_BATCH,
            "admission_queries": ADMISSION_QUERY_COUNT,
            "admission_group_size": ADMISSION_GROUP_SIZE,
            "dynnorm_query_length": DYNNORM_QUERY_LENGTH,
            "dynnorm_epsilon": DYNNORM_EPSILON,
            "base_ticks": ticks,
            "push_repeats": repeats,
            "shard_streams": SHARD_STREAMS,
            "shard_queries": SHARD_QUERY_COUNT,
            "shard_workers": SHARD_WORKERS,
            "cpu_count": os.cpu_count(),
            "seed": seed,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "results": results,
        "fused_speedup_vs_per_query": round(fused / baseline, 2)
        if baseline
        else None,
        "metrics_overhead_pct": metrics_overhead_pct,
        "prune_speedup": prune_speedup,
        "metrics_overhead_pruned_pct": metrics_overhead_pruned_pct,
        "prune_speedup_cext": prune_speedup_cext,
        "prune_cext_identical": prune_cext_identical,
        "prune_speedup_cext_skipped": prune_cext_skipped,
        "index_admission_speedup": index_admission_speedup,
        "dynnorm_prune_speedup": dynnorm_prune_speedup,
        "kernel_backend": kernel_backend,
        "kernel_speedup_vs_numpy": kernel_speedup,
        "kernel_warmup": kernel_warmup,
        "shard_scaling_speedup": shard_speedup,
        "shard_scaling_efficiency": shard_efficiency,
    }


def main(argv: object = None) -> Path:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--ticks",
        type=int,
        default=20_000,
        help="stream length for the 64-query scenarios (default 20000)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_throughput.json",
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="best-of-N runs for the push/push-metrics pair (default 3)",
    )
    args = parser.parse_args(argv)

    report = run_suite(args.ticks, repeats=args.repeats)
    args.output.write_text(json.dumps(report, indent=2) + "\n")

    for name, row in report["results"].items():
        print(f"{name:28s} {row['ticks_per_sec']:>12,.1f} ticks/sec")
    print(f"fused speedup vs per-query: {report['fused_speedup_vs_per_query']}x")
    print(f"metrics overhead on push:   {report['metrics_overhead_pct']}%")
    print(f"prune speedup (low-sel):    {report['prune_speedup']}x")
    print(f"metrics overhead (pruned):  {report['metrics_overhead_pruned_pct']}%")
    if report["prune_speedup_cext"] is None:
        print(
            f"prune speedup (cext batch): n/a "
            f"({report['prune_speedup_cext_skipped']})"
        )
    else:
        print(
            f"prune speedup (cext batch): {report['prune_speedup_cext']}x "
            f"(match streams identical: {report['prune_cext_identical']})"
        )
    print(
        f"index admission speedup:    "
        f"{report['index_admission_speedup']}x "
        f"(grouped vs flat, {ADMISSION_QUERY_COUNT} queries)"
    )
    print(
        f"dynnorm prune speedup:      "
        f"{report['dynnorm_prune_speedup']}x "
        f"(corner bound on vs off, low selectivity)"
    )
    if report["kernel_backend"] is None:
        print("kernel speedup vs numpy:    n/a (no compiled backend)")
    else:
        warmup = report["kernel_warmup"]
        print(
            f"kernel speedup vs numpy:    "
            f"{report['kernel_speedup_vs_numpy']}x "
            f"({report['kernel_backend']}; warm-up "
            f"{warmup['resolve_seconds']:.3f}s resolve + "
            f"{warmup['first_256_ticks_seconds']:.3f}s first ticks)"
        )
    print(
        f"shard scaling (4w vs 1w):   "
        f"{report['shard_scaling_speedup']}x "
        f"(efficiency {report['shard_scaling_efficiency']}, "
        f"{report['config']['cpu_count']} cpus)"
    )
    print(f"wrote {args.output}")
    return args.output


if __name__ == "__main__":
    main()
