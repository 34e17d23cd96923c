"""The in-process workloads: ``bank_hot`` and ``bank_cold``.

One ``StreamMonitor()`` in the default configuration, one stream,
driven by a single closed-loop caller with ``push_many`` batches.

* Set-up (``setup_s``) is monitor construction, query registration and
  the arming push (which also builds the execution plan); it is
  repeated :data:`~perfbench.common.SETUP_REPEATS` times, each divided
  by the host slowdown timed just before it, and the median reported,
  after the kernel backend is warm.
* The timed region pushes batches for ``--seconds`` in windows of
  :data:`WINDOW_BATCHES`; after each window the host slowdown is timed
  (:func:`~perfbench.common.host_slowdown`).  ``ticks_per_s`` is the
  median over windows of ticks over summed ``push_many`` time, times
  that slowdown: throughput at the reference host speed.  The raw
  ticks over summed ``push_many`` time is printed as ``raw_ticks_per_s``
  and the latency figures are percentiles of single ``push_many`` calls.
* Every batch's events, encoded with ``protocol.encode_event``, are
  compared with a reference run of the same stream under
  ``prune=False`` (cached per seed).  On ``bank_cold`` the reference
  covers every 16th query (offset by the seed): an unpruned 4096-query
  bank runs ~30x slower than the timed run, and query matchers are
  independent, so the sampled queries' events must match exactly.
"""

from __future__ import annotations

import gc
import hashlib
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import List, Optional, Set, Tuple

from perfbench import workloads
from perfbench.common import (
    DEFAULT_BACKEND,
    SETUP_REPEATS,
    BenchError,
    cached_reference,
    host_facts,
    host_slowdown,
    normalised_rate,
    peak_rss_mb,
    percentile_ms,
    source_digest,
    warm_backend,
)

STREAM = "s"

#: Reference sampling stride per workload (1 = every query).
REFERENCE_STRIDE = {"bank_hot": 1, "bank_cold": 16}

#: Batches per throughput window (about 0.1 s): short against the
#: seconds-long modes of a shared host, long against one batch.
WINDOW_BATCHES = 50


@dataclass
class Session:
    """One timed pass over a freshly set-up monitor."""

    latencies: List[float] = field(default_factory=list)
    ticks: int = 0
    wall: float = 0.0
    #: Events per batch; index 0 holds the arming push.
    events: List[list] = field(default_factory=list)
    before: dict = field(default_factory=dict)
    after: dict = field(default_factory=dict)
    queries: int = 0
    shape: dict = field(default_factory=dict)
    #: ``(ticks, push_many seconds, host slowdown after)`` per window.
    windows: List[Tuple[int, float, float]] = field(default_factory=list)

    @property
    def ticks_per_s(self) -> float:
        return self.ticks / sum(self.latencies)

    @property
    def normalised_ticks_per_s(self) -> float:
        return normalised_rate(*zip(*self.windows))


def _set_up(inputs: workloads.Inputs):
    from repro import StreamMonitor

    started = perf_counter()
    monitor = StreamMonitor()
    monitor.add_stream(STREAM)
    for name, query, epsilon in inputs.queries:
        monitor.add_query(name, query, epsilon=epsilon)
    # The arming push also builds the execution plan (even when empty).
    events = monitor.push_many(STREAM, inputs.arming)
    return monitor, events, perf_counter() - started


def _session(
    workload: str,
    seed: int,
    seconds: float,
    size: str,
    setup_times: Optional[List[float]] = None,
    probe=None,
) -> Session:
    """Set up a monitor, then push batches for ``seconds``.

    With ``setup_times`` the set-up runs :data:`SETUP_REPEATS` times,
    appending each duration at the reference host speed, and the last
    monitor is driven.  With a ``probe``, spans are recorded over the
    timed loop only and no windows are calibrated.
    """
    inputs = workloads.make(workload, seed, size)
    repeats = SETUP_REPEATS if setup_times is not None else 1
    for _ in range(repeats):
        # Free the previous monitor first, so peak RSS holds one monitor.
        monitor = None
        gc.collect()
        slowdown = host_slowdown()
        monitor, arming_events, elapsed = _set_up(inputs)
        if setup_times is not None:
            setup_times.append(elapsed / slowdown)
    if monitor.backend_name != DEFAULT_BACKEND:
        raise BenchError(
            f"monitor runs backend {monitor.backend_name!r}, "
            f"not {DEFAULT_BACKEND!r}"
        )
    session = Session(
        events=[arming_events], queries=len(inputs.queries), shape=inputs.shape
    )
    session.before = monitor.prune_stats(STREAM)
    source = workloads.batches(inputs, workloads.BANK_BATCH)
    push_many = monitor.push_many
    latencies = session.latencies
    events = session.events
    windows = session.windows
    ticks = window_ticks = 0
    window_time = 0.0
    if probe is not None:
        probe.start()
    started = perf_counter()
    deadline = started + seconds
    while perf_counter() < deadline:
        values = next(source)
        t0 = perf_counter()
        out = push_many(STREAM, values)
        elapsed = perf_counter() - t0
        latencies.append(elapsed)
        events.append(out)
        ticks += values.shape[0]
        window_ticks += values.shape[0]
        window_time += elapsed
        if probe is None and len(latencies) % WINDOW_BATCHES == 0:
            windows.append((window_ticks, window_time, host_slowdown()))
            window_ticks, window_time = 0, 0.0
    session.wall = perf_counter() - started
    if probe is None and not windows:
        windows.append((window_ticks, window_time, host_slowdown()))
    if probe is not None:
        probe.stop()
    session.ticks = ticks
    session.after = monitor.prune_stats(STREAM)
    return session


def _digests(batches: List[list], keep: Optional[Set[str]]) -> List[str]:
    from repro.service.protocol import encode_event

    seq = 0
    out = []
    for events in batches:
        digest = hashlib.sha256()
        for event in events:
            if keep is not None and event.query not in keep:
                continue
            seq += 1
            digest.update(encode_event(event.stream, seq, event))
        out.append(digest.hexdigest()[:20])
    return out


def _sample(workload: str, seed: int, inputs: workloads.Inputs) -> Set[str]:
    stride = REFERENCE_STRIDE[workload]
    return {name for name, _, _ in inputs.queries[seed % stride :: stride]}


def _reference(workload: str, seed: int, size: str, batches: int) -> List[str]:
    """Reference digests of the first ``batches`` batches (arming first)."""
    from repro import StreamMonitor

    def compute(n: int) -> List[str]:
        inputs = workloads.make(workload, seed, size)
        keep = _sample(workload, seed, inputs)
        monitor = StreamMonitor(prune=False)
        monitor.add_stream(STREAM)
        for name, query, epsilon in inputs.queries:
            if name in keep:
                monitor.add_query(name, query, epsilon=epsilon)
        out = [monitor.push_many(STREAM, inputs.arming)]
        source = workloads.batches(inputs, workloads.BANK_BATCH)
        for _ in range(n - 1):
            out.append(monitor.push_many(STREAM, next(source)))
        return _digests(out, None)

    key = f"{workload}-{size}-{seed}-{source_digest()}"
    return cached_reference(key, batches, compute)


def _mismatches(workload: str, seed: int, size: str, session: Session) -> int:
    inputs = workloads.make(workload, seed, size)
    keep = _sample(workload, seed, inputs)
    got = _digests(session.events, keep)
    want = _reference(workload, seed, size, len(got))
    return sum(1 for a, b in zip(got, want) if a != b)


def _resolved_config(session: Session) -> dict:
    """The admission strategy ``auto`` resolved to, checked by its
    counters, plus the prune setting, checked by parked ticks."""
    from repro.core.admission import AUTO_GROUP_MIN_QUERIES

    grouped = session.queries >= AUTO_GROUP_MIN_QUERIES
    delta = {k: session.after[k] - session.before[k] for k in session.after}
    group_tests = delta["groups_certified"] + delta["group_descents"]
    if grouped != (group_tests > 0):
        raise BenchError(
            f"admission=auto did not resolve as expected for "
            f"{session.queries} queries (group tests: {group_tests})"
        )
    if delta["pruned_ticks"] <= 0:
        raise BenchError("prune is on but no query-tick was pruned")
    return {
        "backend": DEFAULT_BACKEND,
        "admission": "auto -> " + ("grouped" if grouped else "flat"),
        "prune": True,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    warm = warm_backend()
    if trace:
        return _run_traced(workload, seed, seconds, size, warm)
    setups: List[float] = []
    session = _session(workload, seed, seconds, size, setups)
    rss = peak_rss_mb()
    failed = _mismatches(workload, seed, size, session)
    lat = session.latencies
    p50, p99 = percentile_ms(lat, 50), percentile_ms(lat, 99)
    n_events = sum(len(e) for e in session.events[1:])
    metrics = {
        "setup_s": statistics.median(setups),
        "ticks_per_s": session.normalised_ticks_per_s,
        "peak_rss_mb": rss,
    }
    attempted = len(session.events)
    report = {
        "workload": workload,
        "seed": seed,
        "shape": session.shape,
        "host": host_facts(),
        "config": dict(_resolved_config(session), **warm),
        "samples": {
            "batches": len(lat),
            "windows": len(session.windows),
            "setups": len(setups),
        },
        "reference": {
            "mode": "prune=False",
            "stride": REFERENCE_STRIDE[workload],
            "batches_mismatched": failed,
        },
        "figures": {
            "raw_ticks_per_s": (session.ticks_per_s, "ticks/s"),
            "host_slowdown_p50": (
                statistics.median(w[2] for w in session.windows),
                "ratio",
            ),
            "batch_p50_ms": (p50, "ms"),
            "batch_p90_ms": (percentile_ms(lat, 90), "ms"),
            "batch_p99_ms": (p99, "ms"),
            "events": (n_events, "count"),
            "error_rate": (failed / attempted, "ratio"),
        },
    }
    return {
        "metrics": metrics,
        "report": report,
        "attempted": attempted,
        "failed": failed,
    }


def _run_traced(workload: str, seed: int, seconds: float, size: str, warm) -> dict:
    """An untraced and a traced session, each for half of ``seconds``."""
    from perfbench.spans import Probe, layer_metrics

    plain = _session(workload, seed, seconds / 2, size)
    probe = Probe()
    probe.install()
    try:
        traced = _session(workload, seed, seconds / 2, size, probe=probe)
    finally:
        probe.uninstall()
    summary = probe.summary(wall=traced.wall)
    failed = _mismatches(workload, seed, size, plain) + _mismatches(
        workload, seed, size, traced
    )
    delta = {k: traced.after[k] - traced.before[k] for k in traced.after}
    query_ticks = traced.queries * traced.ticks
    metrics = layer_metrics(summary, probe.counters())
    metrics.update(
        {
            "admission.parked_share": delta["pruned_ticks"] / query_ticks,
            "admission.replays": delta["replays"],
            "admission.replayed_ticks": delta["replayed_ticks"],
            "admission.group_certified_share": _share(
                delta["groups_certified"], delta["group_descents"]
            ),
            "kernel.ns_per_query_tick": summary["layers"]["kernel"]
            * 1e9
            / max(1, query_ticks - delta["pruned_ticks"]),
            "trace.overhead_pct": (plain.ticks_per_s / traced.ticks_per_s - 1)
            * 100,
        }
    )
    attempted = len(plain.events) + len(traced.events)
    report = {
        "workload": workload,
        "seed": seed,
        "host": host_facts(),
        "config": dict(_resolved_config(traced), **warm),
        "trace": {
            "layer_self_s": summary["layers"],
            "span_calls": summary["calls"],
            "wall_s": summary["wall_s"],
            "dropped_spans": summary["dropped_spans"],
            "untraced_ticks_per_s": plain.ticks_per_s,
            "traced_ticks_per_s": traced.ticks_per_s,
        },
        "reference": {"mode": "prune=False", "batches_mismatched": failed},
    }
    return {
        "metrics": metrics,
        "report": report,
        "attempted": attempted,
        "failed": failed,
    }


def _share(part: float, rest: float) -> float:
    return part / (part + rest) if part + rest else 0.0
