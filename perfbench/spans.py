"""Per-layer attribution for the traced benchmark pass.

The library already emits spans through :mod:`repro.obs.tracing`
(``kernel.*``, ``admission.admit``, ``engine.bank_*``,
``monitor.push_many``).  :class:`Probe` adds spans from the benchmark's
own files, around the public entry points of the layers that emit
none on the default path, by wrapping them in place:

* ``StreamMonitor.push_many`` (also records ticks and events per call),
* ``Spring.extend`` and the resolved backend's ``update_column`` (the
  unbanked matcher and its kernel),
* ``CheckpointManager.save`` (records snapshot bytes),
* ``protocol.decode_frame`` / ``decode_values`` / ``encode_frame`` /
  ``encode_event`` (record wire bytes),
* ``ServiceEngine.submit_push`` (records the engine queue depth).

``repro.obs.tracing`` keeps one implicit span stack per tracer, and the
service runs an asyncio thread beside its engine thread, so the probe
installs :class:`ThreadTracers` as ``tracing.ACTIVE``: one
:class:`~repro.obs.tracing.Tracer` per thread, created on first use.

A layer's self time is the summed self time of its spans; per thread,
layer self times plus the unattributed residual add up to the traced
wall-clock time of that thread.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Dict, List, Optional

from perfbench.common import percentile_ms
from repro.obs import tracing

#: Layer of each span name the library emits, by name prefix.
_PREFIX_LAYERS = {
    "kernel": "kernel",
    "admission": "admission",
    "engine": "bank",  # repro.core.engine: FusedBank dispatch
    "policy": "bank",
    "monitor": "monitor",
    "transform": "monitor",
    "cascade": "matcher",
}

#: Span names added by the probe's wrappers.
_ENTRY_LAYERS = {
    "entry.StreamMonitor.push_many": "monitor",
    "entry.Spring.extend": "matcher",
    "kernel.update_column": "kernel",
    "entry.CheckpointManager.save": "checkpoint",
    "entry.protocol.decode_frame": "protocol",
    "entry.protocol.decode_values": "protocol",
    "entry.protocol.encode_frame": "protocol",
    "entry.protocol.encode_event": "protocol",
    "entry.ServiceEngine.submit_push": "engine",
}

LAYER_NAMES = (
    "kernel", "admission", "bank", "monitor", "matcher",
    "checkpoint", "protocol", "engine", "other",
)

#: Kernel spans that advance exactly one tick per call.
_PER_TICK_KERNEL = ("kernel.step_bank", "kernel.update_columns", "kernel.update_column")


def layer_of(name: str) -> str:
    """The layer a span name is attributed to."""
    layer = _ENTRY_LAYERS.get(name)
    if layer is not None:
        return layer
    return _PREFIX_LAYERS.get(name.split(".", 1)[0], "other")


class ThreadTracers:
    """Drop-in for ``tracing.ACTIVE`` that keeps one tracer per thread."""

    def __init__(self, limit: int = 4_000_000) -> None:
        self.limit = int(limit)
        self.tracers: List[tracing.Tracer] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def local(self) -> tracing.Tracer:
        tracer = getattr(self._local, "tracer", None)
        if tracer is None:
            tracer = tracing.Tracer(limit=self.limit)
            self._local.tracer = tracer
            with self._lock:
                self.tracers.append(tracer)
        return tracer

    def span(self, name: str):
        return self.local().span(name)


class Probe:
    """Install span wrappers on layer entry points; collect their counts."""

    def __init__(self) -> None:
        self.tracers = ThreadTracers()
        self.monitor = None
        self.engine = None
        self.ticks = 0
        self.events = 0
        self.checkpoint_bytes = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.queue_depth_peak = 0.0
        # id(tracer) -> {span index of a push_many entry: its ticks}
        self.batch_ticks: Dict[int, Dict[int, int]] = {}
        self._lock = threading.Lock()
        self._undo: List[Callable[[], None]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap the entry points; they record only between
        :meth:`start` and :meth:`stop`."""
        from repro.core.backends import resolve_backend
        from repro.core.monitor import StreamMonitor
        from repro.core.spring import Spring
        from repro.runtime.checkpointer import CheckpointManager
        from repro.service import protocol
        from repro.service.engine import ServiceEngine

        self._wrap(StreamMonitor, "push_many", "entry.StreamMonitor.push_many",
                   self._after_push_many, index=True)
        self._wrap(Spring, "extend", "entry.Spring.extend")
        self._wrap(type(resolve_backend()), "update_column", "kernel.update_column")
        self._wrap(CheckpointManager, "save", "entry.CheckpointManager.save",
                   self._after_save)
        self._wrap(protocol, "decode_frame", "entry.protocol.decode_frame",
                   self._after_decode)
        self._wrap(protocol, "decode_values", "entry.protocol.decode_values")
        self._wrap(protocol, "encode_frame", "entry.protocol.encode_frame",
                   self._after_encode)
        self._wrap(protocol, "encode_event", "entry.protocol.encode_event")
        self._wrap(ServiceEngine, "submit_push", "entry.ServiceEngine.submit_push",
                   self._after_submit)

    def start(self) -> None:
        """Make the per-thread tracer active (library spans included)."""
        tracing.ACTIVE = self.tracers

    def stop(self) -> None:
        tracing.ACTIVE = None

    def uninstall(self) -> None:
        self.stop()
        while self._undo:
            self._undo.pop()()

    def _wrap(self, owner, attr: str, span: str, after=None, index=False) -> None:
        original = getattr(owner, attr)
        own = attr in vars(owner)
        tracers = self.tracers
        batch_ticks = self.batch_ticks

        def wrapper(*args, **kwargs):
            if tracing.ACTIVE is not tracers:
                return original(*args, **kwargs)
            tracer = tracers.local()
            if index:
                # The index the entry span is about to get, so kernel
                # spans below it can be charged the batch's ticks.
                batch_ticks.setdefault(id(tracer), {})[len(tracer)] = len(args[2])
            with tracer.span(span):
                result = original(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append(
            (lambda: setattr(owner, attr, original))
            if own
            else (lambda: delattr(owner, attr))
        )

    # -- counters -------------------------------------------------------

    def _after_push_many(self, args, events) -> None:
        self.monitor = args[0]
        self.ticks += len(args[2])
        self.events += len(events)

    def _after_save(self, args, path) -> None:
        self.checkpoint_bytes += os.path.getsize(path)

    def _after_decode(self, args, frame) -> None:
        with self._lock:
            self.bytes_in += len(args[0])

    def _after_encode(self, args, data) -> None:
        with self._lock:
            self.bytes_out += len(data)

    def _after_submit(self, args, future) -> None:
        self.engine = args[0]
        depth = self.engine.metrics.queue_depth.value
        if depth > self.queue_depth_peak:
            self.queue_depth_peak = depth

    def counters(self) -> dict:
        """Counts the wrappers recorded, JSON-safe."""
        return {
            "ticks": self.ticks,
            "events": self.events,
            "checkpoint_bytes": self.checkpoint_bytes,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "queue_depth_peak": self.queue_depth_peak,
        }

    # -- aggregation ----------------------------------------------------

    def summary(self, wall: Optional[float] = None) -> dict:
        """Per-layer self times and kernel counts over every thread.

        ``wall`` is the traced wall-clock time of a single-threaded run;
        without it each thread contributes its span extent (first start
        to last end), and the traced wall-clock time is their sum.
        """
        layers = {name: 0.0 for name in LAYER_NAMES}
        calls: Dict[str, int] = {}
        self_s: Dict[str, float] = {}
        kernel_ticks = 0
        durations: List[float] = []
        wall_total = 0.0
        dropped = 0
        for tracer in self.tracers.tracers:
            events = tracer.events()
            if not events:
                continue
            dropped += tracer.dropped
            for name, entry in tracer.totals().items():
                layers[layer_of(name)] += entry["self"]
                calls[name] = calls.get(name, 0) + int(entry["count"])
                self_s[name] = self_s.get(name, 0.0) + entry["self"]
            ticks_at = self.batch_ticks.get(id(tracer), {})
            for event in events:
                name = event["name"]
                if name == "entry.CheckpointManager.save":
                    durations.append(event["duration"])
                if name in _PER_TICK_KERNEL:
                    kernel_ticks += 1
                elif name.startswith("kernel."):
                    kernel_ticks += _enclosing_batch(events, event, ticks_at)
            start = min(e["start"] for e in events)
            end = max(e["start"] + e["duration"] for e in events)
            wall_total += end - start
        if wall is not None:
            wall_total = wall
        attributed = sum(layers.values())
        return {
            "layers": layers,
            "calls": calls,
            "self_s": self_s,
            "kernel_ticks": kernel_ticks,
            "checkpoint_durations": durations,
            "wall_s": wall_total,
            "unattributed_s": wall_total - attributed,
            "dropped_spans": dropped,
        }


def _enclosing_batch(events: List[dict], event: dict, ticks_at: Dict[int, int]) -> int:
    parent = event["parent"]
    while parent >= 0:
        if parent in ticks_at:
            return ticks_at[parent]
        parent = events[parent]["parent"]
    return 1


def layer_metrics(summary: dict, counters: dict) -> dict:
    """Per-layer metrics common to every workload, from a span summary.

    ``counters`` is :meth:`Probe.counters`.  Layers a workload does not
    touch read zero; the runners overwrite the entries that need
    workload context (admission deltas, histograms, load generator).
    """
    layers = summary["layers"]
    calls = summary["calls"]
    kernel_calls = sum(n for name, n in calls.items() if name.startswith("kernel."))
    durations = summary["checkpoint_durations"]

    def self_s(name: str) -> float:
        return summary["self_s"].get(name, 0.0)

    return {
        "kernel.calls": kernel_calls,
        "kernel.busy_s": layers["kernel"],
        "kernel.ticks_per_call": summary["kernel_ticks"] / max(1, kernel_calls),
        "kernel.ns_per_query_tick": 0.0,
        "admission.calls": calls.get("admission.admit", 0),
        "admission.busy_s": layers["admission"],
        "admission.parked_share": 0.0,
        "admission.replays": 0,
        "admission.replayed_ticks": 0,
        "admission.group_certified_share": 0.0,
        "bank.busy_s": layers["bank"],
        "monitor.busy_s": layers["monitor"],
        "monitor.events": counters["events"],
        "matcher.busy_s": layers["matcher"],
        "checkpoint.saves": len(durations),
        "checkpoint.busy_s": layers["checkpoint"],
        "checkpoint.p99_ms": percentile_ms(durations, 99),
        "checkpoint.bytes": counters["checkpoint_bytes"],
        "protocol.decode_s": self_s("entry.protocol.decode_frame")
        + self_s("entry.protocol.decode_values"),
        "protocol.encode_s": self_s("entry.protocol.encode_frame")
        + self_s("entry.protocol.encode_event"),
        "protocol.bytes_in": counters["bytes_in"],
        "protocol.bytes_out": counters["bytes_out"],
        "engine.submit_s": layers["engine"],
        "engine.apply_p50_ms": 0.0,
        "engine.apply_p99_ms": 0.0,
        "engine.queue_wait_p99_ms": 0.0,
        "engine.queue_depth_peak": counters["queue_depth_peak"],
        "server.events_delivered": 0,
        "server.evictions": 0,
        "server.inflight_peak_ticks": 0,
        "loadgen.lag_p99_ms": 0.0,
        "trace.overhead_pct": 0.0,
        "trace.unattributed_s": summary["unattributed_s"],
        "trace.other_s": layers["other"],
        "trace.wall_s": summary["wall_s"],
    }
