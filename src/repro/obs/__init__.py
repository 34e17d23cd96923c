"""Observability: metrics, tracing spans, and profiling hooks.

SPRING's claims are *performance* claims — O(m) per tick, no false
dismissals, "as fast as the hardware allows" — and this package makes
them observable on a live monitor instead of only in offline timing
runs.  Three stdlib-only layers:

:mod:`repro.obs.metrics`
    Counters, gauges, and fixed-bucket histograms behind a thread-safe
    :class:`MetricsRegistry` with snapshot-time collectors.
:mod:`repro.obs.recorder`
    The capability gate: hot paths hold a recorder and check one
    ``enabled`` attribute; :data:`NULL_RECORDER` (the default) makes
    instrumentation free when observability is off, and
    :class:`MetricsRecorder` binds the metric taxonomy to a registry.
:mod:`repro.obs.tracing`
    Nested wall-clock spans, opened through one helper
    (``tracing.call``) behind a module-level ``ACTIVE`` gate, with
    per-thread span stacks and per-name self-time aggregation for the kernel/policy/transform/
    dispatch breakdown printed by ``scripts/profile_hotpath.py``.

Exposure paths: ``StreamMonitor.metrics()`` / ``RunReport.metrics``
(JSON snapshots), :mod:`repro.obs.prometheus` (text exposition, used
by ``monitor --metrics-out``), and :meth:`Tracer.events` (structured
trace events).  See ``docs/algorithm.md`` §10 for the metric-name and
span taxonomies.
"""

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshot,
)
from repro.obs.prometheus import parse as parse_prometheus
from repro.obs.prometheus import render as render_prometheus
from repro.obs.prometheus import render_http as render_prometheus_http
from repro.obs.prometheus import write as write_prometheus
from repro.obs.recorder import NULL_RECORDER, MetricsRecorder, NullRecorder
from repro.obs.service import ServiceMetrics
from repro.obs.tracing import (
    Tracer,
    current_tracer,
    disable_tracing,
    enable_tracing,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRecorder",
    "MetricsRegistry",
    "NULL_RECORDER",
    "NullRecorder",
    "ServiceMetrics",
    "Tracer",
    "current_tracer",
    "disable_tracing",
    "enable_tracing",
    "merge_snapshot",
    "parse_prometheus",
    "render_prometheus",
    "render_prometheus_http",
    "write_prometheus",
]
