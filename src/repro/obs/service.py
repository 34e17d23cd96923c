"""Service-layer metric taxonomy for the asyncio network front end.

:class:`ServiceMetrics` binds every ``service_*`` instrument family the
network layer publishes onto one :class:`~repro.obs.metrics.MetricsRegistry`
— the same registry the fronted monitor records its ``spring_*`` series
into, so one ``GET /metrics`` scrape covers the whole process.  Families
are bound once at server construction, and so are the children the
per-frame paths update: one per frame type and served path at
construction, a producer's two in-flight gauges at its hello.  A frame
then costs a dict lookup and an ``inc``, not a label lookup.

Families (all prefixed ``service_``):

================================  =========  ==================================
family                            type       meaning
================================  =========  ==================================
connections_total{role}           counter    accepted connections by hello role
frames_total{type}                counter    valid frames received, by type
                                             (client types, else ``other``)
protocol_errors_total{code}       counter    structured error replies sent
pushed_ticks_total{stream}        counter    stream values accepted (acked)
push_batches_total{stream}        counter    push frames applied
events_delivered_total            counter    event frames fanned out (per
                                             subscriber delivery, not per event)
subscribers                       gauge      currently connected subscribers
subscriber_evictions_total        counter    slow consumers disconnected
ingest_queue_depth                gauge      work items queued for the engine
inflight_ticks{stream}            gauge      unacked ticks in flight
inflight_peak_ticks{stream}       gauge      high-water mark of the above
apply_latency_seconds             histogram  engine apply per run of one
                                             stream's queued pushes
ack_latency_seconds               histogram  enqueue-to-ack, per push batch
http_requests_total{path}         counter    HTTP requests served, by path
                                             (/metrics, /healthz, else
                                             ``other``)
checkpoints_total                 counter    service checkpoints written
================================  =========  ==================================

The in-flight gauges are the backpressure observable: with a credit
window of ``W`` ticks per stream, ``inflight_peak_ticks`` can never
exceed ``W`` — the backpressure conformance tests assert exactly that
through this registry.

The ``type`` and ``path`` labels come from clients, so each is bounded
to the names the server serves plus ``other``: a client sending junk
types or paths adds no series.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.obs.metrics import MetricsRegistry

__all__ = ["ServiceMetrics"]

#: The client frame types ``service_frames_total`` counts by name.
FRAME_TYPES = (
    "hello", "push", "register_query", "remove_query", "swap_query",
    "stats", "ping", "bye",
)

#: The paths ``service_http_requests_total`` counts by name.
HTTP_PATHS = ("/metrics", "/healthz")


class ServiceMetrics:
    """Bind the ``service_*`` families onto ``registry`` (or a new one)."""

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry or MetricsRegistry()
        reg = self.registry
        self.connections = reg.counter(
            "service_connections_total",
            "Connections accepted, by hello role",
            ("role",),
        )
        self.frames = reg.counter(
            "service_frames_total",
            "Valid protocol frames received, by frame type",
            ("type",),
        )
        self.protocol_errors = reg.counter(
            "service_protocol_errors_total",
            "Structured protocol error replies sent, by error code",
            ("code",),
        )
        self.pushed_ticks = reg.counter(
            "service_pushed_ticks_total",
            "Stream values accepted and acknowledged",
            ("stream",),
        )
        self.push_batches = reg.counter(
            "service_push_batches_total",
            "Push frames applied by the engine",
            ("stream",),
        )
        self.events_delivered = reg.counter(
            "service_events_delivered_total",
            "Event frames delivered to subscribers "
            "(one per matching subscriber per event)",
        )
        self.subscribers = reg.gauge(
            "service_subscribers",
            "Subscribers currently connected",
        )
        self.evictions = reg.counter(
            "service_subscriber_evictions_total",
            "Subscribers evicted for not keeping up with event fan-out",
        )
        self.queue_depth = reg.gauge(
            "service_ingest_queue_depth",
            "Work items currently queued for the engine thread",
        )
        self.inflight = reg.gauge(
            "service_inflight_ticks",
            "Pushed-but-unacknowledged ticks, per stream",
            ("stream",),
        )
        self.inflight_peak = reg.gauge(
            "service_inflight_peak_ticks",
            "High-water mark of service_inflight_ticks; bounded by the "
            "credit window when producers honour flow control",
            ("stream",),
        )
        self.apply_latency = reg.histogram(
            "service_apply_latency_seconds",
            "Engine time applying one run of a stream's queued pushes "
            "to the monitor",
        )
        self.ack_latency = reg.histogram(
            "service_ack_latency_seconds",
            "Time from push-frame receipt to the acknowledgement write",
        )
        self.http_requests = reg.counter(
            "service_http_requests_total",
            "HTTP requests served over the line-protocol port, by path",
            ("path",),
        )
        self.checkpoints = reg.counter(
            "service_checkpoints_total",
            "Service-level checkpoints written",
        )
        self._frame_counts = {
            name: self.frames.labels(type=name)
            for name in FRAME_TYPES + ("other",)
        }
        self._http_counts = {
            path: self.http_requests.labels(path=path)
            for path in HTTP_PATHS + ("other",)
        }

    # -- convenience updaters used by the hot paths --------------------

    def inflight_recorder(self, stream: str) -> Callable[[int], None]:
        """``record(ticks)`` for one stream: set its in-flight gauge and
        ratchet its high-water mark, with both children bound here."""
        gauge = self.inflight.labels(stream=stream)
        peak = self.inflight_peak.labels(stream=stream)

        def record(ticks: int) -> None:
            gauge.set(ticks)
            if ticks > peak.value:
                peak.set(ticks)

        return record

    def record_error(self, code: str) -> None:
        self.protocol_errors.labels(code=code).inc()

    def record_frame(self, frame_type: str) -> None:
        counts = self._frame_counts
        counts.get(frame_type, counts["other"]).inc()

    def record_http(self, path: str) -> None:
        counts = self._http_counts
        counts.get(path, counts["other"]).inc()
