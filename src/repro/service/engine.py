"""The serving engine: one thread that owns the monitor.

:class:`ServiceEngine` is the seam between the asyncio front end and
the synchronous monitoring runtime.  Every state change — pushes,
query lifecycle, checkpoints — and every ``/metrics`` render funnels
through one work queue consumed by a single dedicated thread, so the
monitor itself needs no locking and the event order every subscriber
observes is the order the engine produced.  The asyncio server never
touches the monitor directly; it submits work items and awaits the
returned futures.

Pushes are applied in runs: after taking a push the engine also takes
every push for the same stream queued right behind it, stopping at the
first other work item, which runs next.  Each push of a run is
trimmed, gap-checked and cut at its first fatal value exactly as if it
ran alone, against the watermark the pushes before it leave, and gets
its own :class:`PushResult` (or an error that carries that watermark);
their clean values reach the monitor as one ``push_many`` call (a push
cut short by a bad value ends that call after its clean prefix), the
run checkpoints once, and the futures resolve in order.  The run's
values are checked for fatal ones in one pass; only a run that holds
one checks push by push.  ``push_many`` output does not depend on how a
stream is split into batches, so runs change cost, not results.  The
work queue is a :class:`queue.SimpleQueue`, which takes no lock
condition per hand-off.

Two execution modes behind one interface:

* **In-process** (``shards == 0``, the default): a
  :class:`~repro.core.monitor.StreamMonitor` on the engine thread.
  Streams auto-register on first producer hello, the full
  missing-value policy applies (NaN routes through each matcher's
  ``missing`` setting; ±inf is answered with a ``bad_value`` error for
  the offending tick while the clean prefix is applied and acked), and
  checkpoint/resume is supported via
  :class:`~repro.runtime.checkpointer.CheckpointManager`.
* **Sharded** (``shards >= 1``): a
  :class:`~repro.runtime.shard.ShardedMonitor` spanning worker
  processes.  Streams must be declared up front (the shared rings are
  sized at start), values must be finite (the sharded data plane has
  no missing-value policy — any non-finite tick gets the ``bad_value``
  reply), and cross-run resume is unavailable; crash recovery *within*
  a run is the sharded runtime's own supervision.

Exactly-once delivery past the ack watermark
--------------------------------------------
The engine stamps every match event with a per-stream monotone
sequence number.  Sequence state rides inside checkpoints (the
``extra`` payload), so after a crash + resume the engine re-emits the
suffix with the *same* numbers a non-crashing run would have used.
Producers replay un-acked ticks from their last ``ack`` watermark
(at-least-once), the server trims the already-applied prefix using the
watermark, and subscribers drop events whose sequence number they have
already seen — the composition is exactly-once.
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.monitor import MatchEvent, StreamMonitor
from repro.exceptions import ReproError, ServiceError, ValidationError
from repro.obs.prometheus import render_http
from repro.obs.service import ServiceMetrics
from repro.runtime.checkpointer import CheckpointManager
from repro.service import protocol

__all__ = ["EngineConfig", "PushResult", "ServiceEngine"]


@dataclass
class EngineConfig:
    """Everything that shapes the engine's monitor and durability."""

    streams: Sequence[str] = ()
    shards: int = 0
    backend: Optional[str] = None
    admission: Optional[str] = None
    admission_group_size: Optional[int] = None
    prune: bool = True
    prune_buffer: int = 1024
    checkpoint_dir: Union[str, Path, None] = None
    checkpoint_every: int = 0
    resume: bool = False
    #: (name, query values, epsilon, extra kwargs) registered at boot.
    queries: Sequence[Tuple[str, Sequence[float], float, dict]] = ()


@dataclass
class PushResult:
    """Outcome of one push frame, in ack-frame terms.

    ``applied`` ticks were fed to the monitor (after trimming
    ``trimmed`` already-seen replay ticks); ``watermark`` is the
    stream's tick count afterwards.  ``error`` carries the
    ``(code, detail)`` of the first rejected tick when the push was
    cut short, else ``None``.
    """

    applied: int
    trimmed: int
    watermark: int
    error: Optional[Tuple[str, str]] = None
    events: List[Tuple[int, MatchEvent]] = field(default_factory=list)


def _settle(future: Optional[Future], outcome) -> None:
    """Resolve ``future`` with ``outcome``; an exception fails it."""
    if future is None or future.cancelled():
        return
    if isinstance(outcome, BaseException):
        future.set_exception(outcome)
    else:
        future.set_result(outcome)


class ServiceEngine:
    """Single-threaded owner of the monitor behind the network service.

    ``on_event(stream, seq, event)`` fires on the engine thread for
    every match, in emission order; the server bridges it into the
    asyncio loop.  All ``submit_*`` methods are thread-safe and return
    :class:`concurrent.futures.Future`.
    """

    def __init__(
        self,
        config: EngineConfig,
        metrics: Optional[ServiceMetrics] = None,
        on_event: Optional[Callable[[str, int, MatchEvent], None]] = None,
    ) -> None:
        self.config = config
        self.metrics = metrics or ServiceMetrics()
        self.on_event = on_event
        self.sharded = int(config.shards) > 0
        self._work: "queue.SimpleQueue[Tuple[str, tuple, Optional[Future]]]" = (
            queue.SimpleQueue()
        )
        self._thread: Optional[threading.Thread] = None
        self._stopped = threading.Event()
        self._crash: Optional[BaseException] = None
        # Engine-thread state (reads of immutable ints from other
        # threads are fine; all writes happen on the engine thread).
        self._ticks: Dict[str, int] = {}
        self._seqs: Dict[str, int] = {}
        self._events_total = 0
        self._ticks_since_checkpoint = 0
        self._monitor = None
        self._checkpointer: Optional[CheckpointManager] = None
        if config.checkpoint_dir is not None:
            if self.sharded:
                raise ValidationError(
                    "service checkpointing requires the in-process engine "
                    "(shards=0); the sharded runtime supervises its own "
                    "workers but does not resume across runs"
                )
            self._checkpointer = CheckpointManager(config.checkpoint_dir)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Build the monitor and start the engine thread."""
        if self._thread is not None:
            raise ServiceError("engine already started")
        self._build_monitor()
        self._thread = threading.Thread(
            target=self._run, name="service-engine", daemon=True
        )
        self._thread.start()

    def stop(self, checkpoint: bool = True) -> None:
        """Drain queued work, optionally checkpoint, stop the thread."""
        if self._thread is None:
            return
        done: Future = Future()
        self._work.put(("stop", (bool(checkpoint),), done))
        done.result(timeout=60.0)
        self._thread.join(timeout=60.0)
        self._thread = None

    @property
    def running(self) -> bool:
        return (
            self._thread is not None
            and self._thread.is_alive()
            and not self._stopped.is_set()
        )

    def _build_monitor(self) -> None:
        cfg = self.config
        resumed_meta: Optional[dict] = None
        if cfg.resume:
            if self._checkpointer is None:
                raise ValidationError(
                    "resume=True requires a checkpoint_dir"
                )
            monitor, resumed_meta = self._checkpointer.resume(
                prune=cfg.prune,
                prune_buffer=cfg.prune_buffer,
                backend=cfg.backend,
                admission=cfg.admission,
                admission_group_size=cfg.admission_group_size,
            )
            self._monitor = monitor
            self._ticks = dict(resumed_meta["stream_ticks"])
            raw_seqs = resumed_meta["extra"].get("service_seqs", {})
            self._seqs = {str(k): int(v) for k, v in raw_seqs.items()}
            self._events_total = int(resumed_meta["events_emitted"])
            for stream in cfg.streams:
                if stream not in monitor.streams:
                    monitor.add_stream(stream)
            for stream in monitor.streams:
                self._ticks.setdefault(stream, 0)
                self._seqs.setdefault(stream, 0)
            monitor.subscribe(self._dispatch_event)
            monitor.enable_metrics(self.metrics.registry)
            return
        if self.sharded:
            from repro.runtime.shard import ShardedMonitor

            monitor = ShardedMonitor(
                shards=int(cfg.shards),
                prune=cfg.prune,
                prune_buffer=cfg.prune_buffer,
                backend=cfg.backend,
                admission=cfg.admission,
                admission_group_size=cfg.admission_group_size,
                keep_events=False,
            )
            if not cfg.streams:
                raise ValidationError(
                    "the sharded engine needs its streams declared up "
                    "front (shared rings are sized at start)"
                )
            for stream in cfg.streams:
                monitor.add_stream(stream)
                self._ticks[stream] = 0
                self._seqs[stream] = 0
            for name, query, epsilon, kwargs in cfg.queries:
                monitor.add_query(name, query, epsilon, **dict(kwargs))
            monitor.enable_metrics(self.metrics.registry)
            monitor.subscribe(self._dispatch_event)
            monitor.start()
        else:
            monitor = StreamMonitor(
                keep_history=False,
                prune=cfg.prune,
                prune_buffer=cfg.prune_buffer,
                backend=cfg.backend,
                admission=cfg.admission,
                admission_group_size=cfg.admission_group_size,
            )
            for stream in cfg.streams:
                monitor.add_stream(stream)
                self._ticks[stream] = 0
                self._seqs[stream] = 0
            for name, query, epsilon, kwargs in cfg.queries:
                monitor.add_query(name, query, epsilon, **dict(kwargs))
            monitor.subscribe(self._dispatch_event)
            monitor.enable_metrics(self.metrics.registry)
        self._monitor = monitor

    # ------------------------------------------------------------------
    # Submission API (any thread)
    # ------------------------------------------------------------------

    def _submit(self, kind: str, payload: tuple) -> Future:
        if self._crash is not None:
            raise ServiceError(
                f"engine thread died: {self._crash!r}"
            ) from self._crash
        if self._thread is None or self._stopped.is_set():
            raise ServiceError("engine is not running")
        future: Future = Future()
        self._work.put((kind, payload, future))
        self.metrics.queue_depth.set(float(self._work.qsize()))
        return future

    def submit_push(
        self, stream: str, values: np.ndarray, first: Optional[int] = None
    ) -> "Future[PushResult]":
        """Apply a batch; ``first`` is the absolute 1-based tick of
        ``values[0]`` (replay trimming), ``None`` = append at the
        watermark."""
        return self._submit("push", (stream, values, first))

    def submit_ensure_stream(self, stream: str) -> "Future[int]":
        """Resolve the stream's watermark, auto-registering it when the
        in-process engine allows; the future raises
        :class:`~repro.service.protocol.ProtocolError` otherwise."""
        return self._submit("ensure_stream", (stream,))

    def submit_query_op(self, op: str, payload: dict) -> "Future[dict]":
        """Run ``register_query`` / ``remove_query`` / ``swap_query``."""
        return self._submit("query", (op, payload))

    def submit_stats(self) -> "Future[dict]":
        return self._submit("stats", ())

    def submit_checkpoint(self) -> "Future[Optional[str]]":
        return self._submit("checkpoint", ())

    def submit_render(self) -> "Future[bytes]":
        """Render the metrics registry as a full HTTP response.

        Runs on the engine thread: the monitor's collectors walk its
        streams and write bank state back, which only the thread that
        mutates the monitor may do.
        """
        return self._submit("render", ())

    def watermark(self, stream: str) -> int:
        """Last applied tick for ``stream`` (0 when unknown)."""
        return int(self._ticks.get(stream, 0))

    def sequence(self, stream: str) -> int:
        """Last emitted event sequence number for ``stream``."""
        return int(self._seqs.get(stream, 0))

    def watermarks(self) -> Dict[str, int]:
        """Per-stream applied tick counts (snapshot copy)."""
        return {k: int(v) for k, v in self._ticks.items()}

    def sequences(self) -> Dict[str, int]:
        """Per-stream last event sequence numbers (snapshot copy)."""
        return {k: int(v) for k, v in self._seqs.items()}

    # ------------------------------------------------------------------
    # Engine thread
    # ------------------------------------------------------------------

    def _run(self) -> None:
        # ``item`` is the next work item: taken from the queue, or the
        # one that ended the previous run of pushes.
        item = None
        try:
            while True:
                if item is None:
                    try:
                        item = self._work.get(timeout=0.05)
                    except queue.Empty:
                        # Idle: the sharded data plane surfaces events
                        # only while being serviced, so pump it between
                        # pushes.
                        if self.sharded:
                            self._monitor.poll(0.0)
                        continue
                kind, payload, future = item
                if kind == "push":
                    run, item = self._take_run(item)
                    futures = [queued[2] for queued in run]
                else:
                    item, futures = None, [future]
                self.metrics.queue_depth.set(float(self._work.qsize()))
                if kind == "stop":
                    self._handle_stop(payload[0], future)
                    return
                try:
                    if kind == "push":
                        outcomes = self._handle_pushes(
                            payload[0], [queued[1][1:] for queued in run]
                        )
                    else:
                        outcomes = [self._handle(kind, payload)]
                except BaseException as err:  # noqa: BLE001 - forwarded
                    for future in futures:
                        _settle(future, err)
                    if not isinstance(err, (ReproError, protocol.ProtocolError)):
                        raise
                else:
                    for future, outcome in zip(futures, outcomes):
                        _settle(future, outcome)
        except BaseException as err:  # noqa: BLE001 - crash containment
            self._crash = err
            self._stopped.set()
            self._drain_pending(err, item)

    def _take_run(self, item):
        """The push ``item`` and every push for its stream queued right
        behind it, plus the first other work item (``None`` when the
        queue ran dry), which must run next so nothing is reordered.

        A run needs no cap: each producer's credit window bounds the
        ticks it can have queued.
        """
        stream = item[1][0]
        run = [item]
        while True:
            try:
                item = self._work.get_nowait()
            except queue.Empty:
                return run, None
            if item[0] != "push" or item[1][0] != stream:
                return run, item
            run.append(item)

    def _drain_pending(self, err: BaseException, item=None) -> None:
        """Fail ``item`` (taken but not run) and every queued future."""
        while True:
            if item is not None:
                _settle(item[2], ServiceError(f"engine thread died: {err!r}"))
            try:
                item = self._work.get_nowait()
            except queue.Empty:
                return

    def _handle(self, kind: str, payload: tuple):
        if kind == "ensure_stream":
            return self._handle_ensure_stream(*payload)
        if kind == "query":
            return self._handle_query(*payload)
        if kind == "stats":
            return self._handle_stats()
        if kind == "checkpoint":
            return self._write_checkpoint()
        if kind == "render":
            try:
                return render_http(self.metrics.registry)
            except Exception as err:  # noqa: BLE001 - a scrape must not kill the engine
                raise ServiceError(f"metrics render failed: {err!r}") from err
        raise ServiceError(f"unknown work item {kind!r}")

    def _handle_stop(self, checkpoint: bool, future: Future) -> None:
        try:
            if checkpoint and self._checkpointer is not None:
                self._write_checkpoint()
            if self.sharded and self._monitor is not None:
                self._monitor.finish(flush=False)
            self._stopped.set()
            future.set_result(None)
        except BaseException as err:  # noqa: BLE001 - forwarded
            self._stopped.set()
            future.set_exception(err)

    # -- event fan-out (engine thread) ---------------------------------

    def _dispatch_event(self, event: MatchEvent) -> None:
        stream = event.stream
        seq = self._seqs.get(stream, 0) + 1
        self._seqs[stream] = seq
        self._events_total += 1
        if self.on_event is not None:
            self.on_event(stream, seq, event)

    # -- pushes --------------------------------------------------------

    def _handle_pushes(
        self, stream: str, pushes: Sequence[Tuple[np.ndarray, Optional[int]]]
    ) -> list:
        """Apply a run of queued ``(values, first)`` pushes for ``stream``.

        Returns one outcome per push, in order: its
        :class:`PushResult`, or the
        :class:`~repro.service.protocol.ProtocolError` it is answered
        with, which carries the watermark it was checked against.  Each
        push is trimmed and
        checked exactly as if it ran alone, against the watermark the
        pushes before it leave; consecutive clean values reach the
        monitor as one ``push_many`` call, which a push cut short by a
        bad value ends after its clean prefix.  The run's values are
        checked for fatal ones once, all together: when there are none,
        no push needs its own check, since trimming only takes
        sub-slices and a query op, which could change the policy, ends
        the run.  The run checkpoints
        once, at its end.  A monitor or checkpoint failure fails every
        push of the run; the watermark still counts what was applied,
        so a producer replaying from it loses nothing.
        """
        if stream not in self._ticks:
            return [
                protocol.ProtocolError(
                    "not_registered",
                    f"stream {stream!r} is not registered",
                    watermark=0,
                )
                for _ in pushes
            ]
        pushes = [
            (np.asarray(values, dtype=np.float64).reshape(-1), first)
            for values, first in pushes
        ]
        watermark = self._ticks[stream]
        blocks = [values for values, _ in pushes]
        whole = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        run_clean = self._clean_prefix(stream, watermark, whole)[1] is None
        outcomes: list = []
        clean: List[np.ndarray] = []  # blocks for the next push_many call
        applied = 0  # pushes that applied a tick
        busy = 0.0
        for values, first in pushes:
            trimmed = 0
            if first is not None:
                first = int(first)
                if first > watermark + 1:
                    outcomes.append(
                        protocol.ProtocolError(
                            "gap",
                            f"push starts at tick {first} but the watermark "
                            f"is {watermark}; replay from {watermark + 1}",
                            watermark=watermark,
                        )
                    )
                    continue
                if first <= watermark:
                    # Reconnect replay: drop the already-applied prefix.
                    trimmed = min(watermark + 1 - first, values.shape[0])
                    values = values[trimmed:]
            if run_clean:
                stop, error = values.shape[0], None
            else:
                stop, error = self._clean_prefix(stream, watermark, values)
            if stop:
                clean.append(values[:stop])
                watermark += stop
                applied += 1
            outcomes.append(
                PushResult(
                    applied=stop,
                    trimmed=trimmed,
                    watermark=watermark,
                    error=error,
                )
            )
            if error is not None:
                busy += self._apply(stream, clean)
        busy += self._apply(stream, clean)
        if applied:
            self.metrics.apply_latency.observe(busy)
            self.metrics.push_batches.labels(stream=stream).inc(applied)
        self._maybe_checkpoint()
        return outcomes

    def _clean_prefix(
        self, stream: str, watermark: int, values: np.ndarray
    ) -> Tuple[int, Optional[Tuple[str, str]]]:
        """How many leading ``values`` may be applied, and the
        ``bad_value`` error for the tick that stops them (if any)."""
        if values.shape[0] == 0:
            return 0, None
        if self.sharded:
            finite = np.isfinite(values)
            stop = (
                int(np.argmin(finite)) if not finite.all() else values.shape[0]
            )
            reason = "sharded streams accept finite values only, got {!r}"
        else:
            stop = self._monitor.first_fatal_index(stream, values)
            reason = "value {!r} rejected by the missing-value policy"
        if stop == values.shape[0]:
            return stop, None
        return stop, (
            "bad_value",
            f"tick {watermark + stop + 1}: "
            + reason.format(float(values[stop])),
        )

    def _apply(self, stream: str, clean: List[np.ndarray]) -> float:
        """Push the queued ``clean`` blocks as one ``push_many`` call,
        empty the list and return the seconds the call took."""
        if not clean:
            return 0.0
        values = clean[0] if len(clean) == 1 else np.concatenate(clean)
        clean.clear()
        started = perf_counter()
        self._monitor.push_many(stream, values)
        busy = perf_counter() - started
        applied = int(values.shape[0])
        self._ticks[stream] += applied
        self._ticks_since_checkpoint += applied
        self.metrics.pushed_ticks.labels(stream=stream).inc(applied)
        return busy

    def _maybe_checkpoint(self) -> None:
        every = int(self.config.checkpoint_every)
        if (
            self._checkpointer is None
            or every <= 0
            or self._ticks_since_checkpoint < every
        ):
            return
        self._write_checkpoint()

    def _write_checkpoint(self) -> Optional[str]:
        if self._checkpointer is None:
            return None
        path = self._checkpointer.save(
            self._monitor,
            watermark=sum(self._ticks.values()),
            stream_ticks=dict(self._ticks),
            events_emitted=self._events_total,
            extra={"service_seqs": {k: int(v) for k, v in self._seqs.items()}},
        )
        self._ticks_since_checkpoint = 0
        self.metrics.checkpoints.inc()
        return str(path)

    # -- streams / queries / stats -------------------------------------

    def _handle_ensure_stream(self, stream: str) -> int:
        if stream in self._ticks:
            return self._ticks[stream]
        if self.sharded:
            raise protocol.ProtocolError(
                "not_registered",
                f"stream {stream!r} is not registered; the sharded engine "
                "requires streams declared at startup (--streams)",
            )
        self._monitor.add_stream(stream)
        self._ticks[stream] = 0
        self._seqs[stream] = 0
        return 0

    def _handle_query(self, op: str, payload: dict) -> dict:
        name = payload["name"]
        try:
            if op == "register":
                self._monitor.add_query(
                    name,
                    payload["query"],
                    payload["epsilon"],
                    **payload.get("kwargs", {}),
                )
            elif op == "remove":
                self._monitor.remove_query(name)
            elif op == "swap":
                if not self.sharded:
                    # The in-process monitor has no watermark-exact swap
                    # primitive; remove+add between two pushes is exactly
                    # that (the engine thread serialises against pushes).
                    self._monitor.remove_query(name)
                    self._monitor.add_query(
                        name,
                        payload["query"],
                        payload["epsilon"],
                        **payload.get("kwargs", {}),
                    )
                else:
                    self._monitor.swap_query(
                        name,
                        payload["query"],
                        payload["epsilon"],
                        **payload.get("kwargs", {}),
                    )
            else:
                raise ServiceError(f"unknown query op {op!r}")
        except (ValidationError, TypeError) as err:
            raise protocol.ProtocolError("bad_query", str(err)) from None
        return {
            "name": name,
            "op": op,
            "queries": list(self._monitor.queries),
            "watermarks": self.watermarks(),
        }

    def _handle_stats(self) -> dict:
        monitor = self._monitor
        return {
            "mode": "sharded" if self.sharded else "in-process",
            "shards": int(self.config.shards),
            "backend": getattr(monitor, "backend_name", self.config.backend),
            "admission": getattr(
                monitor, "admission_name", self.config.admission
            ),
            "streams": {
                stream: {
                    "watermark": int(self._ticks.get(stream, 0)),
                    "seq": int(self._seqs.get(stream, 0)),
                }
                for stream in sorted(self._ticks)
            },
            "queries": sorted(getattr(monitor, "queries", [])),
            "events_total": int(self._events_total),
        }
