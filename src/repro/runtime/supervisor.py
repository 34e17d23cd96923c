"""Supervised ingestion: retry, quarantine, dead-letters, checkpoints.

:class:`SupervisedRunner` is the loop that turns a
:class:`~repro.core.monitor.StreamMonitor` plus a set of
:class:`~repro.streams.source.StreamSource`s into something that
survives an impolite world:

* **Pulls retry.**  A transient error (per the
  :class:`~repro.runtime.policy.RetryPolicy`) sleeps exponential
  backoff with seeded jitter and tries again; sources that follow the
  :class:`~repro.streams.faults.FlakySource` contract (the failing tick
  is re-delivered on the next pull) lose nothing.
* **Streams degrade, the loop survives.**  A fatal error — or
  ``quarantine_after`` consecutive exhausted retry budgets — quarantines
  that one stream; the others keep flowing, and the
  :class:`StreamHealth` report says what happened.
* **Callbacks are isolated.**  A subscriber that raises lands in the
  dead-letter record together with the event that triggered it
  (via the monitor's ``on_callback_error`` hook); match detection and
  the other subscribers are unaffected.  The record is bounded
  (``max_dead_letters``, drop-oldest) so a permanently broken
  subscriber on an unbounded stream cannot grow memory without limit;
  the drop count is surfaced on the runner and in metrics.
* **Stops are cooperative.**  :meth:`request_stop` (signal-handler
  safe: it only sets a flag) makes the loop finish the current tick,
  take a final snapshot when checkpointing is configured, and return
  its report — the CLI's SIGTERM path rides on this.
* **Progress is crash-consistent.**  With a
  :class:`~repro.runtime.checkpointer.CheckpointManager` attached, every
  ``checkpoint_every`` ticks the full monitor state is snapshotted
  atomically under a monotonic tick watermark.  :meth:`resume` restores
  the newest snapshot and replays each source past its recorded cursor,
  so *(events acknowledged at the watermark) + (events after resume)*
  is byte-identical — positions, distances, output times, order — to an
  uninterrupted run.  Exactness is inherited from the checkpoint
  module's contract and property-tested with kill-at-any-tick runs.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterator, List, Optional, Sequence

from repro.core.monitor import MatchEvent, StreamMonitor
from repro.exceptions import ValidationError
from repro.obs.metrics import MetricsRegistry
from repro.runtime.checkpointer import CheckpointManager
from repro.runtime.policy import FATAL, RetryPolicy
from repro.streams.source import StreamSource

__all__ = ["DeadLetter", "StreamHealth", "RunReport", "SupervisedRunner"]


@dataclass
class DeadLetter:
    """A callback failure, preserved with the event that triggered it."""

    event: MatchEvent
    error: BaseException
    watermark: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"dead letter @tick {self.watermark}: {self.event} ({self.error!r})"


@dataclass
class StreamHealth:
    """Per-stream supervision counters, surfaced by :meth:`SupervisedRunner.health`."""

    stream: str
    ticks: int = 0
    retries: int = 0
    failures: int = 0
    consecutive_failures: int = 0
    quarantined: bool = False
    quarantine_reason: Optional[str] = None
    last_error: Optional[str] = None
    exhausted: bool = False


@dataclass
class RunReport:
    """What one :meth:`SupervisedRunner.run` call did."""

    ticks: int
    watermark: int
    events: List[MatchEvent]
    dead_letters: List[DeadLetter]
    health: Dict[str, StreamHealth]
    resumed_from: Optional[int]
    checkpoints: int
    #: Metrics snapshot at the end of the run (None unless the runner's
    #: :meth:`SupervisedRunner.enable_metrics` was called).
    metrics: Optional[Dict[str, dict]] = None
    #: True when the run ended early because :meth:`request_stop` was
    #: called (sources were not drained; no flush happened).
    stopped: bool = False
    #: Dead letters evicted from the bounded record *during this run*
    #: because ``max_dead_letters`` was reached (drop-oldest).
    dead_letters_dropped: int = 0


class _Quarantined(Exception):
    """Internal control flow: the stream was just quarantined."""


class _PullFailed(Exception):
    """Internal control flow: retry budget spent, stream not (yet) quarantined."""


class SupervisedRunner:
    """Pull sources into a monitor with retries, quarantine, and snapshots.

    Parameters
    ----------
    monitor:
        The monitor to feed.  Its ``on_callback_error`` hook is pointed
        at the runner's dead-letter record, so subscriber exceptions
        never unwind the ingestion loop.
    sources:
        One source per stream; stream names come from ``source.name``
        and are registered with the monitor if not already present.
        Rotation is round-robin in the given order (the synchronous
        multi-stream setting), with exhausted or quarantined streams
        dropping out of the rotation instead of ending the run.
    policy:
        A :class:`~repro.runtime.policy.RetryPolicy`; default policy
        when omitted.
    checkpoint / checkpoint_every:
        Optional :class:`~repro.runtime.checkpointer.CheckpointManager`
        and snapshot cadence in ticks.  A final snapshot is also taken
        when a run drains its sources.
    sleep:
        Injectable clock for backoff (tests pass a recorder).
    max_dead_letters:
        Bound on the retained dead-letter record (default 10000).  When
        a new failure arrives at the cap, the *oldest* letter is
        dropped and :attr:`dead_letters_dropped` (plus the
        ``spring_dead_letters_dropped_total`` metric) is incremented —
        a broken subscriber on an endless stream degrades to a counter,
        not to unbounded memory.  ``None`` keeps the record unbounded.
    """

    def __init__(
        self,
        monitor: StreamMonitor,
        sources: Sequence[StreamSource],
        policy: Optional[RetryPolicy] = None,
        checkpoint: Optional[CheckpointManager] = None,
        checkpoint_every: Optional[int] = None,
        sleep: Callable[[float], None] = time.sleep,
        max_dead_letters: Optional[int] = 10000,
    ) -> None:
        if not isinstance(monitor, StreamMonitor):
            raise ValidationError(
                f"SupervisedRunner needs a StreamMonitor, got {type(monitor).__name__}"
            )
        if not sources:
            raise ValidationError("SupervisedRunner needs at least one source")
        names = [source.name for source in sources]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate stream names in sources: {names}")
        if checkpoint_every is not None:
            checkpoint_every = int(checkpoint_every)
            if checkpoint_every < 1:
                raise ValidationError(
                    f"checkpoint_every must be >= 1, got {checkpoint_every}"
                )
            if checkpoint is None:
                raise ValidationError(
                    "checkpoint_every needs a CheckpointManager"
                )
        if max_dead_letters is not None:
            max_dead_letters = int(max_dead_letters)
            if max_dead_letters < 1:
                raise ValidationError(
                    f"max_dead_letters must be >= 1 or None, "
                    f"got {max_dead_letters}"
                )
        self.monitor = monitor
        self.sources = list(sources)
        self.policy = policy if policy is not None else RetryPolicy()
        self.checkpoint = checkpoint
        self.checkpoint_every = checkpoint_every
        self.sleep = sleep
        self.events: List[MatchEvent] = []
        self.max_dead_letters = max_dead_letters
        #: Bounded drop-oldest record of callback failures.  Use
        #: :attr:`dead_letters_total` for the all-time count and
        #: :attr:`dead_letters_dropped` for how many were evicted.
        self.dead_letters: Deque[DeadLetter] = deque(maxlen=max_dead_letters)
        self.dead_letters_total = 0
        self.dead_letters_dropped = 0
        self.watermark = 0
        self._stop_requested = False
        self.resumed_from: Optional[int] = None
        # Events acknowledged before this process's lifetime (restored
        # from the snapshot); snapshots persist base + len(self.events)
        # so the count stays logical-run-global across repeated crashes.
        self._events_base = 0
        self._stream_ticks: Dict[str, int] = {name: 0 for name in names}
        self._replay_cursor: Dict[str, int] = {}
        self._health: Dict[str, StreamHealth] = {
            name: StreamHealth(stream=name) for name in names
        }
        monitor.on_callback_error = self._record_dead_letter
        for name in names:
            if name not in monitor.streams:
                monitor.add_stream(name)
        #: Optional hook called after every successfully pushed tick
        #: with the new watermark (the CLI uses it to write Prometheus
        #: files on a tick cadence).
        self.on_tick: Optional[Callable[[int], None]] = None
        # The runner shares the monitor's recorder, so runtime metrics
        # (retries, quarantines, dead letters, checkpoint timings) land
        # in the same registry as the matching metrics.
        if monitor.recorder.enabled and self.checkpoint is not None:
            self.checkpoint.recorder = monitor.recorder

    # ------------------------------------------------------------------
    # Construction from a checkpoint
    # ------------------------------------------------------------------

    @classmethod
    def resume(
        cls,
        sources: Sequence[StreamSource],
        checkpoint: CheckpointManager,
        policy: Optional[RetryPolicy] = None,
        checkpoint_every: Optional[int] = None,
        sleep: Callable[[float], None] = time.sleep,
        prune: bool = True,
        prune_buffer: int = 1024,
        backend=None,
    ) -> "SupervisedRunner":
        """Restore the newest snapshot and prepare replay past its cursor.

        The returned runner's first :meth:`run` fast-forwards each
        source by the per-stream tick count recorded in the snapshot
        (those ticks are already folded into the restored matcher
        state) and then continues pushing.  Events it emits are exactly
        the suffix an uninterrupted run would have emitted after the
        snapshot's ``events_emitted``-th event.  ``prune`` /
        ``prune_buffer`` configure the restored monitor's admission
        cascade (see :class:`~repro.core.monitor.StreamMonitor`) and
        ``backend`` its kernel backend (a runtime property, never part
        of the snapshot).
        """
        monitor, meta = checkpoint.resume(
            prune=prune,
            prune_buffer=prune_buffer,
            backend=backend,
        )
        runner = cls(
            monitor,
            sources,
            policy=policy,
            checkpoint=checkpoint,
            checkpoint_every=checkpoint_every,
            sleep=sleep,
        )
        runner.watermark = int(meta["watermark"])  # type: ignore[arg-type]
        runner.resumed_from = runner.watermark
        runner._events_base = int(meta["events_emitted"])  # type: ignore[arg-type]
        restored = dict(meta["stream_ticks"])  # type: ignore[arg-type]
        for name in runner._stream_ticks:
            runner._stream_ticks[name] = int(restored.get(name, 0))
        runner._replay_cursor = dict(runner._stream_ticks)
        return runner

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def subscribe(self, callback: Callable[[MatchEvent], None]) -> None:
        """Subscribe a callback; exceptions it raises become dead letters."""
        self.monitor.subscribe(callback)

    def health(self) -> Dict[str, StreamHealth]:
        """Per-stream supervision counters (live objects, not copies)."""
        return dict(self._health)

    def request_stop(self) -> None:
        """Ask the running loop to stop after the tick in flight.

        Safe to call from a signal handler or another thread: it only
        sets a flag.  The loop then takes a final snapshot (when a
        checkpoint manager is attached) and returns its
        :class:`RunReport` with ``stopped=True``; sources are *not*
        flushed (the run did not drain), so a later ``--resume``
        continues from the stop point with byte-identical events.  A
        subsequent :meth:`run` call clears the flag and continues.
        """
        self._stop_requested = True

    def enable_metrics(
        self, registry: Optional[MetricsRegistry] = None
    ) -> MetricsRegistry:
        """Enable metrics on the monitor *and* the runtime seams.

        One registry carries everything: the monitor's tick/match/
        latency series, the runner's retry/quarantine/dead-letter
        counters, and the checkpoint manager's write timings.  Also
        registers a collector publishing each source's data-quality
        counter (``malformed_count``) when the source exposes one.
        """
        registry = self.monitor.enable_metrics(registry)
        if self.checkpoint is not None:
            self.checkpoint.recorder = self.monitor.recorder
        if self._source_collector not in registry._collectors:
            registry.add_collector(self._source_collector)
        return registry

    def metrics(self) -> Optional[Dict[str, dict]]:
        """JSON-safe snapshot of every metric, or None when disabled."""
        return self.monitor.metrics()

    def _source_collector(self, registry: MetricsRegistry) -> None:
        malformed = registry.counter(
            "spring_source_malformed_records_total",
            "Malformed source records skipped (CSV cells that failed "
            "to parse, counted per pass)",
            ("stream",),
        )
        for source in self.sources:
            count = getattr(source, "malformed_count", None)
            if count is not None:
                malformed.labels(stream=source.name).set_to(float(count))

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------

    def run(
        self,
        max_ticks: Optional[int] = None,
        flush: bool = True,
    ) -> RunReport:
        """Pull rounds until sources drain (or ``max_ticks`` arrive).

        ``flush`` (only honoured when the run drains every source)
        flushes the matchers so end-of-stream pending matches are
        reported, mirroring an unsupervised ``push_many`` + ``flush``.
        """
        self._stop_requested = False
        iterators: Dict[str, Iterator[object]] = {}
        active: List[str] = []
        for source in self.sources:
            health = self._health[source.name]
            if health.quarantined:
                continue
            iterators[source.name] = iter(source)
            active.append(source.name)
        try:
            self._fast_forward(iterators, active)
        finally:
            self._replay_cursor = {}

        events_before = len(self.events)
        letters_total_before = self.dead_letters_total
        dropped_before = self.dead_letters_dropped
        ticks = 0
        checkpoints = 0
        while (
            active
            and not self._stop_requested
            and (max_ticks is None or ticks < max_ticks)
        ):
            for name in list(active):
                if self._stop_requested:
                    break
                if max_ticks is not None and ticks >= max_ticks:
                    break
                health = self._health[name]
                try:
                    value = self._pull(name, iterators[name])
                except StopIteration:
                    health.exhausted = True
                    active.remove(name)
                    continue
                except _Quarantined:
                    active.remove(name)
                    continue
                except _PullFailed:
                    continue  # stream sits this round out; retried next round
                events = self.monitor.push(name, value)
                self.events.extend(events)
                health.ticks += 1
                self._stream_ticks[name] += 1
                self.watermark += 1
                ticks += 1
                if self.on_tick is not None:
                    self.on_tick(self.watermark)
                if (
                    self.checkpoint_every is not None
                    and self.watermark % self.checkpoint_every == 0
                ):
                    self._snapshot()
                    checkpoints += 1

        stopped = self._stop_requested
        drained = (not stopped) and all(
            h.exhausted or h.quarantined for h in self._health.values()
        )
        if (drained or stopped) and self.checkpoint is not None:
            # Final snapshot *before* flush: flush mutates matcher state.
            # The early-stop path snapshots too, so a SIGTERM'd run
            # resumes from its last processed tick, not the last cadence
            # boundary.
            self._snapshot()
            checkpoints += 1
        if drained and flush:
            self.events.extend(self.monitor.flush())

        new_letters = self.dead_letters_total - letters_total_before
        retained = list(self.dead_letters)
        return RunReport(
            ticks=ticks,
            watermark=self.watermark,
            events=self.events[events_before:],
            dead_letters=retained[len(retained) - min(new_letters, len(retained)):],
            health=self.health(),
            resumed_from=self.resumed_from,
            checkpoints=checkpoints,
            metrics=self.metrics(),
            stopped=stopped,
            dead_letters_dropped=self.dead_letters_dropped - dropped_before,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _fast_forward(
        self, iterators: Dict[str, Iterator[object]], active: List[str]
    ) -> None:
        """Replay each source past the restored snapshot cursor.

        The skipped ticks are already part of the restored matcher
        state; they are pulled (with full retry handling — injected
        faults replay here too) and discarded.
        """
        for name, skip in self._replay_cursor.items():
            if name not in iterators:
                continue
            health = self._health[name]
            replayed = 0
            while replayed < skip:
                try:
                    self._pull(name, iterators[name])
                except StopIteration:
                    health.exhausted = True
                    if name in active:
                        active.remove(name)
                    break
                except _Quarantined:
                    if name in active:
                        active.remove(name)
                    break
                except _PullFailed:
                    # The cursor position was not reached; spend another
                    # retry budget on the same tick (quarantine bounds
                    # how long a dead source can hold replay hostage).
                    continue
                replayed += 1

    def _pull(self, name: str, iterator: Iterator[object]) -> object:
        """One tick with retry/backoff; raises control-flow markers."""
        health = self._health[name]
        attempt = 1
        while True:
            try:
                value = next(iterator)
            except StopIteration:
                raise
            except Exception as exc:  # noqa: BLE001 - classification boundary
                health.last_error = repr(exc)
                if self.policy.classify(exc) == FATAL:
                    health.failures += 1
                    self._quarantine(name, f"fatal error: {exc!r}")
                    raise _Quarantined() from exc
                if attempt >= self.policy.max_attempts:
                    health.failures += 1
                    health.consecutive_failures += 1
                    if health.consecutive_failures >= self.policy.quarantine_after:
                        self._quarantine(
                            name,
                            f"{health.consecutive_failures} consecutive pulls "
                            f"exhausted {self.policy.max_attempts} attempts "
                            f"(last: {exc!r})",
                        )
                        raise _Quarantined() from exc
                    raise _PullFailed() from exc
                health.retries += 1
                recorder = self.monitor.recorder
                if recorder.enabled:
                    recorder.record_retry(name)
                self.sleep(self.policy.delay(attempt))
                attempt += 1
                continue
            health.consecutive_failures = 0
            return value

    def _quarantine(self, name: str, reason: str) -> None:
        health = self._health[name]
        health.quarantined = True
        health.quarantine_reason = reason
        recorder = self.monitor.recorder
        if recorder.enabled:
            recorder.record_quarantine(name)

    def _record_dead_letter(self, event: MatchEvent, error: Exception) -> None:
        at_cap = (
            self.max_dead_letters is not None
            and len(self.dead_letters) >= self.max_dead_letters
        )
        # deque(maxlen=...) evicts the oldest on its own; we only need
        # to account for the eviction.
        self.dead_letters.append(
            DeadLetter(event=event, error=error, watermark=self.watermark)
        )
        self.dead_letters_total += 1
        if at_cap:
            self.dead_letters_dropped += 1
        recorder = self.monitor.recorder
        if recorder.enabled:
            recorder.record_dead_letter(event.stream)
            if at_cap:
                recorder.record_dead_letter_dropped(event.stream)

    def _snapshot(self) -> None:
        assert self.checkpoint is not None
        self.checkpoint.save(
            self.monitor,
            watermark=self.watermark,
            stream_ticks=dict(self._stream_ticks),
            events_emitted=self._events_base + len(self.events),
        )
