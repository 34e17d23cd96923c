"""Sharded multi-process serving runtime with supervised workers.

:class:`ShardedMonitor` spreads a (streams × query banks) workload over
N worker *processes* so one hot core or one segfault no longer bounds
the whole deployment.  The design promotes the single-process
:class:`~repro.runtime.SupervisedRunner` robustness contract to process
granularity and leans on two exactness guarantees the rest of the
codebase already provides:

* SPRING's constant-space per-matcher state makes a worker's working set
  tiny, so checkpointing a shard is cheap at any tick;
* :class:`~repro.runtime.CheckpointManager` + byte-identical
  checkpoint/resume make crash recovery *exact*: a worker killed at any
  tick resumes and re-emits the same :class:`MatchEvent` suffix it would
  have produced uninterrupted.

Architecture
------------

::

    user thread                     worker process w (spawned)
    ───────────                     ──────────────────────────
    ShardedMonitor (supervisor)     _worker_main
      │  per-stream SharedRingBuffer  │  per-(stream, bank) StreamMonitor
      │  ───────── values ──────────▶ │  (own CheckpointManager dir each)
      │  per-worker command Queue ──▶ │  lifecycle commands / stop / adopt
      │  ◀── per-worker event Queue ── │  events / acks / heartbeats

* **Partitioning.**  Queries are assigned round-robin to ``shards``
  *banks*; the unit of work (and of recovery) is one ``(stream, bank)``
  pair.  Worker ``w`` initially carries bank ``w`` across every stream;
  quarantine rebalances units to surviving workers.
* **Data plane.**  The supervisor publishes each stream once into a
  :class:`~repro.streams.buffer.SharedRingBuffer`; each worker consumes
  through its own cursor.  Backpressure counts only live carriers — a
  dead worker's stalled cursor never wedges the stream (the recovery
  replay log covers the gap).
* **Exactly-once events.**  Every unit numbers its events with a
  monotone sequence that survives checkpoints (``events_emitted``); the
  supervisor drops duplicates after a crash-replay, so the merged log
  is exactly-once even though delivery is at-least-once.
* **Deterministic merge.**  Each pushed tick gets a global sequence
  number; the final event log is sorted by (that number, stream
  registration order, query registration order, per-unit sequence),
  which reproduces byte-for-byte the order a single
  :class:`~repro.core.monitor.StreamMonitor` fed the same push calls
  would emit — the chaos drills assert exactly this.
* **Supervision.**  Heartbeats with stall detection (a hung worker is
  SIGKILLed and treated as crashed), :class:`RetryPolicy`-driven restart
  backoff, quarantine after ``max_restarts`` restarts with work
  rebalanced to surviving shards, and :class:`ShardingError` — never
  silent data loss — when no healthy shard remains.  Control queues
  are per-worker-incarnation in both directions, so a queue whose
  internals a SIGKILL poisoned mid-send dies with the incarnation
  instead of wedging the survivors (see :func:`_pump_events`).
* **Live query lifecycle.**  ``add_query`` / ``remove_query`` /
  ``swap_query`` work on a *running* monitor.  Consistency contract:
  the command is stamped with the per-stream watermark ``W`` (ticks
  pushed before the call returns control) and applies between tick
  ``W`` and ``W+1`` on every stream — the old query's events confirmed
  at ticks ``<= W`` are all delivered, a swapped query starts with
  fresh SPRING state (its matches can only begin after ``W``), and no
  tick is dropped or double-processed for any other query.  The call
  blocks until every carrier acknowledged the command, so a later
  ``push`` can never overtake it.  Commands survive crashes: they are
  replayed to restarted workers and re-applied idempotently (each
  unit's checkpoint records the last command index it had applied).

Chaos drills are first-class: :class:`WorkerFaultInjector` kills (-9),
hangs, or slows a worker deterministically at a chosen stream tick, at
ring-read granularity, so recovery tests are reproducible.
"""

from __future__ import annotations

import os
import queue as queue_module
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.monitor import MatchEvent, StreamMonitor
from repro.exceptions import CheckpointError, ShardingError, ValidationError
from repro.obs.metrics import MetricsRegistry, merge_snapshot
from repro.runtime.checkpointer import CheckpointManager
from repro.runtime.policy import RetryPolicy
from repro.streams.buffer import SharedRingBuffer

__all__ = [
    "ShardHealth",
    "ShardRunReport",
    "ShardedMonitor",
    "WorkerFaultInjector",
]

#: Sort key component placing flush events after every in-run event.
_FLUSH_ORDER = float("inf")


@dataclass
class WorkerFaultInjector:
    """Deterministic fault plan for chaos drills, keyed by worker id.

    Each entry maps a worker id to a fault anchored at an absolute
    stream tick; the fault fires when that worker *applies* the tick
    (ring reads are capped at the boundary so the trigger is exact and
    reproducible, including while replaying after a restart).

    Attributes
    ----------
    kill:
        ``{worker: (stream, tick)}`` — SIGKILL the worker the moment it
        has applied ``tick`` of ``stream``.
    hang:
        ``{worker: (stream, tick)}`` — stop heartbeating forever at the
        boundary (exercises stall detection).
    slow:
        ``{worker: (stream, tick, delay_seconds, n_ticks)}`` — after the
        boundary, consume ``n_ticks`` values one at a time with a sleep
        before each (exercises backpressure, must *not* trip stall
        detection while heartbeats keep flowing).
    generations:
        Faults stay armed while the worker's restart generation is
        below this.  ``1`` (default) fires each fault once; ``2`` makes
        the restarted worker crash again at the same tick during its
        replay — the repeated-crash path that drives quarantine.
    """

    kill: Dict[int, Tuple[str, int]] = field(default_factory=dict)
    hang: Dict[int, Tuple[str, int]] = field(default_factory=dict)
    slow: Dict[int, Tuple[str, int, float, int]] = field(default_factory=dict)
    generations: int = 1


@dataclass
class ShardHealth:
    """Supervisor's view of one worker process."""

    worker: int
    generation: int
    restarts: int
    quarantined: bool
    alive: bool
    units: List[Tuple[str, int]]
    last_error: Optional[str] = None


@dataclass
class ShardRunReport:
    """Summary returned by :meth:`ShardedMonitor.finish`."""

    ticks: int
    events: List[MatchEvent]
    restarts: int
    rebalances: int
    quarantined: List[int]
    healths: Dict[int, ShardHealth]


# ----------------------------------------------------------------------
# Worker side (runs in the spawned process)
# ----------------------------------------------------------------------


class _ExitWorker(Exception):
    """Internal control-flow: supervisor asked this worker to exit."""


class _UnitRunner:
    """One (stream, bank) monitor inside a worker process."""

    def __init__(self, payload: dict, cfg: dict, worker: "_ShardWorker"):
        self.stream: str = payload["stream"]
        self.bank: int = int(payload["bank"])
        self.key = (self.stream, self.bank)
        self.applied = 0  # absolute stream tick processed
        self.seq = 0  # monotone event sequence (survives checkpoints)
        self.last_cmd = -1  # last lifecycle command index applied
        self.pending: List[dict] = []
        self.checkpoint: Optional[CheckpointManager] = None
        if payload.get("dir"):
            self.checkpoint = CheckpointManager(
                payload["dir"], keep=cfg["checkpoint_keep"]
            )
        self._every = cfg["checkpoint_every"]
        restored = False
        if payload["resume"] and self.checkpoint is not None:
            try:
                monitor, meta = self.checkpoint.resume(
                    prune=cfg["prune"],
                    prune_buffer=cfg["prune_buffer"],
                    backend=cfg["backend"],
                )
                self.applied = int(
                    meta["stream_ticks"].get(self.stream, meta["watermark"])
                )
                self.seq = int(meta["events_emitted"])
                self.last_cmd = int(meta["extra"].get("last_command", -1))
                restored = True
            except CheckpointError:
                restored = False  # no snapshot yet: rebuild from genesis
        if not restored:
            monitor = StreamMonitor(
                keep_history=False,
                prune=cfg["prune"],
                prune_buffer=cfg["prune_buffer"],
                backend=cfg["backend"],
            )
            for spec in payload["queries"]:
                monitor.add_query(
                    spec["name"],
                    np.asarray(spec["query"], dtype=np.float64),
                    spec["epsilon"],
                    matcher=spec["matcher"],
                    **spec["kwargs"],
                )
            monitor.add_stream(self.stream)
        self.monitor = monitor
        if worker.registry is not None:
            self.monitor.enable_metrics(worker.registry)
        self.last_ckpt = self.applied
        self._worker = worker
        for cmd in payload["commands"]:
            self.offer(cmd)

    # -- lifecycle commands -------------------------------------------

    def offer(self, cmd: dict) -> None:
        """Queue a lifecycle command; re-ack ones already applied.

        The re-ack matters after a crash: the original ack may have
        died in the queue feeder, and the supervisor's barrier would
        otherwise wait on a command this unit applied long ago.
        """
        if int(cmd["index"]) <= self.last_cmd:
            self._worker.send("cmd_ack", self.key, int(cmd["index"]))
            return
        self.pending.append(cmd)
        self.pending.sort(key=lambda c: int(c["index"]))

    def apply_due(self) -> None:
        """Apply every queued command whose watermark has been reached."""
        while self.pending:
            cmd = self.pending[0]
            if int(cmd["apply_at"].get(self.stream, 0)) > self.applied:
                break
            self.pending.pop(0)
            index = int(cmd["index"])
            if index > self.last_cmd:
                self._apply_command(cmd)
                self.last_cmd = index
            self._worker.send("cmd_ack", self.key, index)

    def _apply_command(self, cmd: dict) -> None:
        op = cmd["op"]
        if op in ("remove", "swap"):
            self.monitor.remove_query(cmd["name"])
        if op in ("add", "swap"):
            spec = cmd["spec"]
            self.monitor.add_query(
                spec["name"],
                np.asarray(spec["query"], dtype=np.float64),
                spec["epsilon"],
                matcher=spec["matcher"],
                **spec["kwargs"],
            )

    # -- data ----------------------------------------------------------

    def apply(self, first_tick: int, values: np.ndarray) -> None:
        """Process values, splitting at command watermarks exactly."""
        if first_tick <= self.applied:
            skip = self.applied - first_tick + 1
            if skip >= values.shape[0]:
                return
            values = values[skip:]
            first_tick = self.applied + 1
        offset = 0
        total = values.shape[0]
        while offset < total:
            self.apply_due()
            limit = total
            if self.pending:
                boundary = int(
                    self.pending[0]["apply_at"].get(self.stream, 0)
                )
                limit = min(limit, offset + max(0, boundary - self.applied))
                if limit <= offset:
                    # Shouldn't happen (apply_due drained due commands),
                    # but never spin.
                    limit = offset + 1
            chunk = values[offset:limit]
            events = self.monitor.push_many(self.stream, chunk)
            self.applied += chunk.shape[0]
            self.emit(events)
            offset = limit
        self.apply_due()

    def emit(self, events: Sequence[MatchEvent], is_flush: bool = False):
        if not events:
            return
        batch = []
        for event in events:
            self.seq += 1
            batch.append((self.seq, event))
        self._worker.send("events", self.key, batch, is_flush)

    def maybe_checkpoint(self, force: bool = False) -> None:
        if self.checkpoint is None:
            return
        if not force and self.applied - self.last_ckpt < self._every:
            return
        if not force and self.applied == self.last_ckpt:
            return
        self.checkpoint.save(
            self.monitor,
            watermark=self.applied,
            stream_ticks={self.stream: self.applied},
            events_emitted=self.seq,
            extra={"last_command": self.last_cmd},
        )
        self.last_ckpt = self.applied
        self._worker.send(
            "ckpt", self.key, self.applied, self.seq, self.last_cmd
        )

    def flush(self) -> None:
        self.emit(self.monitor.flush(), is_flush=True)


class _ShardWorker:
    """Worker-process event loop: rings in, events/acks/heartbeats out."""

    def __init__(self, payload, command_queue, event_queue):
        self.wid: int = int(payload["wid"])
        self.gen: int = int(payload["generation"])
        self.cfg: dict = payload["config"]
        self.cmd_queue = command_queue
        self.event_queue = event_queue
        self.stream_order: List[str] = list(payload["streams"])
        self.rings: Dict[str, SharedRingBuffer] = {
            name: SharedRingBuffer.attach(desc)
            for name, desc in payload["rings"].items()
        }
        self.registry: Optional[MetricsRegistry] = (
            MetricsRegistry() if self.cfg["metrics"] else None
        )
        fault = payload.get("fault")
        self._fault_active = bool(
            fault is not None and self.gen < int(fault.generations)
        )
        self._fault = fault
        self._slow_remaining = 0
        self._slow_started = False
        self.units: List[_UnitRunner] = []
        self.stop: Optional[dict] = None
        self.done_sent: set = set()
        # Orphan guard: if the supervisor dies uncleanly (SIGKILL) the
        # worker is re-parented; it must exit rather than spin forever
        # holding inherited pipes open.
        self._parent_pid = os.getppid()
        for unit_payload in payload["units"]:
            self._install_unit(unit_payload)

    # -- messaging -----------------------------------------------------

    def send(self, kind: str, *rest) -> None:
        self.event_queue.put((kind, self.wid, self.gen) + tuple(rest))

    # -- unit management -----------------------------------------------

    def _install_unit(self, unit_payload: dict) -> None:
        unit = _UnitRunner(unit_payload, self.cfg, self)
        self.units.append(unit)
        self.units.sort(
            key=lambda u: (self.stream_order.index(u.stream), u.bank)
        )
        # Replay the gap between the unit's last checkpoint and this
        # worker's ring cursor; everything past the cursor arrives via
        # the ring itself.
        cursor = self.rings[unit.stream].reader_seq(self.wid)
        first = int(unit_payload["replay_first"])
        values = np.asarray(unit_payload["replay_values"], dtype=np.float64)
        keep = max(0, cursor - first + 1)
        self._feed(unit, first, values[:keep])
        unit.apply_due()

    def _units_of(self, stream: str) -> List[_UnitRunner]:
        return [u for u in self.units if u.stream == stream]

    # -- fault injection ----------------------------------------------

    def _fault_spec(self, table: str) -> Optional[tuple]:
        if not self._fault_active:
            return None
        return getattr(self._fault, table).get(self.wid)

    def _fault_cap(self, stream: str, pos: int, limit: int) -> int:
        """Cap a read so it never crosses an armed fault boundary."""
        for table in ("kill", "hang"):
            spec = self._fault_spec(table)
            if spec is not None and spec[0] == stream and pos < spec[1]:
                limit = min(limit, spec[1] - pos)
        slow = self._fault_spec("slow")
        if slow is not None and slow[0] == stream and pos >= slow[1]:
            if not self._slow_started:
                self._slow_started = True
                self._slow_remaining = int(slow[3])
            if self._slow_remaining > 0:
                limit = min(limit, 1)
        return limit

    def _fault_after(self, stream: str, pos: int) -> None:
        """Fire kill/hang once the boundary tick has been applied."""
        spec = self._fault_spec("kill")
        if spec is not None and spec[0] == stream and pos >= spec[1]:
            os.kill(os.getpid(), signal.SIGKILL)
        spec = self._fault_spec("hang")
        if spec is not None and spec[0] == stream and pos >= spec[1]:
            while True:  # pragma: no cover - killed by stall detection
                time.sleep(0.5)

    def _fault_sleep(self, stream: str) -> None:
        slow = self._fault_spec("slow")
        if (
            slow is not None
            and slow[0] == stream
            and self._slow_started
            and self._slow_remaining > 0
        ):
            time.sleep(float(slow[2]))
            self._slow_remaining -= 1

    # -- data pump -----------------------------------------------------

    def _feed(self, unit: _UnitRunner, first: int, values: np.ndarray):
        """Apply a value run to one unit, honouring fault boundaries."""
        offset = 0
        total = values.shape[0]
        while offset < total:
            pos = max(unit.applied, first + offset - 1)
            limit = self._fault_cap(stream=unit.stream, pos=pos,
                                    limit=total - offset)
            if limit <= 0:
                self._fault_after(unit.stream, pos)
                return
            unit.apply(first + offset, values[offset:offset + limit])
            self._fault_after(unit.stream, unit.applied)
            offset += limit

    def _consume_rings(self) -> bool:
        progressed = False
        seen = []
        for unit in self.units:
            if unit.stream not in seen:
                seen.append(unit.stream)
        for stream in seen:
            ring = self.rings[stream]
            cursor = ring.reader_seq(self.wid)
            limit = self._fault_cap(
                stream, cursor, self.cfg["batch_limit"]
            )
            if limit <= 0:
                self._fault_after(stream, cursor)
                continue
            self._fault_sleep(stream)
            first, values = ring.read_new(self.wid, limit)
            if not values.shape[0]:
                continue
            progressed = True
            for unit in self._units_of(stream):
                unit.apply(first, values)
            self._fault_after(stream, first + values.shape[0] - 1)
        return progressed

    # -- commands ------------------------------------------------------

    def _poll_commands(self) -> bool:
        got = False
        while True:
            try:
                message = self.cmd_queue.get_nowait()
            except queue_module.Empty:
                break
            except (EOFError, OSError):  # pragma: no cover - torn queue
                raise _ExitWorker()
            got = True
            kind = message[0]
            if kind == "exit":
                raise _ExitWorker()
            elif kind == "stop":
                self.stop = {
                    "targets": dict(message[1]),
                    "flush": bool(message[2]),
                }
            elif kind == "query":
                command = message[1]
                for unit in self.units:
                    if unit.bank == int(command["bank"]):
                        unit.offer(command)
            elif kind == "adopt":
                adopted = []
                for unit_payload in message[1]:
                    self._install_unit(unit_payload)
                    adopted.append(
                        (unit_payload["stream"], int(unit_payload["bank"]))
                    )
                self.send("adopt_ack", adopted)
        return got

    def _maybe_finish_units(self) -> None:
        if self.stop is None:
            return
        targets = self.stop["targets"]
        for unit in self.units:
            if unit.key in self.done_sent:
                continue
            target = targets.get(unit.stream)
            if target is None or unit.applied < int(target):
                continue
            unit.apply_due()
            unit.maybe_checkpoint(force=True)
            if self.stop["flush"]:
                unit.flush()
            self.send("unit_done", unit.key, unit.applied, unit.seq)
            self.done_sent.add(unit.key)

    # -- main loop -----------------------------------------------------

    def run(self) -> None:
        self.send("hello")
        last_heartbeat = time.monotonic()
        last_metrics = last_heartbeat
        interval = float(self.cfg["heartbeat_interval"])
        metrics_interval = float(self.cfg["metrics_interval"])
        try:
            while True:
                progressed = self._poll_commands()
                progressed |= self._consume_rings()
                for unit in self.units:
                    unit.apply_due()
                    unit.maybe_checkpoint()
                self._maybe_finish_units()
                now = time.monotonic()
                if now - last_heartbeat >= interval:
                    if os.getppid() != self._parent_pid:
                        raise _ExitWorker()
                    applied = sum(u.applied for u in self.units)
                    self.send("hb", applied)
                    last_heartbeat = now
                    if (
                        self.registry is not None
                        and now - last_metrics >= metrics_interval
                    ):
                        self.send("metrics", self.registry.snapshot())
                        last_metrics = now
                if not progressed:
                    time.sleep(0.001)
        except _ExitWorker:
            if self.registry is not None:
                self.send("metrics", self.registry.snapshot())
        finally:
            for ring in self.rings.values():
                ring.close()


def _worker_main(payload, command_queue, event_queue) -> None:
    """Spawn entry point for one shard worker."""
    try:
        _ShardWorker(payload, command_queue, event_queue).run()
    except Exception:  # noqa: BLE001 - report, then die visibly
        import traceback

        try:
            event_queue.put(
                (
                    "error",
                    int(payload["wid"]),
                    int(payload["generation"]),
                    traceback.format_exc(),
                )
            )
        except Exception:  # pragma: no cover - queue already torn down
            pass
        raise SystemExit(1)


def _pump_events(event_queue, inbox) -> None:
    """Forward one worker incarnation's event queue into the inbox.

    Runs as a supervisor-side daemon thread.  Each incarnation gets its
    own event queue precisely so that a worker SIGKILLed mid-send can
    only wedge (or tear) *its own* pipe: a ``multiprocessing.Queue``
    write lock held by a killed feeder thread is poisoned forever, and
    on a queue shared between workers that silently blocks every other
    worker's feeder — heartbeats and acks stop, recovery stalls, and
    the run dies on the drain timeout.  Here the blast radius is the
    dead incarnation's queue, which the supervisor discards on respawn.

    The thread exits when the queue reaches end-of-file: the supervisor
    closes its own write end on discard, so EOF fires once the worker
    process (the only other writer) is gone and every buffered message
    has been forwarded — which is what makes the teardown drain
    deterministic.  A partial message torn by SIGKILL surfaces as the
    same EOF/OSError and ends the thread; crash replay covers whatever
    the dead incarnation failed to deliver.
    """
    while True:
        try:
            message = event_queue.get()
        except (EOFError, OSError):
            return  # all write ends closed (or torn final message)
        except Exception:  # noqa: BLE001 - undecodable torn payload
            return
        inbox.put(message)


# ----------------------------------------------------------------------
# Supervisor side
# ----------------------------------------------------------------------


class _ValueLog:
    """Per-stream replay log: values since the oldest checkpoint ack."""

    def __init__(self) -> None:
        self.base = 0  # ticks trimmed off the front
        self.values: List[float] = []

    def append(self, value: float) -> None:
        self.values.append(value)

    def extend(self, values: np.ndarray) -> None:
        self.values.extend(float(v) for v in values)

    def slice(self, first_tick: int, last_tick: int):
        """Values for ticks ``first_tick..last_tick`` inclusive."""
        if last_tick < first_tick:
            return first_tick, np.empty(0, dtype=np.float64)
        lo = first_tick - self.base - 1
        hi = last_tick - self.base
        if lo < 0:
            raise ShardingError(
                f"replay log trimmed past tick {first_tick} "
                f"(oldest retained: {self.base + 1})"
            )
        return first_tick, np.asarray(self.values[lo:hi], dtype=np.float64)

    def trim(self, floor_tick: int) -> None:
        """Drop values at ticks ``<= floor_tick`` (already checkpointed)."""
        drop = floor_tick - self.base
        if drop > 0:
            del self.values[:drop]
            self.base = floor_tick


class _OrderLog:
    """Per-stream global merge keys for ticks still able to emit events.

    Maps an absolute 1-based stream tick to the global push-order index
    assigned at ``push_many`` time.  Stored as a compact int64 array
    (not a Python list — 8 bytes per retained tick) and trimmed below
    the oldest checkpoint ack exactly like :class:`_ValueLog`: an
    event's ``output_time`` is the tick at which it was *emitted*,
    which FIFO message order guarantees is past the emitting unit's
    acknowledged checkpoint, so merge order never needs entries at or
    below the per-stream ack floor.  Without checkpointing the floor
    stays 0 and the log grows with the stream (same caveat as the
    replay log).
    """

    def __init__(self) -> None:
        self.base = 0  # ticks trimmed off the front
        self._orders = np.empty(64, dtype=np.int64)
        self._size = 0

    def extend(self, first_order: int, count: int) -> None:
        """Record ``count`` ticks holding consecutive order indices."""
        need = self._size + count
        if need > self._orders.shape[0]:
            grow = self._orders.shape[0]
            while grow < need:
                grow *= 2
            grown = np.empty(grow, dtype=np.int64)
            grown[: self._size] = self._orders[: self._size]
            self._orders = grown
        self._orders[self._size : need] = np.arange(
            first_order, first_order + count, dtype=np.int64
        )
        self._size = need

    def order_at(self, tick: int) -> int:
        """Global order index of absolute stream tick ``tick``."""
        index = tick - self.base - 1
        if index < 0 or index >= self._size:
            raise ShardingError(
                f"order log has no entry for tick {tick} "
                f"(retained: {self.base + 1}..{self.base + self._size})"
            )
        return int(self._orders[index])

    def trim(self, floor_tick: int) -> None:
        """Drop entries at ticks ``<= floor_tick`` (already acked)."""
        drop = min(floor_tick - self.base, self._size)
        if drop > 0:
            keep = self._size - drop
            self._orders[:keep] = self._orders[drop : self._size]
            self._size = keep
            self.base += drop


@dataclass
class _Unit:
    """Supervisor-side record of one (stream, bank) work unit."""

    stream: str
    bank: int
    worker: int
    dirname: Optional[str]
    ack_tick: int = 0  # newest checkpoint watermark acknowledged
    ack_cmd: int = -1  # newest lifecycle command acknowledged
    last_seq: int = 0  # newest event sequence accepted (dedup floor)
    done: bool = False

    @property
    def key(self) -> Tuple[str, int]:
        return (self.stream, self.bank)


@dataclass
class _WorkerHandle:
    wid: int
    process: object = None
    queue: object = None
    event_queue: object = None
    pump: object = None
    gen: int = 0
    hello: bool = False
    last_hb: float = 0.0
    restarts: int = 0
    quarantined: bool = False
    last_error: Optional[str] = None

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class ShardedMonitor:
    """Supervised multi-process stream monitor (see module docstring).

    Parameters
    ----------
    shards:
        Number of worker processes; also the number of query banks.
    ring_capacity:
        Per-stream shared-memory ring size in values.  Must comfortably
        exceed ``checkpoint_every`` or backpressure stalls throughput.
    batch_limit:
        Max values a worker consumes per ring read; bounds the gap
        between heartbeats under load.
    checkpoint_dir:
        Root directory for per-unit snapshot directories.  ``None``
        disables checkpointing — crash recovery then replays each unit
        from tick 1 out of the supervisor's in-memory logs, which then
        retain every tick's value *and* merge-order entry (correct but
        unbounded memory; pass a directory for production use).  With
        checkpointing on, both logs are trimmed below the oldest
        acknowledged checkpoint, so supervisor memory stays bounded by
        the checkpoint cadence — provided long-running deployments also
        pass ``keep_events=False``.
    checkpoint_every / checkpoint_keep:
        Per-unit snapshot cadence (in stream ticks) and retention.
    policy:
        :class:`RetryPolicy` supplying restart backoff delays.
    max_restarts:
        Restarts granted per worker before it is quarantined and its
        units are rebalanced to the surviving shards.
    heartbeat_interval / stall_timeout:
        Worker heartbeat cadence and the silence threshold after which
        a live-but-mute worker is SIGKILLed and treated as crashed.
    command_timeout / finish_timeout / spawn_timeout:
        Deadlines for lifecycle-command barriers, the final drain, and
        worker startup; expiry raises :class:`ShardingError`.
    prune / prune_buffer / backend:
        Forwarded to every worker-side :class:`StreamMonitor`.
    fault_injector:
        Optional :class:`WorkerFaultInjector` for chaos drills.
    keep_events:
        Retain every accepted event for the merged report (default).
        With ``False`` only subscribed callbacks see events — required
        for a long-running serving deployment, where retaining the
        full event history would grow without bound.
    start_method:
        ``multiprocessing`` start method; ``spawn`` is the portable,
        fork-safety-proof default.
    """

    def __init__(
        self,
        shards: int = 2,
        *,
        ring_capacity: int = 4096,
        batch_limit: int = 1024,
        checkpoint_dir: Union[str, Path, None] = None,
        checkpoint_every: int = 256,
        checkpoint_keep: int = 3,
        policy: Optional[RetryPolicy] = None,
        max_restarts: int = 2,
        heartbeat_interval: float = 0.1,
        stall_timeout: float = 30.0,
        command_timeout: float = 60.0,
        finish_timeout: float = 120.0,
        spawn_timeout: float = 120.0,
        prune: bool = True,
        prune_buffer: int = 1024,
        backend: Optional[str] = None,
        fault_injector: Optional[WorkerFaultInjector] = None,
        keep_events: bool = True,
        start_method: str = "spawn",
    ) -> None:
        shards = int(shards)
        if shards < 1:
            raise ValidationError(f"shards must be >= 1, got {shards}")
        if int(ring_capacity) < int(batch_limit):
            raise ValidationError(
                "ring_capacity must be >= batch_limit "
                f"({ring_capacity} < {batch_limit})"
            )
        self.shards = shards
        self.ring_capacity = int(ring_capacity)
        self.batch_limit = int(batch_limit)
        self.checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self.checkpoint_every = int(checkpoint_every)
        self.checkpoint_keep = int(checkpoint_keep)
        self.policy = policy or RetryPolicy()
        self.max_restarts = int(max_restarts)
        self.heartbeat_interval = float(heartbeat_interval)
        self.stall_timeout = float(stall_timeout)
        self.command_timeout = float(command_timeout)
        self.finish_timeout = float(finish_timeout)
        self.spawn_timeout = float(spawn_timeout)
        self.prune = bool(prune)
        self.prune_buffer = int(prune_buffer)
        self.backend = backend
        self.fault_injector = fault_injector
        self.keep_events = bool(keep_events)
        self.start_method = start_method

        # Validation + canonical current-membership specs live in a
        # streamless StreamMonitor: add/remove/swap get exactly the
        # eager validation single-process callers get, on the numpy
        # backend so a lifecycle call never triggers a JIT/C compile
        # in the supervisor.
        self._spec = StreamMonitor(
            keep_history=False, prune=False, backend="numpy"
        )
        self._streams: List[str] = []
        self._qindex: Dict[str, int] = {}
        self._bank_of: Dict[str, int] = {}
        self._bank_counter = 0
        self._initial_specs: Dict[str, dict] = {}
        self._initial_banks: Dict[int, List[str]] = {}
        self._commands: List[dict] = []

        self._started = False
        self._finished = False
        self._stopping = False
        self._stop_flush = True
        self._tearing_down = False
        self._rings: Dict[str, SharedRingBuffer] = {}
        self._logs: Dict[str, _ValueLog] = {}
        self._orders: Dict[str, _OrderLog] = {}
        self._pushed: Dict[str, int] = {}
        self._global_pushes = 0
        self._units: Dict[Tuple[str, int], _Unit] = {}
        # (stream, query) -> global tick of the query's live install
        # (0 for start()-time queries): live-installed matchers report
        # local output times; the offset restores global merge order.
        self._tick_offsets: Dict[Tuple[str, str], int] = {}
        self._workers: Dict[int, _WorkerHandle] = {}
        self._awaiting_adopt: set = set()
        self._events: List[Tuple[tuple, MatchEvent]] = []
        self._callbacks: List[Callable[[MatchEvent], None]] = []
        self.callback_errors: List[Tuple[MatchEvent, BaseException]] = []
        self.restarts_total = 0
        self.rebalances_total = 0
        self._registry: Optional[MetricsRegistry] = None
        self._ctx = None
        self._inbox = None

    # -- context management -------------------------------------------

    def __enter__(self) -> "ShardedMonitor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._started and not self._finished:
            self.abort()

    # -- registration (pre-start) -------------------------------------

    def add_stream(self, name: str) -> None:
        """Register a stream; must happen before :meth:`start`."""
        if self._started:
            raise ValidationError(
                "streams must be registered before start()"
            )
        if name in self._streams:
            raise ValidationError(f"stream {name!r} already registered")
        self._streams.append(str(name))

    def enable_metrics(
        self, registry: Optional[MetricsRegistry] = None
    ) -> MetricsRegistry:
        """Aggregate worker metrics (labelled by shard) plus supervisor
        counters into one registry.  Call before :meth:`start`."""
        if self._started:
            raise ValidationError("enable metrics before start()")
        if self._registry is None:
            self._registry = registry or MetricsRegistry()
            # Bind the supervisor families eagerly so they appear (at
            # zero) in every exposition, matching the recorder's
            # convention — a dashboard can alert on shard_restarts_total
            # before the first restart ever happens.
            self._registry.counter(
                "shard_restarts_total",
                "Worker process restarts, by worker id",
                ("worker",),
            )
            self._registry.counter(
                "shard_rebalances_total",
                "Units rebalanced away from quarantined workers",
                ("worker",),
            )
            self._registry.gauge(
                "shard_quarantined",
                "1 when the worker is quarantined",
                ("worker",),
            )
            self._registry.gauge(
                "shard_workers_alive",
                "Workers alive and not quarantined at last check",
            )
        return self._registry

    def subscribe(self, callback: Callable[[MatchEvent], None]) -> None:
        """Invoke ``callback`` on every accepted event, in arrival order.

        Arrival order interleaves shards nondeterministically; use the
        merged report for the deterministic global order.  Callback
        exceptions are isolated into :attr:`callback_errors`.
        """
        self._callbacks.append(callback)

    # -- query lifecycle (works before AND after start) ----------------

    def add_query(
        self, name: str, query, epsilon: float, **kwargs
    ) -> None:
        """Register a query; live-installs onto workers when running."""
        self._spec.add_query(name, query, epsilon, **kwargs)
        self._qindex.setdefault(name, len(self._qindex))
        if name not in self._bank_of:
            self._bank_of[name] = self._bank_counter % self.shards
            self._bank_counter += 1
        if self._started:
            self._issue_command("add", name, self._spec_dict(name))

    def remove_query(self, name: str) -> None:
        """Detach a query everywhere (its confirmed events still count)."""
        self._spec.remove_query(name)
        if self._started:
            self._issue_command("remove", name, None)

    def swap_query(
        self, name: str, query, epsilon: float, **kwargs
    ) -> None:
        """Atomically replace a query's template at one watermark.

        The replacement keeps the old query's bank and merge position;
        on every stream, events from the old template confirmed at
        ticks ``<= W`` are delivered and the new template starts with
        fresh state at ``W+1`` — both applied between the same two
        ticks, never interleaved.
        """
        if name not in self._qindex or name not in self._spec.queries:
            raise ValidationError(f"query {name!r} is not registered")
        # Validate the replacement before touching live state.
        probe = "\x00swap-probe"
        self._spec.add_query(probe, query, epsilon, **kwargs)
        self._spec.remove_query(probe)
        self._spec.remove_query(name)
        self._spec.add_query(name, query, epsilon, **kwargs)
        if self._started:
            self._issue_command("swap", name, self._spec_dict(name))

    def _spec_dict(self, name: str) -> dict:
        kind, query, epsilon, kwargs = self._spec.query_spec(name)
        return {
            "name": name,
            "query": np.asarray(query, dtype=np.float64),
            "epsilon": float(epsilon),
            "matcher": kind,
            "kwargs": kwargs,
        }

    def _issue_command(self, op: str, name: str, spec) -> None:
        self._require_running()
        bank = self._bank_of[name]
        command = {
            "index": len(self._commands),
            "op": op,
            "bank": bank,
            "name": name,
            "spec": spec,
            "apply_at": dict(self._pushed),
        }
        self._commands.append(command)
        carriers = {
            unit.worker
            for unit in self._units.values()
            if unit.bank == bank and not unit.done
        }
        for wid in carriers:
            handle = self._workers[wid]
            if not handle.quarantined:
                handle.queue.put(("query", command))
        self._await_command(command)

    def _await_command(self, command: dict) -> None:
        """Barrier: block until every carrier applied the command.

        This is what makes the watermark exact — no push can race past
        a command, because control does not return to the pusher until
        every affected unit confirmed it will apply the command at the
        stamped tick.
        """
        index = int(command["index"])
        bank = int(command["bank"])
        deadline = time.monotonic() + self.command_timeout
        while True:
            waiting = [
                unit.key
                for unit in self._units.values()
                if unit.bank == bank
                and not unit.done
                and unit.ack_cmd < index
            ]
            if not waiting:
                return
            if time.monotonic() > deadline:
                self.abort()
                raise ShardingError(
                    f"lifecycle command {index} ({command['op']} "
                    f"{command['name']!r}) unacknowledged by units "
                    f"{waiting} after {self.command_timeout}s"
                )
            self._service(0.005)

    # -- start ---------------------------------------------------------

    def start(self) -> None:
        """Spawn workers and block until every shard reports ready."""
        if self._started:
            raise ValidationError("already started")
        if not self._streams:
            raise ValidationError("register at least one stream first")
        import multiprocessing as mp

        self._ctx = mp.get_context(self.start_method)
        self._inbox = queue_module.Queue()
        self._initial_specs = {
            name: self._spec_dict(name) for name in self._spec.queries
        }
        self._initial_banks = {bank: [] for bank in range(self.shards)}
        for name in sorted(self._qindex, key=self._qindex.get):
            if name in self._initial_specs:
                self._initial_banks[self._bank_of[name]].append(name)
        for stream in self._streams:
            self._rings[stream] = SharedRingBuffer(
                self.ring_capacity, max_readers=self.shards
            )
            self._logs[stream] = _ValueLog()
            self._orders[stream] = _OrderLog()
            self._pushed[stream] = 0
        for index, stream in enumerate(self._streams):
            for bank in range(self.shards):
                dirname = None
                if self.checkpoint_dir is not None:
                    dirname = str(
                        self.checkpoint_dir / f"u{index:04d}-b{bank:03d}"
                    )
                unit = _Unit(
                    stream=stream, bank=bank, worker=bank, dirname=dirname
                )
                self._units[unit.key] = unit
        self._started = True
        for wid in range(self.shards):
            self._workers[wid] = _WorkerHandle(wid=wid)
            self._spawn(self._workers[wid], resume=False)
        deadline = time.monotonic() + self.spawn_timeout
        while not all(
            h.hello for h in self._workers.values() if not h.quarantined
        ):
            if time.monotonic() > deadline:
                self.abort()
                raise ShardingError(
                    "workers failed to report ready within "
                    f"{self.spawn_timeout}s"
                )
            self._service(0.01)

    def _worker_config(self) -> dict:
        return {
            "checkpoint_every": self.checkpoint_every,
            "checkpoint_keep": self.checkpoint_keep,
            "prune": self.prune,
            "prune_buffer": self.prune_buffer,
            "backend": self.backend,
            "heartbeat_interval": self.heartbeat_interval,
            "batch_limit": self.batch_limit,
            "metrics": self._registry is not None,
            "metrics_interval": 0.5,
        }

    def _unit_payload(self, unit: _Unit, resume: bool) -> dict:
        if resume:
            first, values = self._logs[unit.stream].slice(
                unit.ack_tick + 1, self._pushed[unit.stream]
            )
        else:
            first, values = 1, np.empty(0, dtype=np.float64)
        return {
            "stream": unit.stream,
            "bank": unit.bank,
            "dir": unit.dirname,
            "resume": resume,
            "queries": [
                self._initial_specs[name]
                for name in self._initial_banks.get(unit.bank, [])
            ],
            "commands": [
                c for c in self._commands if int(c["bank"]) == unit.bank
            ],
            "replay_first": first,
            "replay_values": values,
        }

    def _spawn(self, handle: _WorkerHandle, resume: bool) -> None:
        units = [
            unit
            for unit in self._units.values()
            if unit.worker == handle.wid and not unit.done
        ]
        if resume:
            for stream in {unit.stream for unit in units}:
                # The previous incarnation is dead, so repositioning its
                # cursor is race-free; the replay payload covers the gap
                # between each unit's checkpoint and this point.  Clamp
                # to write_seq: when the death was detected mid-push,
                # _pushed already counts ticks the ring has not
                # published yet (push_many was blocked on backpressure),
                # and the worker reads the (_pushed - write_seq] tail
                # from the ring as the interrupted push publishes it.
                ring = self._rings[stream]
                ring.set_reader_seq(
                    handle.wid,
                    min(self._pushed[stream], ring.write_seq),
                )
        payload = {
            "wid": handle.wid,
            "generation": handle.gen,
            "config": self._worker_config(),
            "streams": list(self._streams),
            "rings": {
                stream: ring.descriptor
                for stream, ring in self._rings.items()
            },
            "units": [self._unit_payload(unit, resume) for unit in units],
            "fault": self.fault_injector,
        }
        # Fresh queues per incarnation: the previous incarnation may
        # have died holding its event queue's feeder lock, or left a
        # torn message in the pipe — either would wedge a reused queue
        # forever (_on_death has discarded and drained the old one).
        handle.queue = self._ctx.Queue()
        handle.event_queue = self._ctx.Queue()
        handle.hello = False
        handle.last_hb = time.monotonic()
        handle.process = self._ctx.Process(
            target=_worker_main,
            args=(payload, handle.queue, handle.event_queue),
            daemon=True,
            name=f"shard-worker-{handle.wid}",
        )
        handle.process.start()
        handle.pump = threading.Thread(
            target=_pump_events,
            args=(handle.event_queue, self._inbox),
            daemon=True,
            name=f"shard-pump-{handle.wid}-g{handle.gen}",
        )
        handle.pump.start()
        self._awaiting_adopt.difference_update(
            unit.key for unit in units
        )
        if self._stopping:
            handle.queue.put(("stop", dict(self._pushed), self._stop_flush))

    # -- ingestion -----------------------------------------------------

    def push(self, stream: str, value: float) -> None:
        """Publish one tick; events surface asynchronously."""
        self.push_many(stream, np.asarray([value], dtype=np.float64))

    def push_many(self, stream: str, values) -> None:
        """Publish a run of ticks to one stream.

        The merged event log orders ticks by push-call order across
        streams, exactly as if each value had been ``push``-ed to a
        single-process monitor in the same sequence.  Values must be
        finite — the sharded data plane has no missing-value policy.
        """
        self._require_running()
        if stream not in self._rings:
            raise ValidationError(f"stream {stream!r} is not registered")
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        if values.size and not np.isfinite(values).all():
            raise ValidationError(
                "sharded streams accept finite values only"
            )
        log = self._logs[stream]
        log.extend(values)
        self._orders[stream].extend(self._global_pushes, values.shape[0])
        self._global_pushes += values.shape[0]
        self._pushed[stream] += values.shape[0]
        ring = self._rings[stream]
        offset = 0
        total = values.shape[0]
        while offset < total:
            readers = self._live_readers(stream)
            sent = ring.push_many(values[offset:], readers)
            offset += sent
            self._service(0.0 if sent else 0.002)

    def poll(self, timeout: float = 0.0) -> None:
        """Pump worker messages without pushing any ticks.

        Events only surface during supervision servicing, which normally
        runs inside :meth:`push_many` and :meth:`finish`.  A long-lived
        embedder (the network service layer) that has no new ticks for a
        stream still needs recently confirmed matches to drain to its
        subscribers promptly; calling ``poll`` between pushes services
        the worker inboxes and fires subscriber callbacks exactly as a
        push would.  ``timeout`` bounds the initial blocking wait for
        the first message (0 = non-blocking).
        """
        self._require_running()
        self._service(timeout)

    def _live_readers(self, stream: str) -> List[int]:
        readers = set()
        for unit in self._units.values():
            if unit.stream != stream or unit.done:
                continue
            handle = self._workers[unit.worker]
            if not handle.quarantined:
                readers.add(unit.worker)
        return sorted(readers)

    # -- supervision loop ---------------------------------------------

    def _service(self, timeout: float) -> None:
        """Drain worker messages, then run liveness/stall checks.

        Messages arrive through the thread-safe inbox the per-worker
        pump threads feed, so one blocking get covers every worker
        without touching any cross-process lock a dead worker could
        have poisoned.
        """
        try:
            self._on_message(self._inbox.get(timeout=timeout))
        except queue_module.Empty:
            pass
        self._drain_inbox()
        self._check_workers()

    def _drain_inbox(self) -> None:
        """Handle every message the pumps have forwarded so far."""
        while True:
            try:
                message = self._inbox.get_nowait()
            except queue_module.Empty:
                return
            self._on_message(message)

    def _discard_event_queue(self, handle: _WorkerHandle) -> None:
        """Abandon one incarnation's event queue (recovery/teardown).

        Closing the supervisor's write end means the pipe hits EOF once
        the worker process is gone, so the pump thread forwards every
        buffered message and exits — no thread or fd outlives the
        incarnation it served.
        """
        event_queue = handle.event_queue
        if event_queue is None:
            return
        handle.event_queue = None
        try:
            event_queue._writer.close()
        except (AttributeError, OSError):  # pragma: no cover - mp internals
            pass

    def _on_message(self, message) -> None:
        try:
            kind, wid, gen = message[0], int(message[1]), int(message[2])
        except (TypeError, ValueError, IndexError):
            return  # torn write from a killed worker; replay covers it
        handle = self._workers.get(wid)
        if handle is None or gen != handle.gen:
            return  # stale incarnation
        handle.last_hb = time.monotonic()
        if kind == "hello":
            handle.hello = True
        elif kind == "hb":
            pass  # receipt time update above is the payload
        elif kind == "events":
            key, batch, is_flush = message[3], message[4], message[5]
            self._accept_events(tuple(key), batch, bool(is_flush))
        elif kind == "ckpt":
            key, tick = tuple(message[3]), int(message[4])
            unit = self._units.get(key)
            if unit is not None and tick > unit.ack_tick:
                unit.ack_tick = tick
                self._trim_log(unit.stream)
        elif kind == "cmd_ack":
            key, index = tuple(message[3]), int(message[4])
            unit = self._units.get(key)
            if unit is not None:
                unit.ack_cmd = max(unit.ack_cmd, index)
                # A live-installed template's matcher clock starts at
                # the install watermark, so its events report *local*
                # output times.  Record the offset that maps them back
                # to global ticks for the merged order.  Acks replay in
                # index order after a crash, so the offset in force
                # always matches the template that produced the event
                # being accepted (old-template re-emissions are either
                # deduped or accepted under the then-current offset).
                command = self._commands[index]
                if command["op"] in ("add", "swap"):
                    self._tick_offsets[(unit.stream, command["name"])] = int(
                        command["apply_at"].get(unit.stream, 0)
                    )
        elif kind == "adopt_ack":
            for key in message[3]:
                self._awaiting_adopt.discard(tuple(key))
        elif kind == "unit_done":
            key = tuple(message[3])
            unit = self._units.get(key)
            if unit is not None:
                unit.done = True
        elif kind == "metrics":
            if self._registry is not None:
                # Keyed by generation as well as shard: a restarted
                # worker's counters restart at zero, and mirroring them
                # into the old series would either be silently absorbed
                # (counters are monotone) or wind histograms backwards.
                # A fresh per-generation series keeps both instrument
                # kinds accumulating — sum over ``gen`` for the
                # per-shard total.
                merge_snapshot(
                    self._registry,
                    message[3],
                    {"shard": str(wid), "gen": str(gen)},
                )
        elif kind == "error":
            handle.last_error = str(message[3])

    def _accept_events(self, key, batch, is_flush: bool) -> None:
        unit = self._units.get(key)
        if unit is None:
            return
        stream_index = self._streams.index(unit.stream)
        for seq, event in batch:
            seq = int(seq)
            if seq <= unit.last_seq:
                continue  # duplicate from an at-least-once crash replay
            unit.last_seq = seq
            if is_flush or event.match.output_time is None:
                order = _FLUSH_ORDER
            else:
                offset = self._tick_offsets.get(
                    (unit.stream, event.query), 0
                )
                order = self._orders[unit.stream].order_at(
                    offset + event.match.output_time
                )
            if self.keep_events:
                self._events.append(
                    (
                        (
                            order,
                            stream_index,
                            self._qindex.get(event.query, len(self._qindex)),
                            seq,
                        ),
                        event,
                    )
                )
            for callback in self._callbacks:
                try:
                    callback(event)
                except Exception as error:  # noqa: BLE001 - isolate
                    self.callback_errors.append((event, error))

    def _trim_log(self, stream: str) -> None:
        floor = min(
            (
                unit.ack_tick
                for unit in self._units.values()
                if unit.stream == stream
            ),
            default=0,
        )
        self._logs[stream].trim(floor)
        self._orders[stream].trim(floor)

    def _check_workers(self) -> None:
        if self._tearing_down:
            return  # voluntary exits now; don't mistake them for crashes
        now = time.monotonic()
        for handle in self._workers.values():
            if handle.quarantined or handle.process is None:
                continue
            if not handle.process.is_alive():
                self._on_death(
                    handle,
                    handle.last_error
                    or f"exited with code {handle.process.exitcode}",
                )
            elif (
                handle.hello
                and self.stall_timeout > 0
                and now - handle.last_hb > self.stall_timeout
            ):
                try:
                    # multiprocessing's portable hard-kill (SIGKILL on
                    # POSIX, TerminateProcess on Windows — os.kill with
                    # signal.SIGKILL would AttributeError there).
                    handle.process.kill()
                except (OSError, ValueError):  # pragma: no cover - raced
                    pass
                handle.process.join(timeout=5)
                self._on_death(
                    handle,
                    f"stalled: no heartbeat for {self.stall_timeout}s",
                )

    def _on_death(self, handle: _WorkerHandle, reason: str) -> None:
        # Accept what the dead incarnation already sent before its
        # generation goes stale: the restart resumes from the newest
        # checkpoint, whose events_emitted counts those events, so they
        # would never be emitted again.  Its pipe reaches EOF once
        # drained (the worker is gone), which ends the pump.
        self._discard_event_queue(handle)
        if handle.pump is not None:
            handle.pump.join(timeout=5)
            handle.pump = None
        self._drain_inbox()  # not _service: it would re-enter this check
        handle.gen += 1  # invalidates any in-flight stale messages
        handle.last_error = reason
        if handle.restarts >= self.max_restarts:
            self._quarantine(handle, reason)
            return
        handle.restarts += 1
        self.restarts_total += 1
        if self._registry is not None:
            self._registry.counter(
                "shard_restarts_total",
                "Worker process restarts, by worker id",
                ("worker",),
            ).labels(worker=str(handle.wid)).inc()
        delay = self.policy.delay(min(handle.restarts, 16))
        if delay > 0:
            time.sleep(delay)
        self._spawn(handle, resume=True)

    def _quarantine(self, handle: _WorkerHandle, reason: str) -> None:
        handle.quarantined = True
        handle.last_error = reason
        process = handle.process
        if process is not None and process.is_alive():
            process.terminate()
            process.join(timeout=5)
        self._discard_event_queue(handle)
        orphans = [
            unit
            for unit in self._units.values()
            if unit.worker == handle.wid and not unit.done
        ]
        if self._registry is not None:
            self._registry.gauge(
                "shard_quarantined",
                "1 when the worker is quarantined",
                ("worker",),
            ).labels(worker=str(handle.wid)).set(1.0)
        if not orphans:
            return
        self._rebalance(orphans, source=handle.wid)

    def _rebalance(self, orphans: List[_Unit], source: int) -> None:
        """Move orphaned units onto surviving workers, exactly.

        Raises :class:`ShardingError` when no eligible worker remains —
        degrading to silent data loss is never an option.
        """
        eligible = [
            h
            for h in self._workers.values()
            if not h.quarantined and h.wid != source and h.alive()
        ]
        if not eligible:
            self.abort()
            raise ShardingError(
                f"worker {source} quarantined and no healthy shard "
                f"remains to adopt {[u.key for u in orphans]}"
            )
        load = {
            h.wid: sum(
                1
                for unit in self._units.values()
                if unit.worker == h.wid and not unit.done
            )
            for h in eligible
        }
        assignments: Dict[int, List[_Unit]] = {}
        for unit in sorted(orphans, key=lambda u: u.key):
            target = min(eligible, key=lambda h: (load[h.wid], h.wid))
            load[target.wid] += 1
            assignments.setdefault(target.wid, []).append(unit)
        for wid, units in assignments.items():
            target = self._workers[wid]
            carried = {
                unit.stream
                for unit in self._units.values()
                if unit.worker == wid and not unit.done
            }
            for stream in {u.stream for u in units} - carried:
                # The target never reads this stream yet, so its cursor
                # slot is idle — reposition it to "now"; the adopt
                # payload replays everything older.  Clamped to
                # write_seq for the mid-push quarantine case, exactly
                # as in _spawn.
                ring = self._rings[stream]
                ring.set_reader_seq(
                    wid, min(self._pushed[stream], ring.write_seq)
                )
            for unit in units:
                unit.worker = wid
                self._awaiting_adopt.add(unit.key)
            self.rebalances_total += len(units)
            if self._registry is not None:
                self._registry.counter(
                    "shard_rebalances_total",
                    "Units rebalanced away from quarantined workers",
                    ("worker",),
                ).labels(worker=str(source)).inc(len(units))
            target.queue.put(
                ("adopt", [self._unit_payload(u, resume=True) for u in units])
            )
            if self._stopping:
                target.queue.put(
                    ("stop", dict(self._pushed), self._stop_flush)
                )
        pending = {u.key for u in orphans}
        deadline = time.monotonic() + self.command_timeout
        while pending & self._awaiting_adopt:
            if time.monotonic() > deadline:
                self.abort()
                raise ShardingError(
                    "rebalanced units not adopted within "
                    f"{self.command_timeout}s: "
                    f"{sorted(pending & self._awaiting_adopt)}"
                )
            self._service(0.005)

    # -- shutdown ------------------------------------------------------

    def finish(self, flush: bool = True) -> ShardRunReport:
        """Drain every shard, stop workers, and return the merged report.

        ``flush`` forwards to each unit's final
        :meth:`StreamMonitor.flush` (confirming still-pending matches);
        flush events sort after all in-run events, by stream then query
        registration order — identical to the single-process contract.
        """
        self._require_running()
        self._stopping = True
        self._stop_flush = bool(flush)
        targets = dict(self._pushed)
        for handle in self._workers.values():
            if not handle.quarantined and handle.alive():
                handle.queue.put(("stop", targets, self._stop_flush))
        deadline = time.monotonic() + self.finish_timeout
        while not all(unit.done for unit in self._units.values()):
            if time.monotonic() > deadline:
                incomplete = [
                    unit.key
                    for unit in self._units.values()
                    if not unit.done
                ]
                self.abort()
                raise ShardingError(
                    f"units failed to drain within {self.finish_timeout}s:"
                    f" {incomplete}"
                )
            self._service(0.02)
        self._service(0.0)  # final metrics / stragglers
        self._teardown()
        report = ShardRunReport(
            ticks=sum(self._pushed.values()),
            events=self.events,
            restarts=self.restarts_total,
            rebalances=self.rebalances_total,
            quarantined=sorted(
                h.wid for h in self._workers.values() if h.quarantined
            ),
            healths=self.healths(),
        )
        return report

    def abort(self) -> None:
        """Kill every worker and release shared memory (no drain)."""
        if self._finished:
            return
        for handle in self._workers.values():
            process = handle.process
            if process is not None and process.is_alive():
                process.terminate()
                process.join(timeout=2)
                if process.is_alive():  # pragma: no cover - stubborn
                    process.kill()
                    process.join(timeout=2)
        for handle in self._workers.values():
            self._discard_event_queue(handle)
        self._release_rings()
        self._finished = True

    def _teardown(self) -> None:
        self._tearing_down = True
        for handle in self._workers.values():
            if handle.quarantined or handle.process is None:
                continue
            try:
                handle.queue.put(("exit",))
            except (OSError, ValueError):  # pragma: no cover
                pass
        for handle in self._workers.values():
            process = handle.process
            if process is None:
                continue
            process.join(timeout=5)
            if process.is_alive():
                process.terminate()
                process.join(timeout=2)
        # Workers flush a final metrics snapshot on their way out and
        # multiprocessing's exit hook drains the queue feeder before
        # the process dies — after join the snapshots are sitting in
        # the pipe.  Discarding each queue closes its last write end,
        # so every pump thread forwards what is buffered, hits EOF and
        # exits; joining the pumps makes the final drain deterministic,
        # not a sleep race.
        for handle in self._workers.values():
            self._discard_event_queue(handle)
        for handle in self._workers.values():
            if handle.pump is not None:
                handle.pump.join(timeout=5)
                handle.pump = None
        self._service(0.0)
        self._release_rings()
        if self._registry is not None:
            self._registry.gauge(
                "shard_workers_alive",
                "Workers alive and not quarantined at last check",
            ).set(
                float(
                    sum(
                        1
                        for h in self._workers.values()
                        if not h.quarantined
                    )
                )
            )
        self._finished = True

    def _release_rings(self) -> None:
        for ring in self._rings.values():
            try:
                ring.close()
                ring.unlink()
            except Exception:  # pragma: no cover - already gone
                pass
        self._rings = {}

    # -- introspection -------------------------------------------------

    @property
    def events(self) -> List[MatchEvent]:
        """Accepted events in the deterministic merged order."""
        return [event for _, event in sorted(self._events, key=lambda e: e[0])]

    def healths(self) -> Dict[int, ShardHealth]:
        """Current supervisor view of every worker."""
        return {
            handle.wid: ShardHealth(
                worker=handle.wid,
                generation=handle.gen,
                restarts=handle.restarts,
                quarantined=handle.quarantined,
                alive=handle.alive(),
                units=sorted(
                    unit.key
                    for unit in self._units.values()
                    if unit.worker == handle.wid
                ),
                last_error=handle.last_error,
            )
            for handle in self._workers.values()
        }

    @property
    def queries(self) -> List[str]:
        """Currently registered query names."""
        return self._spec.queries

    @property
    def streams(self) -> List[str]:
        return list(self._streams)

    def metrics(self) -> Optional[Dict[str, dict]]:
        """Merged metrics snapshot, or None when metrics are disabled."""
        if self._registry is None:
            return None
        return self._registry.snapshot()

    def _require_running(self) -> None:
        if not self._started:
            raise ValidationError("not started")
        if self._finished or self._stopping:
            raise ValidationError("already finishing or finished")
