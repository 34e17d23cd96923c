"""Kill-at-any-tick property: shard recovery is byte-exact.

The sharded runtime's contract (docs/algorithm.md §13) is that a worker
SIGKILLed at *any* tick resumes — from its newest shard checkpoint, or
from genesis via the supervisor's replay log — to the exact MatchEvent
suffix an unkilled run would have produced: same matches, same floats,
same merged order.  This suite sweeps the kill position across the
stream, including ticks chosen to land just before, on, and just after
checkpoint boundaries (the classic off-by-one crash windows).

A representative pair of positions runs in the default tier; the full
sweep is marked ``slow`` and runs in CI's dedicated shard job.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.monitor import StreamMonitor
from repro.runtime import ShardedMonitor, WorkerFaultInjector
from repro.runtime import shard

CHECKPOINT_EVERY = 25


def _workload():
    rng = np.random.default_rng(1234)
    queries = {
        f"q{i}": (rng.standard_normal(4 + i).cumsum(), 2.0) for i in range(4)
    }
    streams = {
        "s0": rng.standard_normal(180).cumsum(),
        "s1": rng.standard_normal(180).cumsum(),
    }
    return queries, streams


def _expected(queries, streams) -> list:
    monitor = StreamMonitor(keep_history=False, backend="numpy")
    for name, (query, eps) in queries.items():
        monitor.add_query(name, query, eps)
    for name in streams:
        monitor.add_stream(name)
    events = []
    for off in range(0, 180, 6):
        for name, values in streams.items():
            events.extend(monitor.push_many(name, values[off:off + 6]))
    events.extend(monitor.flush())
    return events


def _run_with_kill(kill_tick: int, checkpoint_dir) -> "object":
    queries, streams = _workload()
    sharded = ShardedMonitor(
        shards=2,
        backend="numpy",
        heartbeat_interval=0.05,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=CHECKPOINT_EVERY,
        fault_injector=WorkerFaultInjector(kill={0: ("s0", kill_tick)}),
    )
    for name, (query, eps) in queries.items():
        sharded.add_query(name, query, eps)
    for name in streams:
        sharded.add_stream(name)
    with sharded:
        sharded.start()
        for off in range(0, 180, 6):
            for name, values in streams.items():
                sharded.push_many(name, values[off:off + 6])
        return sharded.finish(flush=True)


class TestKillAtAnyTick:
    @pytest.mark.parametrize("kill_tick", [24, 113])
    def test_representative_positions(self, tmp_path, kill_tick):
        queries, streams = _workload()
        expected = _expected(queries, streams)
        report = _run_with_kill(kill_tick, tmp_path)
        assert report.restarts == 1
        assert report.quarantined == []
        assert report.events == expected

    def test_events_sent_before_a_kill_survive_a_slow_pump(
        self, tmp_path, monkeypatch
    ):
        """The supervisor accepts what a dead incarnation already sent
        before its restart: the restarted unit resumes from a checkpoint
        that counts those events, so dropping them as stale loses them
        for good.  A pump that holds each events message makes them
        still sit in the pipe when the death is noticed."""

        def slow_pump(event_queue, inbox):
            while True:
                try:
                    message = event_queue.get()
                except Exception:  # noqa: BLE001 - EOF or torn payload
                    return
                if message[0] == "events":
                    time.sleep(0.2)
                inbox.put(message)

        monkeypatch.setattr(shard, "_pump_events", slow_pump)
        queries, streams = _workload()
        expected = _expected(queries, streams)
        report = _run_with_kill(113, tmp_path)
        assert report.restarts == 1
        assert report.events == expected

    @pytest.mark.slow
    def test_events_a_checkpoint_counts_survive_a_kill(
        self, tmp_path, monkeypatch
    ):
        """A checkpoint counts only events already in the pipe.  With 200
        wide queries every push emits a large events message, a pump
        that holds each one lets them fill the pipe, and the worker is
        killed while it still has events to send: a unit that saved a
        checkpoint counting events it had only buffered would never
        re-emit them after the restart."""

        def slow_pump(event_queue, inbox):
            while True:
                try:
                    message = event_queue.get()
                except Exception:  # noqa: BLE001 - EOF or torn payload
                    return
                if message[0] == "events":
                    time.sleep(0.05)
                inbox.put(message)

        monkeypatch.setattr(shard, "_pump_events", slow_pump)
        rng = np.random.default_rng(4321)
        queries = {
            f"q{i}": (rng.standard_normal(4 + i % 8).cumsum(), 50.0)
            for i in range(200)
        }
        _, streams = _workload()
        expected = _expected(queries, streams)
        sharded = ShardedMonitor(
            shards=2,
            backend="numpy",
            heartbeat_interval=0.05,
            checkpoint_dir=tmp_path,
            checkpoint_every=CHECKPOINT_EVERY,
            fault_injector=WorkerFaultInjector(kill={0: ("s0", 113)}),
        )
        for name, (query, eps) in queries.items():
            sharded.add_query(name, query, eps)
        for name in streams:
            sharded.add_stream(name)
        with sharded:
            sharded.start()
            for off in range(0, 180, 6):
                for name, values in streams.items():
                    sharded.push_many(name, values[off:off + 6])
                time.sleep(0.02)
            report = sharded.finish(flush=True)
        assert report.restarts == 1
        assert len(report.events) == len(expected)
        assert report.events == expected

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "kill_tick",
        # Boundary-adjacent positions around the checkpoint cadence
        # plus mid-interval and near-end positions.
        [1, 7, 25, 26, 49, 50, 51, 74, 76, 99, 140, 178],
    )
    def test_full_sweep(self, tmp_path, kill_tick):
        queries, streams = _workload()
        expected = _expected(queries, streams)
        report = _run_with_kill(kill_tick, tmp_path)
        assert report.restarts == 1
        assert report.events == expected

    @pytest.mark.slow
    @pytest.mark.parametrize("kill_tick", [7, 76, 140])
    def test_genesis_replay_without_checkpoints(self, kill_tick):
        # No checkpoint directory at all: recovery replays the whole
        # unit history from the supervisor's value log.  Same contract.
        queries, streams = _workload()
        expected = _expected(queries, streams)
        report = _run_with_kill(kill_tick, None)
        assert report.restarts == 1
        assert report.events == expected
