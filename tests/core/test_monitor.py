"""Unit tests for the multi-stream, multi-query StreamMonitor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import StreamMonitor
from repro.core.backends import available_backends
from repro.exceptions import ValidationError
from repro.obs.tracing import disable_tracing, enable_tracing


def _pattern_stream(rng, pattern, pad=25, offset=9.0):
    return np.concatenate(
        [rng.normal(size=pad) + offset, pattern, rng.normal(size=pad) + offset]
    )


class TestRegistration:
    def test_duplicate_stream_raises(self):
        monitor = StreamMonitor()
        monitor.add_stream("s")
        with pytest.raises(ValidationError):
            monitor.add_stream("s")

    def test_duplicate_query_raises(self):
        monitor = StreamMonitor()
        monitor.add_query("q", [1.0], epsilon=1.0)
        with pytest.raises(ValidationError):
            monitor.add_query("q", [2.0], epsilon=1.0)

    def test_invalid_query_rejected_at_registration(self):
        monitor = StreamMonitor()
        with pytest.raises(ValidationError):
            monitor.add_query("bad", [], epsilon=1.0)

    def test_push_to_unknown_stream_raises(self):
        with pytest.raises(ValidationError):
            StreamMonitor().push("ghost", 1.0)

    def test_query_attaches_to_existing_and_new_streams(self):
        monitor = StreamMonitor()
        monitor.add_stream("a")
        monitor.add_query("q", [1.0, 2.0], epsilon=1.0)
        monitor.add_stream("b")
        assert monitor.matcher("a", "q") is not monitor.matcher("b", "q")

    def test_remove_query(self):
        monitor = StreamMonitor()
        monitor.add_stream("a")
        monitor.add_query("q", [1.0], epsilon=1.0)
        monitor.remove_query("q")
        with pytest.raises(ValidationError):
            monitor.matcher("a", "q")
        with pytest.raises(ValidationError):
            monitor.remove_query("q")


class TestDetection:
    def test_event_carries_stream_and_query(self, rng):
        pattern = rng.normal(size=6)
        monitor = StreamMonitor()
        monitor.add_stream("sensor")
        monitor.add_query("spike", pattern, epsilon=1e-9)
        events = monitor.push_many("sensor", _pattern_stream(rng, pattern))
        events += monitor.flush()
        assert len(events) == 1
        assert events[0].stream == "sensor"
        assert events[0].query == "spike"
        assert events[0].match.distance == pytest.approx(0.0, abs=1e-12)

    def test_streams_are_independent(self, rng):
        pattern = rng.normal(size=5)
        monitor = StreamMonitor()
        monitor.add_stream("hit")
        monitor.add_stream("miss")
        monitor.add_query("q", pattern, epsilon=1e-9)
        events = monitor.push_many("hit", _pattern_stream(rng, pattern))
        events += monitor.push_many("miss", rng.normal(size=60) + 9)
        events += monitor.flush()
        assert {e.stream for e in events} == {"hit"}

    def test_multiple_queries_one_stream(self, rng):
        p1 = rng.normal(size=5)
        p2 = rng.normal(size=7) + 4
        stream = np.concatenate(
            [rng.normal(size=20) + 9, p1, rng.normal(size=20) + 9, p2,
             rng.normal(size=20) + 9]
        )
        monitor = StreamMonitor()
        monitor.add_stream("s")
        monitor.add_query("first", p1, epsilon=1e-9)
        monitor.add_query("second", p2, epsilon=1e-9)
        events = monitor.push_many("s", stream)
        events += monitor.flush()
        assert {e.query for e in events} == {"first", "second"}

    def test_push_tick_feeds_several_streams(self, rng):
        monitor = StreamMonitor()
        monitor.add_stream("a")
        monitor.add_stream("b")
        monitor.add_query("q", [1.0, 2.0], epsilon=1e-9)
        monitor.push_tick({"a": 0.0, "b": 0.0})
        assert monitor.matcher("a", "q").tick == 1
        assert monitor.matcher("b", "q").tick == 1

    def test_callbacks_fire(self, rng):
        pattern = rng.normal(size=4)
        received = []
        monitor = StreamMonitor()
        monitor.subscribe(received.append)
        monitor.add_stream("s")
        monitor.add_query("q", pattern, epsilon=1e-9)
        monitor.push_many("s", _pattern_stream(rng, pattern))
        monitor.flush()
        assert len(received) == 1

    def test_history_records_events(self, rng):
        pattern = rng.normal(size=4)
        monitor = StreamMonitor()
        monitor.add_stream("s")
        monitor.add_query("q", pattern, epsilon=1e-9)
        monitor.push_many("s", _pattern_stream(rng, pattern))
        monitor.flush()
        assert len(monitor.history) == 1

    def test_vector_query(self, rng):
        pattern = rng.normal(size=(5, 3))
        stream = np.vstack(
            [rng.normal(size=(15, 3)) + 8, pattern, rng.normal(size=(15, 3)) + 8]
        )
        monitor = StreamMonitor()
        monitor.add_stream("mocap")
        monitor.add_query("walk", pattern, epsilon=1e-9, vector=True)
        events = monitor.push_many("mocap", stream)
        events += monitor.flush()
        assert len(events) == 1


def _busy_monitor(rng, n_queries=6, **monitor_kwargs):
    """A monitor whose stream matches every query several times."""
    monitor = StreamMonitor(**monitor_kwargs)
    monitor.add_stream("s")
    patterns = [rng.normal(size=rng.integers(3, 8)) for _ in range(n_queries)]
    for i, pattern in enumerate(patterns):
        monitor.add_query(f"q{i}", pattern, epsilon=1e-9)
    chunks = [rng.normal(size=10) + 9]
    for pattern in patterns * 2:
        chunks.append(pattern)
        chunks.append(rng.normal(size=10) + 9)
    return monitor, np.concatenate(chunks)


class TestHistoryRetention:
    def test_history_limit_keeps_most_recent(self, rng):
        monitor, stream = _busy_monitor(rng, history_limit=3)
        all_events = monitor.push_many("s", stream) + monitor.flush()
        assert len(all_events) > 3
        assert monitor.history == all_events[-3:]

    def test_keep_history_false_retains_nothing(self, rng):
        monitor, stream = _busy_monitor(rng, keep_history=False)
        events = monitor.push_many("s", stream) + monitor.flush()
        assert events
        assert monitor.history == []

    def test_history_limit_validated(self):
        with pytest.raises(ValidationError):
            StreamMonitor(history_limit=0)
        with pytest.raises(ValidationError):
            StreamMonitor(history_limit=-5)


class TestBatchedExecution:
    """push_many and the fused banks must be invisible optimisations."""

    def test_push_many_equals_per_value_push(self, rng):
        fast, stream = _busy_monitor(rng)
        rng2 = np.random.default_rng(20070415)
        slow, _ = _busy_monitor(rng2)
        got = fast.push_many("s", stream) + fast.flush()
        expected = [e for v in stream for e in slow.push("s", v)]
        expected += slow.flush()
        assert [(e.query, e.match) for e in got] == [
            (e.query, e.match) for e in expected
        ]

    def test_push_many_dispatches_once_per_batch(self, rng):
        monitor, stream = _busy_monitor(rng)
        seen = []
        monitor.subscribe(seen.append)
        events = monitor.push_many("s", stream)
        assert seen == events  # every event exactly once, batch order

    def test_matcher_access_stays_coherent_mid_stream(self, rng):
        # Inspecting (or even stepping) a matcher between pushes must see
        # and produce exactly the per-query state, banks or no banks.
        fast, stream = _busy_monitor(rng)
        rng2 = np.random.default_rng(20070415)
        slow, _ = _busy_monitor(rng2)
        cut = len(stream) // 2
        got = fast.push_many("s", stream[:cut])
        expected = [e for v in stream[:cut] for e in slow.push("s", v)]
        for name in fast.queries:
            assert fast.matcher("s", name).tick == slow.matcher("s", name).tick
        got += fast.push_many("s", stream[cut:]) + fast.flush()
        expected += [e for v in stream[cut:] for e in slow.push("s", v)]
        expected += slow.flush()
        assert [(e.query, e.match) for e in got] == [
            (e.query, e.match) for e in expected
        ]

    def test_mixed_modes_share_a_stream(self, rng):
        # Bankable plain queries alongside a path-recording one: the
        # latter takes the per-query path but events still interleave
        # in registration order.
        pattern = rng.normal(size=5)
        monitor = StreamMonitor()
        monitor.add_stream("s")
        monitor.add_query("plain_a", pattern, epsilon=1e-9)
        monitor.add_query("pathy", pattern, epsilon=1e-9, record_path=True)
        monitor.add_query("plain_b", pattern, epsilon=1e-9)
        events = monitor.push_many("s", _pattern_stream(rng, pattern))
        events += monitor.flush()
        assert [e.query for e in events] == ["plain_a", "pathy", "plain_b"]
        assert events[1].match.path is not None


needs_cext = pytest.mark.skipif(
    "cext" not in available_backends(), reason="needs the compiled cext backend"
)


class TestExecutionPlan:
    """Which matchers bank: every fusable group of two or more, and a
    lone fusable query only where its bank kernel is compiled."""

    @staticmethod
    def _lone(backend, **kwargs):
        monitor = StreamMonitor(backend=backend)
        monitor.add_stream("s")
        monitor.add_query("q", [0.0, 5.0, 0.0], epsilon=2.0, **kwargs)
        monitor.push_many("s", [1.0, 1.0, 1.0])  # builds the plan
        return monitor, monitor._plans["s"]

    @needs_cext
    def test_lone_spring_banks_on_cext(self):
        monitor, plan = self._lone("cext")
        assert [bank.names for bank in plan.banks] == [["q"]]
        assert plan.unbanked == ()
        tracer = enable_tracing()
        try:
            monitor.push_many("s", np.linspace(0.0, 1.0, 10))
        finally:
            disable_tracing()
        names = [event["name"] for event in tracer.events()]
        assert names.count("kernel.extend_bank") == 1
        assert "kernel.update_column" not in names

    def test_lone_spring_stays_unbanked_on_numpy(self):
        _, plan = self._lone("numpy")
        assert plan.banks == []
        assert plan.unbanked == ("q",)

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"matcher": "constrained", "max_stretch": 2.0},
            {"record_path": True},
            {"matcher": "dynnorm"},
        ],
        ids=["constrained", "record_path", "dynnorm"],
    )
    def test_unfusable_lone_queries_stay_unbanked(self, backend, kwargs):
        _, plan = self._lone(backend, **kwargs)
        assert plan.banks == []
        assert plan.unbanked == ("q",)
