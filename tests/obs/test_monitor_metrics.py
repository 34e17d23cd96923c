"""Observability wiring: monitor, supervised runner, checkpoints, tracing.

The load-bearing test here is byte-identical output: enabling metrics
(or leaving the default no-op recorder in place) must not change a
single emitted event — observability is a read-only layer.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import StreamMonitor
from repro.core.backends import available_backends, resolve_backend
from repro.exceptions import ValidationError
from repro.obs.recorder import NULL_RECORDER
from repro.obs.tracing import disable_tracing, enable_tracing
from repro.runtime import CheckpointManager, RetryPolicy, SupervisedRunner
from repro.streams.faults import FlakySource
from repro.streams.source import ArraySource


def _stream(rng, n=120):
    pattern = rng.normal(size=6)
    return pattern, np.concatenate(
        [rng.normal(size=40) + 9, pattern, rng.normal(size=40) + 9,
         pattern + 0.01, rng.normal(size=20) + 9]
    )


def _build(pattern, metrics: bool, backend=None, prune=True) -> StreamMonitor:
    monitor = StreamMonitor(backend=backend, prune=prune)
    if metrics:
        monitor.enable_metrics()
    monitor.add_stream("s0")
    # Two fusable queries (a bank) + one unbanked kind, so both the
    # bank path and the per-query path are exercised.
    monitor.add_query("q0", pattern, epsilon=0.5)
    monitor.add_query("q1", pattern + 0.25, epsilon=0.5)
    monitor.add_query("q2", pattern, epsilon=0.5,
                      matcher="constrained", max_stretch=2.0)
    return monitor


def _feed(monitor, values, mode: str) -> list:
    if mode == "push":
        events = [e for v in values for e in monitor.push("s0", float(v))]
    else:
        events = monitor.push_many("s0", values)
    return events + monitor.flush()


def _expected_spans(compiled: bool, prune: bool, mode: str) -> set:
    """Span names a traced run of :func:`_build`'s monitor records.

    These are the names ``perfbench/spans.py`` and the ``STAGES`` table
    of ``scripts/profile_hotpath.py`` attribute to layers.
    """
    if mode == "push":
        # The unbanked constrained query steps through Spring.step.
        names = {"monitor.push", "engine.bank_step", "kernel.update_column",
                 "policy.report"}
        if compiled and prune:
            # One value at a time through the compiled admission loop.
            return names | {"kernel.extend_bank"}
        names.add("kernel.step_bank" if compiled else "kernel.update_columns")
    elif compiled:
        # One native call per batch, admission included.
        return {"monitor.push_many", "engine.bank_extend", "kernel.extend_bank"}
    else:
        names = {"monitor.push_many", "engine.bank_extend",
                 "kernel.update_columns", "policy.report"}
    if prune:
        names.add("admission.admit")
    return names


def _event_bytes(events) -> bytes:
    return json.dumps(
        [
            (e.stream, e.query, e.match.start, e.match.end,
             e.match.distance, e.match.output_time)
            for e in events
        ]
    ).encode()


class TestNoOpParity:
    def test_default_recorder_is_the_shared_noop(self):
        monitor = StreamMonitor()
        assert monitor.recorder is NULL_RECORDER
        assert monitor.recorder.enabled is False
        assert monitor.metrics() is None

    def test_push_output_byte_identical_with_metrics_on(self, rng):
        pattern, values = _stream(rng)
        plain = _build(pattern, metrics=False)
        metered = _build(pattern, metrics=True)
        plain_events, metered_events = [], []
        for value in values:
            plain_events.extend(plain.push("s0", float(value)))
            metered_events.extend(metered.push("s0", float(value)))
        plain_events.extend(plain.flush())
        metered_events.extend(metered.flush())
        assert plain_events  # the workload must actually emit something
        assert _event_bytes(plain_events) == _event_bytes(metered_events)
        assert _event_bytes(plain.history) == _event_bytes(metered.history)

    def test_push_many_output_byte_identical_with_metrics_on(self, rng):
        pattern, values = _stream(rng)
        plain = _build(pattern, metrics=False)
        metered = _build(pattern, metrics=True)
        plain_events = plain.push_many("s0", values) + plain.flush()
        metered_events = metered.push_many("s0", values) + metered.flush()
        assert plain_events
        assert _event_bytes(plain_events) == _event_bytes(metered_events)

    @pytest.mark.parametrize("mode", ["push", "push_many"])
    @pytest.mark.parametrize("prune", [True, False], ids=["prune", "noprune"])
    @pytest.mark.parametrize("backend", available_backends())
    def test_output_byte_identical_under_tracing(self, rng, backend, prune, mode):
        pattern, values = _stream(rng)
        plain = _build(pattern, metrics=False, backend=backend, prune=prune)
        traced = _build(pattern, metrics=False, backend=backend, prune=prune)
        plain_events = _feed(plain, values, mode)
        tracer = enable_tracing()
        try:
            traced_events = _feed(traced, values, mode)
        finally:
            disable_tracing()
        assert plain_events
        assert _event_bytes(plain_events) == _event_bytes(traced_events)

        events = tracer.events()
        compiled = resolve_backend(backend).compiled
        assert {e["name"] for e in events} == _expected_spans(
            compiled, prune, mode
        )
        # Kernel spans are leaves: kernel time never includes report or
        # admission time.
        for event in events:
            parent = event["parent"]
            assert parent < 0 or not events[parent]["name"].startswith("kernel.")


class TestMonitorMetrics:
    def test_tick_match_and_latency_series(self, rng):
        pattern, values = _stream(rng)
        monitor = _build(pattern, metrics=True)
        events = []
        for value in values:
            events.extend(monitor.push("s0", float(value)))
        events.extend(monitor.flush())
        snapshot = monitor.metrics()

        ticks = snapshot["spring_stream_ticks_total"]["series"]
        assert ticks == [
            {"labels": {"stream": "s0"}, "value": float(len(values))}
        ]
        latency = snapshot["spring_push_latency_seconds"]["series"][0]
        assert latency["count"] == len(values)
        matches = {
            series["labels"]["query"]: series["value"]
            for series in snapshot["spring_matches_total"]["series"]
        }
        expected = {}
        for event in events:
            expected[event.query] = expected.get(event.query, 0) + 1
        assert matches == {q: float(n) for q, n in expected.items()}

    def test_per_matcher_collector_series(self, rng):
        pattern, values = _stream(rng)
        monitor = _build(pattern, metrics=True)
        monitor.push_many("s0", values)
        snapshot = monitor.metrics()
        per_matcher = {
            series["labels"]["query"]: series["value"]
            for series in snapshot["spring_matcher_ticks_total"]["series"]
        }
        assert per_matcher == {
            "q0": float(len(values)),
            "q1": float(len(values)),
            "q2": float(len(values)),
        }
        assert "spring_matcher_pending" in snapshot

    def test_bank_and_unbanked_latency_series(self, rng):
        pattern, values = _stream(rng, n=40)
        monitor = _build(pattern, metrics=True)
        for value in values[:10]:
            monitor.push("s0", float(value))
        snapshot = monitor.metrics()
        bank = snapshot["spring_bank_query_steps_total"]["series"][0]
        assert bank["value"] == 2 * 10  # the q0/q1 bank, 10 ticks
        unbanked = snapshot["spring_matcher_step_latency_seconds"]["series"]
        assert [series["labels"]["query"] for series in unbanked] == ["q2"]
        assert unbanked[0]["count"] == 10

    def test_enable_metrics_idempotent_and_registry_guard(self, rng):
        from repro.obs.metrics import MetricsRegistry

        monitor = StreamMonitor()
        registry = monitor.enable_metrics()
        assert monitor.enable_metrics() is registry
        with pytest.raises(ValidationError, match="different registry"):
            monitor.enable_metrics(MetricsRegistry())

    def test_metrics_snapshot_is_json_safe(self, rng):
        pattern, values = _stream(rng)
        monitor = _build(pattern, metrics=True)
        monitor.push_many("s0", values)
        json.dumps(monitor.metrics())


class TestRunnerMetrics:
    def test_retries_and_run_report_metrics(self, rng, tmp_path):
        pattern, values = _stream(rng)
        monitor = StreamMonitor(keep_history=False)
        monitor.add_query("q", pattern, epsilon=0.5)
        source = FlakySource(
            ArraySource(values, name="s0"),
            rate=0.2, seed=1, max_consecutive=1,
        )
        checkpoint = CheckpointManager(tmp_path / "ckpt")
        runner = SupervisedRunner(
            monitor, [source],
            policy=RetryPolicy(max_attempts=5, base_delay=0.0),
            checkpoint=checkpoint, checkpoint_every=50,
            sleep=lambda _s: None,
        )
        registry = runner.enable_metrics()
        report = runner.run()

        assert report.metrics is not None
        retries = report.metrics["spring_pull_retries_total"]["series"]
        assert report.health["s0"].retries > 0
        assert retries == [
            {
                "labels": {"stream": "s0"},
                "value": float(report.health["s0"].retries),
            }
        ]

        writes = report.metrics["spring_checkpoint_write_seconds"]["series"]
        assert writes[0]["count"] == report.checkpoints
        written = report.metrics["spring_checkpoint_bytes_total"]["series"]
        assert written[0]["value"] > 0
        assert registry is runner.monitor.recorder.registry

    def test_dead_letters_counted(self, rng):
        pattern, values = _stream(rng)
        monitor = StreamMonitor(keep_history=False)
        monitor.add_query("q", pattern, epsilon=0.5)
        runner = SupervisedRunner(
            monitor, [ArraySource(values, name="s0")], sleep=lambda _s: None
        )
        runner.enable_metrics()

        def explode(event):
            raise RuntimeError("subscriber bug")

        runner.subscribe(explode)
        report = runner.run()
        assert report.dead_letters
        dead = report.metrics["spring_dead_letters_total"]["series"]
        assert dead == [
            {"labels": {"stream": "s0"}, "value": float(len(report.dead_letters))}
        ]

    def test_quarantine_counted(self, rng):
        pattern, values = _stream(rng)
        monitor = StreamMonitor(keep_history=False)
        monitor.add_query("q", pattern, epsilon=0.5)

        class FatalSource(ArraySource):
            def __iter__(self):
                yield float(values[0])
                raise ValueError("fatal parse error")

        runner = SupervisedRunner(
            monitor, [FatalSource(values, name="s0")], sleep=lambda _s: None
        )
        runner.enable_metrics()
        report = runner.run()
        assert report.health["s0"].quarantined
        quarantines = report.metrics["spring_quarantines_total"]["series"]
        assert quarantines == [{"labels": {"stream": "s0"}, "value": 1.0}]

    def test_metrics_none_when_not_enabled(self, rng):
        pattern, values = _stream(rng)
        monitor = StreamMonitor(keep_history=False)
        monitor.add_query("q", pattern, epsilon=0.5)
        runner = SupervisedRunner(
            monitor, [ArraySource(values, name="s0")], sleep=lambda _s: None
        )
        report = runner.run()
        assert report.metrics is None

    def test_restore_timing_recorded_on_resume(self, rng, tmp_path):
        pattern, values = _stream(rng)
        monitor = StreamMonitor(keep_history=False)
        monitor.add_query("q", pattern, epsilon=0.5)
        checkpoint = CheckpointManager(tmp_path / "ckpt")
        runner = SupervisedRunner(
            monitor, [ArraySource(values, name="s0")],
            checkpoint=checkpoint, checkpoint_every=25,
            sleep=lambda _s: None,
        )
        runner.run(max_ticks=60)

        from repro.obs.recorder import MetricsRecorder

        recorder = MetricsRecorder()
        checkpoint_b = CheckpointManager(tmp_path / "ckpt")
        checkpoint_b.recorder = recorder
        checkpoint_b.resume()
        restores = recorder.registry.snapshot()[
            "spring_checkpoint_restore_seconds"
        ]["series"]
        assert restores[0]["count"] == 1


class TestCheckpointStateHygiene:
    def test_recorder_never_reaches_snapshot_payload(self, rng, tmp_path):
        """Enabling metrics must not leak into serialized monitor state."""
        pattern, values = _stream(rng)
        monitor = StreamMonitor(keep_history=False)
        monitor.enable_metrics()
        monitor.add_query("q", pattern, epsilon=0.5)
        monitor.add_stream("s0")
        monitor.push_many("s0", values[:30])
        checkpoint = CheckpointManager(tmp_path)
        checkpoint.recorder = monitor.recorder
        path = checkpoint.save(monitor, watermark=30)
        blob = path.read_text()
        assert "recorder" not in blob
        restored, _meta = CheckpointManager(tmp_path).resume()
        assert restored.recorder.enabled is False
