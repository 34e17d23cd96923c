"""Unit tests for the lower-bound admission cascade (park lifecycle).

The parity *properties* live in ``tests/properties/test_prune_parity``;
this module pins the cascade's mechanics deterministically: when
queries park and wake, what the counters count, how ``prune_stats``
aggregates, how parked state round-trips through checkpoints, and the
validation surface (bad capacities, inert distances, restore into a
pruning-less engine).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import FusedSpring, QueryBank, Spring, StreamMonitor
from repro.core.backends import available_backends
from repro.core.checkpoint import load_monitor, save_monitor
from repro.exceptions import CheckpointError, ValidationError

QUERIES = [[100.0, 101.0, 99.5], [100.5, 99.0, 100.0]]
EPSILON = 4.0
WARM = [100.0, 100.5, 99.8]  # arms best_d <= epsilon for both queries


def _pruned(prune_buffer=8, **kwargs):
    return FusedSpring(
        QueryBank(QUERIES, epsilons=EPSILON),
        prune_buffer=prune_buffer,
        **kwargs,
    )


class TestParkLifecycle:
    def test_queries_start_hot(self):
        engine = _pruned()
        assert not engine.parked.any()
        assert engine.pruned_ticks == 0

    def test_cold_values_alone_never_park(self):
        """Without an armed best-so-far the cascade must not engage."""
        engine = _pruned()
        for _ in range(20):
            engine.step(0.0)
        assert not engine.parked.any()
        assert engine.pruned_ticks == 0

    def test_warm_then_cold_parks(self):
        engine = _pruned()
        for value in WARM:
            engine.step(value)
        engine.step(0.0)  # reports/settles, arms parking
        engine.step(0.0)
        assert engine.parked.all()
        before = engine.pruned_ticks
        engine.step(0.0)
        assert engine.pruned_ticks == before + len(QUERIES)

    def test_parked_ticks_freeze_but_stream_ticks_advance(self):
        engine = _pruned()
        stream = WARM + [0.0] * 10
        for value in stream:
            engine.step(value)
        assert engine.parked.all()
        assert engine._ticks.max() < len(stream)
        np.testing.assert_array_equal(
            engine.stream_ticks, np.full(len(QUERIES), len(stream))
        )

    def test_warm_value_wakes_with_replay(self):
        engine = _pruned(prune_buffer=64)
        stream = WARM + [0.0] * 6
        for value in stream:
            engine.step(value)
        assert engine.parked.all()
        engine.step(100.0)
        assert not engine.parked.any()
        assert engine.replays > 0
        assert engine.replayed_ticks > 0
        np.testing.assert_array_equal(
            engine._ticks, np.full(len(QUERIES), len(stream) + 1)
        )

    def test_deep_wake_when_span_outgrows_buffer(self):
        engine = _pruned(prune_buffer=2)
        stream = WARM + [0.0] * 20
        for value in stream:
            engine.step(value)
        engine.step(100.0)
        assert not engine.parked.any()
        # span outgrew the 2-slot buffer: no replay happened
        assert engine.replays == 0
        np.testing.assert_array_equal(
            engine._ticks, np.full(len(QUERIES), len(stream) + 1)
        )

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("admission", ["flat", "grouped"])
    @pytest.mark.parametrize("batched", [False, True])
    def test_replay_tripwire_fires(self, backend, admission, batched):
        """A replayed span that would move a best match is a broken
        park certificate: every path raises, the compiled loop too."""
        engine = _pruned(prune_buffer=64, backend=backend, admission=admission)
        for value in WARM + [0.0] * 6:
            engine.step(value)
        assert engine.parked.all()
        engine._best_d[0] = np.inf  # any replayed d_m now undercuts it
        with pytest.raises(RuntimeError, match="pruning certification violated"):
            if batched:
                engine.extend([0.0, 100.0])
            else:
                engine.step(100.0)

    def test_nan_never_wakes(self):
        engine = _pruned()
        for value in WARM + [0.0, 0.0]:
            engine.step(value)
        assert engine.parked.all()
        engine.step(float("nan"))
        assert engine.parked.all()

    def test_catch_up_all_is_idempotent(self):
        engine = _pruned()
        for value in WARM + [0.0] * 5:
            engine.step(value)
        engine.catch_up_all()
        ticks = engine._ticks.copy()
        engine.catch_up_all()
        np.testing.assert_array_equal(engine._ticks, ticks)


class TestCountersAndStats:
    def test_pruned_ticks_counts_skipped_query_ticks(self):
        engine = _pruned()
        for value in WARM + [0.0, 0.0]:
            engine.step(value)
        assert engine.parked.all()
        base = engine.pruned_ticks
        for _ in range(7):
            engine.step(0.0)
        assert engine.pruned_ticks == base + 7 * len(QUERIES)

    def test_monitor_prune_stats_aggregates_across_syncs(self):
        monitor = StreamMonitor(prune=True, prune_buffer=64)
        monitor.add_stream("s")
        for i, query in enumerate(QUERIES):
            monitor.add_query(f"q{i}", query, epsilon=EPSILON)
        for value in WARM + [0.0] * 10:
            monitor.push("s", value)
        stats = monitor.prune_stats("s")
        assert stats["pruned_ticks"] > 0
        # accessing a matcher syncs (catches up) and folds counters;
        # the totals must survive the plan rebuild
        monitor.matcher("s", "q0")
        after = monitor.prune_stats("s")
        assert after["pruned_ticks"] >= stats["pruned_ticks"]
        assert after["replayed_ticks"] > 0  # the sync replayed the span

    def test_prune_stats_unknown_stream(self):
        monitor = StreamMonitor()
        with pytest.raises(ValidationError):
            monitor.prune_stats("nope")

    def test_prune_stats_zero_when_disabled(self):
        monitor = StreamMonitor(prune=False)
        monitor.add_stream("s")
        for i, query in enumerate(QUERIES):
            monitor.add_query(f"q{i}", query, epsilon=EPSILON)
        for value in WARM + [0.0] * 10:
            monitor.push("s", value)
        assert monitor.prune_stats("s") == {
            "pruned_ticks": 0,
            "replays": 0,
            "replayed_ticks": 0,
            "groups_certified": 0,
            "group_descents": 0,
        }

    def test_metrics_expose_prune_counters(self):
        monitor = StreamMonitor(prune=True, prune_buffer=8)
        registry = monitor.enable_metrics()
        monitor.add_stream("s")
        for i, query in enumerate(QUERIES):
            monitor.add_query(f"q{i}", query, epsilon=EPSILON)
        for value in WARM + [0.0] * 10:
            monitor.push("s", value)
        snapshot = registry.snapshot()

        def value(name):
            series = snapshot[name]["series"]
            return {
                tuple(sorted(entry["labels"].items())): entry["value"]
                for entry in series
            }[(("stream", "s"),)]

        assert value("spring_pruned_ticks_total") > 0
        assert value("spring_replays_total") >= 0


class TestValidationSurface:
    def test_bad_buffer_capacity_rejected(self):
        with pytest.raises(ValidationError):
            _pruned(prune_buffer=0)
        with pytest.raises(ValidationError):
            StreamMonitor(prune_buffer=0)

    def test_custom_distance_is_inert_not_an_error(self):
        """No corridor bound exists for custom callables: run unpruned."""
        engine = FusedSpring(
            QueryBank(
                QUERIES,
                epsilons=EPSILON,
                local_distance=lambda x, y: ((x - y) ** 4).sum(axis=-1),
            ),
            prune_buffer=8,
        )
        for value in WARM + [0.0] * 10:
            engine.step(value)
        assert not engine.parked.any()
        assert engine.pruned_ticks == 0
        assert engine.prune_state_dict() is None

    def test_absolute_distance_is_prunable(self):
        engine = FusedSpring(
            QueryBank(QUERIES, epsilons=EPSILON, local_distance="absolute"),
            prune_buffer=8,
        )
        plain = FusedSpring(
            QueryBank(QUERIES, epsilons=EPSILON, local_distance="absolute")
        )
        stream = WARM + [50.0] * 10
        got = []
        expected = []
        for value in stream:
            got.extend(engine.step(value))
            expected.extend(plain.step(value))
        assert engine.parked.all()
        assert [
            (qi, m.start, m.end, m.distance) for qi, m in got
        ] == [(qi, m.start, m.end, m.distance) for qi, m in expected]

    def test_restore_into_unpruned_engine_rejected(self):
        donor = _pruned()
        for value in WARM + [0.0] * 5:
            donor.step(value)
        state = donor.prune_state_dict()
        receiver = FusedSpring(QueryBank(QUERIES, epsilons=EPSILON))
        with pytest.raises(ValidationError):
            receiver.restore_prune_state(state)
        # None is always accepted (a checkpoint with no pruning payload)
        receiver.restore_prune_state(None)


class TestCheckpointRoundTrip:
    def _monitor(self, prune=True, prune_buffer=8, queries=QUERIES, backend=None):
        monitor = StreamMonitor(
            prune=prune, prune_buffer=prune_buffer, backend=backend
        )
        monitor.add_stream("s")
        for i, query in enumerate(queries):
            monitor.add_query(f"q{i}", query, epsilon=EPSILON)
        return monitor

    def _sig(self, events):
        return [
            (e.query, e.match.start, e.match.end, e.match.distance,
             e.match.output_time)
            for e in events
        ]

    @pytest.mark.parametrize(
        "resume_prune, queries",
        [(True, QUERIES), (False, QUERIES),
         (True, QUERIES[:1]), (False, QUERIES[:1])],
        ids=["True", "False", "True-lone", "False-lone"],
    )
    def test_mid_park_snapshot_resumes_exactly(self, resume_prune, queries):
        stream = WARM + [0.0] * 12 + [100.0, 100.5, 99.8, 0.0, 0.0]
        cut = 9  # mid-park: inside the first cold span

        reference = self._monitor(queries=queries)
        expected = []
        for value in stream:
            expected.extend(reference.push("s", value))

        first = self._monitor(queries=queries)
        events = []
        for value in stream[:cut]:
            events.extend(first.push("s", value))
        if not first._plans["s"].banks:
            pytest.skip("a lone query is banked, and parks, only on a "
                        "compiled bank kernel")
        payload = save_monitor(first)
        assert "prune" in payload  # the snapshot really was mid-park
        restored = load_monitor(payload, prune=resume_prune, prune_buffer=8)
        for value in stream[cut:]:
            events.extend(restored.push("s", value))
        assert self._sig(events) == self._sig(expected)

    @pytest.mark.skipif(
        "cext" not in available_backends(),
        reason="needs the compiled cext backend, the one that banks a lone query",
    )
    @pytest.mark.parametrize("resume_prune", [True, False])
    @pytest.mark.parametrize("load_on", ["numpy", "cext"])
    def test_lone_mid_park_snapshot_resumes_on_any_backend(
        self, load_on, resume_prune
    ):
        """A lone query parks only where it is banked (cext); its
        snapshot still loads where it runs unbanked, the parked span
        caught up into the matcher."""
        stream = WARM + [0.0] * 12 + [100.0, 100.5, 99.8, 0.0, 0.0]
        cut = 9
        lone = QUERIES[:1]
        reference = self._monitor(queries=lone, backend="cext")
        expected = [e for v in stream for e in reference.push("s", v)]

        first = self._monitor(queries=lone, backend="cext")
        events = [e for v in stream[:cut] for e in first.push("s", v)]
        before = first.prune_stats("s")
        payload = save_monitor(first)
        assert payload["prune"]["s"]["banks"][0]["prune"]["parked"]
        restored = load_monitor(
            payload, prune=resume_prune, prune_buffer=8, backend=load_on
        )
        resumed = restored.prune_stats("s")
        for value in stream[cut:]:
            events.extend(restored.push("s", value))
        after = restored.prune_stats("s")
        assert json.dumps(self._sig(events)) == json.dumps(self._sig(expected))
        for key, value in before.items():
            assert value <= resumed[key] <= after[key]

    def test_snapshot_is_non_destructive(self):
        """Saving must not force parked queries to catch up."""
        monitor = self._monitor()
        for value in WARM + [0.0] * 12:
            monitor.push("s", value)
        before = monitor.prune_stats("s")["replayed_ticks"]
        save_monitor(monitor)
        assert monitor.prune_stats("s")["replayed_ticks"] == before

    def test_unparked_snapshot_keeps_counter_continuity(self):
        """Even with nothing parked the payload rides along: restored
        monitors keep monotone prune counters instead of resetting."""
        monitor = self._monitor()
        for value in WARM + [0.0] * 5:
            monitor.push("s", value)
        monitor.matcher("s", "q0")  # sync: wakes everything, folds counters
        stats = monitor.prune_stats("s")
        assert stats["pruned_ticks"] > 0
        restored = load_monitor(save_monitor(monitor))
        assert restored.prune_stats("s") == stats

    def test_pruning_disabled_snapshot_has_no_prune_payload(self):
        monitor = self._monitor(prune=False)
        for value in WARM + [0.0] * 5:
            monitor.push("s", value)
        assert "prune" not in save_monitor(monitor)

    def test_legacy_payload_without_prune_key_loads(self):
        monitor = self._monitor(prune=False)
        for value in WARM + [0.0] * 4:
            monitor.push("s", value)
        payload = save_monitor(monitor)
        payload.pop("prune", None)
        restored = load_monitor(payload)
        got = []
        expected = []
        for value in [100.0, 0.0, 100.5]:
            got.extend(restored.push("s", value))
            expected.extend(monitor.push("s", value))
        assert self._sig(got) == self._sig(expected)

    def test_regrouped_monitor_with_parked_state_rejected(self):
        monitor = self._monitor()
        for value in WARM + [0.0] * 6:
            monitor.push("s", value)
        payload = save_monitor(monitor)
        # simulate a payload whose bank grouping no longer exists
        entries = payload["prune"]["s"]["banks"]
        entries[0]["queries"] = ["q0", "ghost"]
        with pytest.raises(CheckpointError):
            load_monitor(payload)
