"""Pruning on/off parity: the admission cascade must be invisible.

The exactness contract of the lower-bound pruning cascade (ISSUE 5) is
byte-identical observable behaviour: for *any* stream — including NaN
gaps, cold spans longer than the replay buffer, and values landing
exactly on a query's corridor — a pruned engine and an unpruned engine
emit the same matches (positions, distances, output times, order), hold
the same best-so-far, and agree after catch-up on every column of
matcher state.  Hypothesis drives the stream shape, bank composition,
epsilon, and buffer capacity; tiny capacities force the deep-wake path
(parked span outgrew the buffer) which restores columns via the
all-``inf`` reset representation rather than replay.

These tests are the executable form of the exactness argument in
``docs/algorithm.md`` §11.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FusedSpring, QueryBank, Spring, StreamMonitor
from repro.core.engine import build_plan

# Queries live near 100; cold stream values near 0 push the corridor
# bound far past epsilon, so parking engages as soon as a matching
# excursion arms each query's best-so-far.
query_values = st.floats(min_value=98.0, max_value=102.0, allow_nan=False)
cold_values = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
warm_values = st.floats(min_value=97.0, max_value=103.0, allow_nan=False)


def queries_strategy(max_queries=4):
    return st.lists(
        st.lists(query_values, min_size=2, max_size=5),
        min_size=2,
        max_size=max_queries,
    )


@st.composite
def parky_streams(draw, min_size=10, max_size=60):
    """Streams engineered to exercise park / wake / deep-wake.

    An early warm excursion (arming best-so-far), cold spans (parking),
    occasional later warm blips (waking), and optional NaNs (gaps while
    parked and while hot).
    """
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    values = [draw(cold_values) for _ in range(n)]
    # warm excursion somewhere in the first half
    start = draw(st.integers(min_value=0, max_value=max(0, n // 2 - 1)))
    length = draw(st.integers(min_value=2, max_value=6))
    for i in range(start, min(n, start + length)):
        values[i] = draw(warm_values)
    # optional later blip to wake parked queries
    if draw(st.booleans()) and n - 2 > start + length:
        blip = draw(st.integers(min_value=start + length, max_value=n - 1))
        values[blip] = draw(warm_values)
    # optional NaN gaps
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        values[draw(st.integers(min_value=0, max_value=n - 1))] = float("nan")
    return values


def _engine_events(engine, stream, use_extend):
    if use_extend:
        events = list(engine.extend(stream))
    else:
        events = []
        for value in stream:
            events.extend(engine.step(value))
    events.extend(engine.flush())
    return [
        (qi, m.start, m.end, m.distance, m.output_time) for qi, m in events
    ]


class TestEngineParity:
    @settings(max_examples=60, deadline=None)
    @given(
        queries=queries_strategy(),
        stream=parky_streams(),
        epsilon=st.floats(min_value=0.5, max_value=8.0),
        capacity=st.integers(min_value=1, max_value=16),
        use_extend=st.booleans(),
    )
    def test_match_stream_identical(
        self, queries, stream, epsilon, capacity, use_extend
    ):
        plain = FusedSpring(QueryBank(queries, epsilons=epsilon))
        pruned = FusedSpring(
            QueryBank(queries, epsilons=epsilon), prune_buffer=capacity
        )
        expected = _engine_events(plain, stream, use_extend)
        got = _engine_events(pruned, stream, use_extend)
        assert got == expected

    @settings(max_examples=40, deadline=None)
    @given(
        queries=queries_strategy(),
        stream=parky_streams(),
        epsilon=st.floats(min_value=0.5, max_value=8.0),
        capacity=st.integers(min_value=1, max_value=16),
    )
    def test_caught_up_state_identical(
        self, queries, stream, epsilon, capacity
    ):
        """After catch_up_all the pruned engine's columns match exactly.

        Exactness is per-cell *representation* equivalence: caught-up
        cells either equal the unpruned run's cells bit-for-bit or are
        ``inf`` in both (the reset representation deep wake restores).
        Best-so-far and tick counters must always agree exactly.
        """
        plain = FusedSpring(QueryBank(queries, epsilons=epsilon))
        pruned = FusedSpring(
            QueryBank(queries, epsilons=epsilon), prune_buffer=capacity
        )
        for value in stream:
            plain.step(value)
            pruned.step(value)
        pruned.catch_up_all()
        assert not pruned.parked.any()
        np.testing.assert_array_equal(pruned._ticks, plain._ticks)
        np.testing.assert_array_equal(pruned._best_d, plain._best_d)
        np.testing.assert_array_equal(pruned._best_s, plain._best_s)
        np.testing.assert_array_equal(pruned._best_e, plain._best_e)
        np.testing.assert_array_equal(pruned._dmin, plain._dmin)
        # Deep wake may legitimately replace >epsilon cells with inf
        # (both representations imply "cannot contribute"), but any
        # finite caught-up cell must match bit-for-bit, and a cell at
        # or under epsilon must never be collapsed.  Column 0 is
        # excluded from the start-column comparison: the kernel writes
        # ``s[:, 0]`` fresh on every update without reading it, so a
        # stale value there is dead state, not divergence.  Padded tail
        # columns of short queries in a ragged bank hold exactly
        # ``+inf`` / ``0`` in both engines.
        if pruned._pad_mask is not None:
            for engine in (plain, pruned):
                assert np.all(engine._d[:, 1:][engine._pad_mask] == np.inf)
                assert np.all(engine._s[:, 1:][engine._pad_mask] == 0)
        finite = np.isfinite(pruned._d)
        np.testing.assert_array_equal(
            pruned._d[finite], plain._d[finite]
        )
        np.testing.assert_array_equal(
            pruned._s[:, 1:][finite[:, 1:]], plain._s[:, 1:][finite[:, 1:]]
        )
        eps = np.broadcast_to(
            pruned.bank.epsilons[:, None], plain._d.shape
        )
        assert np.all(finite | (plain._d > eps) | ~np.isfinite(plain._d))

    @settings(max_examples=30, deadline=None)
    @given(
        queries=queries_strategy(),
        stream=parky_streams(),
        epsilon=st.floats(min_value=0.5, max_value=8.0),
        capacity=st.integers(min_value=1, max_value=16),
    )
    def test_pruned_engine_matches_scalar_springs(
        self, queries, stream, epsilon, capacity
    ):
        """Triangle check: pruned fused == per-query scalar Spring."""
        springs = [Spring(q, epsilon=epsilon) for q in queries]
        expected = []
        for value in stream:
            for qi, spring in enumerate(springs):
                match = spring.step(value)
                if match is not None:
                    expected.append(
                        (qi, match.start, match.end, match.distance,
                         match.output_time)
                    )
        for qi, spring in enumerate(springs):
            match = spring.flush()
            if match is not None:
                expected.append(
                    (qi, match.start, match.end, match.distance,
                     match.output_time)
                )
        pruned = FusedSpring(
            QueryBank(queries, epsilons=epsilon), prune_buffer=capacity
        )
        assert _engine_events(pruned, stream, False) == expected


def _monitor_events(prune, specs, stream, prune_buffer, use_push_many):
    monitor = StreamMonitor(prune=prune, prune_buffer=prune_buffer)
    monitor.add_stream("s")
    for name, query, eps in specs:
        monitor.add_query(name, query, epsilon=eps)
    events = []
    if use_push_many:
        events.extend(monitor.push_many("s", stream))
    else:
        for value in stream:
            events.extend(monitor.push("s", value))
    return [
        (e.query, e.match.start, e.match.end, e.match.distance,
         e.match.output_time)
        for e in events
    ]


class TestMonitorParity:
    @settings(max_examples=40, deadline=None)
    @given(
        queries=queries_strategy(),
        stream=parky_streams(),
        epsilon=st.floats(min_value=0.5, max_value=8.0),
        capacity=st.integers(min_value=1, max_value=16),
        use_push_many=st.booleans(),
    )
    def test_event_stream_identical(
        self, queries, stream, epsilon, capacity, use_push_many
    ):
        specs = [(f"q{i}", q, epsilon) for i, q in enumerate(queries)]
        expected = _monitor_events(False, specs, stream, capacity, use_push_many)
        got = _monitor_events(True, specs, stream, capacity, use_push_many)
        assert got == expected

    def test_parking_actually_engages(self):
        """Guard against vacuous parity: the scenario really parks."""
        queries = [[100.0, 101.0, 99.5], [100.5, 99.0, 100.0, 101.0]]
        stream = [100.0, 100.5, 99.8] + [0.0] * 40
        engine = FusedSpring(
            QueryBank(queries, epsilons=4.0), prune_buffer=8
        )
        for value in stream:
            engine.step(value)
        assert engine.parked.all()
        assert engine.pruned_ticks > 0
        # parked rows still report the full stream clock
        np.testing.assert_array_equal(
            engine.stream_ticks, np.full(2, len(stream))
        )
        engine.catch_up_all()
        assert not engine.parked.any()


class TestPlanParity:
    @settings(max_examples=20, deadline=None)
    @given(
        stream=parky_streams(),
        capacity=st.integers(min_value=1, max_value=16),
    )
    def test_build_plan_prune_buffer_is_invisible(self, stream, capacity):
        """The engine-layer switch build_plan exposes is behaviourally inert."""
        queries = {
            "a": Spring([100.0, 101.0, 99.0], epsilon=3.0),
            "b": Spring([100.5, 99.5], epsilon=3.0),
        }
        queries2 = {
            "a": Spring([100.0, 101.0, 99.0], epsilon=3.0),
            "b": Spring([100.5, 99.5], epsilon=3.0),
        }
        plain = build_plan(queries, prune_buffer=None)
        pruned = build_plan(queries2, prune_buffer=capacity)
        assert len(plain.banks) == len(pruned.banks) == 1
        expected = _engine_events(plain.banks[0].engine, stream, False)
        got = _engine_events(pruned.banks[0].engine, stream, False)
        assert got == expected
