"""Batch boundaries are invisible to the pruning cascade.

On a bank kernel that runs admission natively (cext),
``FusedSpring.extend`` makes the whole cascade's decisions — ring push,
corridor test (flat, or grouped with descent), wake by replay or deep
wake, parking — inside one compiled call per batch, and
``FusedSpring.step`` runs the same loop on a batch of one (the Python
cascade it is held to is the numpy backend's, in
``test_backend_parity.py``).  The contract is that
nothing observable depends on how a stream is cut into batches: an
engine fed value by value and a twin fed random batches hold
byte-identical columns, tick counters, parked masks and prune payloads
(ring contents, park offsets, all five counters) at every batch
boundary, emit the same matches, and raise the same errors with the
same ``partial_matches``.

The inputs are built to reach every exit of the compiled loop: ring
capacities 1-16 (deep wakes), group sizes 1-8 (grouped hand-backs and
index rebuilds mid-batch), NaN gaps and infinities under both missing
policies, and batches that overflow the kernel's emission buffer.  On
backends without a native pruned loop ``extend`` steps the cascade per
tick, and the same properties hold trivially.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FusedSpring, QueryBank
from repro.core.backends import available_backends
from repro.exceptions import StreamValueError

BACKENDS = available_backends()

query_values = st.floats(min_value=98.0, max_value=102.0, allow_nan=False)
cold_values = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
warm_values = st.floats(min_value=97.0, max_value=103.0, allow_nan=False)


@st.composite
def streams(draw, min_size=10, max_size=120):
    """Cold tails with warm excursions, NaN gaps and the odd infinity."""
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    values = draw(st.lists(cold_values, min_size=n, max_size=n))
    index = st.integers(min_value=0, max_value=n - 1)
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        start = draw(index)
        width = draw(st.integers(min_value=1, max_value=6))
        for i in range(start, min(n, start + width)):
            values[i] = draw(warm_values)
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        values[draw(index)] = math.nan
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        values[draw(index)] = draw(st.sampled_from([math.inf, -math.inf]))
    return values


@st.composite
def batch_cuts(draw, n):
    """Split ``range(n)`` into consecutive batches of 1-40 values."""
    cuts, pos = [], 0
    while pos < n:
        width = draw(st.integers(min_value=1, max_value=40))
        cuts.append((pos, min(n, pos + width)))
        pos += width
    return cuts


def _engine(queries, epsilon, missing, capacity, admission, group_size,
            backend, kind="squared"):
    return FusedSpring(
        QueryBank(queries, epsilons=epsilon, local_distance=kind),
        missing=missing,
        prune_buffer=capacity,
        backend=backend,
        admission=admission,
        admission_group_size=group_size,
    )


def _tuples(pairs):
    return [(qi, m.start, m.end, m.distance, m.output_time) for qi, m in pairs]


def _step_batch(engine, batch):
    """Feed ``batch`` value by value, stopping at the first error the
    way ``extend`` does; return ``(matches, error text or None)``."""
    matches = []
    for value in batch:
        try:
            matches.extend(engine.step(value))
        except StreamValueError as exc:
            return _tuples(matches), str(exc)
    return _tuples(matches), None


def _extend_batch(engine, batch):
    try:
        return _tuples(engine.extend(batch)), None
    except StreamValueError as exc:
        return _tuples(exc.partial_matches), str(exc)


def _assert_twins(ref: FusedSpring, other: FusedSpring) -> None:
    for name in ("_d", "_s", "_ticks", "_dmin", "_ts", "_te",
                 "_best_d", "_best_s", "_best_e"):
        assert getattr(other, name).tobytes() == getattr(ref, name).tobytes(), name
    assert other.parked.tobytes() == ref.parked.tobytes()
    parked = ref.parked
    assert np.array_equal(
        other.admission.park_pos[parked], ref.admission.park_pos[parked]
    )
    assert other.prune_state_dict() == ref.prune_state_dict()


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(
    queries=st.lists(
        st.lists(query_values, min_size=1, max_size=5), min_size=1, max_size=6
    ),
    epsilon=st.floats(min_value=0.5, max_value=8.0),
    data=st.data(),
    missing=st.sampled_from(["skip", "error"]),
    capacity=st.integers(min_value=1, max_value=16),
    admission=st.sampled_from(["flat", "grouped"]),
    group_size=st.integers(min_value=1, max_value=8),
    kind=st.sampled_from(["squared", "absolute"]),
)
def test_batches_match_per_tick_stepping(
    backend, queries, epsilon, data, missing, capacity, admission,
    group_size, kind,
):
    """Per-tick reference vs an all-``extend`` twin vs a twin mixing
    ``step`` and ``extend`` batch by batch: identical at every batch
    boundary, errors and ``partial_matches`` included."""
    stream = data.draw(streams())
    cuts = data.draw(batch_cuts(len(stream)))
    modes = data.draw(
        st.lists(st.booleans(), min_size=len(cuts), max_size=len(cuts))
    )
    args = (queries, epsilon, missing, capacity, admission, group_size,
            backend, kind)
    ref, batched, mixed = _engine(*args), _engine(*args), _engine(*args)
    for (lo, hi), use_extend in zip(cuts, modes):
        batch = stream[lo:hi]
        want = _step_batch(ref, batch)
        assert _extend_batch(batched, batch) == want
        feed = _extend_batch if use_extend else _step_batch
        assert feed(mixed, batch) == want
        _assert_twins(ref, batched)
        _assert_twins(ref, mixed)
    assert _tuples(batched.flush()) == _tuples(ref.flush())
    _assert_twins(ref, batched)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("admission", ["flat", "grouped"])
def test_batches_overflowing_the_emission_buffer(backend, admission):
    """A batch that confirms more matches than the kernel buffers per
    call resumes where the full buffer stopped it."""
    queries = [[100.0], [100.0, 100.0], [99.5, 100.5, 100.0]] * 3
    # Each 100-run is matched and confirmed by the following cold ticks,
    # which then park every query until the next run wakes it.
    pattern = [100.0, 100.0, 100.0, 0.0, 0.0, 0.0, math.nan, 0.0]
    stream = pattern * 400
    args = (queries, 4.0, "skip", 8, admission, 2, backend)
    ref, batched = _engine(*args), _engine(*args)
    want, _ = _step_batch(ref, stream)
    got, _ = _extend_batch(batched, stream)
    assert got == want
    _assert_twins(ref, batched)
    if batched.compiled_step:
        assert len(got) > batched._kernel.emit_capacity
    assert ref.replays > 0


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("admission", ["flat", "grouped"])
@pytest.mark.parametrize("capacity", [1, 2, 3, 8])
def test_wakes_around_the_ring_capacity(backend, admission, capacity):
    """Every parked span length around the ring capacity, woken inside
    one batch: a span the ring still holds replays, one more tick
    deep-wakes, and both paths agree on which happened."""
    queries = [[100.0, 101.0, 99.5], [100.5, 99.0, 100.0]]
    outcomes = set()
    for cold in range(2 * capacity + 2):
        stream = [100.0, 100.5, 99.8] + [0.0] * (2 + cold) + [100.0, 0.0]
        args = (queries, 4.0, "skip", capacity, admission, 1, backend)
        ref, batched = _engine(*args), _engine(*args)
        assert _extend_batch(batched, stream) == _step_batch(ref, stream)
        _assert_twins(ref, batched)
        outcomes.add(ref.replays > 0)
    assert outcomes == ({False} if capacity == 1 else {False, True})


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("admission", ["flat", "grouped"])
def test_batches_after_a_prune_state_restore(backend, admission):
    """Restoring a prune payload mid-park replaces the replay ring; the
    next batch reads and advances the new one."""
    queries = [[100.0], [100.0, 100.0], [99.5, 100.5, 100.0]]
    stream = [
        value
        for cycle in range(20)
        for value in (100.0, 100.0, 100.0, cycle, 0.5, 0.0, math.nan, 0.0)
    ]
    args = (queries, 4.0, "skip", 8, admission, 2, backend)
    ref, batched = _engine(*args), _engine(*args)
    cut = len(stream) // 2 - 2
    assert _extend_batch(batched, stream[:cut]) == _step_batch(ref, stream[:cut])
    assert batched.parked.any()
    batched.restore_prune_state(batched.prune_state_dict())
    assert _extend_batch(batched, stream[cut:]) == _step_batch(ref, stream[cut:])
    _assert_twins(ref, batched)
