"""Cross-backend parity: compiled kernels must be observationally invisible.

The exactness contract of the kernel backend layer (ISSUE 6) is the
same shape as the pruning cascade's: for *any* stream — NaN gaps,
parked spans, error-policy aborts, checkpoint/restore cycles — an
engine on a compiled backend and an engine on the NumPy reference emit
byte-identical match streams (positions, distances, output times,
order) and hold byte-identical column state.  NaN *payload* bits are
canonicalised before comparison (the one degree of freedom the
contract leaves open; see ``repro.core.backends.base``) — placement
must still agree exactly.

Every test parametrises over the compiled backends that are actually
available (``cext`` wherever a C compiler exists) and skips itself
when only numpy is present, so the suite is meaningful on every CI
leg without being environment-specific.

These tests are the executable form of the bit-exactness argument in
``docs/algorithm.md`` §12.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FusedSpring, Spring, StreamMonitor
from repro.core.backends import available_backends
from repro.core.checkpoint import load_monitor, save_monitor
from repro.exceptions import StreamValueError

COMPILED = [name for name in available_backends() if name != "numpy"]

pytestmark = pytest.mark.skipif(
    not COMPILED, reason="no compiled kernel backend available here"
)

finite_values = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
stream_values = st.one_of(finite_values, st.just(float("nan")))


def canon(values: np.ndarray) -> bytes:
    out = np.array(values, dtype=np.float64, copy=True)
    out[np.isnan(out)] = np.nan
    return out.tobytes()


def _springs(queries, epsilon):
    return [Spring(np.asarray(q, dtype=float), epsilon=epsilon) for q in queries]


def _match_tuples(pairs):
    return [
        (qi, m.start, m.end, m.distance, m.output_time) for qi, m in pairs
    ]


def _assert_engine_states_equal(a: FusedSpring, b: FusedSpring):
    assert canon(b._d) == canon(a._d)
    assert b._s.tobytes() == a._s.tobytes()
    assert np.array_equal(b._ticks, a._ticks)
    assert canon(b._dmin) == canon(a._dmin)
    assert np.array_equal(b._ts, a._ts)
    assert np.array_equal(b._te, a._te)
    assert canon(b._best_d) == canon(a._best_d)
    assert np.array_equal(b._best_s, a._best_s)
    assert np.array_equal(b._best_e, a._best_e)


# ----------------------------------------------------------------------
# Fused engine parity (dense path)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", COMPILED)
@settings(max_examples=25, deadline=None)
@given(
    queries=st.lists(
        st.lists(finite_values, min_size=2, max_size=5),
        min_size=1,
        max_size=4,
    ),
    stream=st.lists(stream_values, min_size=1, max_size=40),
    epsilon=st.floats(min_value=0.5, max_value=30.0),
    use_extend=st.booleans(),
)
def test_fused_engine_parity(name, queries, stream, epsilon, use_extend):
    reference = FusedSpring.from_springs(
        _springs(queries, epsilon), backend="numpy"
    )
    compiled = FusedSpring.from_springs(
        _springs(queries, epsilon), backend=name
    )
    assert compiled.compiled_step

    if use_extend:
        want = _match_tuples(reference.extend(stream))
        got = _match_tuples(compiled.extend(stream))
        assert got == want
    else:
        for value in stream:
            want = _match_tuples(reference.step(value))
            got = _match_tuples(compiled.step(value))
            assert got == want
            _assert_engine_states_equal(reference, compiled)
    assert _match_tuples(compiled.flush()) == _match_tuples(reference.flush())
    _assert_engine_states_equal(reference, compiled)


# ----------------------------------------------------------------------
# Pruned / parked engine parity
# ----------------------------------------------------------------------


@st.composite
def parky_streams(draw, min_size=10, max_size=50):
    """Warm excursion (arms best-so-far), cold spans (parks), blips
    (wakes), NaN gaps — the full park/wake/deep-wake repertoire."""
    cold = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
    warm = st.floats(min_value=97.0, max_value=103.0, allow_nan=False)
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    values = [draw(cold) for _ in range(n)]
    start = draw(st.integers(min_value=0, max_value=max(0, n // 2 - 1)))
    for i in range(start, min(n, start + draw(st.integers(2, 6)))):
        values[i] = draw(warm)
    if draw(st.booleans()):
        values[draw(st.integers(min_value=0, max_value=n - 1))] = draw(warm)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        values[draw(st.integers(min_value=0, max_value=n - 1))] = float("nan")
    return values


@pytest.mark.parametrize("name", COMPILED)
@settings(max_examples=25, deadline=None)
@given(
    queries=st.lists(
        st.lists(
            st.floats(min_value=98.0, max_value=102.0, allow_nan=False),
            min_size=2,
            max_size=5,
        ),
        min_size=2,
        max_size=4,
    ),
    stream=parky_streams(),
    buffer_size=st.integers(min_value=2, max_value=32),
)
def test_pruned_engine_parity(name, queries, stream, buffer_size):
    reference = FusedSpring.from_springs(
        _springs(queries, 16.0), prune_buffer=buffer_size, backend="numpy"
    )
    compiled = FusedSpring.from_springs(
        _springs(queries, 16.0), prune_buffer=buffer_size, backend=name
    )
    want, got = [], []
    for value in stream:
        want.extend(_match_tuples(reference.step(value)))
        got.extend(_match_tuples(compiled.step(value)))
    want.extend(_match_tuples(reference.flush()))
    got.extend(_match_tuples(compiled.flush()))
    assert got == want
    # flush() wakes every parked row, so full state must now agree.
    _assert_engine_states_equal(reference, compiled)


@pytest.mark.parametrize("name", COMPILED)
@pytest.mark.parametrize("admission", ["flat", "grouped"])
@settings(max_examples=25, deadline=None)
@given(
    queries=st.lists(
        st.lists(
            st.floats(min_value=98.0, max_value=102.0, allow_nan=False),
            min_size=2,
            max_size=5,
        ),
        min_size=2,
        max_size=6,
    ),
    stream=parky_streams(max_size=80),
    buffer_size=st.integers(min_value=1, max_value=32),
    group_size=st.integers(min_value=1, max_value=4),
    widths=st.lists(st.integers(min_value=1, max_value=30), min_size=1),
)
def test_pruned_extend_parity(
    name, admission, queries, stream, buffer_size, group_size, widths
):
    """Batched pruned ``extend`` — the compiled admission loop where the
    backend has one — against the numpy per-tick cascade, over random
    batch splits."""

    def build(backend):
        return FusedSpring.from_springs(
            _springs(queries, 16.0),
            prune_buffer=buffer_size,
            backend=backend,
            admission=admission,
            admission_group_size=group_size,
        )

    reference, compiled = build("numpy"), build(name)
    pos, turn = 0, 0
    while pos < len(stream):
        batch = stream[pos:pos + widths[turn % len(widths)]]
        pos += len(batch)
        turn += 1
        assert _match_tuples(compiled.extend(batch)) == _match_tuples(
            reference.extend(batch)
        )
        assert np.array_equal(compiled.parked, reference.parked)
        assert compiled.prune_state_dict() == reference.prune_state_dict()
    reference.catch_up_all()
    compiled.catch_up_all()
    _assert_engine_states_equal(reference, compiled)
    assert _match_tuples(compiled.flush()) == _match_tuples(reference.flush())


# ----------------------------------------------------------------------
# Error-policy parity
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", COMPILED)
@pytest.mark.parametrize("use_extend", [False, True])
def test_missing_error_policy_parity(name, use_extend):
    """missing="error" aborts at the same tick with the same partial
    matches under every backend."""
    queries = [np.zeros(2), np.zeros(3)]
    stream = [0.0] * 10 + [float("nan")] + [0.0] * 5

    def run(backend):
        springs = [Spring(q, epsilon=5.0, missing="error") for q in queries]
        engine = FusedSpring.from_springs(springs, backend=backend)
        matches = []
        try:
            if use_extend:
                matches.extend(engine.extend(stream))
            else:
                for value in stream:
                    matches.extend(engine.step(value))
        except StreamValueError as exc:
            return str(exc), _match_tuples(matches) + _match_tuples(
                exc.partial_matches
            )
        pytest.fail("missing='error' did not raise on NaN")

    assert run(name) == run("numpy")


# ----------------------------------------------------------------------
# Monitor parity across matcher kinds
# ----------------------------------------------------------------------

KINDS = [
    ("spring", {}),
    ("constrained", {"max_stretch": 2.0}),
    ("normalized", {"warmup": 8}),
    ("cascade", {"reduction": 2}),
]


def _mixed_stream(rng, n=160):
    """Warm/cold phases plus NaN gaps, shared by the monitor tests."""
    values = rng.normal(scale=1.5, size=n)
    values[20:40] += 100.0  # warm excursion near the cold queries
    values[rng.random(size=n) < 0.05] = np.nan
    return [float(v) for v in values]


def _build_monitor(rng_seed, backend, prune):
    rng = np.random.default_rng(rng_seed)
    monitor = StreamMonitor(backend=backend, prune=prune, prune_buffer=16)
    monitor.add_stream("s0")
    for i in range(6):
        query = 100.0 + np.cumsum(rng.normal(scale=0.2, size=4 + i))
        monitor.add_query(f"q{i}", query, epsilon=8.0)
    for kind, kwargs in KINDS[1:]:
        query = np.cumsum(rng.normal(size=10))
        monitor.add_query(
            f"q_{kind}", query, epsilon=4.0, matcher=kind, **kwargs
        )
    return monitor


def _event_tuples(events):
    return [
        (e.stream, e.query, e.match.start, e.match.end, e.match.distance,
         e.match.output_time)
        for e in events
    ]


@pytest.mark.parametrize("name", COMPILED)
@pytest.mark.parametrize("prune", [False, True])
def test_monitor_parity_across_matcher_kinds(name, prune, rng):
    reference = _build_monitor(7, "numpy", prune)
    compiled = _build_monitor(7, name, prune)
    assert compiled.backend_name == name
    stream = _mixed_stream(rng)
    want, got = [], []
    for value in stream:
        want.extend(_event_tuples(reference.push("s0", value)))
        got.extend(_event_tuples(compiled.push("s0", value)))
    assert got == want


@pytest.mark.parametrize("name", COMPILED)
def test_monitor_push_many_parity(name, rng):
    reference = _build_monitor(11, "numpy", prune=True)
    compiled = _build_monitor(11, name, prune=True)
    stream = _mixed_stream(rng)
    want = _event_tuples(reference.push_many("s0", stream))
    got = _event_tuples(compiled.push_many("s0", stream))
    assert got == want


# ----------------------------------------------------------------------
# Checkpoints travel across backends
# ----------------------------------------------------------------------


@pytest.mark.parametrize("save_on,load_on", [("numpy", None), (None, "numpy")])
def test_checkpoint_round_trips_across_backends(save_on, load_on, rng):
    """A snapshot written under backend A restores under backend B to a
    byte-identical future match stream — the backend is a runtime
    property, never part of the state."""
    name = COMPILED[0]
    save_on = save_on or name
    load_on = load_on or name
    monitor = _build_monitor(13, save_on, prune=True)
    stream = _mixed_stream(rng, n=200)
    cut = 90
    for value in stream[:cut]:
        monitor.push("s0", value)

    payload = save_monitor(monitor)
    import json

    assert "backend" not in json.dumps(payload)
    restored = load_monitor(payload, backend=load_on)
    assert restored.backend_name == load_on

    want, got = [], []
    for value in stream[cut:]:
        want.extend(_event_tuples(monitor.push("s0", value)))
        got.extend(_event_tuples(restored.push("s0", value)))
    assert got == want
