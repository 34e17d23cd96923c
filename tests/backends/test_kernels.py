"""Direct kernel parity: every available backend vs the NumPy reference.

Each backend's kernel entry points are checked bit-for-bit against
the reference implementations on randomized inputs, including ``inf``
resets and NaN placement (payload bits are canonicalised before byte
comparison — the one degree of freedom the exactness contract leaves
open; see ``repro.core.backends.base``).

The suite parametrises over :func:`available_backends`, so it runs the
numpy backend everywhere and the cext backend wherever a C compiler
exists — nothing here is environment-specific.
"""

from __future__ import annotations

import json
import platform

import numpy as np
import pytest

from repro.core import FusedSpring, Spring, StreamMonitor
from repro.core.backends import (
    BankKernel,
    available_backends,
    backend_infos,
    cext,
    resolve_backend,
)
from repro.core.checkpoint import dump_monitor_json, save_monitor
from repro.core.state import SpringState, update_column, update_columns

BACKENDS = available_backends()


@pytest.fixture(params=BACKENDS)
def backend(request):
    return resolve_backend(request.param)


def canon(values: np.ndarray) -> np.ndarray:
    """Copy with every NaN rewritten to the canonical quiet NaN."""
    out = np.array(values, dtype=np.float64, copy=True)
    out[np.isnan(out)] = np.nan
    return out


def _random_column_state(rng, q, m):
    """A plausible mid-stream (d, s, cost, ticks) tuple with infs."""
    d = rng.uniform(0.0, 8.0, size=(q, m + 1))
    d[:, 0] = 0.0
    # Sprinkle the inf reset representation Figure 4 writes after emits.
    d[rng.random(size=d.shape) < 0.2] = np.inf
    s = rng.integers(1, 50, size=(q, m + 1)).astype(np.int64)
    cost = rng.uniform(0.0, 4.0, size=(q, m))
    ticks = rng.integers(1, 50, size=q).astype(np.int64)
    return d, s, cost, ticks


# ----------------------------------------------------------------------
# update_columns / update_column
# ----------------------------------------------------------------------


def test_update_columns_bitexact(backend, rng):
    for _ in range(25):
        q = int(rng.integers(1, 9))
        m = int(rng.integers(1, 17))
        d, s, cost, ticks = _random_column_state(rng, q, m)
        want_d, want_s = update_columns(d, s, cost, ticks)
        got_d, got_s = backend.update_columns(d, s, cost, ticks)
        assert got_d.tobytes() == want_d.tobytes()
        assert got_s.tobytes() == want_s.tobytes()


def test_update_columns_nan_placement(backend, rng):
    """NaN inputs: identical placement, payloads canonicalised."""
    q, m = 4, 6
    d, s, cost, ticks = _random_column_state(rng, q, m)
    d[rng.random(size=d.shape) < 0.25] = np.nan
    with np.errstate(invalid="ignore"):
        want_d, want_s = update_columns(d, s, cost, ticks)
        got_d, got_s = backend.update_columns(d, s, cost, ticks)
    assert canon(got_d).tobytes() == canon(want_d).tobytes()
    assert got_s.tobytes() == want_s.tobytes()


def test_update_columns_leaves_inputs_untouched(backend, rng):
    d, s, cost, ticks = _random_column_state(rng, 3, 5)
    before = (d.copy(), s.copy())
    backend.update_columns(d, s, cost, ticks)
    assert np.array_equal(d, before[0])
    assert np.array_equal(s, before[1])


def test_update_column_bitexact_over_a_stream(backend, rng):
    m = 7
    got = SpringState.initial(m)
    want = SpringState.initial(m)
    for tick in range(1, 40):
        cost = rng.uniform(0.0, 4.0, size=m)
        update_column(want, cost, tick)
        backend.update_column(got, cost, tick)
        assert got.d.tobytes() == want.d.tobytes()
        assert got.s.tobytes() == want.s.tobytes()


# ----------------------------------------------------------------------
# the corridor boundary inside the compiled admission loop
# ----------------------------------------------------------------------

#: Corridor [100, 101] for every query; the edge value sits outside it.
BOUNDARY_QUERIES = [
    [100.0, 101.0, 100.5],
    [101.0, 100.0, 100.25],
    [100.5, 100.0, 101.0],
    [100.0, 100.75, 101.0],
    [101.0, 100.5, 100.0],
    [100.25, 101.0, 100.0],
]
BOUNDARY_EDGE = 103.0
BOUNDARY_FAR = 0.0


@pytest.mark.parametrize("kind", ["squared", "absolute"])
@pytest.mark.parametrize("admission", ["flat", "grouped"])
@pytest.mark.parametrize(
    "name", [b for b in BACKENDS if resolve_backend(b).compiled]
)
def test_corridor_boundary_through_the_compiled_loop(
    name, admission, kind, rng
):
    """Every corridor test is a strict ``>``: a query whose bound lands
    exactly on its ε neither stays parked nor parks.

    Half the queries get ``eps = lb_corridor(edge, lo, hi)`` exactly, the
    rest a tighter ε, so every merged group holding a planted query has
    its bound on its loosest ε too.  After a warm-up that matches each
    query and a cold run that parks them all, far values alternate with
    the edge value; the compiled pruned ``extend`` must track the numpy
    reference cascade batch by batch.  A ``>=`` anywhere in the loop
    (group certification, member descent, flat wake or parking) flips a
    wake or a park here.
    """
    from repro.core import QueryBank
    from repro.dtw.lower_bounds import lb_corridor

    lo = np.array([min(q) for q in BOUNDARY_QUERIES])
    hi = np.array([max(q) for q in BOUNDARY_QUERIES])
    edge_lb = lb_corridor(BOUNDARY_EDGE, lo, hi, kind)
    eps = np.where(np.arange(len(BOUNDARY_QUERIES)) % 2 == 0, edge_lb, 0.75 * edge_lb)

    def build(backend):
        return FusedSpring(
            QueryBank(BOUNDARY_QUERIES, epsilons=eps, local_distance=kind),
            prune_buffer=16,
            backend=backend,
            admission=admission,
            admission_group_size=2,
        )

    def sig(pairs):
        return [(qi, m.start, m.end, m.distance, m.output_time)
                for qi, m in pairs]

    warm = [v for q in BOUNDARY_QUERIES for v in q] + [BOUNDARY_FAR] * 8
    tail = rng.choice([BOUNDARY_FAR, BOUNDARY_EDGE], size=80, p=[0.6, 0.4])
    stream = warm + tail.tolist()
    reference, compiled = build("numpy"), build(name)
    edges_seen = 0
    pos = 0
    while pos < len(stream):
        batch = stream[pos:pos + int(rng.integers(1, 8))]
        pos += len(batch)
        assert sig(compiled.extend(batch)) == sig(reference.extend(batch))
        assert compiled.parked.tobytes() == reference.parked.tobytes()
        assert compiled.prune_state_dict() == reference.prune_state_dict()
        if pos > len(warm) and batch[-1] == BOUNDARY_EDGE:
            # Not vacuous: on the edge the planted queries are hot and
            # the tighter ones stay parked.
            assert not reference.parked[::2].any()
            assert reference.parked[1::2].all()
            edges_seen += 1
    assert edges_seen > 0 and reference.replays > 0
    if admission == "grouped":
        assert reference.group_descents > 0


# ----------------------------------------------------------------------
# bank_kernel minting
# ----------------------------------------------------------------------


def _engine(rng, backend_name="numpy"):
    springs = [
        Spring(np.cumsum(rng.normal(size=4 + i)), epsilon=2.0)
        for i in range(3)
    ]
    return FusedSpring.from_springs(springs, backend=backend_name)


def test_bank_kernel_minting(backend, rng):
    """Every backend mints a kernel; a compiled backend compiles it."""
    engine = _engine(rng)
    kernel = backend.bank_kernel(engine)
    assert isinstance(kernel, BankKernel)
    assert kernel.compiled == backend.compiled
    if kernel.compiled:
        assert kernel.runs_admission
        assert kernel.emit_capacity >= 4 * engine.q
    else:
        # The numpy backend mints the vectorised reference itself.
        assert type(kernel) is BankKernel


def test_bank_kernel_declines_unknown_distance(backend, rng):
    """No compiled fused step for a custom distance: the backend mints
    the reference kernel over its own column update instead."""
    engine = _engine(rng)
    engine._prune_kind = "custom"  # no compiled specialisation
    kernel = backend.bank_kernel(engine)
    assert type(kernel) is BankKernel
    assert not kernel.compiled and not kernel.runs_admission
    assert kernel._update_columns == backend.update_columns


def test_engine_reports_compiled_step(backend, rng):
    engine = _engine(rng, backend_name=backend)
    assert engine.backend_name == backend.name
    assert engine.compiled_step == backend.compiled


@pytest.mark.parametrize("prune", [True, False], ids=["prune", "noprune"])
def test_lone_bank_hands_back_a_full_emission_buffer(backend, prune):
    """A one-query compiled bank buffers 4 confirmations per foreign
    call: a batch confirming more hands back to Python mid-batch and
    resumes, emitting exactly what per-tick push emits."""
    values = [1.0, 0.1, 5.0, 0.1, 1.0, 1.0] * 8  # one spike every 6 ticks

    def monitor():
        m = StreamMonitor(backend=backend, prune=prune)
        m.add_stream("s")
        m.add_query("q", [0.0, 5.0, 0.0], epsilon=2.0)
        return m

    batched, stepped = monitor(), monitor()
    got = batched.push_many("s", values)
    want = [e for v in values for e in stepped.push("s", v)]
    assert len(want) > 4

    def sig(events):
        return [(e.query, e.match.start, e.match.end, e.match.distance,
                 e.match.output_time) for e in events]

    assert sig(got) == sig(want)
    if backend.compiled:
        (bank,) = batched._plans["s"].banks
        assert bank.engine._kernel.emit_capacity == 4


# ----------------------------------------------------------------------
# padded cells of a ragged bank
# ----------------------------------------------------------------------

#: An odd row count, a length-1 query and a repeated length.  Rows 2 and
#: 6 reach up to the cold level 50, so they never park: while the others
#: are parked, the hot subset mixes lengths against index order.
RAGGED_LENGTHS = (1, 2, 3, 5, 8, 8, 13)
#: Replay ring capacity: longer than the short cold run below (those
#: parks replay) and shorter than the long one (those wake deep).
RAGGED_RING = 6


def _ragged_springs():
    springs = []
    for i, m in enumerate(RAGGED_LENGTHS):
        shape = 0.4 * np.sin(np.arange(m) * 0.7 + i)
        if i in (2, 6):
            shape[m // 2] = 50.0
        springs.append(Spring(shape, epsilon=3.0))
    return springs


def _ragged_stream():
    """Warm runs near 0 capture every narrow query; the first 50 blocks
    them all at once (several emissions on one tick); cold runs park the
    narrow queries, a short one replays and a long one wakes deep."""
    warm = [float(0.1 * np.sin(t)) for t in range(12)]
    nan = float("nan")
    return (
        warm + [50.0, 50.0, nan, 50.0]
        + warm + [50.0] * 12
        + warm[:8] + [nan] + warm[8:]
    )


def _ragged_snapshots(name):
    """Drive ragged banks on backend ``name`` through every column path;
    after each call, snapshot ``(label, d, s, emissions)``."""
    stream = _ragged_stream()

    def snap(label, engine, emitted):
        return (
            label,
            engine._d.copy(),
            engine._s.copy(),
            [(qi, m.start, m.end, m.distance, m.output_time) for qi, m in emitted],
        )

    def bank(prune):
        return FusedSpring.from_springs(
            _ragged_springs(), backend=name,
            prune_buffer=RAGGED_RING if prune else None,
        )

    out = []
    for prune in (False, True):
        engine = bank(prune)
        for t, value in enumerate(stream):
            out.append(snap(f"step prune={prune} t={t}", engine, engine.step(value)))
            if prune and t == 14:  # mid short cold run: replay, no step after
                assert engine.parked.any()
                engine.catch_up_all()
                out.append(snap("catch_up_all", engine, []))
        out.append(snap(f"step prune={prune} flush", engine, engine.flush()))

    engine = bank(False)
    for t in range(0, len(stream), 5):
        out.append(snap(f"extend t={t}", engine, engine.extend(stream[t:t + 5])))
    out.append(snap("extend flush", engine, engine.flush()))

    engines = {"pruned": bank(True)}
    for t in range(0, len(stream), 5):
        for key, engine in engines.items():
            emitted = engine.extend(stream[t:t + 5])
            out.append(snap(f"{key} extend t={t}", engine, emitted))
        if t == 30:  # mid long cold run: restore a parked snapshot
            engine = engines["pruned"]
            assert engine.parked.any()
            springs = _ragged_springs()
            engine.write_back(springs)
            restored = FusedSpring.from_springs(
                springs, backend=name, prune_buffer=RAGGED_RING
            )
            restored.restore_prune_state(engine.prune_state_dict())
            out.append(snap("restored", restored, []))
            engines["restored"] = restored
    for key, engine in engines.items():
        assert not engine.parked.any()
        # Some parked ticks replayed, the rest woke deep.
        assert 0 < engine.replayed_ticks < engine.pruned_ticks
        out.append(snap(f"{key} flush", engine, engine.flush()))
    return out


@pytest.mark.parametrize("name", BACKENDS)
def test_ragged_bank_padding_stays_inf_and_zero(name):
    """Padded cells hold exactly +inf / 0 after every stepping call:
    cext never sweeps them and the reference puts them back."""
    lengths = np.array(RAGGED_LENGTHS)
    cols = np.arange(lengths.max() + 1)
    pad = cols[None, :] > lengths[:, None]
    for label, d, s, _ in _ragged_snapshots(name):
        assert np.all(d[pad] == np.inf), label
        assert np.all(s[pad] == 0), label


@pytest.mark.skipif(
    "cext" not in BACKENDS, reason="cext unavailable: no C compiler found"
)
def test_ragged_bank_columns_match_numpy_bytewise():
    """Length-ordered sweeps: columns and emissions equal numpy's."""
    got = _ragged_snapshots("cext")
    want = _ragged_snapshots("numpy")
    assert [g[0] for g in got] == [w[0] for w in want]
    for (label, d, s, emitted), (_, want_d, want_s, want_emitted) in zip(
        got, want
    ):
        assert emitted == want_emitted, label
        assert d.tobytes() == want_d.tobytes(), label
        assert s.tobytes() == want_s.tobytes(), label


# ----------------------------------------------------------------------
# the compiled sweep: one source, built for each vector width
# ----------------------------------------------------------------------

#: Rows of the wide bank, a multiple of no lane count; lengths 1..33.
WIDE_ROWS = 67
#: The wide bank's queries sit at this many levels, 10 apart.
WIDE_LEVELS = 5


def _wide_springs():
    springs = []
    for i in range(WIDE_ROWS):
        m = 1 + i % 33
        shape = 10.0 * (i % WIDE_LEVELS) + 0.05 * np.sin(np.arange(m) + i)
        springs.append(Spring(shape, epsilon=1.0))
    return springs


def _wide_stream():
    """An arming run at every level, then one level per tick, never one
    of the last two: the rows at the new level wake and the rows the
    last tick reported park, so the hot subset changes every tick."""
    rng = np.random.default_rng(67)
    arm = [10.0 * lv + 0.02 * np.sin(t)
           for lv in range(WIDE_LEVELS) for t in range(36)]
    tail, recent = [], [WIDE_LEVELS - 2, WIDE_LEVELS - 1]
    for _ in range(150):
        lv = int(rng.choice([v for v in range(WIDE_LEVELS) if v not in recent]))
        recent = [recent[1], lv]
        tail.append(10.0 * lv + float(rng.normal(0.0, 0.03)))
    return arm, tail


def _wide_snapshots(backend):
    """Drive the wide bank pruned one tick per call, then unpruned in
    7-tick batches; after each call, snapshot ``(label, d, s,
    emissions)``."""
    arm, tail = _wide_stream()

    def snap(label, engine, emitted):
        return (
            label,
            engine._d.copy(),
            engine._s.copy(),
            [(qi, m.start, m.end, m.distance, m.output_time) for qi, m in emitted],
        )

    out = []
    engine = FusedSpring.from_springs(
        _wide_springs(), backend=backend, prune_buffer=64
    )
    out.append(snap("pruned arm", engine, engine.extend(arm)))
    for t, value in enumerate(tail):
        parked = engine.parked.copy()
        out.append(snap(f"pruned t={t}", engine, engine.extend([value])))
        assert not np.array_equal(engine.parked, parked), t
    assert engine.replays > 0
    engine = FusedSpring.from_springs(_wide_springs(), backend=backend)
    stream = arm + tail
    for t in range(0, len(stream), 7):
        out.append(snap(f"dense t={t}", engine, engine.extend(stream[t:t + 7])))
    return out


def _sweep_widths():
    """The embedded kernel source built at the baseline width (no
    target flag) and for this host's vector width."""
    compiler = cext._find_compiler()
    return [
        cext.CExtBackend(cext._build_library(compiler, *target)[0], 0.0)
        for target in ((), cext._host_target())
    ]


needs_cc = pytest.mark.skipif(
    cext._find_compiler() is None, reason="no C compiler found"
)
needs_cext = pytest.mark.skipif(
    "cext" not in BACKENDS, reason="cext unavailable: no C compiler found"
)


@needs_cc
@pytest.mark.parametrize(
    "drive", [_ragged_snapshots, _wide_snapshots], ids=["ragged", "wide"]
)
def test_sweep_widths_match_numpy_bytewise(drive):
    """Both widths step every drive to numpy's columns and emissions,
    so they match each other byte for byte after every call."""
    baseline, host = _sweep_widths()
    if platform.machine() in ("x86_64", "AMD64"):
        assert baseline.lanes == 2
    want = drive("numpy")
    for backend in (baseline, host):
        got = drive(backend)
        assert [g[0] for g in got] == [w[0] for w in want]
        for (label, d, s, emitted), (_, want_d, want_s, want_emitted) in zip(
            got, want
        ):
            where = (backend.lanes, label)
            assert emitted == want_emitted, where
            assert d.tobytes() == want_d.tobytes(), where
            assert s.tobytes() == want_s.tobytes(), where


@needs_cext
def test_host_build_has_four_lanes_exactly_with_avx2():
    _, cpu_flags = cext._host_target()
    backend = resolve_backend("cext")
    assert backend.lanes == (4 if "avx2" in cpu_flags.split() else 2)
    (info,) = [i for i in backend_infos() if i.name == "cext"]
    assert f", {backend.lanes} lanes (" in info.detail


def test_cpu_flag_list_names_the_cached_object():
    """An object built for one CPU is never loaded on another: the flag
    list is part of the cached object's name."""
    native = ("-march=native",)
    names = {
        cext._object_name((), ""),
        cext._object_name(native, "fpu sse2"),
        cext._object_name(native, "fpu sse2 avx2"),
    }
    assert len(names) == 3


@needs_cext
def test_cache_hit_starts_no_subprocess(monkeypatch):
    resolve_backend("cext")  # built or reused by the probe

    def no_subprocess(*args, **kwargs):
        raise AssertionError("a cache hit started a subprocess")

    monkeypatch.setattr(cext.subprocess, "run", no_subprocess)
    _, detail = cext._build_library(cext._find_compiler(), *cext._host_target())
    assert detail.startswith("reused cached build")


#: Source edits that break the sweep: a lane storing while only the lane
#: before it has the cell, and padding lanes bumping the last row's tick.
SWEEP_MUTATIONS = {
    "store-one-lane-past": (
        "            if (j < m[k]) {",
        "            if (j < m[k] || (k > 0 && j < m[k - 1])) {",
    ),
    "padding-lane-tick": (
        "    for (int k = 0; k < live; k++) {\n",
        "    for (int k = live; k < LANES; k++) ticks[ord[live - 1]]++;\n"
        "    for (int k = 0; k < live; k++) {\n",
    ),
}


@needs_cc
@pytest.mark.parametrize("mutation", sorted(SWEEP_MUTATIONS))
def test_self_test_rejects_a_mutated_sweep(mutation, monkeypatch, tmp_path):
    old, new = SWEEP_MUTATIONS[mutation]
    assert cext._SOURCE.count(old) == 1
    monkeypatch.setattr(cext, "_SOURCE", cext._SOURCE.replace(old, new))
    monkeypatch.setenv("REPRO_CEXT_CACHE", str(tmp_path))
    backend, detail = cext.probe()
    assert backend is None
    assert "compiled bank sweep diverges from numpy" in detail


# ----------------------------------------------------------------------
# warm-up and serialisation hygiene
# ----------------------------------------------------------------------


def test_warmup_is_idempotent(backend):
    first = backend.warmup()
    assert first >= 0.0
    assert backend.warmup() == backend.warmup_seconds


def test_backend_never_serialised(backend, rng):
    spring = Spring(np.cumsum(rng.normal(size=5)), epsilon=2.0)
    spring.set_backend(backend)
    for value in np.cumsum(rng.normal(size=12)):
        spring.step(float(value))
    assert "backend" not in json.dumps(spring.state_dict())

    monitor = StreamMonitor(backend=backend)
    monitor.add_stream("s0")
    monitor.add_query("q0", np.cumsum(rng.normal(size=5)), epsilon=2.0)
    monitor.add_query("q1", np.cumsum(rng.normal(size=7)), epsilon=2.0)
    for value in np.cumsum(rng.normal(size=12)):
        monitor.push("s0", float(value))
    assert "backend" not in json.dumps(save_monitor(monitor))
    assert "backend" not in dump_monitor_json(monitor)
