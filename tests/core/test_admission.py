"""Unit tests for the tiered admission subsystem (strategy mechanics).

Grouped-vs-flat *parity* lives in
``tests/properties/test_admission_parity.py``; this module pins the
strategy names, the size rule that picks a strategy, the counter
semantics of the grouped tier, index-rebuild laziness across park/wake,
and the validation surface — deterministically, the way ``test_prune``
does for the flat cascade's lifecycle.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro._serde import decode_floats
from repro.core import FusedSpring, QueryBank, StreamMonitor
from repro.core.admission import (
    AUTO_GROUP_MIN_QUERIES,
    DEFAULT_GROUP_SIZE,
    AdmissionCascade,
    GroupedAdmission,
    create_admission,
    resolve_admission,
)
from repro.exceptions import ValidationError
from tests.pinning import pin_admission

QUERIES = [[100.0, 101.0, 99.5], [100.5, 99.0, 100.0], [99.8, 100.2]]
EPSILON = 4.0
WARM = [100.0, 100.5, 99.8, 100.2]


def _engine(admission=None, group_size=None, queries=QUERIES):
    return FusedSpring(
        QueryBank(queries, epsilons=EPSILON),
        prune_buffer=16,
        admission=admission,
        admission_group_size=group_size,
    )


def _park_all(engine, cold_ticks=20):
    for value in WARM:
        engine.step(value)
    for _ in range(cold_ticks):
        engine.step(0.0)
    return engine


class TestRegistry:
    """The fixed strategy names, plus the ``auto`` selector."""

    def test_resolve_defaults_to_auto(self):
        assert resolve_admission(None) == "auto"
        assert resolve_admission("auto") == "auto"
        assert resolve_admission("FLAT") == "flat"

    def test_resolve_rejects_unknown(self):
        with pytest.raises(ValidationError, match="unknown admission"):
            resolve_admission("tiered-maybe")


class TestAutoSelection:
    def test_small_bank_goes_flat(self):
        assert _engine().admission_kind == "flat"
        assert _engine("auto").admission_kind == "flat"

    def test_large_bank_goes_grouped(self):
        queries = [
            [100.0 + 0.01 * i, 100.5 + 0.01 * i]
            for i in range(AUTO_GROUP_MIN_QUERIES)
        ]
        assert _engine(queries=queries).admission_kind == "grouped"

    def test_explicit_choice_honoured_at_any_size(self):
        assert _engine("grouped").admission_kind == "grouped"
        assert _engine("flat").admission_kind == "flat"

    def test_default_group_size(self):
        engine = _engine("grouped")
        assert engine.admission.group_size == DEFAULT_GROUP_SIZE
        assert _engine("grouped", 7).admission.group_size == 7

    def test_no_admission_without_pruning(self):
        engine = FusedSpring(QueryBank(QUERIES, epsilons=EPSILON))
        assert engine.admission is None
        assert engine.admission_kind is None
        assert engine.groups_certified == 0


def _monitor_cascade(n_queries):
    """The admission cascade a one-stream monitor's bank of
    ``n_queries`` spring queries gets at its first push."""
    monitor = StreamMonitor()
    monitor.add_stream("s")
    for i in range(n_queries):
        monitor.add_query(f"q{i}", [100.0 + 0.01 * i, 100.5], epsilon=EPSILON)
    monitor.push("s", 0.0)
    (bank,) = monitor._plans["s"].banks
    return bank.engine.admission


class TestMonitorSizeRule:
    """Above ``FusedSpring`` the bank's size is the only thing that
    picks the strategy."""

    @pytest.mark.parametrize(
        "n_queries, kind",
        [(AUTO_GROUP_MIN_QUERIES - 1, "flat"), (AUTO_GROUP_MIN_QUERIES, "grouped")],
    )
    def test_bank_size_picks_the_strategy(self, n_queries, kind):
        assert AUTO_GROUP_MIN_QUERIES == 128
        cascade = _monitor_cascade(n_queries)
        assert cascade.kind == kind
        assert cascade.group_size == DEFAULT_GROUP_SIZE

    def test_pin_moves_the_size_rule(self):
        with pin_admission("grouped", 2):
            cascade = _monitor_cascade(3)
        assert (cascade.kind, cascade.group_size) == ("grouped", 2)
        with pin_admission("flat"):
            cascade = _monitor_cascade(AUTO_GROUP_MIN_QUERIES)
        assert cascade.kind == "flat"
        assert _monitor_cascade(3).kind == "flat"  # the pin is undone


class TestValidation:
    def test_unknown_strategy_fails_at_construction(self):
        with pytest.raises(ValidationError):
            _engine("nope")

    def test_bad_group_size_rejected(self):
        with pytest.raises(ValidationError):
            _engine("grouped", 0)
        with pytest.raises(ValidationError):
            create_admission("grouped", _engine(), 16, group_size=-1)


class TestGroupedTier:
    def test_warm_phase_uses_flat_pass(self):
        """With nothing parked there is nothing to index: the grouped
        strategy must not pay (or count) any group tests."""
        engine = _engine("grouped", 2)
        for value in WARM:
            engine.step(value)
        assert engine.groups_certified == 0
        assert engine.group_descents == 0

    def test_cold_span_certifies_groups(self):
        engine = _park_all(_engine("grouped", 2))
        assert engine.parked.all()
        assert engine.groups_certified > 0
        assert engine.pruned_ticks > 0

    def test_wake_descends(self):
        engine = _park_all(_engine("grouped", 2))
        before = engine.group_descents
        engine.step(100.0)  # back inside every corridor: groups descend
        assert engine.group_descents > before
        assert not engine.parked.any()

    def test_counters_survive_checkpoint_roundtrip(self):
        engine = _park_all(_engine("grouped", 2))
        state = engine.prune_state_dict()
        fresh = _engine("grouped", 2)
        for value in WARM:
            fresh.step(value)
        fresh.restore_prune_state(state)
        assert fresh.groups_certified == engine.groups_certified
        assert fresh.group_descents == engine.group_descents
        np.testing.assert_array_equal(fresh.parked, engine.parked)

    def test_legacy_payload_restores_with_zero_group_counters(self):
        """Checkpoints written before the group counters existed carry
        three counters; they must restore cleanly with the new ones 0."""
        engine = _park_all(_engine("grouped", 2))
        state = engine.prune_state_dict()
        for key in ("groups_certified", "group_descents"):
            state["counters"].pop(key, None)
        fresh = _engine("grouped", 2)
        for value in WARM:
            fresh.step(value)
        fresh.restore_prune_state(state)
        assert fresh.groups_certified == 0
        np.testing.assert_array_equal(fresh.parked, engine.parked)

    def test_index_rebuild_is_lazy(self):
        """The index is rebuilt only when the parked set changed, not
        every tick of a stable cold span."""
        engine = _park_all(_engine("grouped", 2))
        admission = engine.admission
        assert isinstance(admission, GroupedAdmission)
        index = admission._parked_index()
        engine.step(0.0)
        engine.step(0.1)
        assert admission._parked_index() is index  # unchanged set: cached
        engine.step(100.0)  # wake everyone
        engine.step(0.0)  # nothing parked: no index needed yet
        _park_all(engine, cold_ticks=10)
        assert admission._parked_index() is not index

    def test_all_parked_short_circuit(self):
        """A fully-parked certified bank skips the kernel entirely and
        still counts every query-tick as pruned."""
        engine = _park_all(_engine("grouped", 2))
        base = engine.pruned_ticks
        hot = engine._admission.admit(0.0)
        assert hot == (None, 0)
        assert engine.pruned_ticks == base + engine.q


class TestStrategyIsRuntimeProperty:
    def test_payload_is_strategy_independent(self):
        flat = _park_all(_engine("flat"))
        grouped = _park_all(_engine("grouped", 2))
        state_f = flat.prune_state_dict()
        state_g = grouped.prune_state_dict()
        # identical structure: buffer, parked offsets, counter keys
        assert state_f.keys() == state_g.keys()
        assert state_f["parked"] == state_g["parked"]
        assert state_f["counters"].keys() == state_g["counters"].keys()

    def test_cross_strategy_restore(self):
        """A prune payload written under grouped admission re-adopts
        cleanly into a flat engine (restore_prune_state restores the
        cascade only; matcher columns restore separately, so the flat
        engine replays the same history first)."""
        grouped = _park_all(_engine("grouped", 2))
        flat = _park_all(_engine("flat"))
        flat.restore_prune_state(grouped.prune_state_dict())
        np.testing.assert_array_equal(flat.parked, grouped.parked)
        # both continue to the same decisions
        for value in [0.0, 0.5, 100.0, 0.2]:
            expected = grouped.step(value)
            got = flat.step(value)
            assert [
                (qi, m.start, m.end, m.distance) for qi, m in got
            ] == [
                (qi, m.start, m.end, m.distance) for qi, m in expected
            ]


class TestSnapshotRing:
    """A snapshot stores only the ring values a parked row can replay:
    ticks ``min(park_pos)+1..total``, none while nothing is parked."""

    @staticmethod
    def _ring(state):
        return decode_floats(state["buffer"]["values"])

    def test_no_values_while_nothing_parked(self):
        engine = _engine()
        for value in WARM:
            engine.step(value)
        assert not engine.parked.any()
        state = engine.prune_state_dict()
        assert state["buffer"]["count"] == len(WARM)
        assert self._ring(state).size == 0

    @pytest.mark.parametrize("admission", ["flat", "grouped"])
    def test_mid_park_values_start_after_the_oldest_park(self, admission):
        engine = _park_all(_engine(admission, 2), cold_ticks=6)
        cascade = engine.admission
        total = cascade.buffer.total_pushed
        oldest = int(cascade.park_pos[cascade.parked].min())
        values = self._ring(engine.prune_state_dict())
        assert 0 < values.size == total - oldest < total
        np.testing.assert_array_equal(values, cascade.buffer.latest(values.size))

    def test_trimmed_snapshot_resumes_by_replay(self):
        """Waking every parked row replays from the restored ring alone
        and lands on the uninterrupted engine's columns and payload."""
        engine = _park_all(_engine(), cold_ticks=6)
        twin = _park_all(_engine(), cold_ticks=6)
        twin.restore_prune_state(engine.prune_state_dict())
        for value in [0.0, 100.0, 100.5, 0.0, 0.0]:
            assert [(qi, m) for qi, m in twin.step(value)] == [
                (qi, m) for qi, m in engine.step(value)
            ]
        assert twin.replays == engine.replays > 0
        np.testing.assert_array_equal(twin._d, engine._d)
        assert twin.prune_state_dict() == engine.prune_state_dict()


class TestAdmissionBase:
    def test_admit_contract_returns_mask_and_count(self):
        engine = _engine("flat")
        hot, n_hot = engine._admission.admit(0.0)
        assert isinstance(hot, np.ndarray)
        assert n_hot == engine.q

    def test_factory_signature(self):
        engine = _engine()
        cascade = create_admission("grouped", engine, 8, 4)
        assert isinstance(cascade, AdmissionCascade)
        assert cascade.group_size == 4
        assert cascade.buffer.capacity == 8
