"""Tiered admission: the two strategies of the lower-bound cascade.

Layer between the fused engine and the corridor bound.  An *admission
strategy* owns everything the pruning cascade needs per engine — the
replay ring buffer, the parked set, park positions, and the cascade
counters — and decides, one stream value at a time, which queries stay
parked, which wake, and which newly park.  The engine
(:class:`~repro.core.fused.FusedSpring`) hard-wires no admission
policy: per tick it asks :meth:`AdmissionCascade.admit` for the hot
rows and steps those.  On a bank kernel that
:attr:`~repro.core.backends.base.BankKernel.runs_admission` (cext), the
kernel makes the same decisions inside its compiled extend loop instead
— for a block of values, or a single tick as a block of one — reading
and advancing this module's state in place (the ``native_*`` interface
below); the Python cascade here is the numpy reference.

Two strategies exist:

* ``"flat"`` — the PR-5 cascade: every query pays its own O(1) corridor
  check each tick, O(Q) admission per tick.
* ``"grouped"`` — tiered admission over a
  :class:`~repro.dtw.envelope_index.GroupEnvelopeIndex`: parked queries
  are packed into merged-envelope groups (rebuilt lazily whenever the
  parked set changes) and one group-corridor test per group certifies
  whole groups cold; only groups the merged bound cannot certify
  descend to exact per-member checks.  With everything parked and every
  group certified, a tick costs O(Q / group_size) instead of O(Q).

The bank's size picks between them: ``"auto"`` (the default, and the
only choice above :class:`~repro.core.fused.FusedSpring`) resolves to
``"grouped"`` for banks of at least :data:`AUTO_GROUP_MIN_QUERIES`
queries, in groups of :data:`DEFAULT_GROUP_SIZE`, and to ``"flat"``
otherwise — below that scale the flat cascade's single vectorised pass
is already cheaper than managing an index.  ``FusedSpring`` still takes
an explicit strategy and group size, for benchmarks and parity suites.

**Exactness.**  Both strategies produce the *same decisions*: the group
bound is a bit-level lower bound on every member bound (see
``dtw/envelope_index.py``), so group certification can never wake or
park differently from the flat cascade, and uncertified groups fall
back to exactly the flat per-query comparison.  Match streams, parked
sets, and checkpoint payloads are byte-identical across strategies —
property-swept in ``tests/properties/test_admission_parity.py`` — which
is also why the strategy is a *runtime property* like the backend: it
is never serialised, and a checkpoint written under one strategy
restores under any other.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.dtw.envelope_index import GroupEnvelopeIndex
from repro.dtw.lower_bounds import lb_corridor
from repro.exceptions import ValidationError
from repro.obs import tracing
from repro.streams.buffer import RingBuffer

__all__ = [
    "AdmissionCascade",
    "FlatAdmission",
    "GroupedAdmission",
    "resolve_admission",
    "create_admission",
    "AUTO_GROUP_MIN_QUERIES",
    "DEFAULT_GROUP_SIZE",
]

#: Bank size at which ``"auto"`` switches from flat to grouped
#: admission.  Below this, one vectorised O(Q) pass beats index upkeep.
AUTO_GROUP_MIN_QUERIES = 128

#: Default queries per merged-envelope group.
DEFAULT_GROUP_SIZE = 64

#: Elements per replay cost slab before catch-up chops the span into
#: blocks (~16 MB of float64).
_REPLAY_BLOCK_BUDGET = 2_000_000


class AdmissionCascade:
    """Base class: park/wake/replay machinery shared by every strategy.

    Holds the per-engine cascade state and implements everything except
    the per-tick admission decision itself (:meth:`admit`).  The engine
    hands over its master arrays by reference; the cascade mutates them
    only through the documented wake/replay paths.
    """

    #: Strategy name, ``"flat"`` or ``"grouped"`` (set by subclasses).
    kind = "?"

    def __init__(self, engine, capacity: int, group_size: int) -> None:
        self.engine = engine
        self.buffer = RingBuffer(int(capacity))
        self.group_size = int(group_size)
        q = engine.q
        self.parked = np.zeros(q, dtype=bool)
        self.park_pos = np.zeros(q, dtype=np.int64)
        self.n_parked = 0
        # Corridors are cached on the bank at build time (one reduction
        # per query, ever); the cascade just aliases them.
        self._lo = engine.bank.corridor_lo
        self._hi = engine.bank.corridor_hi
        self._eps = engine.bank.epsilons
        self._distance_kind = engine._prune_kind
        self._backend = engine._backend
        #: Query-ticks whose column update was skipped or deferred.
        self.pruned_ticks = 0
        #: Catch-up replays performed (one per waking park-position group).
        self.replays = 0
        #: Query-ticks re-applied during catch-up replays.
        self.replayed_ticks = 0
        #: Groups certified cold by one merged-envelope test.
        self.groups_certified = 0
        #: Groups the merged bound could not certify (exact descent).
        self.group_descents = 0

    # ------------------------------------------------------------------
    # Per-tick decision
    # ------------------------------------------------------------------

    def admit(self, x: float) -> Tuple[Optional[np.ndarray], int]:
        """Decide admission for one finite stream value.

        Pushes ``x`` to the replay buffer, wakes parked queries whose
        bound dipped under their ε, parks hot queries the bound
        certifies cold (only with no pending optimum and best-so-far
        ``<= ε``), and returns ``(hot_mask, n_hot)`` — ``(None, 0)``
        when every query is parked and the tick is fully pruned.
        """
        return tracing.call("admission.admit", self._admit, x)

    def _admit(self, x: float) -> Tuple[Optional[np.ndarray], int]:
        raise NotImplementedError

    def tick_missing(self) -> None:
        """Advance one missing (NaN) tick: never wakes, never parks.

        A missing reading carries no evidence against any cold
        certificate, and replay skips it exactly as the live path
        would have.
        """
        self.buffer.push(np.nan)
        engine = self.engine
        if self.n_parked < engine.q:
            engine._ticks[~self.parked] += 1
        self.pruned_ticks += self.n_parked

    def _flat_pass(self, x: float, total: int) -> Tuple[Optional[np.ndarray], int]:
        """One vectorised O(Q) cascade pass (the flat strategy's whole
        decision; the grouped strategy's fallback while nothing is
        parked)."""
        engine = self.engine
        eps = self._eps
        lb = lb_corridor(x, self._lo, self._hi, self._distance_kind)
        cold = lb > eps
        if self.n_parked:
            wake = self.parked & ~cold
            if wake.any():
                self.wake_rows(np.flatnonzero(wake), total)
        hot = ~self.parked
        newly = hot & cold & ~np.isfinite(engine._dmin) & (engine._best_d <= eps)
        if newly.any():
            self.parked |= newly
            self.park_pos[newly] = total - 1
            hot &= ~newly
            self.n_parked += int(newly.sum())
            self._parked_set_changed()
        n_hot = engine.q - self.n_parked
        self.pruned_ticks += self.n_parked
        if n_hot == 0:
            return None, 0
        return hot, n_hot

    def _parked_set_changed(self) -> None:
        """Hook: the parked set just changed (park or wake)."""

    # ------------------------------------------------------------------
    # Wake / replay / catch-up
    # ------------------------------------------------------------------

    def wake_rows(self, rows: np.ndarray, total: int) -> None:
        """Bring parked ``rows`` back to hot before processing position
        ``total``.

        Spans the ring buffer still holds are replayed bit-for-bit;
        spans that outgrew it wake through the reset representation
        (``d[1:] = inf`` with ticks advanced), which the certification
        conditions make indistinguishable for every future emission
        (docs/algorithm.md §11).
        """
        engine = self.engine
        pos = self.park_pos[rows]
        for pp in np.unique(pos):
            grp = rows[pos == pp]
            span = int(total - 1 - pp)
            if span > 0:
                if total - pp <= self.buffer.capacity:
                    self._replay(grp, int(pp) + 1, total - 1)
                else:
                    engine._d[grp, 1:] = np.inf
                    engine._ticks[grp] += span
        self.parked[rows] = False
        self.n_parked -= int(rows.size)
        self._parked_set_changed()

    def _replay(self, rows: np.ndarray, start: int, end: int) -> None:
        """Re-apply buffered values ``start..end`` to the parked ``rows``.

        A certified-cold span cannot capture, emit, or improve a best
        match (that is exactly what the park conditions guarantee), so
        replay is a pure column reconstruction: the full report logic
        is skipped and the guarantees are enforced as tripwires instead.
        """
        engine = self.engine
        bank = engine.bank
        vals = self.buffer.window(start, end)
        h = int(rows.size)
        self.replays += 1
        self.replayed_ticks += int(vals.size) * h
        # Columns past the longest replayed query are padding in every
        # replayed row: leave them out of the slab and the update.
        width = int(bank.lengths[rows].max())
        d_sub = engine._d[rows, : width + 1]
        s_sub = engine._s[rows, : width + 1]
        ticks_sub = engine._ticks[rows]
        end_sub = engine._end[rows]
        eps_sub = bank.epsilons[rows]
        best_sub = engine._best_d[rows]
        sub_rows = np.arange(h, dtype=np.int64)
        padded_sub = bank.padded[rows, :width]
        finite = ~np.isnan(vals)
        budget = max(16, _REPLAY_BLOCK_BUDGET // max(1, h * width))
        for lo in range(0, int(vals.size), budget):
            hi = min(lo + budget, int(vals.size))
            chunk = vals[lo:hi]
            cost_block = np.asarray(
                bank.distance(chunk[:, None, None, None], padded_sub[None]),
                dtype=np.float64,
            )
            for t in range(hi - lo):
                ticks_sub += 1
                if not finite[lo + t]:
                    continue
                d_sub, s_sub = self._backend.update_columns(
                    d_sub, s_sub, cost_block[t], ticks_sub
                )
                d_m = d_sub[sub_rows, end_sub]
                if (d_m <= eps_sub).any() or (d_m < best_sub).any():
                    raise RuntimeError(
                        "pruning certification violated: a parked span "
                        "produced a capture or best-match update at replay"
                    )
        engine._reset_padding(d_sub, s_sub, rows)
        engine._d[rows, : width + 1] = d_sub
        engine._s[rows, : width + 1] = s_sub
        engine._ticks[rows] = ticks_sub

    def catch_up_all(self) -> None:
        """Apply every deferred tick so applied state equals stream state."""
        if not self.n_parked:
            return
        engine = self.engine
        total = int(self.buffer.total_pushed)
        rows = np.flatnonzero(self.parked)
        pos = self.park_pos[rows]
        for pp in np.unique(pos):
            grp = rows[pos == pp]
            span = int(total - pp)
            if span > 0:
                if span <= self.buffer.capacity:
                    self._replay(grp, int(pp) + 1, total)
                else:
                    engine._d[grp, 1:] = np.inf
                    engine._ticks[grp] += span
        self.parked[rows] = False
        self.n_parked = 0
        self._parked_set_changed()

    # ------------------------------------------------------------------
    # Compiled extend loop (BankKernel.extend_pruned)
    # ------------------------------------------------------------------

    def native_index(self) -> Optional[GroupEnvelopeIndex]:
        """The group index the compiled tier-1 test reads: ``None`` for
        flat admission and while nothing is parked."""
        return None

    def native_state(self) -> Tuple[int, ...]:
        """Scalar state a compiled loop advances: values pushed to the
        ring, parked count, then the five counters in
        :meth:`state_dict` order.  Ring slots, :attr:`parked` and
        :attr:`park_pos` are shared with the loop in place."""
        return (
            self.buffer.total_pushed,
            self.n_parked,
            self.pruned_ticks,
            self.replays,
            self.replayed_ticks,
            self.groups_certified,
            self.group_descents,
        )

    def native_commit(self, state, changed: bool) -> None:
        """Adopt the :meth:`native_state` a compiled loop returned;
        ``changed`` reports a parked-set change (the group index is
        rebuilt before the next tick that needs it)."""
        (
            count,
            self.n_parked,
            self.pruned_ticks,
            self.replays,
            self.replayed_ticks,
            self.groups_certified,
            self.group_descents,
        ) = state
        self.buffer.advance_to(count)
        if changed:
            self._parked_set_changed()

    # ------------------------------------------------------------------
    # Snapshot / restore (strategy-independent payload)
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-safe cascade snapshot: buffer, parked lag, counters.

        Strategy-independent by design — flat and grouped admission
        make identical decisions, so the payload carries no trace of
        which strategy wrote it, and any strategy restores it.  The
        grouped index is a pure function of the parked set and is
        rebuilt, not serialised.

        The ring keeps only the values a parked row can still replay,
        ticks ``min(park_pos)+1..total`` (none while nothing is parked):
        replay reads no older tick, and whether a span replays or wakes
        deep depends on the ring's capacity, not on what it holds.
        """
        total = int(self.buffer.total_pushed)
        rows = np.flatnonzero(self.parked)
        parked = {str(int(qi)): int(total - self.park_pos[qi]) for qi in rows}
        keep = int(total - self.park_pos[rows].min()) if rows.size else 0
        return {
            "buffer": self.buffer.state_dict(keep),
            "parked": parked,
            "counters": {
                "pruned_ticks": int(self.pruned_ticks),
                "replays": int(self.replays),
                "replayed_ticks": int(self.replayed_ticks),
                "groups_certified": int(self.groups_certified),
                "group_descents": int(self.group_descents),
            },
        }

    def restore_state(self, state: dict) -> None:
        """Re-park queries from a :meth:`state_dict` snapshot.

        The engine must already hold the applied per-query state.  The
        buffer is rebuilt at the snapshot's capacity, so restoring
        under a different configured capacity is lossless.  Snapshots
        from before the group counters existed restore with those
        counters at zero.
        """
        self.buffer = RingBuffer.from_state(state["buffer"])
        total = int(self.buffer.total_pushed)
        self.parked[:] = False
        for key, behind in state.get("parked", {}).items():
            qi = int(key)
            self.parked[qi] = True
            self.park_pos[qi] = total - int(behind)
        self.n_parked = int(self.parked.sum())
        counters = state.get("counters", {})
        self.pruned_ticks = int(counters.get("pruned_ticks", 0))
        self.replays = int(counters.get("replays", 0))
        self.replayed_ticks = int(counters.get("replayed_ticks", 0))
        self.groups_certified = int(counters.get("groups_certified", 0))
        self.group_descents = int(counters.get("group_descents", 0))
        self._parked_set_changed()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} kind={self.kind!r} "
            f"parked={self.n_parked}/{self.engine.q}>"
        )


class FlatAdmission(AdmissionCascade):
    """The PR-5 cascade: one O(1) corridor check per query per tick."""

    kind = "flat"

    def _admit(self, x: float) -> Tuple[Optional[np.ndarray], int]:
        self.buffer.push(x)
        return self._flat_pass(x, self.buffer.total_pushed)


class GroupedAdmission(AdmissionCascade):
    """Tiered admission over merged-envelope groups of parked queries.

    While anything is parked, one group-corridor test per
    :class:`~repro.dtw.envelope_index.GroupEnvelopeIndex` group decides
    whole groups at once; only uncertified groups descend to exact
    per-member bounds, and only hot rows pay the parking check.  The
    index covers exactly the parked set and is rebuilt lazily on the
    first tick after any park/wake — a stale index could miss a wake,
    so laziness never crosses a tick boundary.
    """

    kind = "grouped"

    def __init__(self, engine, capacity: int, group_size: int) -> None:
        super().__init__(engine, capacity, group_size)
        self._index: Optional[GroupEnvelopeIndex] = None
        self._index_dirty = True

    def native_index(self) -> Optional[GroupEnvelopeIndex]:
        # The compiled loop hands back after every tick that changes the
        # parked set, so the index is rebuilt exactly where the per-tick
        # path's lazy rebuild happens.
        return self._parked_index() if self.n_parked else None

    def _parked_set_changed(self) -> None:
        self._index_dirty = True

    def _parked_index(self) -> GroupEnvelopeIndex:
        if self._index_dirty or self._index is None:
            self._index = GroupEnvelopeIndex(
                np.flatnonzero(self.parked),
                self._lo,
                self._hi,
                self._eps,
                self.group_size,
            )
            self._index_dirty = False
        return self._index

    def _admit(self, x: float) -> Tuple[Optional[np.ndarray], int]:
        self.buffer.push(x)
        total = self.buffer.total_pushed
        if not self.n_parked:
            # Nothing to index: one vectorised pass, identical to flat.
            return self._flat_pass(x, total)
        engine = self.engine
        eps = self._eps
        kind = self._distance_kind

        # Tier 1: one merged-envelope test per group of parked queries.
        index = self._parked_index()
        certified = lb_corridor(x, index.lo, index.hi, kind) > index.eps
        if certified.all():
            # The steady cold state: every group certified in one shot.
            # This branch is the sublinear fast path, so it skips the
            # reductions the mixed case needs.
            self.groups_certified += index.n_groups
            if self.n_parked == engine.q:
                self.pruned_ticks += engine.q
                return None, 0
        else:
            n_certified = int(certified.sum())
            self.groups_certified += n_certified
            # Tier 2: exact per-member bounds for uncertified groups.
            self.group_descents += index.n_groups - n_certified
            members = index.descend_rows(certified)
            lb = lb_corridor(x, self._lo[members], self._hi[members], kind)
            wake = members[~(lb > eps[members])]
            if wake.size:
                self.wake_rows(np.sort(wake), total)
            if self.n_parked == engine.q:
                self.pruned_ticks += engine.q
                return None, 0

        # Hot side: only non-parked rows pay the parking check.
        hot = ~self.parked
        hot_rows = np.flatnonzero(hot)
        lb_hot = lb_corridor(x, self._lo[hot_rows], self._hi[hot_rows], kind)
        newly = (
            (lb_hot > eps[hot_rows])
            & ~np.isfinite(engine._dmin[hot_rows])
            & (engine._best_d[hot_rows] <= eps[hot_rows])
        )
        if newly.any():
            park_rows = hot_rows[newly]
            self.parked[park_rows] = True
            self.park_pos[park_rows] = total - 1
            hot[park_rows] = False
            self.n_parked += int(park_rows.size)
            self._parked_set_changed()
        n_hot = engine.q - self.n_parked
        self.pruned_ticks += self.n_parked
        if n_hot == 0:
            return None, 0
        return hot, n_hot


_STRATEGIES = {"flat": FlatAdmission, "grouped": GroupedAdmission}


def resolve_admission(spec: Optional[str]) -> str:
    """Canonicalise an admission spec: ``None`` means ``"auto"``."""
    if spec is None:
        return "auto"
    name = str(spec).lower()
    if name != "auto" and name not in _STRATEGIES:
        choices = ", ".join(("auto",) + tuple(_STRATEGIES))
        raise ValidationError(
            f"unknown admission strategy {spec!r}: choose one of {choices}"
        )
    return name


def create_admission(
    spec: Optional[str],
    engine,
    capacity: int,
    group_size: Optional[int] = None,
) -> AdmissionCascade:
    """Mint the admission cascade for one engine.

    ``"auto"`` picks grouped admission for banks of at least
    :data:`AUTO_GROUP_MIN_QUERIES` queries and flat otherwise; explicit
    names are honoured at any size.
    """
    name = resolve_admission(spec)
    if group_size is None:
        group_size = DEFAULT_GROUP_SIZE
    group_size = int(group_size)
    if group_size < 1:
        raise ValidationError(
            f"admission group size must be a positive integer, got {group_size!r}"
        )
    if name == "auto":
        name = "grouped" if engine.q >= AUTO_GROUP_MIN_QUERIES else "flat"
    return _STRATEGIES[name](engine, capacity, group_size)
