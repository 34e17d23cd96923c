"""Fused multi-query SPRING: one column update for a whole bank of queries.

SPRING's per-tick cost is O(m) arithmetic (Lemma 4), but a Python
implementation that runs one :class:`~repro.core.spring.Spring` per query
pays interpreter and numpy-dispatch overhead *per query per tick* — a
monitor with hundreds of queries on one stream is dominated by dispatch,
not arithmetic.  This module amortises that overhead across queries:

* :class:`QueryBank` stacks Q scalar queries (ragged lengths allowed)
  into one padded ``(Q, m_max, 1)`` array with a shared local distance.
* :class:`FusedSpring` keeps ``(Q, m_max+1)`` distance/start matrices and
  advances *all* queries with a single call to
  :func:`~repro.core.state.update_columns` per tick; the disjoint-query
  bookkeeping of Figure 4 (``d_min``, ``t_s``, ``t_e``, the Equation 9
  confirmation) is likewise vectorised across the Q axis.

Padding is inert by construction: the recurrence at cell ``i`` only
reads cells ``<= i``, so a shorter query's valid region never sees the
padded tail, and padded cells hold a fixed ``+inf`` distance and ``0``
start on every backend (cext sweeps only each query's own cells; the
reference kernel resets the padding after each column update), so
Equation 9 finds them blocked without a mask.  Every decision therefore
compares exactly the numbers the per-query engine would compare, and
the emitted matches are identical (property-tested in
``tests/core/test_fused.py`` and
``tests/properties/test_fused_equivalence.py``).

**Exact lower-bound pruning.**  With ``prune_buffer`` set, the engine
additionally maintains a per-query corridor bound
(:func:`~repro.dtw.lower_bounds.lb_corridor`): when one stream value
certifies that *every* cell of a query's next column exceeds its ε —
and the query holds no pending optimum and its best-so-far distance is
already ``<= ε`` — the query is *parked* and its O(m) column update
skipped entirely.  Parked queries wake when the bound dips back: spans
still held by the ring buffer are replayed tick-for-tick (restoring the
bit-identical column), while longer spans wake through the kernel's own
reset representation (``d[1:] = inf``), which is provably equivalent for
every future emission (the exactness argument lives in
``docs/algorithm.md`` §11, and the certification is re-checked at
replay time as a hard tripwire).  Pruning on or off, the match stream
is byte-identical — enforced by ``tests/properties/test_prune_parity.py``
and the differential-oracle harness.

:class:`~repro.core.monitor.StreamMonitor` routes eligible matchers
through this engine automatically; use it directly when you control the
query set yourself:

>>> from repro.core.fused import FusedSpring, QueryBank
>>> bank = QueryBank([[11, 6, 9, 4], [5, 5]], epsilons=[15, 1])
>>> engine = FusedSpring(bank)
>>> for x in [5, 12, 6, 10, 6, 5, 13]:
...     for q, match in engine.step(x):
...         print(bank.names[q], match.start, match.end, match.distance)
q1 1 1 0.0
q0 2 5 6.0
q1 6 6 0.0
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro._validation import as_scalar_sequence, check_threshold
from repro.core.admission import (
    AdmissionCascade,
    create_admission,
    resolve_admission,
)
from repro.core.backends import BackendSpec, resolve_backend
from repro.core.matches import Match
from repro.core.missing import (
    bad_value_error,
    classify_rows,
    first_fatal,
    resolve_missing_policy,
)
from repro.dtw.steps import (
    LocalDistance,
    canonical_distance_name,
    resolve_vector_distance,
)
from repro.exceptions import NotFittedError, ValidationError

__all__ = ["QueryBank", "FusedSpring"]

#: Local distances that admit the corridor lower bound; pruning is
#: silently inert for banks running any other (custom) distance.
_PRUNABLE_DISTANCES = ("squared", "absolute")


class QueryBank:
    """An immutable stack of scalar queries sharing one local distance.

    Parameters
    ----------
    queries:
        Sequence of 1-D array-likes (ragged lengths allowed; shorter
        queries are padded internally, which never affects results).
    epsilons:
        One disjoint-query threshold per query, or a single scalar
        applied to all.
    names:
        Optional labels, defaulting to ``q0, q1, ...``; reported back by
        :class:`FusedSpring` alongside match indices.
    local_distance:
        Shared local distance (name or callable), resolved exactly as
        :class:`~repro.core.spring.Spring` resolves it.
    corridors:
        Optional pre-computed per-query ``(lo, hi)`` corridor pairs
        (the degenerate full-radius Keogh envelope, as cached by
        :class:`~repro.core.spring.Spring`).  When omitted they are
        computed here, once per bank — either way the admission cascade
        reads them off the bank instead of re-reducing every query on
        each engine (re)build.
    """

    def __init__(
        self,
        queries: Sequence[object],
        epsilons: Union[float, Sequence[float]] = np.inf,
        names: Optional[Sequence[str]] = None,
        local_distance: Union[str, LocalDistance, None] = None,
        corridors: Optional[Sequence[Tuple[float, float]]] = None,
    ) -> None:
        arrays = [as_scalar_sequence(q, f"queries[{i}]") for i, q in enumerate(queries)]
        if not arrays:
            raise ValidationError("QueryBank needs at least one query")
        if np.ndim(epsilons) == 0:
            eps = [check_threshold(epsilons)] * len(arrays)
        else:
            eps = [check_threshold(e) for e in epsilons]
            if len(eps) != len(arrays):
                raise ValidationError(
                    f"got {len(arrays)} queries but {len(eps)} epsilons"
                )
        if names is None:
            names = [f"q{i}" for i in range(len(arrays))]
        elif len(names) != len(arrays):
            raise ValidationError(
                f"got {len(arrays)} queries but {len(names)} names"
            )

        self.names: Tuple[str, ...] = tuple(str(n) for n in names)
        self.lengths = np.array([a.shape[0] for a in arrays], dtype=np.int64)
        self.epsilons = np.array(eps, dtype=np.float64)
        self.distance = resolve_vector_distance(local_distance)

        q_count = len(arrays)
        m_max = int(self.lengths.max())
        # (Q, m_max, 1): the trailing axis matches Spring's (m, 1) query
        # layout so the shared vector local distances see identical shapes.
        padded = np.zeros((q_count, m_max, 1), dtype=np.float64)
        lo = np.empty(q_count, dtype=np.float64)
        hi = np.empty(q_count, dtype=np.float64)
        if corridors is not None and len(corridors) != q_count:
            raise ValidationError(
                f"got {q_count} queries but {len(corridors)} corridors"
            )
        for i, a in enumerate(arrays):
            padded[i, : a.shape[0], 0] = a
            if corridors is None:
                lo[i] = a.min()
                hi[i] = a.max()
            else:
                lo[i], hi[i] = corridors[i]
        self.padded = padded
        #: Per-query streaming corridor ``[min(Y), max(Y)]`` — the
        #: degenerate Keogh envelope the admission cascade bounds with.
        self.corridor_lo = lo
        self.corridor_hi = hi

    @property
    def q(self) -> int:
        """Number of queries in the bank."""
        return self.padded.shape[0]

    @property
    def m_max(self) -> int:
        """Padded (maximum) query length."""
        return self.padded.shape[1]

    @property
    def ragged(self) -> bool:
        """Whether the bank mixes query lengths."""
        return bool((self.lengths != self.m_max).any())

    def query(self, index: int) -> np.ndarray:
        """The unpadded query at ``index`` (copy, 1-D)."""
        return self.padded[index, : self.lengths[index], 0].copy()

    def __len__(self) -> int:
        return self.q

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(q={self.q}, m_max={self.m_max}, "
            f"ragged={self.ragged})"
        )


class FusedSpring:
    """Run SPRING for every query of a :class:`QueryBank` in lockstep.

    Semantically equivalent to one :class:`~repro.core.spring.Spring`
    per query fed the same stream; the difference is purely mechanical —
    a constant number of numpy calls per tick regardless of Q.

    Parameters
    ----------
    bank:
        The query stack to monitor.
    missing:
        NaN policy shared by the bank: ``"skip"`` advances time without
        updating state, ``"error"`` raises (same as ``Spring``;
        ``"raise"`` is accepted as an alias for ``"error"``).
    prune_buffer:
        ``None`` (default) disables lower-bound pruning; a positive
        integer enables it with a ring buffer of that capacity for
        exact catch-up replay of parked spans.  Pruning is inert for
        local distances without a corridor bound (anything but
        ``"squared"``/``"absolute"``).  Results are byte-identical
        either way — the buffer size only trades memory against how
        long a span can be replayed bit-for-bit instead of waking
        through the equivalent reset representation.
    backend:
        Kernel backend spec (``"auto"``/``"numpy"``/``"cext"``, a
        resolved backend, or ``None`` for the process default — see
        :mod:`repro.core.backends`).  The backend mints the engine's
        bank kernel.  A runtime property only: results are
        bit-identical across backends and the choice is never
        serialised.
    admission:
        Admission strategy for the pruning cascade —
        ``"flat"``/``"grouped"``/``"auto"`` (or ``None`` for auto; see
        :mod:`repro.core.admission`).  Like the backend, a runtime
        property: decisions and emissions are byte-identical across
        strategies and the choice is never serialised.  Ignored when
        pruning is off or inert.
    admission_group_size:
        Queries per merged-envelope group for grouped admission
        (default :data:`repro.core.admission.DEFAULT_GROUP_SIZE`).

    Notes
    -----
    :meth:`step` returns ``(query_index, Match)`` pairs ordered by query
    index, matching the report order of a monitor that steps per-query
    matchers in registration order.
    """

    def __init__(
        self,
        bank: QueryBank,
        missing: str = "skip",
        prune_buffer: Optional[int] = None,
        backend: BackendSpec = None,
        admission: Optional[str] = None,
        admission_group_size: Optional[int] = None,
    ) -> None:
        if not isinstance(bank, QueryBank):
            bank = QueryBank(bank)
        self.bank = bank
        self.missing = resolve_missing_policy(missing)
        self._backend = resolve_backend(backend)

        q, m_max = bank.q, bank.m_max
        self._d = np.full((q, m_max + 1), np.inf, dtype=np.float64)
        self._d[:, 0] = 0.0
        self._s = np.zeros((q, m_max + 1), dtype=np.int64)
        self._s[:, 0] = 1
        self._ticks = np.zeros(q, dtype=np.int64)

        # Figure 4 bookkeeping, one slot per query.
        self._dmin = np.full(q, np.inf, dtype=np.float64)
        self._ts = np.zeros(q, dtype=np.int64)
        self._te = np.zeros(q, dtype=np.int64)
        self._best_d = np.full(q, np.inf, dtype=np.float64)
        self._best_s = np.zeros(q, dtype=np.int64)
        self._best_e = np.zeros(q, dtype=np.int64)

        self._rows = np.arange(q, dtype=np.int64)
        self._end = bank.lengths  # d_m lives at column m_q per query
        if bank.ragged:
            # Padded cells (column > m_q) hold the +inf / 0 written above
            # on every backend: cext never sweeps them, and the reference
            # kernel puts them back after each column update
            # (_reset_padding).  A +inf distance blocks Equation 9 by
            # itself.
            cols = np.arange(1, m_max + 1, dtype=np.int64)
            self._pad_mask: Optional[np.ndarray] = cols[None, :] > self._end[:, None]
        else:
            self._pad_mask = None

        # Lower-bound pruning state.  `_ticks[qi]` is always the APPLIED
        # tick: a parked query's counter freezes at its last applied
        # value and catches up at wake time, so the master arrays plus
        # `_ticks` describe a valid mid-stream state for every row at
        # every moment (which is what makes write_back/checkpointing of
        # parked rows trivially correct).  The machinery itself — the
        # replay buffer, the parked set, and the per-tick decision —
        # lives in the admission cascade (repro.core.admission): step()
        # dispatches the hot rows it hands back, and extend() on a kernel
        # that runs admission natively makes the same decisions in-kernel.
        self._prune_kind = canonical_distance_name(bank.distance)
        if prune_buffer is not None and int(prune_buffer) < 1:
            raise ValidationError(
                f"prune_buffer must be a positive capacity, got {prune_buffer!r}"
            )
        resolve_admission(admission)  # fail fast on unknown strategies
        self._prune = (
            prune_buffer is not None and self._prune_kind in _PRUNABLE_DISTANCES
        )
        if self._prune:
            self._admission: Optional[AdmissionCascade] = create_admission(
                admission, self, int(prune_buffer), admission_group_size
            )
        else:
            self._admission = None

        # The bank kernel every step goes through: the backend's
        # compiled one, or the vectorised reference.  Minted last: a
        # compiled kernel caches the addresses of the master arrays
        # above, which it then only ever mutates in place.
        self._kernel = self._backend.bank_kernel(self)
        # Whether pruned ticks and blocks run as one compiled call, the
        # cascade included (a built-in strategy on a kernel that
        # implements it); otherwise step() and extend() run the Python
        # cascade per tick.  `_one_x`/`_one_skip` stage step()'s value.
        self._native_prune = (
            self._prune
            and self._kernel.runs_admission
            and self._admission.native is not None
        )
        self._one_x = np.zeros(1, dtype=np.float64)
        self._one_skip = np.zeros(1, dtype=np.uint8)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def q(self) -> int:
        """Number of fused queries."""
        return self.bank.q

    @property
    def backend(self):
        """The resolved kernel backend (runtime property, never serialised)."""
        return self._backend

    @property
    def backend_name(self) -> str:
        """Registry name of the backend in use."""
        return self._backend.name

    @property
    def compiled_step(self) -> bool:
        """Whether the fused per-tick path runs as one native call."""
        return self._kernel.compiled

    @property
    def admission(self) -> Optional[AdmissionCascade]:
        """The admission cascade, or ``None`` when pruning is off/inert."""
        return self._admission

    @property
    def admission_kind(self) -> Optional[str]:
        """Resolved admission strategy name (``None`` when inert)."""
        return self._admission.kind if self._admission is not None else None

    @property
    def pruned_ticks(self) -> int:
        """Query-ticks whose column update was skipped or deferred."""
        return self._admission.pruned_ticks if self._admission is not None else 0

    @property
    def replays(self) -> int:
        """Catch-up replays performed (one per waking park-position group)."""
        return self._admission.replays if self._admission is not None else 0

    @property
    def replayed_ticks(self) -> int:
        """Query-ticks re-applied during catch-up replays."""
        return (
            self._admission.replayed_ticks if self._admission is not None else 0
        )

    @property
    def groups_certified(self) -> int:
        """Envelope groups certified cold by one merged-corridor test."""
        return (
            self._admission.groups_certified if self._admission is not None else 0
        )

    @property
    def group_descents(self) -> int:
        """Envelope groups that fell back to exact per-member bounds."""
        return (
            self._admission.group_descents if self._admission is not None else 0
        )

    @property
    def ticks(self) -> np.ndarray:
        """Per-query 1-based *applied* tick counters (copy).

        Parked queries freeze here at their last applied value; see
        :attr:`stream_ticks` for the position in the stream itself.
        """
        return self._ticks.copy()

    @property
    def stream_ticks(self) -> np.ndarray:
        """Per-query 1-based stream position (applied + deferred ticks)."""
        out = self._ticks.copy()
        adm = self._admission
        if adm is not None and adm.n_parked:
            behind = adm.buffer.total_pushed - adm.park_pos
            out[adm.parked] += behind[adm.parked]
        return out

    @property
    def parked(self) -> np.ndarray:
        """Boolean mask of queries currently parked as cold (copy)."""
        if self._admission is None:
            return np.zeros(self.q, dtype=bool)
        return self._admission.parked.copy()

    def _stream_tick0(self) -> int:
        t = int(self._ticks[0])
        adm = self._admission
        if adm is not None and adm.parked[0]:
            t += int(adm.buffer.total_pushed - adm.park_pos[0])
        return t

    def best_match(self, index: int) -> Match:
        """Best subsequence so far for one query (Problem 1)."""
        if not np.isfinite(self._best_d[index]):
            raise NotFittedError(
                "no finite-distance subsequence yet: feed stream values first"
            )
        return Match(
            start=int(self._best_s[index]),
            end=int(self._best_e[index]),
            distance=float(self._best_d[index]),
            output_time=None,
        )

    # ------------------------------------------------------------------
    # Streaming interface
    # ------------------------------------------------------------------

    def step(self, value: object) -> List[Tuple[int, Match]]:
        """Consume one stream value for all queries; return confirmations.

        A pruned engine whose kernel runs admission itself (cext) feeds
        the value through the compiled admission loop as a block of one
        (one foreign call); other pruned engines step the Python cascade.
        """
        x = self._validate_value(value)
        if self._native_prune:
            self._one_x[0] = 0.0 if x is None else x
            self._one_skip[0] = x is None
            return self._kernel.extend_pruned(
                self._one_x, self._one_skip, self._admission
            )
        if self._prune:
            return self._step_pruned(x)
        if x is None:
            self._ticks += 1
            return []
        return self._kernel.step(float(x))

    def _step_pruned(self, x: Optional[np.float64]) -> List[Tuple[int, Match]]:
        """:meth:`step` with the lower-bound admission cascade active.

        The admission strategy decides the tick (push the value to the
        replay buffer, wake parked queries whose bound dipped under,
        park hot queries the bound certifies cold — only when nothing
        is pending and their best-so-far distance is already ``<= ε``;
        see docs/algorithm.md §11 and §14); the kernel then steps and
        reports the surviving hot rows only.
        """
        adm = self._admission
        if x is None:
            # A missing reading never wakes a query: it carries no
            # evidence against the cold certificate, and replay skips
            # it the same way the live path would have.
            adm.tick_missing()
            return []
        hot, n_hot = adm.admit(float(x))
        if hot is None:
            return []
        if n_hot == self.q:
            # Nothing parked: identical to the unpruned dense step.
            return self._kernel.step(float(x))
        return self._kernel.step_rows(float(x), hot)

    def catch_up_all(self) -> None:
        """Apply every deferred tick so applied state equals stream state.

        Call before reading or serialising raw column state
        (:meth:`write_back` for an exact sync, end-of-stream teardown).
        Emitted matches are unaffected — parked spans cannot hold any —
        so this is a state materialisation, never a report.
        """
        if self._admission is not None:
            self._admission.catch_up_all()

    def extend(self, values: Iterable[object]) -> List[Tuple[int, Match]]:
        """Consume many values; equivalent to :meth:`step` per value.

        The values are validated once for the whole block, then handed
        to the bank kernel in one call — a compiled kernel runs the
        block natively, with pruning on too, admission included, when
        it runs admission itself (``BankKernel.runs_admission``: cext).
        Other pruned engines step the Python cascade per tick.
        """
        try:
            arr = np.asarray(values, dtype=np.float64)
        except (TypeError, ValueError):
            arr = np.asarray(list(values), dtype=np.float64)
        if arr.ndim == 2 and arr.shape[1] == 1:
            arr = arr[:, 0]
        if arr.ndim != 1:
            raise ValidationError(
                f"FusedSpring.extend expects a 1-D scalar stream, "
                f"got shape {arr.shape}"
            )
        if arr.size == 0:
            return []

        nan_rows, inf_rows = classify_rows(arr)
        stop = first_fatal(nan_rows, inf_rows, self.missing)
        skip = nan_rows[:stop].astype(np.uint8)
        if self._native_prune:
            matches = self._kernel.extend_pruned(
                arr[:stop], skip, self._admission
            )
        elif self._prune:
            matches = []
            for t in range(stop):
                x = None if skip[t] else np.float64(arr[t])
                matches.extend(self._step_pruned(x))
        else:
            matches = self._kernel.extend(arr[:stop], skip)
        if stop < arr.shape[0]:
            # Reproduce the per-tick error (prefix state is fully
            # applied) without losing what the prefix confirmed.
            tick = self._stream_tick0() + 1
            raise bad_value_error(tick, bool(nan_rows[stop]), matches)
        return matches

    def flush(self) -> List[Tuple[int, Match]]:
        """Report every held optimum at end-of-stream (Figure 4's epilogue)."""
        matches: List[Tuple[int, Match]] = []
        pending = np.isfinite(self._dmin) & (self._dmin <= self.bank.epsilons)
        for qi in np.flatnonzero(pending):
            matches.append((int(qi), self._emit(int(qi))))
            self._reset_after_report(int(qi))
        return matches

    # ------------------------------------------------------------------
    # Figure 4 internals, vectorised across queries
    # ------------------------------------------------------------------

    def _report_logic(
        self, active: Optional[np.ndarray] = None
    ) -> List[Tuple[int, Match]]:
        d, s = self._d, self._s
        out: List[Tuple[int, Match]] = []

        pending = np.isfinite(self._dmin) & (self._dmin <= self.bank.epsilons)
        if pending.any():
            # Equation 9 for all queries at once: each cell either cannot
            # undercut the held optimum or starts after it ends.  Parked
            # rows need no masking here: a query only parks with no
            # pending optimum, so `pending` already excludes them.
            blocked = (d[:, 1:] >= self._dmin[:, None]) | (
                s[:, 1:] > self._te[:, None]
            )
            emit = pending & blocked.all(axis=1)
            for qi in np.flatnonzero(emit):
                out.append((int(qi), self._emit(int(qi))))
                self._reset_after_report(int(qi))

        d_m = d[self._rows, self._end]
        s_m = s[self._rows, self._end]
        capture = (d_m <= self.bank.epsilons) & (d_m < self._dmin)
        if active is not None:
            # Parked rows hold stale columns; their d_m must not be read.
            capture &= active
        if capture.any():
            self._dmin[capture] = d_m[capture]
            self._ts[capture] = s_m[capture]
            self._te[capture] = self._ticks[capture]
        better = d_m < self._best_d
        if active is not None:
            better &= active
        if better.any():
            self._best_d[better] = d_m[better]
            self._best_s[better] = s_m[better]
            self._best_e[better] = self._ticks[better]
        return out

    def _emit(self, qi: int) -> Match:
        return Match(
            start=int(self._ts[qi]),
            end=int(self._te[qi]),
            distance=float(self._dmin[qi]),
            output_time=int(self._ticks[qi]),
        )

    def _reset_after_report(self, qi: int) -> None:
        self._dmin[qi] = np.inf
        stale = self._s[qi, 1:] <= self._te[qi]
        self._d[qi, 1:][stale] = np.inf

    def _reset_padding(
        self, d: np.ndarray, s: np.ndarray, rows: Optional[np.ndarray] = None
    ) -> None:
        """Put the padded cells of freshly updated columns back to
        ``+inf`` / ``0``; ``d``/``s`` hold ``rows`` of the bank (every
        row when ``None``) over their leading columns.

        A column update over a ``(rows, width)`` block writes values
        into a shorter query's padding; this restores the fixed padded
        representation that cext, which sweeps only each query's own
        cells, never leaves.
        """
        pad = self._pad_mask
        if pad is None:
            return
        if rows is not None:
            pad = pad[rows]
        pad = pad[:, : d.shape[1] - 1]
        d[:, 1:][pad] = np.inf
        s[:, 1:][pad] = 0

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _validate_value(self, value: object) -> Optional[np.ndarray]:
        if isinstance(value, (int, float)):
            v = float(value)
            if v != v:  # NaN
                if self.missing == "skip":
                    return None
                raise bad_value_error(self._stream_tick0() + 1, True)
            if math.isinf(v):
                raise bad_value_error(self._stream_tick0() + 1, False)
            return np.float64(v)
        array = np.asarray(value, dtype=np.float64).reshape(-1)
        if array.shape[0] != 1:
            raise ValidationError(
                f"stream value has {array.shape[0]} dimensions, query has 1"
            )
        return self._validate_value(float(array[0]))

    # ------------------------------------------------------------------
    # Spring interop (used by StreamMonitor's bank grouping)
    # ------------------------------------------------------------------

    @classmethod
    def from_springs(
        cls,
        springs: Sequence[object],
        names: Optional[Sequence[str]] = None,
        prune_buffer: Optional[int] = None,
        backend: BackendSpec = None,
        admission: Optional[str] = None,
        admission_group_size: Optional[int] = None,
    ) -> "FusedSpring":
        """Build an engine that adopts the live state of ``springs``.

        Eligibility is capability-declared, not type-checked: every
        matcher must be a :class:`~repro.core.spring.Spring` whose
        ``capabilities()`` report ``fusable=True`` (scalar stream, the
        vectorised kernel, base report logic, transform-only policies),
        all sharing one missing policy and a compatible local distance
        (equal canonical names, or the identical callable when
        unnamed).  Their current mid-stream state — columns, tick
        counters, held optima, best matches — is copied in, so fused
        execution continues exactly where they stopped.  Policies are
        *not* adopted: callers apply each matcher's transform chain to
        the bank's emissions via ``apply_report_policies``.
        """
        from repro.core.spring import Spring

        def same_distance(a: Spring, b: Spring) -> bool:
            if a._distance is b._distance:
                return True
            return (
                a.distance_name is not None
                and a.distance_name == b.distance_name
            )

        if not springs:
            raise ValidationError("from_springs needs at least one matcher")
        first = springs[0]
        for sp in springs:
            if not isinstance(sp, Spring) or not sp.capabilities().fusable:
                raise ValidationError(
                    f"cannot fuse {type(sp).__name__}: its capabilities "
                    f"do not declare it bank-fusable"
                )
            if sp.missing != first.missing or not same_distance(sp, first):
                raise ValidationError(
                    "fused matchers must share missing policy and local distance"
                )
        bank = QueryBank(
            [sp._query[:, 0] for sp in springs],
            epsilons=[sp.epsilon for sp in springs],
            names=names,
            # Springs cache their corridor at build time; adopting it
            # here keeps plan rebuilds (monitor sync, checkpoint
            # restore) from re-reducing every query array.
            corridors=[sp.corridor for sp in springs],
        )
        bank.distance = first._distance
        engine = cls(
            bank,
            missing=first.missing,
            prune_buffer=prune_buffer,
            backend=backend,
            admission=admission,
            admission_group_size=admission_group_size,
        )
        for qi, sp in enumerate(springs):
            m = sp.m
            engine._d[qi, : m + 1] = sp._state.d
            engine._s[qi, : m + 1] = sp._state.s
            engine._ticks[qi] = sp._tick
            engine._dmin[qi] = sp._dmin
            engine._ts[qi] = sp._ts
            engine._te[qi] = sp._te
            engine._best_d[qi] = sp._best_distance
            engine._best_s[qi] = sp._best_start
            engine._best_e[qi] = sp._best_end
        return engine

    def write_back(self, springs: Sequence[object]) -> None:
        """Copy each query's state back into its per-query matcher.

        The inverse of :meth:`from_springs`: after this, stepping the
        springs individually continues the exact match stream the fused
        engine would have produced.
        """
        if len(springs) != self.q:
            raise ValidationError(
                f"write_back got {len(springs)} matchers for {self.q} queries"
            )
        for qi, sp in enumerate(springs):
            m = sp.m
            sp._state.d = self._d[qi, : m + 1].copy()
            sp._state.s = self._s[qi, : m + 1].copy()
            sp._tick = int(self._ticks[qi])
            sp._dmin = float(self._dmin[qi])
            sp._ts = int(self._ts[qi])
            sp._te = int(self._te[qi])
            sp._best_distance = float(self._best_d[qi])
            sp._best_start = int(self._best_s[qi])
            sp._best_end = int(self._best_e[qi])

    # ------------------------------------------------------------------
    # Pruning-state snapshot (checkpointing of cold-parked queries)
    # ------------------------------------------------------------------

    def prune_state_dict(self) -> Optional[dict]:
        """JSON-safe snapshot of the parking state, or ``None`` if inert.

        :meth:`write_back` already externalises a valid *applied* state
        for every row; this captures the rest — the replay buffer and
        how far behind each parked row is — so a restored engine can
        resume mid-park and produce byte-identical future emissions.
        The payload is admission-strategy-independent: flat and grouped
        cascades make identical decisions, and the grouped index is a
        pure function of the parked set, rebuilt rather than stored.
        """
        if not self._prune:
            return None
        return self._admission.state_dict()

    def restore_prune_state(self, state: Optional[dict]) -> None:
        """Re-park queries from a :meth:`prune_state_dict` snapshot.

        The engine must already hold the applied per-query state (e.g.
        via :meth:`from_springs`).  The buffer is rebuilt at the
        snapshot's capacity, so restoring under a different configured
        capacity is lossless.
        """
        if state is None:
            return
        if not self._prune:
            raise ValidationError(
                "cannot restore pruning state into an engine built "
                "without pruning"
            )
        self._admission.restore_state(state)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(q={self.q}, m_max={self.bank.m_max}, "
            f"tick={int(self._ticks.max()) if self.q else 0})"
        )
