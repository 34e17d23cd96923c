"""SPRING: streaming subsequence matching under DTW (the paper's Figure 4).

One :class:`Spring` instance monitors one stream for one query.  Feed it
values with :meth:`Spring.step` (or :meth:`Spring.extend`); it returns a
:class:`~repro.core.matches.Match` whenever the disjoint-query algorithm
confirms a locally-optimal subsequence.  Per tick it does O(m) work and
holds O(m) state (Lemma 4) — nothing grows with the stream.

Two query modes coexist on the same state:

* **Disjoint query** (Problem 2) — matches with distance <= ``epsilon``,
  one report per group of overlapping qualifying subsequences, emitted as
  soon as Equation 9 confirms the captured optimum cannot be displaced.
* **Best-match query** (Problem 1) — :attr:`Spring.best_match` always
  holds the best subsequence seen so far, regardless of ``epsilon``.

:class:`Spring` is the middle of the layered architecture: it drives the
kernel (:mod:`repro.core.state`) and hosts the report-policy hooks
(:mod:`repro.core.policy`) that the variants compose from — length
bands, top-k leaderboards, group-range annotation all attach through
the ``policies`` argument rather than ``_report_logic`` overrides.

Example
-------
>>> from repro import Spring
>>> spring = Spring(query=[11, 6, 9, 4], epsilon=15)
>>> for x in [5, 12, 6, 10, 6, 5, 13]:
...     match = spring.step(x)
...     if match:
...         print(match.start, match.end, match.distance, match.output_time)
2 5 6.0 7
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro._serde import (
    decode_float,
    decode_floats,
    decode_node,
    encode_float,
    encode_floats,
    encode_node,
)
from repro._validation import (
    as_scalar_sequence,
    as_vector_sequence,
    check_threshold,
)
from repro.core.backends import BackendSpec, resolve_backend
from repro.core.checkpoint import register_matcher
from repro.core.matches import Match
from repro.core.missing import (
    bad_value_error,
    classify_rows,
    first_fatal,
    resolve_missing_policy,
)
from repro.core.policy import ReportPolicy, decode_policies, encode_policies
from repro.core.protocol import Capabilities
from repro.core.registry import register_matcher_kind
from repro.core.state import SpringState, update_column_reference
from repro.dtw.steps import (
    LocalDistance,
    canonical_distance_name,
    resolve_vector_distance,
)
from repro.exceptions import NotFittedError, StreamValueError, ValidationError
from repro.obs import tracing

__all__ = ["Spring"]

#: Linked path node: (tick, query_index, parent) — structural sharing keeps
#: the memory of the SPRING(path) variant proportional to live paths.
_PathNode = Tuple[int, int, Optional[tuple]]

_MISSING_POLICIES = ("skip", "error")


class Spring:
    """Streaming DTW subsequence matcher for a scalar stream.

    Parameters
    ----------
    query:
        The fixed query sequence ``Y`` (1-D array-like, length m >= 1).
    epsilon:
        Distance threshold for disjoint queries.  ``inf`` (default) makes
        every locally-optimal subsequence qualify; best-match tracking is
        unaffected by this value.
    local_distance:
        ``"squared"`` (paper default), ``"absolute"``, or a callable; see
        :mod:`repro.dtw.steps`.
    record_path:
        When True, run the ``SPRING(path)`` variant: every reported match
        carries its full warping path.  Costs data-dependent extra memory
        (Figure 8) and uses the reference per-tick loop.
    missing:
        Policy for NaN stream values: ``"skip"`` advances time without
        updating state (the Temperature experiment's missing readings);
        ``"error"`` raises.
    use_reference:
        Force the literal Equation (7)/(8) per-tick loop instead of the
        vectorised scan.  Mainly for tests and tiny queries.
    policies:
        Optional chain of :class:`~repro.core.policy.ReportPolicy`
        objects.  Admission-gating policies filter which subsequences
        may be captured; transform policies rewrite/suppress emitted
        matches; observers watch every tick.  The chain runs in order.
    backend:
        Kernel backend spec for the column recurrence (see
        :mod:`repro.core.backends`).  A runtime property only — results
        are bit-identical across backends, checkpoints never record the
        choice, and reference/path-recording runs always use the
        literal per-tick loop regardless.
    """

    #: How error messages refer to one stream value ("vector" in subclasses).
    _value_noun = "value"

    def __init__(
        self,
        query: object,
        epsilon: float = np.inf,
        local_distance: Union[str, LocalDistance, None] = None,
        record_path: bool = False,
        missing: str = "skip",
        use_reference: bool = False,
        policies: Sequence[ReportPolicy] = (),
        backend: BackendSpec = None,
    ) -> None:
        self._query = self._validate_query(query)
        self.epsilon = check_threshold(epsilon)
        self._backend = resolve_backend(backend)
        self._distance = resolve_vector_distance(local_distance)
        #: Canonical registry name of the local distance (None = custom
        #: callable).  The execution layer groups fused banks by this.
        self.distance_name = canonical_distance_name(self._distance)
        self.record_path = bool(record_path)
        self.missing = resolve_missing_policy(missing)
        self.use_reference = bool(use_reference) or self.record_path

        m = self._query.shape[0]

        # Streaming-corridor cache (scalar queries): the degenerate
        # full-radius Keogh envelope collapses to [min(Y), max(Y)], and
        # the admission cascade re-banks queries on every plan rebuild —
        # computing it once here keeps rebuilds from re-reducing every
        # query array (it shows up at 10k queries).
        if self._query.shape[1] == 1:
            col = self._query[:, 0]
            self._corridor: Optional[Tuple[float, float]] = (
                float(col.min()),
                float(col.max()),
            )
        else:
            self._corridor = None

        # Report-policy layer: split the chain by hook so the per-tick
        # logic only pays for the hooks actually in use.
        self._policies: Tuple[ReportPolicy, ...] = tuple(policies)
        for policy in self._policies:
            policy.bind(m)
        self._admission: Tuple[ReportPolicy, ...] = tuple(
            p for p in self._policies if p.gates_admission
        )
        self._observers: Tuple[ReportPolicy, ...] = tuple(
            p for p in self._policies if p.observes
        )
        #: Policies installed by the subclass itself (e.g. the length
        #: band inside ConstrainedSpring); excluded from the generic
        #: "policies" checkpoint key because the subclass serialises
        #: them under its own legacy keys.
        self._intrinsic_policies: Tuple[ReportPolicy, ...] = ()

        self._state = SpringState.initial(m)
        self._tick = 0

        # Disjoint-query bookkeeping (Figure 4).
        self._dmin = np.inf
        self._ts = 0
        self._te = 0
        self._pending_path: Optional[_PathNode] = None

        # Best-match bookkeeping (Problem 1).
        self._best_distance = np.inf
        self._best_start = 0
        self._best_end = 0
        self._best_path: Optional[_PathNode] = None

        # Path nodes parallel to the state arrays (record_path only).
        self._nodes: List[Optional[_PathNode]] = [None] * (m + 1)

        # Scalar-stream fast path: plain Python numbers on a 1-D query
        # skip the per-tick asarray/reshape/shape-check churn and reuse
        # one staging buffer.  Only taken when the subclass has not
        # customised per-value validation.
        self._fast_scalar = (
            self._query.shape[1] == 1
            and type(self)._validate_value is Spring._validate_value
        )
        self._xbuf = np.empty(1, dtype=np.float64)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def query(self) -> np.ndarray:
        """The query sequence as a read-only ``(m, k)`` array."""
        return self._query

    @property
    def m(self) -> int:
        """Query length."""
        return self._query.shape[0]

    @property
    def tick(self) -> int:
        """Number of stream values consumed (1-based time of last value)."""
        return self._tick

    @property
    def corridor(self) -> Optional[Tuple[float, float]]:
        """Cached ``(min(Y), max(Y))`` streaming corridor of the query.

        The degenerate (full-radius) Keogh envelope used by the
        admission cascade's corridor bound; ``None`` for vector queries,
        which are never bank-fused.  Computed once at build time so
        re-banking paths need not re-reduce the query.
        """
        return self._corridor

    @property
    def current_distances(self) -> np.ndarray:
        """Current column ``d(t, 1..m)`` of the STWM (copy)."""
        return self._state.d[1:].copy()

    @property
    def current_starts(self) -> np.ndarray:
        """Current column ``s(t, 1..m)`` of the STWM (copy)."""
        return self._state.s[1:].copy()

    @property
    def has_pending(self) -> bool:
        """Whether a captured optimum is still waiting for confirmation."""
        return np.isfinite(self._dmin) and self._dmin <= self.epsilon

    @property
    def best_match(self) -> Match:
        """Best subsequence so far (Problem 1), independent of epsilon."""
        if not np.isfinite(self._best_distance):
            raise NotFittedError(
                "no finite-distance subsequence yet: feed stream values first"
            )
        return Match(
            start=self._best_start,
            end=self._best_end,
            distance=float(self._best_distance),
            output_time=None,
            path=self._materialise(self._best_path),
        )

    @property
    def policies(self) -> Tuple[ReportPolicy, ...]:
        """The attached report-policy chain (possibly empty)."""
        return self._policies

    @property
    def backend(self):
        """The resolved kernel backend (runtime property, never serialised)."""
        return self._backend

    @property
    def backend_name(self) -> str:
        """Registry name of the backend in use."""
        return self._backend.name

    def set_backend(self, backend: BackendSpec) -> None:
        """Swap the kernel backend mid-stream.

        Safe at any tick: backends share state layout and produce
        bit-identical columns, so switching never perturbs results.
        """
        self._backend = resolve_backend(backend)

    def capabilities(self) -> Capabilities:
        """Declare kind / fusability / distance for the execution layer.

        A matcher is bank-fusable when its per-tick behaviour is exactly
        the plain scalar Figure-4 recurrence: scalar stream, vectorised
        kernel, base-class report logic, and only transform-only
        policies (which the bank engine applies to its emissions via
        :meth:`apply_report_policies`).
        """
        fusable = (
            self._query.shape[1] == 1
            and not self.use_reference
            and type(self)._report_logic is Spring._report_logic
            and type(self).flush is Spring.flush
            and type(self)._validate_value is Spring._validate_value
            and not self._admission
            and not self._observers
            and all(p.fusable for p in self._policies)
        )
        return Capabilities(
            kind="scalar" if self._query.shape[1] == 1 else "vector",
            fusable=fusable,
            distance_name=self.distance_name,
            missing=self.missing,
        )

    # ------------------------------------------------------------------
    # Streaming interface
    # ------------------------------------------------------------------

    def step(self, value: object) -> Optional[Match]:
        """Consume one stream value; return a confirmed match, if any.

        Implements Figure 4 verbatim: update the column, emit the held
        optimum once Equation 9 guarantees no overlapping subsequence can
        beat it, then fold the new ending distance ``d_m`` into the held
        optimum.
        """
        if self._fast_scalar and isinstance(value, (int, float)):
            v = float(value)
            if v != v:  # NaN
                if self.missing == "skip":
                    self._tick += 1
                    return None
                raise bad_value_error(self._tick + 1, True)
            if math.isinf(v):
                raise bad_value_error(self._tick + 1, False)
            self._xbuf[0] = v
            x = self._xbuf
        else:
            x = self._validate_value(value)
            if x is None:  # missing value: time passes, state holds
                self._tick += 1
                return None
        self._tick += 1
        cost = np.asarray(
            self._distance(x[None, :], self._query), dtype=np.float64
        )
        if self.use_reference:
            tracing.call("kernel.update_column", self._update_with_nodes, cost)
        else:
            tracing.call(
                "kernel.update_column",
                self._backend.update_column, self._state, cost, self._tick,
            )
        return tracing.call("policy.report", self._report_logic)

    def extend(self, values: Iterable[object], block_size: int = 1024) -> List[Match]:
        """Consume many values; return all matches confirmed on the way.

        Array(-like) inputs take a blocked fast path: validation and the
        NaN/inf scan are hoisted out of the loop and the ``(block, m)``
        local-cost matrix for a chunk of the stream is precomputed in one
        numpy broadcast, so the per-tick loop only runs the recurrence
        and report logic.  Results are identical to calling :meth:`step`
        per value; reference/path-recording matchers and non-array
        iterables (e.g. generators) fall back to the per-value loop.
        """
        block = self._coerce_block(values) if not self.use_reference else None
        if block is not None:
            return self._extend_block(block, block_size)
        matches: List[Match] = []
        for value in values:
            try:
                match = self.step(value)
            except StreamValueError as err:
                # Keep what the applied prefix confirmed (identical to
                # what a caller-side step loop would already hold).
                err.partial_matches = matches
                raise
            if match is not None:
                matches.append(match)
        return matches

    def _coerce_block(self, values: object) -> Optional[np.ndarray]:
        """Try to view ``values`` as an ``(n, k)`` float block, else None."""
        if not isinstance(values, (np.ndarray, list, tuple)):
            return None
        try:
            arr = np.asarray(values, dtype=np.float64)
        except (TypeError, ValueError):
            return None
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2:
            return None  # let the per-value loop raise its usual errors
        return arr

    def _extend_block(self, arr: np.ndarray, block_size: int) -> List[Match]:
        k = self._query.shape[1]
        if arr.shape[1] != k:
            raise ValidationError(
                f"stream {self._value_noun} has {arr.shape[1]} dimensions, "
                f"query has {k}"
            )
        if arr.shape[0] == 0:
            return []
        nan_rows, inf_rows = classify_rows(arr)  # NaN outranks inf
        stop = first_fatal(nan_rows, inf_rows, self.missing)

        matches: List[Match] = []
        block = max(1, int(block_size))
        for lo in range(0, stop, block):
            hi = min(lo + block, stop)
            # (B, m): local costs for the whole chunk in one broadcast.
            cost_block = np.asarray(
                self._distance(arr[lo:hi, None, :], self._query[None, :, :]),
                dtype=np.float64,
            )
            chunk_nan = nan_rows[lo:hi]
            for t in range(hi - lo):
                self._tick += 1
                if chunk_nan[t]:
                    continue
                self._backend.update_column(self._state, cost_block[t], self._tick)
                match = self._report_logic()
                if match is not None:
                    matches.append(match)
        if stop < arr.shape[0]:
            # Prefix state is fully applied; now fail like step() would,
            # carrying the matches the prefix confirmed.
            raise bad_value_error(self._tick + 1, bool(nan_rows[stop]), matches)
        return matches

    def flush(self) -> Optional[Match]:
        """Report the held optimum at end-of-stream, if one is pending.

        A finite stream can end while Equation 9 is still unmet; the
        captured optimum is then valid (nothing can displace it any more)
        and this emits it.  Streaming use never needs this.
        """
        if np.isfinite(self._dmin) and self._dmin <= self.epsilon:
            match = self._emit()
            self._reset_after_report()
            return self.apply_report_policies(match, flushing=True)
        return None

    # ------------------------------------------------------------------
    # Figure 4 internals (+ the report-policy hooks)
    # ------------------------------------------------------------------

    def apply_report_policies(
        self, match: Match, flushing: bool = False
    ) -> Optional[Match]:
        """Run an emitted match through the policy transform chain.

        Called on every emission — by :meth:`_report_logic`,
        :meth:`flush`, and by the fused-bank execution path, which
        produces raw Figure-4 emissions and defers the transform-only
        policies to this method.  Returns None when a policy suppresses
        the match (e.g. a top-k leaderboard rejecting a non-improving
        candidate).
        """
        for policy in self._policies:
            match = policy.transform(match, flushing=flushing)
            if match is None:
                return None
        return match

    def _admissible(self, start: int, end: int) -> bool:
        for policy in self._admission:
            if not policy.admit(start, end):
                return False
        return True

    def _report_logic(self) -> Optional[Match]:
        d = self._state.d
        s = self._state.s
        report: Optional[Match] = None

        if np.isfinite(self._dmin) and self._dmin <= self.epsilon:
            # Equation 9: every cell either cannot undercut the held
            # optimum or belongs to a later, non-overlapping group.
            blocked = (d[1:] >= self._dmin) | (s[1:] > self._te)
            if bool(np.all(blocked)):
                report = self._emit()
                self._reset_after_report()

        d_m = d[-1]
        if (
            d_m <= self.epsilon
            and d_m < self._dmin
            and (not self._admission or self._admissible(int(s[-1]), self._tick))
        ):
            self._dmin = float(d_m)
            self._ts = int(s[-1])
            self._te = self._tick
            self._pending_path = self._nodes[-1] if self.record_path else None

        if d_m < self._best_distance and (
            not self._admission or self._admissible(int(s[-1]), self._tick)
        ):
            self._best_distance = float(d_m)
            self._best_start = int(s[-1])
            self._best_end = self._tick
            self._best_path = self._nodes[-1] if self.record_path else None

        # An emitted report closes its overlap group *before* observers
        # see this tick's ending cell, so a qualifying ending on the
        # report tick seeds the next group (the Section 5.3 semantics).
        if report is not None and self._policies:
            report = self.apply_report_policies(report)
        if self._observers:
            qualifying = bool(d_m <= self.epsilon)
            s_last = int(s[-1])
            d_last = float(d_m)
            for policy in self._observers:
                policy.observe(s_last, self._tick, d_last, qualifying)
        return report

    def _emit(self) -> Match:
        return Match(
            start=self._ts,
            end=self._te,
            distance=float(self._dmin),
            output_time=self._tick,
            path=self._materialise(self._pending_path),
        )

    def _reset_after_report(self) -> None:
        """Figure 4's reset: clear cells belonging to the reported group."""
        self._dmin = np.inf
        self._pending_path = None
        stale = self._state.s[1:] <= self._te
        self._state.d[1:][stale] = np.inf
        if self.record_path:
            for i in np.flatnonzero(stale):
                self._nodes[i + 1] = None

    # ------------------------------------------------------------------
    # Path-recording update (reference loop with parent pointers)
    # ------------------------------------------------------------------

    def _update_with_nodes(self, cost: np.ndarray) -> None:
        if not self.record_path:
            update_column_reference(self._state, cost, self._tick)
            return
        state = self._state
        tick = self._tick
        d_prev = state.d
        s_prev = state.s
        nodes_prev = self._nodes
        m = cost.shape[0]
        d_new = np.empty(m + 1, dtype=np.float64)
        s_new = np.empty(m + 1, dtype=np.int64)
        nodes_new: List[Optional[_PathNode]] = [None] * (m + 1)
        d_new[0] = 0.0
        s_new[0] = tick + 1
        for i in range(1, m + 1):
            horizontal = 0.0 if i == 1 else d_new[i - 1]
            vertical = d_prev[i]
            diagonal = d_prev[i - 1]
            best = min(horizontal, vertical, diagonal)
            d_new[i] = cost[i - 1] + best
            if horizontal == best:
                if i == 1:
                    s_new[1] = tick
                    parent = None
                else:
                    s_new[i] = s_new[i - 1]
                    parent = nodes_new[i - 1]
            elif vertical == best:
                s_new[i] = s_prev[i]
                parent = nodes_prev[i]
            else:
                s_new[i] = s_prev[i - 1]
                parent = nodes_prev[i - 1]
            nodes_new[i] = (tick, i, parent)
        state.d = d_new
        state.s = s_new
        self._nodes = nodes_new

    def live_path_nodes(self) -> int:
        """Count distinct path nodes reachable from live state.

        This is the data-dependent extra memory of the ``SPRING(path)``
        variant in Figure 8, measured in nodes.
        """
        seen = set()
        roots = [n for n in self._nodes if n is not None]
        if self._pending_path is not None:
            roots.append(self._pending_path)
        if self._best_path is not None:
            roots.append(self._best_path)
        for node in roots:
            while node is not None and id(node) not in seen:
                seen.add(id(node))
                node = node[2]
        return len(seen)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _validate_query(self, query: object) -> np.ndarray:
        array = as_scalar_sequence(query, "query")
        return array.reshape(-1, 1)

    def _validate_value(self, value: object) -> Optional[np.ndarray]:
        array = np.asarray(value, dtype=np.float64).reshape(-1)
        if array.shape[0] != self._query.shape[1]:
            raise ValidationError(
                f"stream {self._value_noun} has {array.shape[0]} dimensions, "
                f"query has {self._query.shape[1]}"
            )
        # NaN outranks inf: a reading with both is missing, not corrupt
        # (the shared policy in repro.core.missing).
        if np.isnan(array).any():
            if self.missing == "skip":
                return None
            raise bad_value_error(self._tick + 1, True)
        if np.isinf(array).any():
            raise bad_value_error(self._tick + 1, False)
        return array

    @staticmethod
    def _materialise(
        node: Optional[_PathNode],
    ) -> Optional[Tuple[Tuple[int, int], ...]]:
        if node is None:
            return None
        cells = []
        while node is not None:
            cells.append((node[0], node[1]))
            node = node[2]
        cells.reverse()
        return tuple(cells)

    # ------------------------------------------------------------------
    # Checkpointing (the open registry in repro.core.checkpoint)
    # ------------------------------------------------------------------

    def _extra_policies(self) -> List[ReportPolicy]:
        """Policies supplied by the caller (excludes subclass intrinsics)."""
        intrinsic = self._intrinsic_policies
        return [
            p for p in self._policies if not any(p is q for q in intrinsic)
        ]

    def state_dict(self) -> dict:
        """Serialise to a JSON-safe dict (see :mod:`repro.core.checkpoint`)."""
        if self.distance_name is None:
            raise ValidationError(
                "cannot checkpoint a matcher with an unnamed local-distance "
                "callable; pass a registered distance name instead"
            )
        state: dict = {
            "query": self._query.tolist(),
            "epsilon": encode_float(self.epsilon),
            "local_distance": self.distance_name,
            "record_path": self.record_path,
            "missing": self.missing,
            "use_reference": self.use_reference,
            "tick": self._tick,
            "d": encode_floats(self._state.d),
            "s": self._state.s.tolist(),
            "dmin": encode_float(self._dmin),
            "ts": self._ts,
            "te": self._te,
            "best_distance": encode_float(self._best_distance),
            "best_start": self._best_start,
            "best_end": self._best_end,
        }
        if self.record_path:
            state["nodes"] = [encode_node(n) for n in self._nodes]
            state["pending_path"] = encode_node(self._pending_path)
            state["best_path"] = encode_node(self._best_path)
        extra = self._extra_policies()
        if extra:
            state["policies"] = encode_policies(extra)
        return state

    @classmethod
    def from_state(cls, state: dict) -> "Spring":
        """Rebuild from :meth:`state_dict` output (exact continuation)."""
        spring = cls(cls._query_from_state(state), **cls._init_kwargs_from_state(state))
        spring._restore_state(state)
        return spring

    @classmethod
    def _query_from_state(cls, state: dict) -> np.ndarray:
        # Scalar matchers validate 1-D queries; the stored form is the
        # internal (m, 1) layout.
        return np.asarray(state["query"], dtype=np.float64).reshape(-1)

    @classmethod
    def _init_kwargs_from_state(cls, state: dict) -> dict:
        return dict(
            epsilon=decode_float(state["epsilon"]),
            # Legacy payloads carry no distance name; they were only
            # ever written for the default distance.
            local_distance=state.get("local_distance"),
            record_path=bool(state["record_path"]),
            missing=str(state["missing"]),
            use_reference=bool(state["use_reference"]),
            policies=decode_policies(state.get("policies", [])),
        )

    def _restore_state(self, state: dict) -> None:
        self._tick = int(state["tick"])
        self._state.d = decode_floats(state["d"])
        self._state.s = np.asarray(state["s"], dtype=np.int64)
        self._dmin = decode_float(state["dmin"])
        self._ts = int(state["ts"])
        self._te = int(state["te"])
        self._best_distance = decode_float(state["best_distance"])
        self._best_start = int(state["best_start"])
        self._best_end = int(state["best_end"])
        if self.record_path:
            self._nodes = [decode_node(n) for n in state["nodes"]]
            self._pending_path = decode_node(state["pending_path"])
            self._best_path = decode_node(state["best_path"])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(m={self.m}, epsilon={self.epsilon}, "
            f"tick={self._tick}, pending={self.has_pending})"
        )


register_matcher(Spring)
register_matcher_kind("spring", Spring)
