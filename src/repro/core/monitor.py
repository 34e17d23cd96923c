"""Multi-query, multi-stream monitoring.

The paper's problem statement is "efficiently monitoring multiple
numerical streams".  :class:`StreamMonitor` manages a matrix of
(stream x query) matchers: register streams and queries, push values as
they arrive, and receive :class:`MatchEvent` records.  Total per-tick
work is O(sum of query lengths) per stream — each matcher stays O(m)
per Lemma 4, and matchers are independent.

The monitor consumes matchers purely through the
:class:`~repro.core.protocol.Matcher` protocol: queries are registered
by *kind* name (``"spring"``, ``"constrained"``, ``"topk"``,
``"normalized"``, ``"cascade"``, or any kind added via
:func:`~repro.core.registry.register_matcher_kind`), and execution is
planned by :func:`~repro.core.engine.build_plan` from each matcher's
declared :class:`~repro.core.protocol.Capabilities` — no
``type(spring) is Spring`` checks anywhere.

Internally the plan batches work along the *query* axis: bank-fusable
matchers on one stream advance through one vectorised
:class:`~repro.core.fused.FusedSpring` column update per tick, with
their transform-only policies applied to the bank's emissions.  A lone
fusable matcher is banked too where its bank kernel is compiled (cext),
so a one-query stream's ``push_many`` is one native call per batch,
admission included.  Banks are an execution detail — event contents
and ordering are identical to stepping each matcher individually (in
query-registration order), and matchers with per-query execution modes
(path recording, reference loop, vector streams, transforms, and a
lone matcher on the numpy reference kernel) transparently keep the
per-query path.  Accessing a matcher via :meth:`StreamMonitor.matcher` (or
checkpointing) syncs bank state back into the individual matchers
first, so direct inspection — and even direct stepping — always sees
exact, current state.

Callbacks make it usable as a push-based alerting component: subscribe a
callable and it fires on every confirmed match.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import (
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.backends import BackendSpec, resolve_backend, use_backend
from repro.core.engine import ExecutionPlan, FusedBank, build_plan
from repro.core.fused import FusedSpring
from repro.core.matches import Match
from repro.core.missing import classify_rows, first_fatal
from repro.core.policy import decode_policies, encode_policies
from repro.core.registry import build_matcher
from repro.dtw.steps import LocalDistance
from repro.exceptions import StreamValueError, ValidationError
from repro.obs import tracing
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import NULL_RECORDER, MetricsRecorder

__all__ = ["MatchEvent", "StreamMonitor"]


@dataclass(frozen=True)
class MatchEvent:
    """A confirmed match, tagged with which stream/query produced it."""

    stream: str
    query: str
    match: Match

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.stream} ~ {self.query}] {self.match}"


@dataclass
class _QuerySpec:
    """Registered query: the template every per-stream matcher is built from.

    ``kwargs`` is JSON-safe: report policies are stored as encoded specs
    (see :func:`~repro.core.policy.encode_policies`) so each stream's
    matcher gets *fresh* policy instances — stateful policies like a
    top-k leaderboard must never be shared across streams.
    """

    name: str
    query: np.ndarray
    epsilon: float
    kind: str
    kwargs: dict = field(default_factory=dict)

    def build(self) -> object:
        kwargs = dict(self.kwargs)
        if "policies" in kwargs:
            kwargs["policies"] = decode_policies(kwargs["policies"])
        return build_matcher(
            self.kind, self.query, epsilon=self.epsilon, **kwargs
        )


class StreamMonitor:
    """Monitor many streams for many queries simultaneously.

    Parameters
    ----------
    keep_history:
        When True (default), every emitted event is retained and exposed
        via :attr:`history`; set False to disable retention entirely
        (long-running monitors otherwise grow without bound).
    history_limit:
        Optional cap on retained events; when set, :attr:`history` keeps
        only the most recent ``history_limit`` events (deque-backed, so
        old events fall off in O(1)).
    on_callback_error:
        Optional handler ``(event, exception) -> None``.  When set, an
        exception raised by a subscribed callback is caught and handed
        to it — the push loop and the remaining callbacks keep running.
        When ``None`` (default) callback exceptions propagate as before.
        The supervised runtime points this at its dead-letter record.
    prune:
        When True (default), fused banks run the exact lower-bound
        admission cascade: queries whose corridor bound certifies they
        cannot match are parked, skipping their O(m) column update.
        Emitted events are byte-identical with pruning on or off (see
        ``docs/algorithm.md`` §11); disable only for debugging or A/B
        measurement (the CLI exposes this as ``--no-prune``).  Each
        bank's size picks its admission strategy: grouped admission,
        which certifies whole merged-envelope groups of parked queries
        with one test per group, from
        :data:`~repro.core.admission.AUTO_GROUP_MIN_QUERIES` queries,
        and the flat cascade below that; decisions and events are
        byte-identical either way (see :mod:`repro.core.admission`).
    prune_buffer:
        Ring-buffer capacity (values) retained per bank for exact
        catch-up replay of parked spans.  Spans that outgrow it still
        wake exactly, via the kernel's reset representation; the size
        only trades memory against bit-identical column reconstruction.
    backend:
        Kernel backend spec (``"auto"``/``"numpy"``/``"cext"`` or a
        resolved backend; ``None`` = process default, see
        :mod:`repro.core.backends`).  Resolved eagerly so an
        unavailable explicit choice fails at construction, and so any
        compilation happens here rather than on the first push.  A
        runtime property only — events are bit-identical across
        backends and checkpoints never record the choice.

    Example
    -------
    >>> monitor = StreamMonitor()
    >>> monitor.add_stream("sensor-1")
    >>> monitor.add_query("spike", [0, 5, 0], epsilon=2.0)
    >>> events = monitor.push("sensor-1", 0.1)
    """

    def __init__(
        self,
        keep_history: bool = True,
        history_limit: Optional[int] = None,
        on_callback_error: Optional[
            Callable[[MatchEvent, Exception], None]
        ] = None,
        prune: bool = True,
        prune_buffer: int = 1024,
        backend: BackendSpec = None,
    ) -> None:
        # Resolve now: explicit-but-unavailable specs raise here, and
        # compilation/warm-up cost lands at construction, never on a
        # stream tick.  The resolved object (not the spec) is reused by
        # every plan and matcher this monitor builds.
        self._backend = resolve_backend(backend)
        self._queries: Dict[str, _QuerySpec] = {}
        self._matchers: Dict[str, Dict[str, object]] = {}
        self._callbacks: List[Callable[[MatchEvent], None]] = []
        self.on_callback_error = on_callback_error
        if history_limit is not None:
            history_limit = int(history_limit)
            if history_limit < 1:
                raise ValidationError(
                    f"history_limit must be a positive integer, got {history_limit}"
                )
        self.history_limit = history_limit
        self._history: Deque[MatchEvent] = deque(maxlen=history_limit)
        self.keep_history = bool(keep_history)
        # stream -> ExecutionPlan; None = rebuild on next push.
        self._plans: Dict[str, Optional[ExecutionPlan]] = {}
        self._prune = bool(prune)
        prune_buffer = int(prune_buffer)
        if prune_buffer < 1:
            raise ValidationError(
                f"prune_buffer must be a positive integer, got {prune_buffer}"
            )
        self._prune_buffer = prune_buffer
        # stream -> [pruned_ticks, replays, replayed_ticks,
        # groups_certified, group_descents] folded from retired plans
        # (live engines add their own counters on top).
        self._prune_totals: Dict[str, List[int]] = {}
        # Observability gate: the shared no-op recorder until
        # enable_metrics() swaps in a real one.  Hot paths check only
        # `recorder.enabled`, so a monitor that never opted in pays a
        # single attribute load per push.
        self.recorder = NULL_RECORDER

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    @property
    def backend_name(self) -> str:
        """Registry name of the kernel backend in use."""
        return self._backend.name

    @property
    def streams(self) -> List[str]:
        """Registered stream names."""
        return list(self._matchers)

    @property
    def queries(self) -> List[str]:
        """Registered query names."""
        return list(self._queries)

    @property
    def history(self) -> List[MatchEvent]:
        """Retained events (see ``keep_history`` / ``history_limit``)."""
        return list(self._history)

    def query_spec(self, name: str) -> Tuple[str, np.ndarray, float, dict]:
        """Registered template for one query: (kind, query, epsilon, kwargs)."""
        try:
            spec = self._queries[name]
        except KeyError:
            raise ValidationError(f"query {name!r} is not registered") from None
        return (spec.kind, spec.query, spec.epsilon, dict(spec.kwargs))

    def _build_matcher(self, spec: _QuerySpec) -> object:
        """Build one matcher from its template, on this monitor's backend.

        The backend is applied post-construction (when the matcher
        supports one) rather than stored in the JSON-safe template:
        it is a runtime property of *this* monitor, never part of the
        query spec or any checkpoint.  Construction also runs under
        ``use_backend`` so a matcher's own default resolution lands on
        this monitor's backend instead of probing ``auto`` — a
        numpy-pinned monitor must never trigger a JIT/C compile.
        """
        with use_backend(self._backend):
            matcher = spec.build()
        set_backend = getattr(matcher, "set_backend", None)
        if callable(set_backend):
            set_backend(self._backend)
        return matcher

    def add_stream(self, name: str) -> None:
        """Register a stream; existing queries attach to it immediately."""
        if name in self._matchers:
            raise ValidationError(f"stream {name!r} already registered")
        self._matchers[name] = {
            query_name: self._build_matcher(spec)
            for query_name, spec in self._queries.items()
        }
        self._plans[name] = None

    def add_query(
        self,
        name: str,
        query: object,
        epsilon: float,
        vector: bool = False,
        matcher: Optional[str] = None,
        local_distance: Union[str, LocalDistance, None] = None,
        **matcher_kwargs: object,
    ) -> None:
        """Register a query; it attaches to every current and future stream.

        ``matcher`` selects the matcher kind by registry name
        (``"spring"``, ``"vector"``, ``"constrained"``, ``"topk"``,
        ``"normalized"``, ``"cascade"``, ...); it defaults to
        ``"vector"`` when ``vector=True`` and ``"spring"`` otherwise.
        Extra keyword arguments are forwarded to the matcher
        constructor; a ``policies`` argument may hold
        :class:`~repro.core.policy.ReportPolicy` instances or encoded
        specs — either way each stream gets its own fresh instances.
        """
        if name in self._queries:
            raise ValidationError(f"query {name!r} already registered")
        if matcher is None:
            matcher = "vector" if vector else "spring"
        elif vector and matcher != "vector":
            raise ValidationError(
                f"conflicting matcher selection: vector=True but matcher={matcher!r}"
            )
        query_array = np.asarray(query, dtype=np.float64)
        kwargs = dict(matcher_kwargs)
        kwargs["local_distance"] = local_distance
        if "policies" in kwargs:
            kwargs["policies"] = encode_policies(
                decode_policies(kwargs["policies"])  # normalise mixed input
            )
        spec = _QuerySpec(
            name=name,
            query=query_array,
            epsilon=float(epsilon),
            kind=matcher,
            kwargs=kwargs,
        )
        with use_backend(self._backend):
            spec.build()  # validate eagerly so errors surface at registration
        self._queries[name] = spec
        for stream, matchers in self._matchers.items():
            self._sync_stream(stream)
            matchers[name] = self._build_matcher(spec)

    def remove_query(self, name: str) -> None:
        """Detach a query from every stream."""
        if name not in self._queries:
            raise ValidationError(f"query {name!r} is not registered")
        del self._queries[name]
        for stream, matchers in self._matchers.items():
            self._sync_stream(stream)
            matchers.pop(name, None)

    def subscribe(self, callback: Callable[[MatchEvent], None]) -> None:
        """Invoke ``callback`` on every future match event."""
        self._callbacks.append(callback)

    def matcher(self, stream: str, query: str) -> object:
        """Direct access to one underlying matcher (for inspection)."""
        try:
            matchers = self._matchers[stream]
            matcher = matchers[query]
        except KeyError:
            raise ValidationError(
                f"no matcher for stream {stream!r} / query {query!r}"
            ) from None
        self._sync_stream(stream)
        return matcher

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def enable_metrics(
        self, registry: Optional[MetricsRegistry] = None
    ) -> MetricsRegistry:
        """Turn on metrics collection; returns the backing registry.

        Hot paths start recording per-stream tick counters, push
        latency histograms, and per-event match counters; per-matcher
        tick/pending series are published lazily by a snapshot-time
        collector (writing them on every tick would cost O(queries)
        per push and blow the <5% enabled-overhead budget).  Idempotent
        when already enabled with a compatible registry.
        """
        if self.recorder.enabled:
            if registry is not None and registry is not self.recorder.registry:
                raise ValidationError(
                    "metrics already enabled with a different registry"
                )
            return self.recorder.registry
        self.recorder = MetricsRecorder(registry)
        self.recorder.registry.add_collector(self._collect_matcher_series)
        # Static info gauge: which kernel backend this monitor runs on
        # (set once here — the backend never changes mid-monitor).
        self.recorder.registry.gauge(
            "spring_backend_info",
            "Kernel backend in use; value is 1, identity in the labels",
            ("backend", "compiled"),
        ).labels(
            backend=self._backend.name,
            compiled="1" if self._backend.compiled else "0",
        ).set(1.0)
        return self.recorder.registry

    def metrics(self) -> Optional[Dict[str, dict]]:
        """JSON-safe snapshot of every metric, or None when disabled."""
        if not self.recorder.enabled:
            return None
        return self.recorder.registry.snapshot()

    def prune_stats(self, stream: str) -> Dict[str, int]:
        """Lifetime pruning counters for one stream.

        ``pruned_ticks`` counts query-ticks whose column update the
        admission cascade skipped or deferred; ``replays`` counts
        catch-up replays of parked spans; ``replayed_ticks`` counts the
        query-ticks those replays re-applied (so the net updates saved
        are ``pruned_ticks - replayed_ticks``).  ``groups_certified``
        and ``group_descents`` count the tiered admission tier-1
        outcomes — merged-envelope groups certified cold in one test vs
        groups that fell back to exact per-member bounds (both zero
        under flat admission).  All zeros when pruning is disabled or
        no bank qualifies.
        """
        if stream not in self._matchers:
            raise ValidationError(f"stream {stream!r} is not registered")
        totals = self._stream_totals(stream)
        plan = self._plans.get(stream)
        if plan is not None:
            for bank in plan.banks:
                for i, value in enumerate(bank.prune_counters()):
                    totals[i] += value
        return {
            "pruned_ticks": totals[0],
            "replays": totals[1],
            "replayed_ticks": totals[2],
            "groups_certified": totals[3],
            "group_descents": totals[4],
        }

    def _stream_totals(self, stream: str) -> List[int]:
        """Folded counter totals for ``stream``, padded to five entries
        (checkpoints from before the group counters carry three)."""
        totals = list(self._prune_totals.get(stream, ()))
        totals += [0] * (5 - len(totals))
        return totals

    def _collect_matcher_series(self, registry: MetricsRegistry) -> None:
        """Snapshot-time collector: per-matcher tick / pending series.

        Reads each matcher's own counters (after refreshing bank state
        back) instead of maintaining parallel ones on the hot path.
        The refresh deliberately keeps live plans — and therefore any
        cold-parked pruning state — intact: a metrics snapshot must
        never force parked queries to catch up.  Parked matchers report
        their *stream* tick (values consumed), not the frozen applied
        tick, so the series is identical with pruning on or off.
        """
        ticks = registry.counter(
            "spring_matcher_ticks_total",
            "Ticks consumed by each (stream, query) matcher",
            ("stream", "query"),
        )
        pending = registry.gauge(
            "spring_matcher_pending",
            "1 when the matcher holds an unreported optimum "
            "(the Figure-4 holding condition), else 0",
            ("stream", "query"),
        )
        pruned = registry.counter(
            "spring_pruned_ticks_total",
            "Query-ticks whose column update the admission cascade "
            "skipped or deferred",
            ("stream",),
        )
        replays = registry.counter(
            "spring_replays_total",
            "Catch-up replays of parked spans (one per waking group)",
            ("stream",),
        )
        certified = registry.counter(
            "spring_groups_certified_total",
            "Envelope groups certified cold by one merged-corridor test",
            ("stream",),
        )
        descents = registry.counter(
            "spring_group_descents_total",
            "Envelope groups that descended to exact per-member bounds",
            ("stream",),
        )
        for stream, matchers in self._matchers.items():
            self._refresh_stream(stream)
            stream_ticks: Dict[str, int] = {}
            plan = self._plans.get(stream)
            if plan is not None:
                for bank in plan.banks:
                    for name, tick in zip(
                        bank.names, bank.engine.stream_ticks
                    ):
                        stream_ticks[name] = int(tick)
            for query_name, matcher in matchers.items():
                tick_value = stream_ticks.get(query_name, matcher.tick)
                ticks.labels(stream=stream, query=query_name).set_to(
                    float(tick_value)
                )
                holder = getattr(matcher, "has_pending", None)
                if holder is None:
                    holder = getattr(
                        getattr(matcher, "inner", None), "has_pending", None
                    )
                pending.labels(stream=stream, query=query_name).set(
                    1.0 if holder else 0.0
                )
            stats = self.prune_stats(stream)
            pruned.labels(stream=stream).set_to(float(stats["pruned_ticks"]))
            replays.labels(stream=stream).set_to(float(stats["replays"]))
            certified.labels(stream=stream).set_to(
                float(stats["groups_certified"])
            )
            descents.labels(stream=stream).set_to(
                float(stats["group_descents"])
            )

    # ------------------------------------------------------------------
    # Execution plans (fused banking, capability-driven)
    # ------------------------------------------------------------------

    def _ensure_plan(self, stream: str) -> ExecutionPlan:
        plan = self._plans.get(stream)
        if plan is None:
            plan = build_plan(
                self._matchers[stream],
                prune_buffer=self._prune_buffer if self._prune else None,
                backend=self._backend,
            )
            self._plans[stream] = plan
        return plan

    def _sync_stream(self, stream: str) -> None:
        """Write bank state back into per-query matchers and drop the plan.

        Parked queries catch up first (an exact sync), and the retiring
        engines' pruning counters fold into the per-stream totals.
        After this, the individual matcher objects are the single
        source of truth again; the next push rebuilds the plan from
        them (so even direct ``matcher(...).step(...)`` stays coherent).
        """
        plan = self._plans.get(stream)
        if plan is not None:
            for bank in plan.banks:
                bank.sync()
                self._fold_counters(stream, bank)
        self._plans[stream] = None

    def _fold_counters(self, stream: str, bank: FusedBank) -> None:
        """Add a retiring bank's pruning counters to the stream totals."""
        totals = self._prune_totals.setdefault(stream, [0, 0, 0, 0, 0])
        totals += [0] * (5 - len(totals))
        for i, value in enumerate(bank.prune_counters()):
            totals[i] += value

    def _refresh_stream(self, stream: str) -> None:
        """Write bank state back WITHOUT catching up or dropping the plan.

        Parked rows land at their applied tick (a valid historical
        state); the live plan — and its parked spans — stays intact.
        Used where state is read non-destructively (metrics snapshots,
        checkpoints).
        """
        plan = self._plans.get(stream)
        if plan is not None:
            for bank in plan.banks:
                bank.write_back()

    def _sync_all(self) -> None:
        """Sync every stream's banks (exact; drops live plans)."""
        for stream in self._matchers:
            self._sync_stream(stream)

    def _checkpoint_sync(self) -> Dict[str, dict]:
        """Externalise state for checkpointing WITHOUT disturbing pruning.

        Banks write their applied per-query state back into the
        matchers but keep running — dropping the plan here would force
        parked queries to catch up on every snapshot, erasing the very
        savings pruning buys on long cold spans.  Returns the
        per-stream pruning payload (bank query names + replay-buffer /
        parked-offset snapshots, plus the monitor's folded counter
        totals so restored counters stay monotone) that
        :mod:`repro.core.checkpoint` stores alongside the matcher
        states.
        """
        payload: Dict[str, dict] = {}
        for stream in self._matchers:
            self._refresh_stream(stream)
            plan = self._plans.get(stream)
            entries = []
            if plan is not None:
                for bank in plan.banks:
                    state = bank.engine.prune_state_dict()
                    if state is not None:
                        entries.append(
                            {"queries": list(bank.names), "prune": state}
                        )
            totals = self._stream_totals(stream)
            if entries or any(totals):
                payload[stream] = {
                    "banks": entries,
                    "totals": [int(t) for t in totals],
                }
        return payload

    def _restore_prune(self, stream: str, payload: dict) -> None:
        """Re-adopt cold-parked pruning state from a checkpoint payload.

        Builds the stream's plan eagerly, matches banks to payload
        entries by their query-name lists, and re-parks.  When this
        monitor was configured with pruning disabled, the state is
        restored through a temporary pruning plan and immediately
        caught up.  A payload bank whose queries all run unbanked here
        (a lone query saved on a compiled kernel, restored on numpy)
        is restored the same way through a temporary engine of its
        own, caught up into its matchers.  Either way, subsequent
        events are byte-identical to the uninterrupted run.
        """
        if not payload:
            return
        from repro.exceptions import CheckpointError

        totals = payload.get("totals")
        if totals and any(totals):
            self._prune_totals[stream] = [int(t) for t in totals]
        entries = payload.get("banks", [])
        if not entries:
            return
        by_names = {
            tuple(entry["queries"]): entry.get("prune") for entry in entries
        }
        buffer: Optional[int] = self._prune_buffer
        if not self._prune:
            capacities = [
                int(state["buffer"]["capacity"])
                for state in by_names.values()
                if state is not None
            ]
            if not capacities:
                return
            buffer = max(capacities)
        plan = build_plan(
            self._matchers[stream],
            prune_buffer=buffer,
            backend=self._backend,
        )
        matched = set()
        for bank in plan.banks:
            state = by_names.get(tuple(bank.names))
            if state is not None:
                bank.engine.restore_prune_state(state)
                matched.add(tuple(bank.names))
        matchers = self._matchers[stream]
        for names, state in by_names.items():
            if names in matched or state is None:
                continue
            if all(name in plan.unbanked for name in names):
                group = [matchers[name] for name in names]
                bank = FusedBank(
                    engine=FusedSpring.from_springs(
                        group, prune_buffer=buffer, backend=self._backend
                    ),
                    names=list(names),
                    matchers=group,
                )
                bank.engine.restore_prune_state(state)
                bank.sync()
                self._fold_counters(stream, bank)
                continue
            if not state.get("parked"):
                continue
            raise CheckpointError(
                f"checkpoint holds parked pruning state for bank {names!r} "
                f"on stream {stream!r}, but the restored monitor groups "
                "its matchers differently"
            )
        self._plans[stream] = plan
        if not self._prune:
            self._sync_stream(stream)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------

    def push(self, stream: str, value: object) -> List[MatchEvent]:
        """Feed one value into one stream; return events it confirmed."""
        recorder = self.recorder
        if not recorder.enabled:
            return tracing.call(
                "monitor.push", self._push, stream, value, NULL_RECORDER
            )
        started = perf_counter()
        events = tracing.call("monitor.push", self._push, stream, value, recorder)
        recorder.record_push(stream, 1, perf_counter() - started)
        if events:
            recorder.record_events(events)
        return events

    def _push(
        self, stream: str, value: object, recorder
    ) -> List[MatchEvent]:
        try:
            matchers = self._matchers[stream]
        except KeyError:
            raise ValidationError(f"stream {stream!r} is not registered") from None
        plan = self._ensure_plan(stream)
        enabled = recorder.enabled
        per_query: Dict[str, Match] = {}
        for bank in plan.banks:
            bank_started = perf_counter() if enabled else 0.0
            pairs = bank.step(value)
            if enabled:
                recorder.record_bank_step(
                    stream, len(bank.names), perf_counter() - bank_started
                )
            for qi, match in pairs:
                # Banked matchers emit raw Figure-4 matches; their
                # transform-only policies run here.
                final = bank.matchers[qi].apply_report_policies(match)
                if final is not None:
                    per_query[bank.names[qi]] = final
        for query_name in plan.unbanked:
            matcher = matchers[query_name]
            if enabled:
                step_started = perf_counter()
                match = matcher.step(value)
                recorder.record_matcher_step(
                    stream, query_name, perf_counter() - step_started
                )
            else:
                match = matcher.step(value)
            if match is not None:
                per_query[query_name] = match
        if not per_query:
            return []
        events = [
            MatchEvent(stream=stream, query=name, match=per_query[name])
            for name in matchers
            if name in per_query
        ]
        self._dispatch(events)
        return events

    def push_many(self, stream: str, values: Iterable[object]) -> List[MatchEvent]:
        """Feed a batch of values into one stream.

        The whole batch runs through each matcher's blocked
        ``extend``/bank fast path (one local-cost broadcast per block
        instead of per-value dispatch), and events are dispatched once
        per batch.  Event order matches value-by-value :meth:`push`:
        ascending tick, then query-registration order.
        """
        recorder = self.recorder
        if not recorder.enabled:
            return tracing.call(
                "monitor.push_many", self._push_many, stream, values,
                NULL_RECORDER,
            )
        started = perf_counter()
        if not isinstance(values, (np.ndarray, list, tuple)):
            values = list(values)
        events = tracing.call(
            "monitor.push_many", self._push_many, stream, values, recorder
        )
        recorder.record_push(stream, len(values), perf_counter() - started)
        if events:
            recorder.record_events(events)
        return events

    def _push_many(
        self, stream: str, values: Iterable[object], recorder
    ) -> List[MatchEvent]:
        try:
            matchers = self._matchers[stream]
        except KeyError:
            raise ValidationError(f"stream {stream!r} is not registered") from None
        if not isinstance(values, (np.ndarray, list, tuple)):
            values = list(values)  # one materialisation feeds every matcher
        plan = self._ensure_plan(stream)
        enabled = recorder.enabled
        order = {name: i for i, name in enumerate(matchers)}
        collected: List[Tuple[int, int, MatchEvent]] = []

        # Pre-scan for the first fatal value so every matcher sees the
        # same clean prefix: without this, a bad tick mid-batch would
        # stop at whichever matcher hit it first, leaving the rest
        # unfed and the prefix's events undispatched — diverging from
        # the value-by-value path.  The fatal tick itself is then
        # replayed through the per-value path below, which dispatches
        # the prefix's events before raising the uniform error.
        stop = len(values)
        if matchers:
            stop = self._first_fatal_index(values, matchers.values())
        clean = values[:stop] if stop < len(values) else values

        def collect(name: str, start_tick: int, matches: Iterable[Match]) -> None:
            for match in matches:
                # Matchers adopted at different times disagree on tick
                # numbering; the batch offset is the shared clock.
                offset = (match.output_time or 0) - start_tick
                collected.append(
                    (offset, order[name], MatchEvent(stream, name, match))
                )

        for bank in plan.banks:
            start_ticks = bank.engine.stream_ticks
            bank_started = perf_counter() if enabled else 0.0
            pairs = bank.extend(clean)
            if enabled:
                recorder.record_bank_step(
                    stream, len(bank.names), perf_counter() - bank_started
                )
            for qi, match in pairs:
                final = bank.matchers[qi].apply_report_policies(match)
                if final is None:
                    continue
                name = bank.names[qi]
                offset = (final.output_time or 0) - int(start_ticks[qi])
                collected.append(
                    (offset, order[name], MatchEvent(stream, name, final))
                )
        for query_name in plan.unbanked:
            matcher = matchers[query_name]
            collect(query_name, matcher.tick, matcher.extend(clean))

        collected.sort(key=lambda item: (item[0], item[1]))
        events = [event for _, _, event in collected]
        self._dispatch(events)
        if stop < len(values):
            bad = values[stop]
            try:
                for bank in plan.banks:
                    bank.step(bad)
                for query_name, matcher in matchers.items():
                    if query_name not in plan.banked:
                        matcher.step(bad)
            except StreamValueError as err:
                err.partial_matches = events
                raise
        return events

    def first_fatal_index(self, stream: str, values) -> int:
        """Index of the first value :meth:`push_many` would raise on.

        Returns ``len(values)`` when the whole batch is clean.  The
        strictest missing-value policy across the stream's attached
        matchers decides, exactly as the batched push paths do — so a
        caller that applies ``values[:index]`` gets the full clean
        prefix without triggering :class:`StreamValueError`.  The
        network service layer uses this to ack the applied prefix and
        answer the fatal tick with a structured error instead of an
        exception.
        """
        try:
            matchers = self._matchers[stream]
        except KeyError:
            raise ValidationError(
                f"stream {stream!r} is not registered"
            ) from None
        if not isinstance(values, (np.ndarray, list, tuple)):
            values = list(values)
        if not matchers:
            return len(values)
        return self._first_fatal_index(values, matchers.values())

    @staticmethod
    def _first_fatal_index(values, matchers) -> int:
        """First batch index that must raise for some attached matcher.

        The strictest policy across matchers decides: an inf value is
        fatal for everyone, a NaN only when any matcher runs
        ``missing="error"``.  Values that cannot be viewed as a float
        block are left to the per-matcher paths' own validation.
        """
        try:
            arr = np.asarray(values, dtype=np.float64)
        except (TypeError, ValueError):
            return len(values)
        if arr.ndim not in (1, 2) or arr.size == 0:
            return len(values)
        nan_rows, inf_rows = classify_rows(arr)
        strictest = (
            "error"
            if any(
                getattr(matcher, "missing", "skip") == "error"
                for matcher in matchers
            )
            else "skip"
        )
        return first_fatal(nan_rows, inf_rows, strictest)

    def push_tick(self, values: Mapping[str, object]) -> List[MatchEvent]:
        """Feed one synchronous tick across several streams."""
        events: List[MatchEvent] = []
        for stream, value in values.items():
            events.extend(self.push(stream, value))
        return events

    def flush(self) -> List[MatchEvent]:
        """Flush every matcher (end-of-stream); return pending events."""
        events = []
        for stream, matchers in self._matchers.items():
            self._sync_stream(stream)
            for query_name, matcher in matchers.items():
                match = matcher.flush()
                if match is not None:
                    events.append(
                        MatchEvent(stream=stream, query=query_name, match=match)
                    )
        self._dispatch(events)
        if self.recorder.enabled and events:
            self.recorder.record_events(events)
        return events

    def _dispatch(self, events: Sequence[MatchEvent]) -> None:
        if self.keep_history:
            self._history.extend(events)
        for event in events:
            for callback in self._callbacks:
                if self.on_callback_error is None:
                    callback(event)
                    continue
                try:
                    callback(event)
                except Exception as exc:  # noqa: BLE001 - isolation boundary
                    self.on_callback_error(event, exc)
