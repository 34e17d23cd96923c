"""Lightweight tracing spans for hot-path stage attribution.

The profiling question this answers: of one tick's budget, how much
goes to the DTW kernel, the report policies, the stream transforms,
and the bank dispatch glue?  ``cProfile`` answers it too, but at 2-5x
slowdown and per-function (not per-architectural-stage) granularity.

Design: a module-level :data:`ACTIVE` tracer that is ``None`` unless
:func:`enable_tracing` was called.  Library code opens every span
through one helper, :func:`call` — ``tracing.call("kernel.step_bank",
fn, *args)`` runs ``fn(*args)`` inside the named span, or calls it
directly while tracing is off.  Disabled, that costs one extra Python
call per call site: 125-235 ns on a 2-vCPU Intel Xeon host, against
55-110 ns for an inline ``ACTIVE is None`` check and 260-530 ns for a
``with`` block over a null context (the ranges span the host's fast
and slow phases) — noise against a column update, and one helper
instead of an if/else copy of every traced call.  Spans record
wall-clock start/duration plus the index of the enclosing span, so
:meth:`Tracer.totals` can compute *self* time per span name (total
minus time spent in child spans) — the quantity the per-stage
breakdown in ``scripts/profile_hotpath.py`` reports.

The span buffer is bounded (:attr:`Tracer.limit`); once full, further
spans are counted in :attr:`Tracer.dropped` instead of recorded, so a
forgotten ``enable_tracing()`` cannot eat unbounded memory.

One tracer serves every thread: each thread keeps its own stack of
open spans (so ``repro serve``'s asyncio thread and its engine thread
never parent spans to each other), and span indexes are taken under a
lock.  Both costs are paid only while tracing is on.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional, TypeVar

__all__ = [
    "Tracer",
    "ACTIVE",
    "call",
    "enable_tracing",
    "disable_tracing",
    "current_tracer",
]

_T = TypeVar("_T")

# Record layout: [name, start, duration, parent_index]; lists (not
# dataclasses) keep the per-span allocation cost to one object.
_NAME, _START, _DURATION, _PARENT = range(4)


class _SpanContext:
    """Context manager recording one span into its tracer's buffer."""

    __slots__ = ("_tracer", "_name", "_record", "_stack", "_restore")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name
        self._record: Optional[list] = None

    def __enter__(self) -> "_SpanContext":
        tracer = self._tracer
        # The calling thread's open-span stack; clear() swaps in a
        # fresh one, so spans open across a clear() restore into the
        # stack they came from.
        stack = self._stack = tracer._stack
        parent = self._restore = getattr(stack, "current", -1)
        with tracer._lock:
            spans = tracer._spans
            if len(spans) < tracer.limit:
                record = [self._name, 0.0, 0.0, parent]
                spans.append(record)
                stack.current = len(spans) - 1
                self._record = record
            else:
                tracer.dropped += 1
        if self._record is not None:
            self._record[_START] = perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        record = self._record
        if record is not None:
            record[_DURATION] = perf_counter() - record[_START]
        self._stack.current = self._restore


class Tracer:
    """Bounded buffer of nested wall-clock spans from any thread.

    Parameters
    ----------
    limit:
        Maximum spans retained; excess spans increment :attr:`dropped`.
    """

    def __init__(self, limit: int = 1_000_000) -> None:
        self.limit = int(limit)
        self.dropped = 0
        self._spans: List[list] = []
        self._lock = threading.Lock()
        # Per thread: `current`, the index of its open enclosing span.
        self._stack = threading.local()

    def span(self, name: str) -> _SpanContext:
        """A context manager timing one named span."""
        return _SpanContext(self, name)

    def __len__(self) -> int:
        return len(self._spans)

    def clear(self) -> None:
        """Drop every recorded span (open spans keep recording)."""
        with self._lock:
            self._spans = []
            self.dropped = 0
            self._stack = threading.local()

    def events(self) -> List[dict]:
        """Recorded spans as dicts: name, start, duration, parent index."""
        return [
            {
                "name": record[_NAME],
                "start": record[_START],
                "duration": record[_DURATION],
                "parent": record[_PARENT],
            }
            for record in self._spans
        ]

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per-span-name aggregate: count, total seconds, *self* seconds.

        Self time is a span's duration minus the durations of its
        direct children — the stage-attribution quantity: the kernel
        span's total already excludes policy work because the policy
        runs in a sibling span, and ``monitor.push``'s self time is
        exactly the dispatch glue around the matcher spans.
        """
        spans = self._spans
        child_time = [0.0] * len(spans)
        for record in spans:
            parent = record[_PARENT]
            if parent >= 0:
                child_time[parent] += record[_DURATION]
        totals: Dict[str, Dict[str, float]] = {}
        for index, record in enumerate(spans):
            entry = totals.setdefault(
                record[_NAME], {"count": 0, "total": 0.0, "self": 0.0}
            )
            entry["count"] += 1
            entry["total"] += record[_DURATION]
            entry["self"] += record[_DURATION] - child_time[index]
        return totals


#: The process-wide tracer, or ``None`` when tracing is disabled.  Only
#: :func:`call` reads it on the hot path; library code never does.
ACTIVE: Optional[Tracer] = None


def call(name: str, fn: Callable[..., _T], *args: object) -> _T:
    """``fn(*args)``, timed as span ``name`` while tracing is enabled."""
    tracer = ACTIVE
    if tracer is None:
        return fn(*args)
    with tracer.span(name):
        return fn(*args)


def enable_tracing(limit: int = 1_000_000) -> Tracer:
    """Install (and return) a fresh process-wide :class:`Tracer`."""
    global ACTIVE
    ACTIVE = Tracer(limit=limit)
    return ACTIVE


def disable_tracing() -> Optional[Tracer]:
    """Uninstall the process-wide tracer; returns it for inspection."""
    global ACTIVE
    tracer, ACTIVE = ACTIVE, None
    return tracer


def current_tracer() -> Optional[Tracer]:
    """The installed tracer, or ``None``."""
    return ACTIVE
