"""Tracer semantics: nesting, self time, bounded buffer, threads, gate."""

from __future__ import annotations

import sys
import threading
import time

from repro.obs import tracing
from repro.obs.tracing import Tracer, disable_tracing, enable_tracing


class TestTracer:
    def test_spans_record_nesting(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        events = tracer.events()
        assert [event["name"] for event in events] == ["outer", "inner"]
        assert events[0]["parent"] == -1
        assert events[1]["parent"] == 0

    def test_totals_self_time_excludes_children(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                time.sleep(0.01)
        totals = tracer.totals()
        assert totals["outer"]["total"] >= totals["inner"]["total"]
        assert totals["outer"]["self"] == (
            totals["outer"]["total"] - totals["inner"]["total"]
        )
        assert totals["inner"]["self"] == totals["inner"]["total"]

    def test_sibling_spans_share_parent(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        events = tracer.events()
        assert events[1]["parent"] == 0
        assert events[2]["parent"] == 0

    def test_limit_drops_and_counts(self):
        tracer = Tracer(limit=2)
        for _ in range(5):
            with tracer.span("s"):
                pass
        assert len(tracer) == 2
        assert tracer.dropped == 3
        # Dropped spans must not corrupt the nesting stack.
        with tracer.span("late"):
            pass
        assert tracer.dropped == 4

    def test_clear_resets(self):
        tracer = Tracer(limit=1)
        with tracer.span("s"):
            pass
        with tracer.span("s"):
            pass
        tracer.clear()
        assert len(tracer) == 0 and tracer.dropped == 0
        with tracer.span("t"):
            pass
        assert tracer.events()[0]["parent"] == -1


class TestThreads:
    def test_each_thread_keeps_its_own_span_stack(self):
        """Interleaved spans from two threads never parent each other.

        Thread A opens ``a.outer``; thread B opens ``b.outer`` inside
        it, and ``b.inner`` only after A has closed its span.
        """
        tracer = Tracer()
        a_open, b_open, a_closed = (threading.Event() for _ in range(3))
        waited = []

        def thread_a():
            with tracer.span("a.outer"):
                a_open.set()
                waited.append(b_open.wait(10))
            a_closed.set()

        def thread_b():
            waited.append(a_open.wait(10))
            with tracer.span("b.outer"):
                b_open.set()
                waited.append(a_closed.wait(10))
                with tracer.span("b.inner"):
                    pass

        threads = [threading.Thread(target=thread_a),
                   threading.Thread(target=thread_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        assert not any(thread.is_alive() for thread in threads)
        assert waited == [True, True, True]
        with tracer.span("later"):
            pass

        events = tracer.events()
        index = {event["name"]: i for i, event in enumerate(events)}
        parents = {event["name"]: event["parent"] for event in events}
        assert parents == {
            "a.outer": -1,
            "b.outer": -1,
            "b.inner": index["b.outer"],
            "later": -1,
        }
        totals = tracer.totals()
        assert totals["a.outer"]["self"] == totals["a.outer"]["total"]
        assert totals["b.outer"]["self"] == (
            totals["b.outer"]["total"] - totals["b.inner"]["total"]
        )


    def test_concurrent_spans_lose_no_update(self):
        """More threads than cores and a tiny switch interval: every
        span is recorded or counted as dropped, and a recorded inner
        span's parent is its own thread's outer span."""
        n_threads, pairs = 4, 500
        total = 2 * n_threads * pairs
        tracer = Tracer(limit=total // 2)
        start = threading.Barrier(n_threads)

        def work(i):
            start.wait(10)
            for _ in range(pairs):
                with tracer.span(f"t{i}.outer"):
                    with tracer.span(f"t{i}.inner"):
                        pass

        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)

        assert len(tracer) + tracer.dropped == total
        events = tracer.events()
        for event in events:
            owner, kind = event["name"].split(".")
            parent = event["parent"]
            if kind == "outer" or parent < 0:
                assert parent == -1
            else:
                assert events[parent]["name"] == f"{owner}.outer"


class TestCall:
    def test_disabled_call_is_a_plain_call(self):
        assert tracing.call("x", divmod, 7, 2) == (3, 1)

    def test_enabled_call_records_one_span(self):
        tracer = enable_tracing()
        try:
            assert tracing.call("x", divmod, 7, 2) == (3, 1)
        finally:
            disable_tracing()
        assert [event["name"] for event in tracer.events()] == ["x"]


class TestGlobalGate:
    def test_disabled_by_default(self):
        assert tracing.ACTIVE is None
        assert tracing.current_tracer() is None

    def test_enable_disable_round_trip(self):
        tracer = enable_tracing(limit=10)
        assert tracing.ACTIVE is tracer
        assert tracing.current_tracer() is tracer
        with tracer.span("x"):
            pass
        returned = disable_tracing()
        assert returned is tracer
        assert tracing.ACTIVE is None
        assert len(returned) == 1

    def test_disable_when_inactive_returns_none(self):
        assert disable_tracing() is None
