"""Server conformance: lifecycle, fan-out, backpressure, exposition.

What the line protocol promises beyond not-crashing (see
``docs/algorithm.md`` §15):

* producers get one in-order ``ack`` per push, carrying the stream
  watermark and remaining credit;
* a producer overrunning its credit window is disconnected with
  ``credit_exceeded``, and the ``service_inflight_peak_ticks`` gauge —
  asserted through the metrics registry, not the server's privates —
  never exceeds the window;
* subscribers receive events in emission order, filtered per
  subscription, and a subscriber that stops reading is evicted without
  delaying its peers;
* the query lifecycle (register/remove/swap) works live, between
  pushes, on a control connection;
* ``GET /metrics`` serves parseable Prometheus text exposition over
  the same port.
"""

from __future__ import annotations

import socket
import sys
import threading
import time

import numpy as np
import pytest

from repro.exceptions import ServiceError
from repro.obs.prometheus import parse as parse_prometheus
from repro.service.client import (
    ControlClient,
    ProducerClient,
    ServiceConnection,
    SubscriberClient,
)
from repro.service import protocol
from repro.service.engine import EngineConfig

SPIKE = [0.0, 5.0, 0.0]
#: One spike embedded in calm samples: exactly one match per repetition.
PULSE = [1.0, 1.0, 0.1, 5.0, 0.1, 1.0, 1.0, 1.0]


def _http_get(port: int, path: str) -> tuple:
    raw = socket.create_connection(("127.0.0.1", port), timeout=30)
    raw.sendall(f"GET {path} HTTP/1.0\r\nHost: x\r\n\r\n".encode())
    data = b""
    while True:
        chunk = raw.recv(65536)
        if not chunk:
            break
        data += chunk
    raw.close()
    head, _, body = data.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, head, body


# ----------------------------------------------------------------------
# Producer lifecycle
# ----------------------------------------------------------------------


def test_acks_are_in_order_and_watermark_monotone(server):
    producer = ProducerClient("127.0.0.1", server.port, stream="s1")
    seqs = [producer.send_push([1.0] * (i + 1)) for i in range(5)]
    total = 0
    for expected_seq, n in zip(seqs, range(1, 6)):
        ack = producer.recv_ack()
        total += n
        assert ack["seq"] == expected_seq
        assert ack["watermark"] == total
    producer.close()


def test_reconnect_resumes_at_watermark(server):
    producer = ProducerClient("127.0.0.1", server.port, stream="s1")
    producer.push([1.0, 2.0, 3.0])
    producer.close()
    again = ProducerClient("127.0.0.1", server.port, stream="s1")
    assert again.watermark == 3
    again.close()


def test_replay_prefix_is_trimmed_idempotently(server):
    """Re-pushing acked ticks with ``first`` applies nothing twice."""
    producer = ProducerClient("127.0.0.1", server.port, stream="s1")
    producer.push([1.0, 2.0, 3.0, 4.0])
    # Replay ticks 2..6: 2,3,4 are already applied, 5,6 are new.
    ack = producer.push([2.0, 3.0, 4.0, 9.0, 9.0], first=2)
    assert ack["trimmed"] == 3
    assert ack["applied"] == 2
    assert ack["watermark"] == 6
    # Full duplicate: nothing applied.
    ack = producer.push([9.0, 9.0], first=5)
    assert ack["trimmed"] == 2 and ack["applied"] == 0
    assert ack["watermark"] == 6
    producer.close()


def test_gap_in_replay_is_rejected(server):
    producer = ProducerClient("127.0.0.1", server.port, stream="s1")
    producer.push([1.0, 2.0])
    producer.send_push([9.0], first=9)  # ticks 3..8 missing
    frame = producer.recv()
    assert frame["type"] == "error" and frame["code"] == "gap"
    assert frame["watermark"] == 2
    # Recoverable: the correct continuation works on the same socket.
    ack = producer.push([3.0], first=3)
    assert ack["applied"] == 1 and ack["watermark"] == 3
    producer.close()


def test_streams_auto_register_in_process(server):
    producer = ProducerClient("127.0.0.1", server.port, stream="fresh")
    assert producer.watermark == 0
    ack = producer.push(PULSE)
    assert ack["applied"] == len(PULSE)
    producer.close()


# ----------------------------------------------------------------------
# Runs: queued pushes of one stream applied together
# ----------------------------------------------------------------------

#: A dip embedded in calm samples; it also reads as a spike.
DIP = [1.0, 5.0, 0.2, 5.0, 1.0, 1.0, 1.0]

#: ``(connection, values, first)`` in queue order; ``control`` registers
#: the dip query.  Ticks are those of stream s1 (s2 has its own).
RUN_SCRIPT = [
    ("p1", PULSE, None),  # 1-8, held inside push_many
    ("p1", PULSE, None),  # 9-16
    ("p1", PULSE[:4], None),  # 17-20
    ("p1", PULSE, 17),  # replay: 17-20 trimmed, 21-24 applied
    ("p1", [1.0, 0.1, 5.0, float("inf"), 0.1, 1.0], None),  # 25-27, 28 bad
    ("p1", [0.1, 1.0, 1.0, 1.0], None),  # 28-31, after the bad frame
    ("p1", [1.0, 1.0], 40),  # gap: the watermark is 31
    ("p1", PULSE, None),  # 32-39
    ("p2", PULSE, None),  # another stream: a barrier
    ("p1", DIP, None),  # 40-46, before the dip query exists
    ("control", None, None),  # register_query: a barrier
    ("p1", DIP + [1.0], None),  # 47-54
    ("p1", PULSE, None),  # 55-62
]

#: The ``push_many(stream, len(values))`` calls the script's runs make:
#: the held push; four pushes cut after the bad value's clean prefix;
#: the rest of that run; s2; the push before the registration; the
#: last two pushes.
RUN_CALLS = [
    ("s1", 8), ("s1", 19), ("s1", 12), ("s2", 8), ("s1", 7), ("s1", 16),
]


def _script_connections(port: int):
    sub = ServiceConnection("127.0.0.1", port)
    sub.send({"type": "hello", "role": "subscriber"})
    sub.recv_type("hello_ack")
    conns = {
        "p1": ProducerClient("127.0.0.1", port, stream="s1"),
        "p2": ProducerClient("127.0.0.1", port, stream="s2"),
        "control": ControlClient("127.0.0.1", port),
    }
    return sub, conns


def _script_send(conns: dict, step: tuple) -> None:
    name, values, first = step
    if name == "control":
        conns[name].send(
            {
                "type": "register_query",
                "name": "dip",
                "query": [5.0, 0.0, 5.0],
                "epsilon": 2.0,
            }
        )
    else:
        conns[name].send_push(values, first=first)


def _script_events(handle, sub: ServiceConnection) -> list:
    expected = sum(handle.engine.sequence(s) for s in ("s1", "s2"))
    lines = [sub.file.readline() for _ in range(expected)]
    assert all(lines), "server closed before delivering every event"
    return lines


def _script_close(sub, conns) -> None:
    for conn in [sub, *conns.values()]:
        conn.close()


def test_queued_pushes_apply_as_runs_exactly_like_one_at_a_time(
    service_server, monkeypatch
):
    """Pushes queued behind a busy engine are applied as runs, yet
    every ack and event equals a closed-loop, one-at-a-time run."""
    window = protocol.DEFAULT_CREDIT_WINDOW
    # Closed loop on a fresh server: each frame waits for its reply.
    reference = service_server()
    sub, conns = _script_connections(reference.port)
    closed = []
    for step in RUN_SCRIPT:
        _script_send(conns, step)
        closed.append(conns[step[0]].recv())
    closed_events = _script_events(reference, sub)
    _script_close(sub, conns)
    assert [f["type"] for f in closed].count("ack") == len(RUN_SCRIPT) - 2
    assert any("error" in f for f in closed)
    assert any(b'"query":"dip"' in line for line in closed_events)
    # Every p1 frame is in flight when the first ack is written, so
    # each ack carries the window minus the p1 ticks still unacked.
    remaining = sum(len(v) for name, v, _ in RUN_SCRIPT if name == "p1")
    for (name, values, _), frame in zip(RUN_SCRIPT, closed):
        if name == "p1":
            remaining -= len(values)
        if frame["type"] == "ack":
            frame["credit"] = window - (remaining if name == "p1" else 0)

    handle = service_server()
    sub, conns = _script_connections(handle.port)
    calls = []
    entered, release = threading.Event(), threading.Event()
    loop_held, loop_release = threading.Event(), threading.Event()
    monitor = handle.engine._monitor
    push_many = monitor.push_many

    def held_push_many(stream, values):
        calls.append((stream, len(values)))
        if len(calls) == 1:
            entered.set()
            release.wait(timeout=60)
        return push_many(stream, values)

    def hold_loop() -> None:
        loop_held.set()
        loop_release.wait(timeout=60)

    def wait_for_depth(depth: int) -> None:
        deadline = time.monotonic() + 30
        while handle.metrics.queue_depth.value != depth:
            assert time.monotonic() < deadline, "frames never queued"
            time.sleep(0.001)

    monkeypatch.setattr(monitor, "push_many", held_push_many)
    try:
        _script_send(conns, RUN_SCRIPT[0])
        assert entered.wait(timeout=30)
        for depth, step in enumerate(RUN_SCRIPT[1:], start=1):
            _script_send(conns, step)
            wait_for_depth(depth)
        # Hold the event loop while the engine drains the queue, so the
        # ack writer finds every push settled and batches its acks.
        handle.loop.call_soon_threadsafe(hold_loop)
        assert loop_held.wait(timeout=30)
        release.set()
        handle.engine.submit_stats().result(timeout=60)
    finally:
        release.set()
        loop_release.set()
    pipelined = [conns[step[0]].recv() for step in RUN_SCRIPT]
    events = _script_events(handle, sub)
    _script_close(sub, conns)

    assert pipelined == closed
    assert events == closed_events
    assert calls == RUN_CALLS


class _HeldEngine:
    """Hold the engine inside its next ``push_many`` call, and then the
    event loop while the engine drains its queue, so every reply is
    written only after all the queued work has run."""

    def __init__(self, handle, monkeypatch) -> None:
        self.handle = handle
        self.entered, self.release = threading.Event(), threading.Event()
        monitor = handle.engine._monitor
        push_many = monitor.push_many

        def held_push_many(stream, values):
            if not self.entered.is_set():
                self.entered.set()
                self.release.wait(timeout=60)
            return push_many(stream, values)

        monkeypatch.setattr(monitor, "push_many", held_push_many)

    def wait_for_depth(self, depth: int) -> None:
        deadline = time.monotonic() + 30
        while self.handle.metrics.queue_depth.value != depth:
            assert time.monotonic() < deadline, "frames never queued"
            time.sleep(0.001)

    def drain_behind_held_loop(self) -> None:
        loop_held, loop_release = threading.Event(), threading.Event()

        def hold_loop() -> None:
            loop_held.set()
            loop_release.wait(timeout=60)

        try:
            self.handle.loop.call_soon_threadsafe(hold_loop)
            assert loop_held.wait(timeout=30)
            self.release.set()
            self.handle.engine.submit_stats().result(timeout=60)
        finally:
            self.release.set()
            loop_release.set()


def test_error_and_ok_replies_carry_the_watermarks_the_engine_checked(
    server, monkeypatch
):
    """A ``gap`` reply reports the watermark its push was checked
    against, and an ``ok`` reply the watermarks when its op ran, even
    when later pushes are applied before the reply is written."""
    producer = ProducerClient("127.0.0.1", server.port, stream="s1")
    control = ControlClient("127.0.0.1", server.port)
    start = producer.push([1.0, 1.0, 1.0])["watermark"]
    held = _HeldEngine(server, monkeypatch)
    try:
        producer.send_push([1.0, 1.0])  # start+1..start+2, held
        assert held.entered.wait(timeout=30)
        producer.send_push([1.0], first=start + 9)  # gap
        held.wait_for_depth(1)
        producer.send_push([1.0, 1.0, 1.0])  # start+3..start+5
        held.wait_for_depth(2)
        control.send(
            {
                "type": "register_query",
                "name": "dip",
                "query": [5.0, 0.0, 5.0],
                "epsilon": 2.0,
            }
        )
        held.wait_for_depth(3)
        producer.send_push([1.0] * 4)  # start+6..start+9
        held.wait_for_depth(4)
        held.drain_behind_held_loop()
    finally:
        held.release.set()
    replies = [producer.recv() for _ in range(4)]
    assert [f["type"] for f in replies] == ["ack", "error", "ack", "ack"]
    assert replies[1]["code"] == "gap"
    assert replies[1]["watermark"] == start + 2
    assert [replies[i]["watermark"] for i in (0, 2, 3)] == [
        start + 2, start + 5, start + 9,
    ]
    ok = control.recv()
    assert ok["type"] == "ok" and ok["op"] == "register"
    assert ok["watermarks"] == {"s1": start + 5}
    producer.close()
    control.close()


def test_bye_answers_a_held_push_before_goodbye(server, monkeypatch):
    """``bye`` waits for the ack of a push the engine is still
    applying: the producer gets that ack, then ``goodbye``."""
    producer = ProducerClient("127.0.0.1", server.port, stream="s1")
    held = _HeldEngine(server, monkeypatch)
    byes = server.metrics.frames.labels(type="bye")
    try:
        producer.send_push([1.0, 2.0, 3.0])
        assert held.entered.wait(timeout=30)
        producer.send({"type": "bye"})
        deadline = time.monotonic() + 30
        while byes.value < 1:
            assert time.monotonic() < deadline, "bye never read"
            time.sleep(0.001)
        # Ample time for a goodbye written without waiting to leave.
        time.sleep(0.3)
    finally:
        held.release.set()
    replies = []
    while True:
        frame = producer.recv()
        if frame is None:
            break
        replies.append(frame)
    assert [f["type"] for f in replies] == ["ack", "goodbye"]
    assert replies[0]["seq"] == 1 and replies[0]["watermark"] == 3
    assert replies[1]["watermark"] == 3
    producer.close()


# ----------------------------------------------------------------------
# Credit-window backpressure
# ----------------------------------------------------------------------


def test_credit_overrun_disconnects_with_error(service_server):
    """A push the window can never cover is a fatal protocol violation.

    (Credit bounds *unacked* ticks, so a pipelined overrun only trips
    when acks actually lag; a single frame larger than the whole
    window is deterministically over budget.)
    """
    handle = service_server(credit_window=10)
    producer = ProducerClient("127.0.0.1", handle.port, stream="s1")
    assert producer.credit == 10
    producer.send_push([1.0] * 11)
    producer.settimeout(30.0)
    frames = []
    while True:
        frame = producer.recv()
        if frame is None:
            break
        frames.append(frame)
    codes = [f.get("code") for f in frames if f.get("type") == "error"]
    assert "credit_exceeded" in codes
    # Nothing from the over-budget frame was applied.
    assert not any(f.get("type") == "ack" for f in frames)
    producer.close()
    again = ProducerClient("127.0.0.1", handle.port, stream="s1")
    assert again.watermark == 0
    again.close()


def test_inflight_peak_never_exceeds_credit_window(service_server):
    """Backpressure bound, asserted through the metrics registry."""
    window = 16
    handle = service_server(credit_window=window)
    producer = ProducerClient("127.0.0.1", handle.port, stream="s1")
    # Closed-loop within credit: pipeline 4-tick batches, reading acks
    # only when the window would otherwise overflow.
    inflight, pending = 0, 0
    for _ in range(40):
        while inflight + 4 > window:
            producer.recv_ack()
            inflight -= 4
            pending -= 1
        producer.send_push([1.0, 2.0, 1.0, 0.5])
        inflight += 4
        pending += 1
    for _ in range(pending):
        producer.recv_ack()
    producer.close()
    snapshot = handle.metrics.registry.snapshot()
    series = snapshot["service_inflight_peak_ticks"]["series"]
    peaks = {s["labels"]["stream"]: s["value"] for s in series}
    assert 0 < peaks["s1"] <= window


# ----------------------------------------------------------------------
# Subscribers: fan-out, filtering, eviction
# ----------------------------------------------------------------------


def test_events_fan_out_to_all_matching_subscribers(server):
    all_events = SubscriberClient("127.0.0.1", server.port)
    only_s1 = SubscriberClient("127.0.0.1", server.port, streams=["s1"])
    only_s2 = SubscriberClient("127.0.0.1", server.port, streams=["s2"])
    wrong_query = SubscriberClient(
        "127.0.0.1", server.port, queries=["no-such-query"]
    )
    p1 = ProducerClient("127.0.0.1", server.port, stream="s1")
    p2 = ProducerClient("127.0.0.1", server.port, stream="s2")
    p1.push(PULSE)
    p2.push(PULSE)
    got_all = all_events.recv_new_events(2)
    assert {e["stream"] for e in got_all} == {"s1", "s2"}
    assert [e["stream"] for e in only_s1.recv_new_events(1)] == ["s1"]
    assert [e["stream"] for e in only_s2.recv_new_events(1)] == ["s2"]
    # The filtered-out subscriber saw nothing.
    wrong_query.settimeout(0.5)
    with pytest.raises(socket.timeout):
        wrong_query.recv_event()
    for c in (all_events, only_s1, only_s2, wrong_query, p1, p2):
        c.close()


def test_event_order_matches_emission_order(server):
    sub = SubscriberClient("127.0.0.1", server.port)
    producer = ProducerClient("127.0.0.1", server.port, stream="s1")
    for _ in range(5):
        producer.push(PULSE)
    events = sub.recv_new_events(5)
    seqs = [e["seq"] for e in events]
    assert seqs == sorted(seqs) == list(range(1, 6))
    outputs = [e["match"]["output_time"] for e in events]
    assert outputs == sorted(outputs)
    producer.close()
    sub.close()


def test_slow_subscriber_evicted_without_delaying_others(service_server):
    """A stalled subscriber is evicted; a draining one sees everything.

    The per-subscriber queue absorbs the fan-out burst of one push
    batch (fan-out callbacks land on the loop back-to-back, so the
    writer task cannot drain mid-burst) — hence the queue depth here is
    comfortably above the per-push event count, and the *slow* reader
    is one that never reads at all.
    """
    handle = service_server(subscriber_queue=64)
    # The slow subscriber is a raw socket with a tiny receive window
    # that subscribes and then never reads a byte.
    slow = socket.socket()
    slow.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    slow.connect(("127.0.0.1", handle.port))
    slow.sendall(b'{"type": "hello", "role": "subscriber"}\n')
    fast = SubscriberClient("127.0.0.1", handle.port)
    producer = ProducerClient("127.0.0.1", handle.port, stream="s1")
    emitted = 0
    fast.settimeout(120.0)
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline:
        producer.push(PULSE * 16)  # 16 matches per push
        emitted += 16
        fast.recv_new_events(16)
        snapshot = handle.metrics.registry.snapshot()
        evictions = snapshot["service_subscriber_evictions_total"]["series"]
        if evictions and evictions[0]["value"] >= 1:
            break
    else:
        pytest.fail("slow subscriber was never evicted")
    # Only the slow subscriber was evicted, and the fast one keeps
    # receiving fresh events promptly.
    producer.push(PULSE)
    emitted += 1
    events = fast.recv_new_events(1)
    assert events[0]["seq"] == emitted
    snapshot = handle.metrics.registry.snapshot()
    evictions = snapshot["service_subscriber_evictions_total"]["series"]
    assert evictions[0]["value"] == 1.0
    # And the evicted socket is actually closed by the server.
    slow.settimeout(60.0)
    saw_eof = False
    try:
        while True:
            if not slow.recv(1 << 20):
                saw_eof = True
                break
    except OSError:
        saw_eof = True
    assert saw_eof
    slow.close()
    for c in (fast, producer):
        c.close()


# ----------------------------------------------------------------------
# Control: live query lifecycle over the wire
# ----------------------------------------------------------------------


def test_register_remove_swap_live(server):
    control = ControlClient("127.0.0.1", server.port)
    sub = SubscriberClient("127.0.0.1", server.port)
    producer = ProducerClient("127.0.0.1", server.port, stream="s1")

    reply = control.register_query("dip", [5.0, 0.0, 5.0], 2.0)
    assert sorted(reply["queries"]) == ["dip", "spike"]
    # 5.0, 0.2, 5.0 is a dip; 1.0, 5.0, 0.2 also reads as a spike —
    # both queries fire on this pulse, proving the live registration
    # took effect mid-stream.
    producer.push([1.0, 5.0, 0.2, 5.0, 1.0, 1.0, 1.0])
    events = sub.recv_new_events(2)
    assert {e["query"] for e in events} == {"dip", "spike"}

    # Swap the spike template for a higher pulse; the old template
    # stops matching and the new one starts fresh after the watermark.
    reply = control.swap_query("spike", [0.0, 9.0, 0.0], 2.0)
    assert sorted(reply["queries"]) == ["dip", "spike"]
    producer.push([1.0, 1.0, 0.3, 9.0, 0.3, 1.0, 1.0, 1.0])
    events = sub.recv_new_events(1)
    assert events[0]["query"] == "spike"

    reply = control.remove_query("dip")
    assert reply["queries"] == ["spike"]
    stats = control.stats()
    assert stats["queries"] == ["spike"]

    with pytest.raises(ServiceError, match="bad_query"):
        control.remove_query("dip")  # already gone
    with pytest.raises(ServiceError, match="bad_query"):
        control.register_query("spike", [1.0], 1.0)  # duplicate name
    with pytest.raises(ServiceError, match="bad_query"):
        control.register_query("eps", [1.0, 2.0], -1.0)  # bad epsilon

    for c in (control, sub, producer):
        c.close()


def test_stats_report_watermarks_and_sequences(server):
    control = ControlClient("127.0.0.1", server.port)
    producer = ProducerClient("127.0.0.1", server.port, stream="s1")
    producer.push(PULSE)
    stats = control.stats()
    assert stats["mode"] == "in-process"
    assert stats["streams"]["s1"]["watermark"] == len(PULSE)
    assert stats["streams"]["s1"]["seq"] == 1
    assert stats["events_total"] == 1
    control.close()
    producer.close()


# ----------------------------------------------------------------------
# HTTP exposition
# ----------------------------------------------------------------------


def test_metrics_endpoint_serves_parseable_exposition(server):
    producer = ProducerClient("127.0.0.1", server.port, stream="s1")
    sub = SubscriberClient("127.0.0.1", server.port)
    producer.push(PULSE)
    sub.recv_new_events(1)
    status, head, body = _http_get(server.port, "/metrics")
    assert status == 200
    assert b"text/plain; version=0.0.4" in head
    families = parse_prometheus(body.decode("utf-8"))
    # Service families and the fronted monitor's families co-exist in
    # one exposition.
    assert "service_pushed_ticks_total" in families
    assert "service_connections_total" in families
    assert any(name.startswith("spring_") for name in families)
    pushed = {
        tuple(sorted(labels.items())): value
        for _, labels, value in families["service_pushed_ticks_total"]
    }
    assert pushed[(("stream", "s1"),)] == float(len(PULSE))
    delivered = families["service_events_delivered_total"]
    assert delivered[0][2] >= 1.0
    producer.close()
    sub.close()


def test_client_chosen_labels_stay_bounded(server):
    """Junk frame types and request paths fold into ``other`` rather
    than adding one series each."""
    control = ControlClient("127.0.0.1", server.port)
    for i in range(200):
        control.send({"type": f"junk{i}"})
    for _ in range(200):
        assert control.recv()["code"] == "unknown_type"
    control.close()
    for i in range(50):
        assert _http_get(server.port, f"/junk{i}")[0] == 404
    assert _http_get(server.port, "/healthz")[0] == 200
    snapshot = server.metrics.registry.snapshot()
    frames = {
        s["labels"]["type"]: s["value"]
        for s in snapshot["service_frames_total"]["series"]
    }
    paths = {
        s["labels"]["path"]: s["value"]
        for s in snapshot["service_http_requests_total"]["series"]
    }
    assert len(frames) <= 9 and len(paths) <= 3
    assert frames["other"] == 200.0 and frames["hello"] == 1.0
    assert paths["other"] == 50.0 and paths["/healthz"] == 1.0


def test_http_404_405_and_healthz(server):
    status, _, body = _http_get(server.port, "/healthz")
    assert status == 200 and body == b"ok\n"
    status, _, _ = _http_get(server.port, "/nope")
    assert status == 404
    raw = socket.create_connection(("127.0.0.1", server.port), timeout=30)
    raw.sendall(b"POST /metrics HTTP/1.0\r\n\r\n")
    data = raw.recv(65536)
    assert b"405" in data.split(b"\r\n", 1)[0]
    raw.close()


# ----------------------------------------------------------------------
# Graceful shutdown
# ----------------------------------------------------------------------


def test_stop_is_idempotent_and_rejects_new_work(service_server):
    handle = service_server()
    producer = ProducerClient("127.0.0.1", handle.port, stream="s1")
    producer.push([1.0])
    port = handle.port
    handle.stop(checkpoint=False)
    handle.stop(checkpoint=False)  # second stop is a no-op
    with pytest.raises(OSError):
        ServiceConnection("127.0.0.1", port, timeout=2.0)
    producer.close()


def test_scrapes_race_new_streams_and_pushes(server):
    """``/metrics`` renders on the engine thread, so scraping while
    producers say hello on new streams and push never fails: the
    collectors walk the monitor only where it is mutated."""
    errors = []

    def produce(tag: str) -> None:
        try:
            for i in range(40):
                producer = ProducerClient(
                    "127.0.0.1", server.port, stream=f"{tag}{i}"
                )
                producer.push(PULSE * 4)
                producer.close()
        except Exception as err:  # noqa: BLE001 - reported below
            errors.append(err)

    def scrape() -> dict:
        status, _, body = _http_get(server.port, "/metrics")
        assert status == 200
        families = parse_prometheus(body.decode("utf-8"))
        assert "spring_matcher_ticks_total" in families
        return families

    producers = [
        threading.Thread(target=produce, args=(tag,)) for tag in ("a", "b")
    ]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads finely
    try:
        for thread in producers:
            thread.start()
        scrapes = 0
        while any(thread.is_alive() for thread in producers) or scrapes < 3:
            scrape()
            scrapes += 1
    finally:
        sys.setswitchinterval(switch)
        for thread in producers:
            thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in producers)
    assert not errors
    families = scrape()
    streams = {
        labels["stream"]
        for _, labels, _ in families["service_pushed_ticks_total"]
    }
    assert streams >= {f"{tag}{i}" for tag in "ab" for i in range(40)}
