"""The ``service_ingest`` workload: a real ``repro serve`` driven open-loop.

The server runs in the default configuration with one spring query
from a generated ``--query-csv`` (one query is never banked, so it
takes the unbanked ``Spring`` path) and ``--checkpoint-dir`` at the
CLI's default cadence of 1000 ticks.  This process opens exactly two
connections, one subscriber and one producer, on one asyncio loop.
With two CPUs or more the server is pinned to one and this process to
another (:func:`_cpus`), so neither is measured against the scheduler
moving three busy threads over two CPUs.

The producer is open-loop: 10-tick push frames are due on a fixed
schedule and are sent when due, waiting for nothing but credit.  Every
latency is timed from the frame's due time, so credit waits count.
Phases, as shares of ``--seconds``:

* warm-up at the reference rate (discarded);
* the reference rate :data:`REF_RATE`: ack and match latencies and the
  generator's own lag;
* a rate ladder :data:`LADDER`: the highest rate whose ack p99 stays
  under :data:`ACK_P99_LIMIT_MS` without the backlog reaching the
  credit window is reported as ``sustained_ticks_per_s``;
* saturation: bursts of :data:`BURST_FRAMES` frames are offered as fast
  as credit allows; after each is fully acked, the host slowdown is
  timed on the server's CPU (:func:`~perfbench.common.host_slowdown_on`).
  ``ticks_per_s`` is the median over bursts of ticks from first send to
  last ack, times that slowdown: throughput at the reference host speed.

Each phase starts once the previous one is fully acked.  The received
event frames are compared byte for byte with an in-process
``push_many`` of the same frames through ``protocol.encode_event``.
``setup_s`` is the median time from spawning the server to the first
``hello_ack``, each divided by the host slowdown timed on the server's
CPU just before the spawn, over :data:`~perfbench.common.SETUP_REPEATS`
boots.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench import workloads
from perfbench.common import (
    BUILD,
    DEFAULT_BACKEND,
    ROOT,
    SETUP_REPEATS,
    BenchError,
    host_facts,
    host_slowdown_on,
    normalised_rate,
    peak_rss_mb,
    percentile_ms,
    warm_backend,
)
from perfbench.spans import layer_metrics
from repro.service import protocol

HOST = "127.0.0.1"
STREAM = "s"
FRAME = workloads.SERVICE_FRAME

#: Offered rate of the latency phase (ticks/s): about a fifth of what
#: the server saturates at on a 2-core host, so host noise does not
#: push it into queueing.
REF_RATE = 4000
LADDER = (4000, 8000, 12000, 16000)
ACK_P99_LIMIT_MS = 50.0
#: Frames per saturation burst: 6000 ticks, about a quarter second,
#: more than the server's credit window so the burst streams.
BURST_FRAMES = 600
#: Pause between a burst's last ack and the calibration.
BURST_REST_S = 0.02
#: Generator lag p99 above this makes the run invalid, not slow.
LAG_LIMIT_MS = 20.0

#: (phase, rate or None for saturation, share of --seconds)
PHASES = (
    [("warm", REF_RATE, 0.05), ("reference", REF_RATE, 0.25)]
    + [(f"ladder-{rate}", rate, 0.05) for rate in LADDER]
    + [("saturation", None, 0.50)]
)


def _cpus() -> Tuple[int, int]:
    """(this process's CPU, the server's CPU): two different CPUs when
    the host gives at least two, else the one it has."""
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[0], cpus[-1]


GENERATOR_CPU, SERVER_CPU = _cpus()

_TIMEOUT = 60.0


@dataclass
class Frame:
    """One push frame: its values, schedule and outcome."""

    values: np.ndarray
    phase: str
    due: float
    #: When the frame could go out: its due time, or later after a
    #: credit wait.  ``sent - ready`` is the generator's own lag.
    ready: float
    sent: float = 0.0
    acked: float = 0.0
    applied: int = -1


@dataclass
class Load:
    """Everything one load session observed."""

    frames: List[Frame] = field(default_factory=list)
    events: List[Tuple[float, bytes]] = field(default_factory=list)
    expected: List[bytes] = field(default_factory=list)
    errors: List[dict] = field(default_factory=list)
    credit: int = 0
    inflight: int = 0
    credit_stalls: Dict[str, int] = field(default_factory=dict)
    #: ``(ticks, first send to last ack, host slowdown after)`` per burst.
    bursts: List[Tuple[int, float, float]] = field(default_factory=list)


# -- server process ---------------------------------------------------------


class Server:
    """One ``repro serve`` subprocess (optionally under the span launcher)."""

    def __init__(
        self, workdir: Path, inputs: workloads.Inputs, spans: Optional[Path]
    ) -> None:
        name, query, epsilon = inputs.queries[0]
        csv = workdir / f"{name}.csv"
        csv.write_text("value\n" + "".join(f"{float(v)!r}\n" for v in query))
        args = [
            "--host", HOST, "--port", "0",
            "--query-csv", str(csv), "--epsilon", repr(float(epsilon)),
            "--checkpoint-dir", str(workdir / "checkpoints"),
        ]
        if spans is None:
            cmd = [sys.executable, "-m", "repro", "serve", *args]
        else:
            cmd = [sys.executable, "-m", "perfbench.launch_server", str(spans), *args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        self.log = workdir / "server.log"
        self.spawned = perf_counter()
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(
                cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                stderr=log, text=True, start_new_session=True,
                preexec_fn=partial(os.sched_setaffinity, 0, {SERVER_CPU}),
            )
        self.port = self._read_port()

    def _read_port(self) -> int:
        deadline = perf_counter() + _TIMEOUT
        while perf_counter() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    break
                if line.startswith("listening on "):
                    return int(line.rsplit(":", 1)[1])
        self.kill()
        raise BenchError(f"server did not start: {self._log_tail()}")

    def _log_tail(self) -> str:
        return self.log.read_text()[-800:].strip()

    def stop(self) -> float:
        """SIGTERM (final checkpoint) and reap; returns peak RSS in MB."""
        rss = peak_rss_mb(self.proc.pid)
        self.proc.send_signal(signal.SIGTERM)
        try:
            status = self.proc.wait(timeout=_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("server did not stop on SIGTERM") from None
        self.proc.stdout.close()
        if status != 0:
            raise BenchError(f"server exited {status}: {self._log_tail()}")
        return rss

    def kill(self) -> None:
        if self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait(timeout=_TIMEOUT)
        self.proc.stdout.close()


async def _hello(role: str, port: int, **fields):
    """Open a connection and complete its hello; returns (r, w, hello_ack)."""
    reader, writer = await asyncio.open_connection(HOST, port, limit=1 << 20)
    writer.write(protocol.encode_frame(dict(fields, type="hello", role=role)))
    await writer.drain()
    line = await asyncio.wait_for(reader.readline(), _TIMEOUT)
    frame = protocol.decode_frame(line) if line else {}
    if frame.get("type") != "hello_ack":
        raise BenchError(f"{role} hello refused: {frame!r}")
    return reader, writer, frame


async def _close(writer: asyncio.StreamWriter) -> None:
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass


def _boot_time(workdir: Path, inputs: workloads.Inputs) -> float:
    """Spawn a server, time it to the first ``hello_ack``, stop it;
    returns the time at the reference host speed."""
    slowdown = host_slowdown_on(SERVER_CPU)
    server = Server(workdir, inputs, None)

    async def hello() -> float:
        _, writer, _ = await _hello("subscriber", server.port)
        elapsed = perf_counter() - server.spawned
        await _close(writer)
        return elapsed

    try:
        elapsed = asyncio.run(hello())
    except BaseException:
        server.kill()
        raise
    server.stop()
    return elapsed / slowdown


# -- load generator ---------------------------------------------------------


async def _read_acks(reader, load: Load, credit: asyncio.Event, done: asyncio.Event):
    while True:
        line = await reader.readline()
        if not line:
            return
        now = perf_counter()
        frame = protocol.decode_frame(line)
        kind = frame.get("type")
        if kind == "ack":
            record = load.frames[int(frame["seq"]) - 1]
            record.acked = now
            record.applied = int(frame["applied"])
            if "error" in frame:
                load.errors.append(frame)
            load.inflight -= record.values.shape[0]
            credit.set()
        elif kind == "goodbye":
            done.set()
            return
        else:
            load.errors.append(frame)


async def _read_events(reader, load: Load, wanted: List[int], arrived: asyncio.Event):
    while True:
        line = await reader.readline()
        if not line:
            return
        if line.startswith(b'{"match"'):  # canonical event frames sort keys
            load.events.append((perf_counter(), line))
            if wanted and len(load.events) >= wanted[0]:
                arrived.set()


async def _send(writer, load: Load, source, phase: str, due: float, credit):
    ready = due
    while load.inflight + FRAME > load.credit:
        load.credit_stalls[phase] = load.credit_stalls.get(phase, 0) + 1
        credit.clear()
        await credit.wait()
        ready = max(ready, perf_counter())
    values = next(source)
    record = Frame(values=values, phase=phase, due=due, ready=ready)
    load.frames.append(record)
    load.inflight += values.shape[0]
    frame = {"type": "push", "seq": len(load.frames), "values": values.tolist()}
    writer.write(protocol.encode_frame(frame))
    record.sent = perf_counter()
    await writer.drain()


async def _burst(writer, load: Load, source, phase: str, credit) -> None:
    """Offer :data:`BURST_FRAMES` frames as fast as credit allows, wait
    for every ack, then time the host slowdown."""
    first = len(load.frames)
    started = perf_counter()
    for _ in range(BURST_FRAMES):
        await _send(writer, load, source, phase, perf_counter(), credit)
    await _settle(load, credit)
    frames = load.frames[first:]
    ticks = sum(f.values.shape[0] for f in frames)
    elapsed = max(f.acked for f in frames) - started
    # Let the server finish what trails the last ack (event fan-out,
    # a checkpoint) so the calibration does not share its CPU.
    await asyncio.sleep(BURST_REST_S)
    load.bursts.append((ticks, elapsed, host_slowdown_on(SERVER_CPU)))


async def _settle(load: Load, credit: asyncio.Event) -> None:
    """Wait until every pushed frame is acknowledged."""
    deadline = perf_counter() + _TIMEOUT
    while load.inflight > 0:
        if perf_counter() > deadline:
            raise BenchError("server stopped acknowledging pushes")
        credit.clear()
        try:
            await asyncio.wait_for(credit.wait(), 1.0)
        except asyncio.TimeoutError:
            pass


async def _drive(port: int, inputs: workloads.Inputs, seconds: float) -> Load:
    load = Load()
    sub_reader, sub_writer, _ = await _hello("subscriber", port)
    reader, writer, ack = await _hello("producer", port, stream=STREAM)
    load.credit = int(ack["credit"])
    credit, done, arrived = asyncio.Event(), asyncio.Event(), asyncio.Event()
    wanted: List[int] = []
    tasks = [
        asyncio.ensure_future(_read_acks(reader, load, credit, done)),
        asyncio.ensure_future(_read_events(sub_reader, load, wanted, arrived)),
    ]
    source = workloads.batches(inputs, FRAME)
    # A collector pause would show up as generator lag, not server time.
    gc.disable()
    try:
        for phase, rate, share in PHASES:
            start = perf_counter()
            end = start + share * seconds
            if rate is None:
                while perf_counter() < end or not load.bursts:
                    await _burst(writer, load, source, phase, credit)
            else:
                interval = FRAME / rate
                for k in range(max(1, round(share * seconds / interval))):
                    due = start + k * interval
                    delay = due - perf_counter()
                    if delay > 0:
                        await asyncio.sleep(delay)
                    await _send(writer, load, source, phase, due, credit)
            await _settle(load, credit)
        writer.write(protocol.encode_frame({"type": "bye"}))
        await writer.drain()
        await asyncio.wait_for(done.wait(), _TIMEOUT)
        load.expected = await asyncio.get_running_loop().run_in_executor(
            None, _reference_events, inputs, [f.values for f in load.frames]
        )
        wanted.append(len(load.expected))
        if len(load.events) < len(load.expected):
            try:
                await asyncio.wait_for(arrived.wait(), 15.0)
            except asyncio.TimeoutError:
                pass  # counted as missing events
    finally:
        gc.enable()
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        await _close(writer)
        await _close(sub_writer)
    return load


def _reference_events(inputs: workloads.Inputs, frames: List[np.ndarray]):
    """Event frames an in-process monitor emits for the same pushes."""
    from repro import StreamMonitor

    monitor = StreamMonitor()
    monitor.add_stream(STREAM)
    for name, query, epsilon in inputs.queries:
        monitor.add_query(name, query, epsilon=epsilon)
    events = []
    for values in frames:
        events.extend(monitor.push_many(STREAM, values))
    return [
        protocol.encode_event(STREAM, seq, event)
        for seq, event in enumerate(events, 1)
    ]


async def _scrape(port: int) -> Dict[str, list]:
    """One ``GET /metrics`` after the load, parsed."""
    from repro.obs import parse_prometheus

    reader, writer = await asyncio.open_connection(HOST, port)
    writer.write(b"GET /metrics HTTP/1.0\r\n\r\n")
    await writer.drain()
    body = await asyncio.wait_for(reader.read(), _TIMEOUT)
    await _close(writer)
    return parse_prometheus(body.split(b"\r\n\r\n", 1)[1].decode())


def _session(workdir: Path, inputs, seconds: float, spans: Optional[Path]):
    """Serve, drive the phases, check the backend; returns (load, rss)."""
    server = Server(workdir, inputs, spans)

    async def go():
        load = await _drive(server.port, inputs, seconds)
        return load, await _scrape(server.port)

    try:
        load, scraped = asyncio.run(go())
    except BaseException:
        server.kill()
        raise
    rss = server.stop()
    info = scraped.get("spring_backend_info", [])
    backends = [labels.get("backend") for _, labels, _ in info]
    if backends != [DEFAULT_BACKEND]:
        raise BenchError(f"server runs backend {backends}, not {DEFAULT_BACKEND!r}")
    for _, _, evicted in scraped.get("service_subscriber_evictions_total", []):
        load.errors.extend({"type": "eviction"} for _ in range(int(evicted)))
    lag = _lag_p99(load, "reference")
    if lag > LAG_LIMIT_MS:
        raise BenchError(
            f"load generator lag p99 {lag:.2f} ms > {LAG_LIMIT_MS} ms: run invalid",
            status=3,
        )
    return load, rss


# -- analysis ---------------------------------------------------------------


def _phase(load: Load, name: str) -> List[Frame]:
    return [f for f in load.frames if f.phase == name]


def _lag_p99(load: Load, phase: str) -> float:
    return percentile_ms([f.sent - f.ready for f in _phase(load, phase)], 99)


def _saturation_rate(load: Load) -> float:
    """Acked ticks per second of a saturation burst at the reference
    host speed, median over bursts."""
    return normalised_rate(*zip(*load.bursts))


def _raw_saturation_rate(load: Load) -> float:
    """Acked ticks over summed burst time, not normalised."""
    return sum(b[0] for b in load.bursts) / sum(b[1] for b in load.bursts)


def _ladder(load: Load) -> Tuple[List[dict], float]:
    """Per-rate ack latencies and the highest rate that met the limit."""
    rows, sustained = [], 0.0
    for rate in LADDER:
        name = f"ladder-{rate}"
        lat = [f.acked - f.due for f in _phase(load, name)]
        p99 = percentile_ms(lat, 99)
        stalls = load.credit_stalls.get(name, 0)
        ok = p99 <= ACK_P99_LIMIT_MS and stalls == 0
        rows.append(
            {
                "rate": rate,
                "ack_p50_ms": percentile_ms(lat, 50),
                "ack_p99_ms": p99,
                "credit_stalls": stalls,
                "ok": ok,
            }
        )
        if ok:
            sustained = float(rate)
    return rows, sustained


def _match_latencies(load: Load, phase: str) -> List[float]:
    """Event arrival minus the due time of the frame holding the
    match's last tick, for matches ending in ``phase``."""
    out = []
    for arrived, line in load.events:
        end = int(json.loads(line)["match"]["end"])
        frame = load.frames[(end - 1) // FRAME]
        if frame.phase == phase:
            out.append(arrived - frame.due)
    return out


def _check(load: Load) -> Tuple[int, int, dict]:
    """(attempted, failed, detail) against the in-process reference."""
    got = [line for _, line in load.events]
    want = load.expected
    mismatched = sum(1 for a, b in zip(got, want) if a != b)
    missing = max(0, len(want) - len(got))
    extra = max(0, len(got) - len(want))
    refused = sum(1 for f in load.frames if f.applied != f.values.shape[0])
    failed = mismatched + missing + extra + refused + len(load.errors)
    detail = {
        "frames": len(load.frames),
        "events_expected": len(want),
        "events_received": len(got),
        "events_mismatched": mismatched,
        "frames_refused": refused,
        "error_frames": load.errors[:5],
    }
    return len(load.frames) + len(want), failed, detail


def _histogram_quantile(family: dict, q: float) -> float:
    """Quantile (seconds) of a registry histogram snapshot, interpolated
    linearly inside the bucket that holds it."""
    counts = np.sum([s["bucket_counts"] for s in family["series"]], axis=0)
    bounds = family["buckets"]
    total = float(np.sum(counts))
    target, seen = q * total, 0.0
    for i, count in enumerate(np.atleast_1d(counts)):
        if count and seen + count >= target:
            if i >= len(bounds):
                return bounds[-1]
            lower = bounds[i - 1] if i else 0.0
            return lower + (bounds[i] - lower) * (target - seen) / count
        seen += count
    return 0.0


def _counter(family: dict) -> float:
    return float(sum(s["value"] for s in family["series"]))


# -- runs -------------------------------------------------------------------

_CONFIG = {
    "backend": DEFAULT_BACKEND,
    "admission": "auto (inert: one query is never banked)",
    "prune": "on (CLI default; inert for an unbanked query)",
    "checkpoint_every": 1000,
    "generator_cpu": GENERATOR_CPU,
    "server_cpu": SERVER_CPU,
}


def _subdir(workdir: Path, name: str) -> Path:
    path = workdir / name
    path.mkdir()
    return path


def run(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    warm = warm_backend()
    inputs = workloads.make(workload, seed, size)
    workdir = Path(tempfile.mkdtemp(prefix="service-", dir=BUILD / "tmp"))
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {GENERATOR_CPU})
    try:
        facts = host_facts(workdir)
        if trace:
            result = _run_traced(workload, seed, seconds, size, workdir)
        else:
            result = _run_plain(inputs, seconds, workdir)
    finally:
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(workdir, ignore_errors=True)
    result["report"].update(
        workload=workload,
        seed=seed,
        host=facts,
        config=dict(_CONFIG, **warm),
        shape=dict(
            inputs.shape,
            ref_rate=REF_RATE,
            ladder=list(LADDER),
            ack_p99_limit_ms=ACK_P99_LIMIT_MS,
            phases=[[name, rate, share * seconds] for name, rate, share in PHASES],
        ),
    )
    return result


def _run_plain(inputs: workloads.Inputs, seconds: float, workdir: Path) -> dict:
    setups = [
        _boot_time(_subdir(workdir, f"boot{i}"), inputs)
        for i in range(SETUP_REPEATS)
    ]
    load, rss = _session(_subdir(workdir, "load"), inputs, seconds, None)
    attempted, failed, detail = _check(load)
    ack = [f.acked - f.due for f in _phase(load, "reference")]
    match = _match_latencies(load, "reference")
    ladder, sustained = _ladder(load)
    saturation = _saturation_rate(load)
    figures = {
        "raw_ticks_per_s": (_raw_saturation_rate(load), "ticks/s"),
        "host_slowdown_p50": (
            statistics.median(b[2] for b in load.bursts),
            "ratio",
        ),
        "sustained_ticks_per_s": (sustained, "ticks/s"),
        "ack_p50_ms": (percentile_ms(ack, 50), "ms"),
        "ack_p90_ms": (percentile_ms(ack, 90), "ms"),
        "ack_p99_ms": (percentile_ms(ack, 99), "ms"),
        "match_p50_ms": (percentile_ms(match, 50), "ms"),
        "match_p99_ms": (percentile_ms(match, 99), "ms"),
        "loadgen_lag_p99_ms": (_lag_p99(load, "reference"), "ms"),
        "error_rate": (failed / attempted, "ratio"),
    }
    return {
        "metrics": {
            "setup_s": statistics.median(setups),
            "ticks_per_s": saturation,
            "peak_rss_mb": rss,
        },
        "report": {
            "figures": figures,
            "ladder": ladder,
            "reference": detail,
            "samples": {
                "acks": len(ack),
                "matches": len(match),
                "bursts": len(load.bursts),
                "setups": len(setups),
            },
        },
        "attempted": attempted,
        "failed": failed,
    }


def _run_traced(workload, seed, seconds, size, workdir: Path) -> dict:
    """An untraced and a traced session, each for half of ``seconds``."""
    plain, _ = _session(
        _subdir(workdir, "plain"), workloads.make(workload, seed, size),
        seconds / 2, None,
    )
    spans = workdir / "spans.json"
    traced, _ = _session(
        _subdir(workdir, "traced"), workloads.make(workload, seed, size),
        seconds / 2, spans,
    )
    dump = json.loads(spans.read_text())
    summary, registry = dump["summary"], dump["registry"]
    if dump["backend"] != DEFAULT_BACKEND:
        raise BenchError(f"traced server runs backend {dump['backend']!r}")
    apply = registry["service_apply_latency_seconds"]
    ack_p99 = _histogram_quantile(registry["service_ack_latency_seconds"], 0.99)
    apply_p99 = _histogram_quantile(apply, 0.99)
    query_ticks = dump["queries"] * dump["counters"]["ticks"]
    query_ticks -= dump["prune"]["pruned_ticks"]
    inflight = registry["service_inflight_peak_ticks"]["series"]
    untraced_rate, traced_rate = _saturation_rate(plain), _saturation_rate(traced)
    metrics = layer_metrics(summary, dump["counters"])
    metrics.update(
        {
            "kernel.ns_per_query_tick": summary["layers"]["kernel"]
            * 1e9
            / max(1, query_ticks),
            "engine.apply_p50_ms": _histogram_quantile(apply, 0.5) * 1e3,
            "engine.apply_p99_ms": apply_p99 * 1e3,
            "engine.queue_wait_p99_ms": max(0.0, ack_p99 - apply_p99) * 1e3,
            "server.events_delivered": _counter(
                registry["service_events_delivered_total"]
            ),
            "server.evictions": _counter(
                registry["service_subscriber_evictions_total"]
            ),
            "server.inflight_peak_ticks": max([s["value"] for s in inflight] or [0.0]),
            "loadgen.lag_p99_ms": _lag_p99(traced, "reference"),
            "trace.overhead_pct": (untraced_rate / traced_rate - 1) * 100,
        }
    )
    checks = [_check(load) for load in (plain, traced)]
    return {
        "metrics": metrics,
        "report": {
            "trace": {
                "layer_self_s": summary["layers"],
                "span_calls": summary["calls"],
                "wall_s": summary["wall_s"],
                "dropped_spans": summary["dropped_spans"],
                "untraced_saturation_ticks_per_s": untraced_rate,
                "traced_saturation_ticks_per_s": traced_rate,
            },
            "reference": [detail for _, _, detail in checks],
        },
        "attempted": sum(a for a, _, _ in checks),
        "failed": sum(f for _, f, _ in checks),
    }
