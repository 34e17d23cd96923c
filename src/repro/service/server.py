"""The asyncio front end: sockets in, acks and match events out.

:class:`MonitorServer` listens on one TCP port and speaks two things:

* the **line protocol** (:mod:`repro.service.protocol`) — producers
  push batched ticks for one logical stream per connection, subscribers
  receive match-event frames with per-subscriber stream/query
  filtering, and control connections drive the live query lifecycle;
* **HTTP GET** — ``/metrics`` answers Prometheus text exposition for
  the shared registry (monitor ``spring_*`` families plus the
  ``service_*`` taxonomy) and ``/healthz`` answers ``ok``; any scraper
  or ``curl`` works with no extra port.

Concurrency model
-----------------
The asyncio loop owns every socket; the engine thread owns the
monitor.  A producer connection pipelines: the read loop validates
frames and submits pushes to the engine, while a per-connection ack
task awaits results in submission order and writes ``ack`` frames —
so the wire stays full up to the credit window without ever reordering
acks.  Once the head push is done, every following ack whose push has
already succeeded is encoded with it and the batch leaves in one write;
each ack still carries the credit it would carry alone.  An error reply
carries the watermark the engine checked its push against, not one
read when it is written.  ``bye`` is answered only once every push
before it has been answered.  Match events
cross back from the engine thread via
``call_soon_threadsafe`` and fan out to per-subscriber bounded queues;
a subscriber whose queue overflows (too slow for the event rate, with
the TCP buffer already full) is **evicted** rather than allowed to
stall the engine or its peers.

Backpressure
------------
Explicit and credit-based: the ``hello_ack`` grants a per-stream
window of ``credit_window`` ticks, every ``ack`` reports the remaining
credit, and a producer that overruns the window is disconnected with a
``credit_exceeded`` error.  With an honoured window ``W``, the
``service_inflight_peak_ticks`` gauge can never exceed ``W`` — the
conformance tests assert that bound through the metrics registry.

Per-frame cost
--------------
The loop shares its CPU with the engine thread, so a push frame does
little beyond ``json.loads``: its metric children are bound once (see
:mod:`repro.obs.service`), an all-number ``values`` array is converted
in one call, and an ack without an error is written from a fixed key
order (:func:`~repro.service.protocol.encode_ack`), still the
canonical bytes.
"""

from __future__ import annotations

import asyncio
import threading
from time import perf_counter
from typing import Callable, Dict, Optional, Sequence, Set

from repro.core.monitor import MatchEvent
from repro.exceptions import ServiceError
from repro.obs.prometheus import http_response, render_http
from repro.obs.service import ServiceMetrics
from repro.service import protocol
from repro.service.engine import EngineConfig, ServiceEngine

__all__ = ["MonitorServer", "ServerHandle", "start_in_thread"]

_HTTP_METHODS = (
    b"GET ", b"HEAD ", b"POST ", b"PUT ", b"DELETE ", b"OPTIONS ", b"PATCH ",
)


class _Subscriber:
    """One subscriber connection: filters plus a bounded event queue."""

    def __init__(
        self,
        writer: asyncio.StreamWriter,
        streams: Optional[Sequence[str]],
        queries: Optional[Sequence[str]],
        maxsize: int,
    ) -> None:
        self.writer = writer
        self.streams = set(streams) if streams is not None else None
        self.queries = set(queries) if queries is not None else None
        self.queue: "asyncio.Queue[bytes]" = asyncio.Queue(maxsize=maxsize)
        self.task: Optional[asyncio.Task] = None
        self.evicted = False

    def matches(self, stream: str, query: str) -> bool:
        if self.streams is not None and stream not in self.streams:
            return False
        if self.queries is not None and query not in self.queries:
            return False
        return True

    def offer(self, data: bytes) -> bool:
        """Enqueue one event frame; False means the queue overflowed."""
        try:
            self.queue.put_nowait(data)
        except asyncio.QueueFull:
            return False
        return True


class _Producer:
    """One producer connection: its stream, unacked ticks and ack queue."""

    def __init__(
        self,
        writer: asyncio.StreamWriter,
        stream: str,
        record_inflight: Callable[[int], None],
    ) -> None:
        self.writer = writer
        self.stream = stream
        self.inflight = 0
        self._record_inflight = record_inflight
        #: ``(seq, ticks, received, future)`` per submitted push, in
        #: ``seq`` order; the ack task marks each done once answered.
        self.acks: "asyncio.Queue" = asyncio.Queue()
        self.fatal = asyncio.Event()

    def track(self, ticks: int) -> None:
        """Add ``ticks`` (negative on release) to the in-flight count."""
        self.inflight += ticks
        self._record_inflight(self.inflight)


class MonitorServer:
    """Serve the line protocol and /metrics for one engine."""

    def __init__(
        self,
        engine_config: EngineConfig,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        credit_window: int = protocol.DEFAULT_CREDIT_WINDOW,
        max_batch: int = protocol.DEFAULT_MAX_BATCH,
        subscriber_queue: int = protocol.DEFAULT_SUBSCRIBER_QUEUE,
        max_line: int = protocol.DEFAULT_MAX_LINE,
        registry=None,
    ) -> None:
        if int(credit_window) < 1:
            raise ServiceError("credit_window must be >= 1")
        if int(max_batch) < 1:
            raise ServiceError("max_batch must be >= 1")
        self.host = host
        self.port = int(port)
        self.credit_window = int(credit_window)
        self.max_batch = int(max_batch)
        self.subscriber_queue = int(subscriber_queue)
        self.max_line = int(max_line)
        self.metrics = ServiceMetrics(registry)
        self.engine = ServiceEngine(
            engine_config, metrics=self.metrics, on_event=self._on_engine_event
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._subscribers: Set[_Subscriber] = set()
        self._conn_tasks: Set[asyncio.Task] = set()
        self._stopping = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Start the engine thread, bind the socket, begin accepting."""
        self._loop = asyncio.get_running_loop()
        self.engine.start()
        try:
            self._server = await asyncio.start_server(
                self._handle_connection,
                host=self.host,
                port=self.port,
                limit=self.max_line,
            )
        except OSError as err:
            self.engine.stop(checkpoint=False)
            raise ServiceError(
                f"cannot bind {self.host}:{self.port}: {err}"
            ) from err
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self, checkpoint: bool = True) -> None:
        """Stop accepting, drop connections, stop the engine."""
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for sub in list(self._subscribers):
            self._evict(sub, reason="shutdown")
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        await asyncio.get_running_loop().run_in_executor(
            None, lambda: self.engine.stop(checkpoint=checkpoint)
        )

    async def serve_forever(self) -> None:
        if self._server is None:
            raise ServiceError("server is not started")
        await self._server.serve_forever()

    # ------------------------------------------------------------------
    # Event fan-out (engine thread -> loop -> subscriber queues)
    # ------------------------------------------------------------------

    def _on_engine_event(self, stream: str, seq: int, event: MatchEvent) -> None:
        data = protocol.encode_event(stream, seq, event)
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(self._fanout, stream, event.query, data)
        except RuntimeError:  # loop shut down mid-call
            pass

    def _fanout(self, stream: str, query: str, data: bytes) -> None:
        for sub in list(self._subscribers):
            if sub.evicted or not sub.matches(stream, query):
                continue
            if not sub.offer(data):
                self._evict(sub, reason="slow consumer")

    def _evict(self, sub: _Subscriber, reason: str) -> None:
        if sub.evicted:
            return
        sub.evicted = True
        self._subscribers.discard(sub)
        self.metrics.subscribers.set(float(len(self._subscribers)))
        if reason == "slow consumer":
            self.metrics.evictions.inc()
        if sub.task is not None:
            sub.task.cancel()
        try:
            sub.writer.close()
        except RuntimeError:  # pragma: no cover - loop tearing down
            pass

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        try:
            try:
                first = await reader.readline()
            except (ValueError, asyncio.LimitOverrunError):
                await self._reply_oversized(writer)
                return
            if not first:
                return
            if any(first.startswith(m) for m in _HTTP_METHODS):
                await self._http_session(reader, writer, first)
            else:
                await self._line_session(reader, writer, first)
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            pass
        except asyncio.CancelledError:
            # Connection tasks are only cancelled by stop(); finishing
            # cleanly here keeps asyncio's stream machinery from
            # logging the cancellation as a connection-handler error.
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (OSError, RuntimeError, asyncio.CancelledError):
                pass

    async def _reply_oversized(self, writer: asyncio.StreamWriter) -> None:
        self.metrics.record_error("oversized_line")
        await self._send(
            writer,
            protocol.error_frame(
                "oversized_line",
                f"line exceeds max_line={self.max_line} bytes",
            ),
        )

    async def _send(self, writer: asyncio.StreamWriter, frame: dict) -> None:
        await self._write(writer, protocol.encode_frame(frame))

    async def _write(self, writer: asyncio.StreamWriter, data: bytes) -> None:
        writer.write(data)
        try:
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass

    # -- HTTP ----------------------------------------------------------

    async def _http_session(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        request_line: bytes,
    ) -> None:
        # Drain the (bounded) header block so the client sees a clean
        # close after our HTTP/1.0 response.
        for _ in range(100):
            try:
                line = await asyncio.wait_for(reader.readline(), timeout=5.0)
            except (ValueError, asyncio.LimitOverrunError, asyncio.TimeoutError):
                break
            if line in (b"\r\n", b"\n", b""):
                break
        parts = request_line.split()
        method = parts[0].decode("ascii", "replace") if parts else "?"
        path = parts[1].decode("ascii", "replace") if len(parts) > 1 else "/"
        path = path.split("?", 1)[0]
        self.metrics.record_http(path)
        if method != "GET":
            body = http_response(
                405, b"only GET is supported\n", "text/plain; charset=utf-8"
            )
        elif path == "/metrics":
            body = await self._render_metrics()
        elif path == "/healthz":
            running = self.engine.running
            body = http_response(
                200 if running else 500,
                b"ok\n" if running else b"engine down\n",
                "text/plain; charset=utf-8",
            )
        else:
            body = http_response(
                404, f"no such path: {path}\n".encode(), "text/plain; charset=utf-8"
            )
        await self._write(writer, body)

    async def _render_metrics(self) -> bytes:
        """The ``/metrics`` response, rendered on the engine thread.

        The monitor's collectors walk state the engine thread mutates
        (streams added on hello, banks stepped by kernels that release
        the GIL), so a scrape renders here only when no engine thread
        runs.
        """
        try:
            future = self.engine.submit_render()
        except ServiceError:
            return render_http(self.metrics.registry)
        try:
            return await asyncio.wrap_future(future)
        except ServiceError as err:
            return http_response(
                500, f"{err}\n".encode(), "text/plain; charset=utf-8"
            )

    # -- line protocol: hello dispatch ---------------------------------

    async def _line_session(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        first_line: bytes,
    ) -> None:
        try:
            frame = protocol.decode_frame(first_line)
        except protocol.ProtocolError as err:
            self.metrics.record_error(err.code)
            await self._send(writer, err.frame())
            return
        if frame.get("type") != "hello":
            self.metrics.record_error("bad_hello")
            await self._send(
                writer,
                protocol.error_frame(
                    "bad_hello",
                    f"first frame must be hello, got {frame.get('type')!r}",
                ),
            )
            return
        role = frame.get("role")
        if role not in protocol.ROLES:
            self.metrics.record_error("bad_hello")
            await self._send(
                writer,
                protocol.error_frame(
                    "bad_hello",
                    f"role must be one of {list(protocol.ROLES)}, got {role!r}",
                ),
            )
            return
        self.metrics.record_frame("hello")
        self.metrics.connections.labels(role=role).inc()
        if role == "producer":
            await self._producer_session(reader, writer, frame)
        elif role == "subscriber":
            await self._subscriber_session(reader, writer, frame)
        else:
            await self._control_session(reader, writer)

    async def _read_frame(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ):
        """One validated frame, None on EOF, False on a fatal line error.

        Non-fatal protocol errors are answered inline and reading
        continues — a malformed frame never takes the connection (or
        any other connection) down.
        """
        while True:
            try:
                line = await reader.readline()
            except (ValueError, asyncio.LimitOverrunError):
                await self._reply_oversized(writer)
                return False
            if not line:
                return None
            try:
                frame = protocol.decode_frame(line)
            except protocol.ProtocolError as err:
                self.metrics.record_error(err.code)
                await self._send(writer, err.frame())
                continue
            self.metrics.record_frame(frame["type"])
            return frame

    # -- producers -----------------------------------------------------

    async def _producer_session(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        hello: dict,
    ) -> None:
        try:
            stream = protocol.require_name(hello, "stream")
            watermark = await asyncio.wrap_future(
                self.engine.submit_ensure_stream(stream)
            )
        except protocol.ProtocolError as err:
            self.metrics.record_error(err.code)
            await self._send(writer, err.frame())
            return
        except ServiceError as err:
            await self._send(writer, protocol.error_frame("state", str(err)))
            return
        await self._send(
            writer,
            {
                "type": "hello_ack",
                "version": protocol.PROTOCOL_VERSION,
                "role": "producer",
                "stream": stream,
                "watermark": int(watermark),
                "seq": self.engine.sequence(stream),
                "credit": self.credit_window,
                "max_batch": self.max_batch,
            },
        )
        producer = _Producer(
            writer, stream, self.metrics.inflight_recorder(stream)
        )
        ack_task = asyncio.ensure_future(self._ack_writer(producer))
        try:
            while not producer.fatal.is_set():
                frame = await self._read_frame(reader, writer)
                if frame is None or frame is False:
                    break
                ftype = frame["type"]
                if ftype == "push":
                    ok = await self._handle_push_frame(producer, frame)
                    if not ok:
                        break
                elif ftype == "ping":
                    await self._send(writer, {"type": "pong"})
                elif ftype == "bye":
                    await self._flush_acks(producer.acks, ack_task)
                    await self._send(
                        writer,
                        {
                            "type": "goodbye",
                            "watermark": self.engine.watermark(stream),
                        },
                    )
                    break
                else:
                    self.metrics.record_error("unknown_type")
                    await self._send(
                        writer,
                        protocol.error_frame(
                            "unknown_type",
                            f"unexpected frame type {ftype!r} on a "
                            "producer connection",
                        ),
                    )
        finally:
            if not ack_task.done():
                # Let queued acks finish before tearing down so a
                # half-closed client still receives its watermarks.
                await self._flush_acks(producer.acks, ack_task)
                ack_task.cancel()
            await asyncio.gather(ack_task, return_exceptions=True)

    async def _flush_acks(
        self, acks: "asyncio.Queue", ack_task: asyncio.Future
    ) -> None:
        """Wait until every queued push is answered, or the ack task
        ends (it stops at an engine crash)."""
        joined = asyncio.ensure_future(acks.join())
        try:
            await asyncio.wait(
                (joined, ack_task), return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            joined.cancel()

    async def _handle_push_frame(self, producer: _Producer, frame: dict) -> bool:
        writer = producer.writer
        seq = frame.get("seq")
        if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
            self.metrics.record_error("bad_frame")
            await self._send(
                writer,
                protocol.error_frame(
                    "bad_frame", "'seq' must be a non-negative integer"
                ),
            )
            return True
        first = frame.get("first")
        if first is not None and (
            not isinstance(first, int) or isinstance(first, bool) or first < 1
        ):
            self.metrics.record_error("bad_frame")
            await self._send(
                writer,
                protocol.error_frame(
                    "bad_frame", "'first' must be a positive integer tick",
                    seq=seq,
                ),
            )
            return True
        try:
            values = protocol.decode_values(
                frame.get("values"), self.max_batch
            )
        except protocol.ProtocolError as err:
            self.metrics.record_error(err.code)
            await self._send(writer, err.frame(seq=seq))
            return True
        n = int(values.shape[0])
        if producer.inflight + n > self.credit_window:
            self.metrics.record_error("credit_exceeded")
            await self._send(
                writer,
                protocol.error_frame(
                    "credit_exceeded",
                    f"{producer.inflight} ticks in flight + {n} pushed "
                    f"exceeds the credit window of {self.credit_window}",
                    seq=seq,
                ),
            )
            return False
        producer.track(n)
        try:
            future = self.engine.submit_push(producer.stream, values, first)
        except ServiceError as err:
            producer.track(-n)
            await self._send(
                writer, protocol.error_frame("state", str(err), seq=seq)
            )
            return False
        producer.acks.put_nowait((seq, n, perf_counter(), future))
        return True

    async def _ack_writer(self, producer: _Producer) -> None:
        writer, acks = producer.writer, producer.acks
        # ``entry`` is the next ack to write: taken from the queue, or
        # the one that ended the previous batch.
        entry = None
        while True:
            if entry is None:
                entry = await acks.get()
            seq, n, started, future = entry
            entry = None
            try:
                result = await asyncio.wrap_future(future)
            except protocol.ProtocolError as err:
                # The engine put the watermark it checked against in
                # ``err``; one read now could count later pushes.
                producer.track(-n)
                self.metrics.record_error(err.code)
                await self._send(writer, err.frame(seq=seq))
                acks.task_done()
                continue
            except (ServiceError, Exception) as err:  # engine crash
                producer.track(-n)
                producer.fatal.set()
                await self._send(
                    writer, protocol.error_frame("state", str(err), seq=seq)
                )
                acks.task_done()
                return
            batch = [self._encode_ack(producer, seq, n, started, result)]
            # Every following ack whose push already succeeded leaves in
            # the same write; the first pending or failed one heads the
            # next batch.
            while not acks.empty():
                entry = acks.get_nowait()
                seq, n, started, future = entry
                if not future.done() or future.exception() is not None:
                    break
                batch.append(
                    self._encode_ack(
                        producer, seq, n, started, future.result()
                    )
                )
                entry = None
            await self._write(writer, b"".join(batch))
            for _ in batch:
                acks.task_done()

    def _encode_ack(
        self, producer: _Producer, seq: int, n: int, started: float, result
    ) -> bytes:
        """Encode the ``ack`` frame for one applied push, releasing its
        ticks from the in-flight count first."""
        producer.track(-n)
        self.metrics.ack_latency.observe(perf_counter() - started)
        credit = self.credit_window - producer.inflight
        if result.error is None:
            return protocol.encode_ack(
                seq, result.applied, result.trimmed, result.watermark, credit
            )
        code, detail = result.error
        self.metrics.record_error(code)
        return protocol.encode_frame(
            {
                "type": "ack",
                "seq": seq,
                "applied": result.applied,
                "trimmed": result.trimmed,
                "watermark": result.watermark,
                "credit": credit,
                "error": {"code": code, "detail": detail},
            }
        )

    # -- subscribers ---------------------------------------------------

    async def _subscriber_session(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        hello: dict,
    ) -> None:
        try:
            streams = protocol.optional_name_list(hello, "streams")
            queries = protocol.optional_name_list(hello, "queries")
        except protocol.ProtocolError as err:
            self.metrics.record_error(err.code)
            await self._send(writer, err.frame())
            return
        sub = _Subscriber(writer, streams, queries, self.subscriber_queue)
        self._subscribers.add(sub)
        self.metrics.subscribers.set(float(len(self._subscribers)))
        await self._send(
            writer,
            {
                "type": "hello_ack",
                "version": protocol.PROTOCOL_VERSION,
                "role": "subscriber",
                "seqs": self.engine.sequences(),
                "watermarks": self.engine.watermarks(),
            },
        )
        sub.task = asyncio.ensure_future(self._subscriber_writer(sub))
        try:
            while not sub.evicted:
                frame = await self._read_frame(reader, writer)
                if frame is None or frame is False:
                    break
                ftype = frame["type"]
                if ftype == "ping":
                    await self._send(writer, {"type": "pong"})
                elif ftype == "bye":
                    await self._send(writer, {"type": "goodbye"})
                    break
                else:
                    self.metrics.record_error("unknown_type")
                    await self._send(
                        writer,
                        protocol.error_frame(
                            "unknown_type",
                            f"unexpected frame type {ftype!r} on a "
                            "subscriber connection",
                        ),
                    )
        finally:
            self._evict(sub, reason="disconnect")
            await asyncio.gather(sub.task, return_exceptions=True)

    async def _subscriber_writer(self, sub: _Subscriber) -> None:
        try:
            while True:
                data = await sub.queue.get()
                sub.writer.write(data)
                await sub.writer.drain()
                self.metrics.events_delivered.inc()
        except (ConnectionResetError, BrokenPipeError):
            self._evict(sub, reason="disconnect")
        except asyncio.CancelledError:
            raise

    # -- control -------------------------------------------------------

    async def _control_session(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        await self._send(
            writer,
            {
                "type": "hello_ack",
                "version": protocol.PROTOCOL_VERSION,
                "role": "control",
            },
        )
        while True:
            frame = await self._read_frame(reader, writer)
            if frame is None or frame is False:
                return
            ftype = frame["type"]
            if ftype == "ping":
                await self._send(writer, {"type": "pong"})
            elif ftype == "bye":
                await self._send(writer, {"type": "goodbye"})
                return
            elif ftype == "stats":
                await self._control_submit(writer, "stats", None, None)
            elif ftype in ("register_query", "swap_query"):
                await self._query_mutation(writer, frame)
            elif ftype == "remove_query":
                try:
                    name = protocol.require_name(frame)
                except protocol.ProtocolError as err:
                    self.metrics.record_error(err.code)
                    await self._send(writer, err.frame())
                    continue
                await self._control_submit(
                    writer, "query", "remove", {"name": name}
                )
            else:
                self.metrics.record_error("unknown_type")
                await self._send(
                    writer,
                    protocol.error_frame(
                        "unknown_type",
                        f"unexpected frame type {ftype!r} on a control "
                        "connection",
                    ),
                )

    async def _query_mutation(
        self, writer: asyncio.StreamWriter, frame: dict
    ) -> None:
        op = "register" if frame["type"] == "register_query" else "swap"
        try:
            name = protocol.require_name(frame)
            query = protocol.decode_query_array(frame.get("query"))
            epsilon = protocol.require_epsilon(frame.get("epsilon"))
            kwargs = frame.get("kwargs") or {}
            if not isinstance(kwargs, dict):
                raise protocol.ProtocolError(
                    "bad_frame", "'kwargs' must be an object"
                )
            matcher = frame.get("matcher")
            if matcher is not None:
                if not isinstance(matcher, str):
                    raise protocol.ProtocolError(
                        "bad_frame", "'matcher' must be a string"
                    )
                kwargs = dict(kwargs, matcher=matcher)
        except protocol.ProtocolError as err:
            self.metrics.record_error(err.code)
            await self._send(writer, err.frame())
            return
        payload = {
            "name": name,
            "query": query.tolist(),
            "epsilon": epsilon,
            "kwargs": kwargs,
        }
        await self._control_submit(writer, "query", op, payload)

    async def _control_submit(
        self,
        writer: asyncio.StreamWriter,
        kind: str,
        op: Optional[str],
        payload: Optional[dict],
    ) -> None:
        try:
            if kind == "stats":
                future = self.engine.submit_stats()
            else:
                future = self.engine.submit_query_op(op, payload)
            result = await asyncio.wrap_future(future)
        except protocol.ProtocolError as err:
            self.metrics.record_error(err.code)
            await self._send(writer, err.frame())
            return
        except (ServiceError, Exception) as err:
            await self._send(writer, protocol.error_frame("state", str(err)))
            return
        if kind == "stats":
            await self._send(writer, dict(result, type="stats"))
        else:
            await self._send(
                writer,
                {
                    "type": "ok",
                    "op": result["op"],
                    "name": result["name"],
                    "queries": result["queries"],
                    "watermarks": result["watermarks"],
                },
            )


class ServerHandle:
    """A server running on its own loop thread (tests, embedding)."""

    def __init__(
        self,
        server: MonitorServer,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ) -> None:
        self.server = server
        self.loop = loop
        self.thread = thread

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def engine(self) -> ServiceEngine:
        return self.server.engine

    @property
    def metrics(self) -> ServiceMetrics:
        return self.server.metrics

    def stop(self, checkpoint: bool = True) -> None:
        if not self.thread.is_alive():
            return
        fut = asyncio.run_coroutine_threadsafe(
            self.server.stop(checkpoint=checkpoint), self.loop
        )
        try:
            fut.result(timeout=60.0)
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(timeout=30.0)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(checkpoint=exc_type is None)


def start_in_thread(
    engine_config: EngineConfig, host: str = "127.0.0.1", port: int = 0, **kwargs
) -> ServerHandle:
    """Run a :class:`MonitorServer` on a dedicated event-loop thread.

    Blocks until the socket is bound (or startup failed, re-raising the
    failure here); returns a :class:`ServerHandle` whose ``stop()`` is
    safe to call from any thread.
    """
    started = threading.Event()
    holder: Dict[str, object] = {}

    def run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        holder["loop"] = loop
        try:
            server = MonitorServer(engine_config, host=host, port=port, **kwargs)
            loop.run_until_complete(server.start())
            holder["server"] = server
        except BaseException as err:  # noqa: BLE001 - re-raised in caller
            holder["error"] = err
            started.set()
            loop.close()
            return
        started.set()
        try:
            loop.run_forever()
        finally:
            pending = [t for t in asyncio.all_tasks(loop) if not t.done()]
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    thread = threading.Thread(target=run, name="service-loop", daemon=True)
    thread.start()
    if not started.wait(timeout=120.0):
        raise ServiceError("server thread did not start in time")
    if "error" in holder:
        raise holder["error"]  # type: ignore[misc]
    return ServerHandle(holder["server"], holder["loop"], thread)  # type: ignore[arg-type]
