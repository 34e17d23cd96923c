"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``experiments``
    List available experiment drivers.
``fig1 / fig6 / table2 / fig7 / fig8 / fig9``
    Reproduce one of the paper's figures or tables (``--scale`` shrinks
    the workload, ``--seed`` varies the data).
``ablations / multistream / robustness / resilience / ecg``
    Beyond-paper studies (design ablations, multi-stream scaling,
    noise x stretch robustness, fault-injection resilience, the ECG
    case study).
``all``
    Run every experiment in sequence (the EXPERIMENTS.md refresh).
``generate``
    Write a named dataset to CSV (stream / query / ground truth).
``monitor``
    Stream a CSV column through SPRING with a query from another CSV,
    printing matches as they are confirmed — the library as a tool.
    With ``--checkpoint-dir`` the run goes through the supervised
    runtime: transient read errors retry with backoff, and progress is
    snapshotted atomically so ``--resume`` continues a killed run with
    byte-identical match output.  ``--backend`` picks the kernel
    backend (``auto`` by default; matches are bit-identical across
    backends).
    With ``--shards N`` the run goes through the sharded
    multi-process runtime (supervised workers, automatic crash
    recovery).  Either way SIGTERM/SIGINT stop the run cooperatively:
    the tick in flight completes, a final snapshot and metrics file
    are written (when configured), workers drain, and the process
    exits 0.
``serve``
    Run the asyncio network service: producers push batched ticks over
    a newline-delimited JSON protocol (one logical stream per
    connection, credit-window backpressure), subscribers receive match
    events with stream/query filtering, control connections drive the
    live query lifecycle, and ``GET /metrics`` answers Prometheus text
    exposition on the same port.  ``--shards N`` fronts the sharded
    multi-process runtime; ``--checkpoint-dir``/``--resume`` make the
    in-process engine crash-recoverable with exactly-once event
    delivery past the acked watermark.  SIGTERM/SIGINT stop the server
    gracefully (final checkpoint included).
``backends``
    List the kernel backends this installation can use, with priority
    and the availability reason, and which one ``auto`` selects.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from repro.core.policy import LengthBand, TopK
from repro.core.registry import build_matcher, matcher_kinds
from repro.eval.harness import get_experiment, list_experiments
from repro.streams.source import CsvSource

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The repro-spring argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-spring",
        description="SPRING (ICDE 2007) reproduction: experiments and monitoring",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("experiments", help="list experiment drivers")

    for name in (
        "fig1",
        "fig6",
        "table2",
        "fig7",
        "fig8",
        "fig9",
        "ablations",
        "multistream",
        "robustness",
        "resilience",
        "ecg",
        "all",
    ):
        p = sub.add_parser(name, help=f"run {name}")
        p.add_argument("--scale", type=float, default=None,
                       help="workload scale (1.0 = paper scale)")
        p.add_argument("--seed", type=int, default=0, help="data seed")
        if name in ("fig6", "table2"):
            p.add_argument("--dataset", default=None,
                           help="restrict to one dataset (chirp/temperature/kursk/sunspots)")

    gen = sub.add_parser(
        "generate", help="write a dataset to CSV (stream/query/truth)"
    )
    gen.add_argument("dataset", help="dataset name (see 'experiments')")
    gen.add_argument("directory", help="output directory")
    gen.add_argument("--seed", type=int, default=0, help="data seed")

    mon = sub.add_parser("monitor", help="monitor a CSV stream for a query")
    mon.add_argument("stream_csv", help="CSV with the stream values")
    mon.add_argument("query_csv", nargs="+",
                     help="CSV file(s) with query values; several files "
                          "monitor concurrently through one fused bank "
                          "(match lines then carry the query's file stem)")
    mon.add_argument("--epsilon", type=float, required=True,
                     help="disjoint-query distance threshold")
    mon.add_argument("--column", type=int, default=0,
                     help="stream value column (0-based)")
    mon.add_argument("--query-column", type=int, default=0,
                     help="query value column (0-based)")
    mon.add_argument("--no-header", action="store_true",
                     help="CSV files have no header row")
    mon.add_argument("--strict-csv", action="store_true",
                     help="raise on malformed (unparseable) CSV cells "
                          "instead of treating them as missing")
    mon.add_argument("--matcher", default="spring", choices=matcher_kinds(),
                     help="matcher kind from the registry (default: spring)")
    mon.add_argument("--max-stretch", type=float, default=None,
                     help="length-band admission: native option of the "
                          "constrained matcher, attached as a LengthBand "
                          "policy to any other kind")
    mon.add_argument("--top-k", type=int, default=None,
                     help="bounded leaderboard size: native option of the "
                          "topk matcher, attached as a TopK policy to any "
                          "other kind")
    mon.add_argument("--reduction", type=int, default=None,
                     help="cascade downsampling factor (cascade matcher only)")
    mon.add_argument("--min-length", type=int, default=None,
                     help="shortest candidate window in non-missing ticks "
                          "(dynnorm matcher only; default: half the query)")
    mon.add_argument("--max-length", type=int, default=None,
                     help="longest candidate window in non-missing ticks "
                          "(dynnorm matcher only; default: twice the query)")
    mon.add_argument("--min-std", type=float, default=None,
                     help="skip windows whose std is <= this as "
                          "non-normalisable (dynnorm matcher only)")
    mon.add_argument("--checkpoint-dir", default=None,
                     help="run supervised with atomic snapshots in this "
                          "directory (enables --resume)")
    mon.add_argument("--checkpoint-every", type=int, default=100,
                     help="snapshot cadence in ticks (default 100)")
    mon.add_argument("--resume", action="store_true",
                     help="restore the newest snapshot from "
                          "--checkpoint-dir and continue the run")
    mon.add_argument("--metrics-out", default=None, metavar="PATH",
                     help="write Prometheus text exposition to PATH "
                          "(atomically rewritten every --metrics-every "
                          "ticks and once at end of stream)")
    mon.add_argument("--metrics-every", type=int, default=1000,
                     help="metrics file rewrite cadence in ticks "
                          "(default 1000)")
    mon.add_argument("--no-prune", action="store_true",
                     help="disable the exact lower-bound admission "
                          "cascade (matches are identical either way; "
                          "pruning only affects throughput)")
    mon.add_argument("--prune-buffer", type=int, default=1024,
                     help="replay-buffer capacity per stream for the "
                          "admission cascade (default 1024)")
    mon.add_argument("--backend", default=None,
                     choices=("auto", "numpy", "cext"),
                     help="kernel backend for the column recurrence "
                          "(default: auto = best available; matches "
                          "are bit-identical across backends)")
    mon.add_argument("--shards", type=int, default=None, metavar="N",
                     help="run through the sharded multi-process runtime "
                          "with N supervised worker processes (crash "
                          "recovery and restart are automatic; matches "
                          "are byte-identical to a single-process run)")

    srv = sub.add_parser(
        "serve", help="run the network service (line protocol + /metrics)"
    )
    srv.add_argument("--host", default="127.0.0.1",
                     help="bind address (default 127.0.0.1)")
    srv.add_argument("--port", type=int, default=7007,
                     help="TCP port; 0 picks an ephemeral port "
                          "(default 7007)")
    srv.add_argument("--streams", default=None, metavar="A,B,...",
                     help="comma-separated streams to pre-register "
                          "(required with --shards; optional otherwise — "
                          "producers auto-register on hello)")
    srv.add_argument("--query-csv", action="append", default=None,
                     metavar="CSV",
                     help="register a query at boot from a CSV file "
                          "(named by its stem; repeatable; needs "
                          "--epsilon)")
    srv.add_argument("--epsilon", type=float, default=None,
                     help="distance threshold for --query-csv queries")
    srv.add_argument("--query-column", type=int, default=0,
                     help="query value column (0-based)")
    srv.add_argument("--no-header", action="store_true",
                     help="query CSV files have no header row")
    srv.add_argument("--shards", type=int, default=0, metavar="N",
                     help="front the sharded runtime with N worker "
                          "processes (0 = in-process engine, default)")
    srv.add_argument("--backend", default=None,
                     choices=("auto", "numpy", "cext"),
                     help="kernel backend (default auto)")
    srv.add_argument("--no-prune", action="store_true",
                     help="disable the admission cascade")
    srv.add_argument("--prune-buffer", type=int, default=1024,
                     help="admission replay-buffer capacity")
    srv.add_argument("--checkpoint-dir", default=None,
                     help="checkpoint the engine into this directory "
                          "(in-process engine only)")
    srv.add_argument("--checkpoint-every", type=int, default=1000,
                     help="checkpoint cadence in applied ticks "
                          "(default 1000)")
    srv.add_argument("--resume", action="store_true",
                     help="restore the newest checkpoint and continue")
    srv.add_argument("--credit-window", type=int, default=None,
                     help="per-stream in-flight tick budget "
                          "(default 4096)")
    srv.add_argument("--max-batch", type=int, default=None,
                     help="max values per push frame (default 4096)")
    srv.add_argument("--subscriber-queue", type=int, default=None,
                     help="per-subscriber event queue depth before "
                          "eviction (default 1024)")

    sub.add_parser(
        "backends",
        help="list kernel backends (availability, priority, auto choice)",
    )
    return parser


def _run_experiment(name: str, args: argparse.Namespace) -> int:
    kwargs = {"seed": args.seed}
    if args.scale is not None:
        kwargs["scale"] = args.scale
    if getattr(args, "dataset", None):
        kwargs["dataset"] = args.dataset
    result = get_experiment(name)(**kwargs)
    print(result.render())
    return 0


def _run_all(args: argparse.Namespace) -> int:
    status = 0
    for name in list_experiments():
        print(f"=== {name} ===")
        scale = args.scale
        if name in ("fig7", "fig8"):
            # The performance sweeps pay Naive's O(n^2 * m) total cost;
            # cap their scale so `all` stays minutes, not hours.  Run
            # them directly to go bigger.
            scale = min(scale, 0.01) if scale is not None else 0.01
        exp_args = argparse.Namespace(scale=scale, seed=args.seed, dataset=None)
        status |= _run_experiment(name, exp_args)
        print()
    return status


def _run_generate(args: argparse.Namespace) -> int:
    from repro.datasets.registry import build, export_csv

    data = build(args.dataset, seed=args.seed)
    paths = export_csv(data, args.directory)
    print(
        f"{data.name}: n={data.n}, m={data.m}, "
        f"{len(data.occurrences)} ground-truth occurrences, "
        f"suggested epsilon {data.suggested_epsilon:.6g}"
    )
    for kind, path in paths.items():
        print(f"  {kind}: {path}")
    return 0


def _matcher_kwargs(args: argparse.Namespace) -> dict:
    """Translate CLI matcher flags into ``build_matcher`` keyword args.

    Options native to the selected kind become constructor arguments;
    the rest attach as report policies, so e.g. ``--matcher normalized
    --max-stretch 1.5`` composes normalisation with a length band.
    """
    kwargs: dict = {}
    policies = []
    if args.max_stretch is not None:
        if args.matcher == "constrained":
            kwargs["max_stretch"] = args.max_stretch
        else:
            policies.append(LengthBand(args.max_stretch))
    if args.top_k is not None:
        if args.matcher == "topk":
            kwargs["k"] = args.top_k
        else:
            policies.append(TopK(args.top_k))
    if args.reduction is not None:
        if args.matcher != "cascade":
            raise SystemExit("--reduction requires --matcher cascade")
        kwargs["reduction"] = args.reduction
    for option in ("min_length", "max_length", "min_std"):
        value = getattr(args, option, None)
        if value is not None:
            if args.matcher != "dynnorm":
                flag = "--" + option.replace("_", "-")
                raise SystemExit(f"{flag} requires --matcher dynnorm")
            kwargs[option] = value
    if policies:
        kwargs["policies"] = policies
    return kwargs


def _trap_stop_signals(on_stop):
    """Point SIGTERM/SIGINT at ``on_stop``; returns a restore callable.

    ``on_stop`` must be handler-safe (set a flag, nothing more).  On
    platforms or threads where handlers cannot be installed the trap
    degrades to a no-op — the default signal disposition applies.
    """
    import signal

    previous = {}

    def handler(signum, frame):  # pragma: no cover - exercised via kill
        on_stop()

    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[sig] = signal.signal(sig, handler)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass

    def restore() -> None:
        for sig, prev in previous.items():
            try:
                signal.signal(sig, prev)
            except (ValueError, OSError):  # pragma: no cover
                pass

    return restore


def _metrics_writer(registry, path: str):
    """A zero-arg callable atomically rewriting the Prometheus file."""
    from repro.obs.prometheus import write as write_prometheus

    def write() -> None:
        write_prometheus(registry, path)

    return write


def _run_monitor_supervised(
    args: argparse.Namespace, queries: "dict[str, np.ndarray]"
) -> int:
    from repro.core.monitor import StreamMonitor
    from repro.runtime import CheckpointManager, SupervisedRunner

    source = CsvSource(args.stream_csv, columns=args.column,
                       skip_header=not args.no_header,
                       strict=args.strict_csv)
    manager = CheckpointManager(args.checkpoint_dir)
    if args.resume:
        # The snapshot carries queries and epsilon; CLI args are ignored.
        runner = SupervisedRunner.resume(
            [source], manager, checkpoint_every=args.checkpoint_every,
            prune=not args.no_prune, prune_buffer=args.prune_buffer,
            backend=args.backend,
        )
        print(f"resumed from snapshot at tick {runner.resumed_from}")
    else:
        monitor = StreamMonitor(keep_history=False,
                                prune=not args.no_prune,
                                prune_buffer=args.prune_buffer,
                                backend=args.backend)
        for name, query in queries.items():
            monitor.add_query(name, query, epsilon=args.epsilon,
                              matcher=args.matcher, **_matcher_kwargs(args))
        runner = SupervisedRunner(
            monitor, [source], checkpoint=manager,
            checkpoint_every=args.checkpoint_every,
        )

    write_metrics = None
    if args.metrics_out is not None:
        registry = runner.enable_metrics()
        write_metrics = _metrics_writer(registry, args.metrics_out)
        every = max(1, args.metrics_every)

        def on_tick(watermark: int) -> None:
            if watermark % every == 0:
                write_metrics()

        runner.on_tick = on_tick

    count = 0
    multi = len(queries) > 1

    def on_match(event) -> None:
        nonlocal count
        count += 1
        match = event.match
        reported = (
            f" (reported at tick {match.output_time})"
            if match.output_time is not None
            else " (at end of stream)"
        )
        tag = f" [{event.query}]" if multi else ""
        print(
            f"match #{count}{tag}: ticks {match.start}..{match.end} "
            f"distance {match.distance:.6g}{reported}"
        )

    runner.subscribe(on_match)
    restore_signals = _trap_stop_signals(runner.request_stop)
    try:
        report = runner.run()
    finally:
        restore_signals()
    if write_metrics is not None:
        write_metrics()
        print(f"wrote metrics to {args.metrics_out}")
    health = report.health[source.name]
    print(
        f"{report.ticks} ticks processed (watermark {report.watermark}), "
        f"{count} matches, {health.retries} retries, "
        f"{report.checkpoints} snapshots"
    )
    if report.stopped:
        print(
            f"stop requested: final snapshot at tick {report.watermark}; "
            f"continue with --resume"
        )
    if source.malformed_count:
        print(f"warning: {source.malformed_count} malformed CSV cells")
    if health.quarantined:
        print(f"stream quarantined: {health.quarantine_reason}")
        return 1
    return 0


def _run_monitor_sharded(
    args: argparse.Namespace, queries: "dict[str, np.ndarray]"
) -> int:
    """Monitor through :class:`~repro.runtime.shard.ShardedMonitor`.

    The supervisor publishes the CSV stream to ``--shards`` worker
    processes; crashed workers restart and resume from their shard
    checkpoints mid-run.  SIGTERM/SIGINT stop pushing after the tick in
    flight, drain the workers (final per-shard snapshots included), and
    exit 0.  Matches print in arrival order (shards interleave); the
    totals line reflects the deterministic merged report.
    """
    from repro.runtime import ShardedMonitor

    if args.shards < 1:
        raise SystemExit(f"--shards must be >= 1, got {args.shards}")
    if args.resume:
        raise SystemExit(
            "--resume is not supported with --shards: sharded runs "
            "recover crashed workers within the run; cross-run resume "
            "is the single-process supervised path"
        )
    source = CsvSource(args.stream_csv, columns=args.column,
                       skip_header=not args.no_header,
                       strict=args.strict_csv)
    monitor = ShardedMonitor(
        shards=args.shards,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        prune=not args.no_prune,
        prune_buffer=args.prune_buffer,
        backend=args.backend,
    )
    monitor.add_stream("stream")
    for name, query in queries.items():
        monitor.add_query(name, query, epsilon=args.epsilon,
                          matcher=args.matcher, **_matcher_kwargs(args))
    write_metrics = None
    every = max(1, args.metrics_every)
    if args.metrics_out is not None:
        registry = monitor.enable_metrics()
        write_metrics = _metrics_writer(registry, args.metrics_out)

    count = 0
    multi = len(queries) > 1

    def on_match(event) -> None:
        nonlocal count
        count += 1
        match = event.match
        reported = (
            f" (reported at tick {match.output_time})"
            if match.output_time is not None
            else " (at end of stream)"
        )
        tag = f" [{event.query}]" if multi else ""
        print(
            f"match #{count}{tag}: ticks {match.start}..{match.end} "
            f"distance {match.distance:.6g}{reported}"
        )

    monitor.subscribe(on_match)
    stop = {"requested": False}
    restore_signals = _trap_stop_signals(
        lambda: stop.__setitem__("requested", True)
    )
    skipped = 0
    ticks = 0
    try:
        with monitor:
            monitor.start()
            for value in source:
                if stop["requested"]:
                    break
                if not np.isfinite(value):
                    # The sharded data plane is finite-only; missing
                    # CSV cells are skipped (and counted) here.
                    skipped += 1
                    continue
                monitor.push("stream", value)
                ticks += 1
                if write_metrics is not None and ticks % every == 0:
                    write_metrics()
            report = monitor.finish(flush=not stop["requested"])
    finally:
        restore_signals()
    if write_metrics is not None:
        write_metrics()
        print(f"wrote metrics to {args.metrics_out}")
    print(
        f"{report.ticks} ticks processed across {args.shards} shards, "
        f"{count} matches, {report.restarts} worker restarts, "
        f"{report.rebalances} rebalances"
    )
    if skipped:
        print(f"warning: {skipped} non-finite stream values skipped")
    if source.malformed_count:
        print(f"warning: {source.malformed_count} malformed CSV cells")
    if stop["requested"]:
        print("stop requested: workers drained, shard snapshots written")
    if report.quarantined:
        print(f"warning: quarantined workers: {sorted(report.quarantined)}")
    return 0


def _load_queries(args: argparse.Namespace) -> "dict[str, np.ndarray]":
    """Load every query CSV, keyed by a unique name (the file stem).

    A single file keeps the historical name ``"query"`` so snapshots
    and printed output from one-query runs are unchanged.
    """
    import os

    values = []
    for path in args.query_csv:
        query = np.asarray(
            list(CsvSource(path, columns=args.query_column,
                           skip_header=not args.no_header)),
            dtype=np.float64,
        )
        values.append(query[~np.isnan(query)])
    if len(values) == 1:
        return {"query": values[0]}
    queries: "dict[str, np.ndarray]" = {}
    for path, query in zip(args.query_csv, values):
        stem = os.path.splitext(os.path.basename(path))[0]
        name, i = stem, 1
        while name in queries:
            name = f"{stem}#{i}"
            i += 1
        queries[name] = query
    return queries


def _run_serve(args: argparse.Namespace) -> int:
    """Run the network service until SIGTERM/SIGINT."""
    import asyncio

    from repro.service import protocol
    from repro.service.engine import EngineConfig
    from repro.service.server import MonitorServer

    streams = []
    if args.streams:
        streams = [s for s in (p.strip() for p in args.streams.split(",")) if s]
    queries = []
    if args.query_csv:
        if args.epsilon is None:
            raise SystemExit("--query-csv needs --epsilon")
        for name, query in _load_queries(args).items():
            queries.append((name, query, float(args.epsilon), {}))
    config = EngineConfig(
        streams=streams,
        shards=int(args.shards),
        backend=args.backend,
        prune=not args.no_prune,
        prune_buffer=args.prune_buffer,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
        queries=queries,
    )
    if args.resume and args.checkpoint_dir is None:
        raise SystemExit("--resume needs --checkpoint-dir")
    server = MonitorServer(
        config,
        host=args.host,
        port=args.port,
        credit_window=args.credit_window or protocol.DEFAULT_CREDIT_WINDOW,
        max_batch=args.max_batch or protocol.DEFAULT_MAX_BATCH,
        subscriber_queue=(
            args.subscriber_queue or protocol.DEFAULT_SUBSCRIBER_QUEUE
        ),
    )

    async def run() -> None:
        await server.start()
        # Parseable by wrappers (the load harness spawns us with
        # --port 0 and reads the bound port from this line).
        print(f"listening on {server.host}:{server.port}", flush=True)
        stop = asyncio.Event()
        restore = _trap_stop_signals(
            lambda: server._loop.call_soon_threadsafe(stop.set)
        )
        try:
            await stop.wait()
        finally:
            restore()
            await server.stop(checkpoint=True)
        print("stopped", flush=True)

    asyncio.run(run())
    return 0


def _run_monitor(args: argparse.Namespace) -> int:
    queries = _load_queries(args)
    if args.shards is not None:
        return _run_monitor_sharded(args, queries)
    if args.checkpoint_dir is not None:
        return _run_monitor_supervised(args, queries)
    if args.resume:
        raise SystemExit("--resume needs --checkpoint-dir")
    if args.metrics_out is not None or len(queries) > 1:
        return _run_monitor_metrics(args, queries)
    (query,) = queries.values()
    matcher = build_matcher(args.matcher, query, epsilon=args.epsilon,
                            **_matcher_kwargs(args))
    if args.backend is not None:
        # Validate the choice even when this matcher kind has no
        # backend hook (explicit-but-unavailable must fail loudly).
        from repro.core.backends import resolve_backend

        backend = resolve_backend(args.backend)
        set_backend = getattr(matcher, "set_backend", None)
        if callable(set_backend):
            set_backend(backend)
    source = CsvSource(args.stream_csv, columns=args.column,
                       skip_header=not args.no_header,
                       strict=args.strict_csv)
    count = 0
    for value in source:
        match = matcher.step(value)
        if match is not None:
            count += 1
            print(
                f"match #{count}: ticks {match.start}..{match.end} "
                f"distance {match.distance:.6g} (reported at tick "
                f"{match.output_time})"
            )
    final = matcher.flush()
    if final is not None:
        count += 1
        print(
            f"match #{count} (at end of stream): ticks "
            f"{final.start}..{final.end} distance {final.distance:.6g}"
        )
    print(f"{matcher.tick} ticks processed, {count} matches")
    if source.malformed_count:
        print(f"warning: {source.malformed_count} malformed CSV cells")
    return 0


def _run_monitor_metrics(
    args: argparse.Namespace, queries: "dict[str, np.ndarray]"
) -> int:
    """Unsupervised monitoring through a :class:`StreamMonitor`.

    Used for live Prometheus exposition (``--metrics-out``) and for
    multi-query runs (several ``query_csv`` files form a fused bank,
    the workload the admission cascade targets).  One-query match
    lines are identical to the bare matcher loop; multi-query lines
    carry the query name.
    """
    from repro.core.monitor import StreamMonitor

    monitor = StreamMonitor(keep_history=False,
                            prune=not args.no_prune,
                            prune_buffer=args.prune_buffer,
                            backend=args.backend)
    write_metrics = None
    every = max(1, args.metrics_every)
    if args.metrics_out is not None:
        registry = monitor.enable_metrics()
        write_metrics = _metrics_writer(registry, args.metrics_out)
    for name, query in queries.items():
        monitor.add_query(name, query, epsilon=args.epsilon,
                          matcher=args.matcher, **_matcher_kwargs(args))
    monitor.add_stream("stream")
    source = CsvSource(args.stream_csv, columns=args.column,
                       skip_header=not args.no_header,
                       strict=args.strict_csv)
    multi = len(queries) > 1
    count = 0
    ticks = 0
    for value in source:
        ticks += 1
        for event in monitor.push("stream", value):
            match = event.match
            count += 1
            tag = f" [{event.query}]" if multi else ""
            print(
                f"match #{count}{tag}: ticks {match.start}..{match.end} "
                f"distance {match.distance:.6g} (reported at tick "
                f"{match.output_time})"
            )
        if write_metrics is not None and ticks % every == 0:
            write_metrics()
    for event in monitor.flush():
        match = event.match
        count += 1
        tag = f" [{event.query}]" if multi else ""
        print(
            f"match #{count}{tag} (at end of stream): ticks "
            f"{match.start}..{match.end} distance {match.distance:.6g}"
        )
    if write_metrics is not None:
        write_metrics()
    print(f"{ticks} ticks processed, {count} matches")
    if args.metrics_out is not None:
        print(f"wrote metrics to {args.metrics_out}")
    if source.malformed_count:
        print(f"warning: {source.malformed_count} malformed CSV cells")
    return 0


def _run_backends() -> int:
    """Print the kernel-backend registry and what ``auto`` selects."""
    from repro.core.backends import backend_infos, resolve_backend

    auto = resolve_backend("auto")
    print(f"auto selects: {auto.name}")
    for info in backend_infos():
        status = "available" if info.available else "unavailable"
        kind = "compiled" if info.compiled else "reference"
        print(
            f"  {info.name:<6} priority={info.priority:<3} {kind:<9} "
            f"{status}: {info.detail}"
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    # Ensure all experiments are registered before dispatch.
    import repro.eval.experiments  # noqa: F401

    args = build_parser().parse_args(argv)
    if args.command == "experiments":
        for name in list_experiments():
            print(name)
        return 0
    if args.command == "backends":
        return _run_backends()
    if args.command == "monitor":
        return _run_monitor(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "generate":
        return _run_generate(args)
    if args.command == "all":
        return _run_all(args)
    if args.scale is None and args.command in ("fig7", "fig8"):
        args.scale = 0.01  # full scale sweeps n to 1e6; pick a sane default
    return _run_experiment(args.command, args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
