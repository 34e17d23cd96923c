#!/usr/bin/env python
"""CI smoke gate: fused-throughput regressions and metrics overhead.

Absolute ticks/sec numbers are machine-dependent, so the gate checks
machine-independent *ratios*, both measured on the same machine in the
same run:

* ``fused_speedup_vs_per_query`` — the fused 64-query monitor vs 64
  independent ``Spring`` objects stepped in a Python loop.  A refactor
  that quietly knocks matchers out of the fused banks (e.g. a
  capability flag regression) collapses this ratio toward 1 regardless
  of hardware.  Fails when it drops below ``(1 - tolerance)`` times the
  value recorded in the committed ``BENCH_throughput.json``.
* ``metrics_overhead_pct`` — the slowdown of the same 64-query push
  workload with the metrics recorder enabled.  The observability layer
  promises near-zero cost; the gate fails when the measured overhead
  exceeds ``--max-metrics-overhead`` percent (default 5).
* ``prune_speedup`` — the low-selectivity 64-query workload with the
  lower-bound admission cascade on vs off.  The cascade is exact
  (identical match streams), so its entire value is this ratio; the
  gate fails when it drops below ``--min-prune-speedup`` (default 2),
  an absolute floor rather than a baseline-relative one because the
  ratio is machine-independent by construction.
* ``prune_speedup_cext`` — the same low-selectivity workload in the
  shipping configuration (cext backend, 40-tick ``push_many``) with
  pruning on vs off, gated against ``--min-prune-speedup-cext``
  (default 1): on the compiled batch path the cascade must never cost
  throughput.  The gate also fails when the two sides' match streams
  differ.  Skipped with the recorded reason when cext is unavailable.
* ``metrics_overhead_pruned_pct`` — the recorder's cost re-measured on
  the pruned path, where each tick does far less work and the
  recorder's fixed per-push cost is proportionally larger; gated
  against the looser ``--max-metrics-overhead-pruned`` (default 10).
* ``index_admission_speedup`` — the 10,000-query fully-parked workload
  under grouped (envelope-index) admission vs the flat cascade, gated
  against ``--min-index-admission-speedup`` (default 3), an absolute
  floor because the ratio is machine-independent by construction.  A
  regression here means the group index stopped certifying whole
  groups (e.g. a rebuild bug re-indexing every tick) and admission is
  back to O(Q) per cold tick.
* ``dynnorm_prune_speedup`` — the per-window-normalised matcher's
  low-selectivity workload with the corner lower bound on vs off,
  gated against ``--min-dynnorm-prune-speedup`` (default 2).  The
  bound is exact (identical match streams), so like ``prune_speedup``
  its entire value is this ratio; a regression means windows stopped
  being skipped (e.g. a bound no longer tight enough to beat epsilon)
  and every tick is back to one full DP per candidate length.
* ``kernel_speedup_vs_numpy`` — the 64-query push workload on the
  compiled kernel backend (cext) vs the numpy reference, measured back-to-back per round with the minimum ratio
  gated against ``--min-kernel-speedup`` (default 5), an absolute
  floor because the ratio is machine-independent by construction.
  Skipped with a note when no compiled backend is available (no C
  compiler), so numpy-only CI legs stay green.
* ``shard_scaling_speedup`` — the sharded serving runtime at 4 workers
  vs 1 worker on the 64-stream x 1000-query workload, gated against
  ``--min-shard-scaling`` (default 2).  Skipped with a note when the
  machine has fewer than 4 CPUs (the report records ``cpu_count``):
  multiprocessing cannot beat a single worker without cores to run on,
  and a floor that fails on small runners gates the runner, not the
  code.

With ``--service-smoke`` the gate instead runs the network-service
load smoke (``bench_load.run_load``): a real ``repro serve`` process
under ``--service-clients`` concurrent producers.  It fails when any
expected match event is not delivered, when end-to-end p99 match
latency exceeds ``--max-service-p99-ms``, or when saturation
throughput drops below ``--min-service-throughput`` ticks/sec.  The
latency/throughput floors are deliberately coarse sanity bounds (they
catch a wedged event loop or an accidental per-tick sleep, not
percent-level drift) because absolute numbers are machine-dependent.
The kernel-ratio gates above do not run in this mode, so the CI
service job stays fast; the default invocation is unchanged.

Usage::

    PYTHONPATH=src python scripts/check_bench_regression.py [--ticks N]
    PYTHONPATH=src python scripts/check_bench_regression.py \\
        --service-smoke --service-clients 20
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SCRIPTS_DIR = Path(__file__).resolve().parent
REPO_ROOT = SCRIPTS_DIR.parent

sys.path.insert(0, str(SCRIPTS_DIR))

from bench_throughput import run_suite  # noqa: E402


def main(argv: object = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        type=Path,
        default=REPO_ROOT / "BENCH_throughput.json",
        help="recorded benchmark JSON to compare against",
    )
    parser.add_argument(
        "--ticks",
        type=int,
        default=4_000,
        help="stream length for the smoke run (default 4000; smaller "
        "than the recorded run — the gate compares ratios, not ticks/sec)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.2,
        help="allowed fractional drop in the fused speedup (default 0.2)",
    )
    parser.add_argument(
        "--max-metrics-overhead",
        type=float,
        default=5.0,
        help="maximum allowed metrics-enabled slowdown on the 64-query "
        "push path, in percent (default 5.0)",
    )
    parser.add_argument(
        "--min-prune-speedup",
        type=float,
        default=2.0,
        help="minimum pruned/unpruned throughput ratio on the "
        "low-selectivity 64-query workload (default 2.0)",
    )
    parser.add_argument(
        "--min-prune-speedup-cext",
        type=float,
        default=1.0,
        help="minimum pruned/unpruned throughput ratio on the "
        "low-selectivity 64-query workload pushed in 40-tick batches "
        "on cext (default 1.0); skipped when cext is unavailable",
    )
    parser.add_argument(
        "--max-metrics-overhead-pruned",
        type=float,
        default=10.0,
        help="maximum allowed metrics-enabled slowdown on the pruned "
        "low-selectivity push path, in percent (default 10.0; looser "
        "than the unpruned ceiling because pruned ticks are ~5x "
        "cheaper, so the recorder's fixed cost weighs more)",
    )
    parser.add_argument(
        "--min-index-admission-speedup",
        type=float,
        default=3.0,
        help="minimum grouped/flat admission throughput ratio on the "
        "10k-query fully-parked workload (default 3.0)",
    )
    parser.add_argument(
        "--min-dynnorm-prune-speedup",
        type=float,
        default=2.0,
        help="minimum pruned/unpruned throughput ratio for the "
        "per-window-normalised matcher's low-selectivity workload "
        "(default 2.0)",
    )
    parser.add_argument(
        "--min-kernel-speedup",
        type=float,
        default=5.0,
        help="minimum compiled-backend/numpy throughput ratio on the "
        "64-query push workload (default 5.0); skipped when no "
        "compiled kernel backend is available",
    )
    parser.add_argument(
        "--min-shard-scaling",
        type=float,
        default=2.0,
        help="minimum 4-worker/1-worker throughput ratio for the "
        "sharded runtime (default 2.0); skipped on machines with "
        "fewer than 4 CPUs",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=5,
        help="rounds for the push/push-metrics overhead pair (the "
        "min per-round ratio is gated); single runs jitter wider "
        "than the overhead ceiling (default 5)",
    )
    parser.add_argument(
        "--service-smoke",
        action="store_true",
        help="run the network-service load smoke instead of the kernel "
        "ratio gates (see module docstring)",
    )
    parser.add_argument(
        "--service-clients",
        type=int,
        default=20,
        help="concurrent producer connections for --service-smoke "
        "(default 20; the recorded benchmark uses 100+)",
    )
    parser.add_argument(
        "--service-ticks",
        type=int,
        default=200,
        help="ticks per client for --service-smoke (default 200)",
    )
    parser.add_argument(
        "--max-service-p99-ms",
        type=float,
        default=5000.0,
        help="ceiling on p99 end-to-end match latency for "
        "--service-smoke, in milliseconds (default 5000; a coarse "
        "sanity bound, not a perf target)",
    )
    parser.add_argument(
        "--min-service-throughput",
        type=float,
        default=1000.0,
        help="floor on acked ticks/sec for --service-smoke "
        "(default 1000; a coarse sanity bound)",
    )
    args = parser.parse_args(argv)

    if args.service_smoke:
        return _service_smoke(args)

    baseline = json.loads(args.baseline.read_text())
    recorded = baseline["fused_speedup_vs_per_query"]
    if recorded is None:
        print("baseline carries no fused speedup; nothing to gate against")
        return 0

    report = run_suite(args.ticks, repeats=args.repeats)
    measured = report["fused_speedup_vs_per_query"]
    floor = (1.0 - args.tolerance) * recorded
    failed = False

    print(f"recorded fused speedup : {recorded:.2f}x ({args.baseline.name})")
    print(f"measured fused speedup : {measured:.2f}x (ticks={args.ticks})")
    print(f"gate floor             : {floor:.2f}x")
    if measured < floor:
        print(
            f"FAIL: fused speedup regressed more than "
            f"{args.tolerance:.0%} vs the recorded baseline"
        )
        failed = True
    else:
        print("OK: fused speedup within tolerance")

    overhead = report["metrics_overhead_pct"]
    if overhead is None:
        print("no metrics-enabled measurement; skipping overhead gate")
    else:
        print(
            f"metrics overhead       : {overhead:.2f}% "
            f"(ceiling {args.max_metrics_overhead:.1f}%)"
        )
        if overhead > args.max_metrics_overhead:
            print(
                "FAIL: enabling metrics costs more than "
                f"{args.max_metrics_overhead:.1f}% on the 64-query push path"
            )
            failed = True
        else:
            print("OK: metrics overhead within budget")

    prune_speedup = report["prune_speedup"]
    if prune_speedup is None:
        print("no pruning measurement; skipping prune-speedup gate")
    else:
        print(
            f"prune speedup          : {prune_speedup:.2f}x "
            f"(floor {args.min_prune_speedup:.1f}x)"
        )
        if prune_speedup < args.min_prune_speedup:
            print(
                "FAIL: the admission cascade delivers less than "
                f"{args.min_prune_speedup:.1f}x on the low-selectivity "
                "workload"
            )
            failed = True
        else:
            print("OK: prune speedup above floor")

    prune_speedup_cext = report["prune_speedup_cext"]
    if prune_speedup_cext is None:
        print(
            "no cext prune measurement; skipping cext prune gate "
            f"({report['prune_speedup_cext_skipped']})"
        )
    else:
        print(
            f"prune speedup cext     : {prune_speedup_cext:.2f}x "
            f"(floor {args.min_prune_speedup_cext:.1f}x)"
        )
        if not report["prune_cext_identical"]:
            print(
                "FAIL: pruning changed the match stream on the cext "
                "batch path"
            )
            failed = True
        elif prune_speedup_cext < args.min_prune_speedup_cext:
            print(
                "FAIL: pruning delivers less than "
                f"{args.min_prune_speedup_cext:.1f}x on the cext "
                "push_many path of the low-selectivity workload"
            )
            failed = True
        else:
            print("OK: cext prune speedup above floor, streams identical")

    overhead_pruned = report["metrics_overhead_pruned_pct"]
    if overhead_pruned is None:
        print("no pruned metrics measurement; skipping pruned overhead gate")
    else:
        print(
            f"metrics overhead pruned: {overhead_pruned:.2f}% "
            f"(ceiling {args.max_metrics_overhead_pruned:.1f}%)"
        )
        if overhead_pruned > args.max_metrics_overhead_pruned:
            print(
                "FAIL: enabling metrics costs more than "
                f"{args.max_metrics_overhead_pruned:.1f}% on the pruned "
                "low-selectivity push path"
            )
            failed = True
        else:
            print("OK: pruned metrics overhead within budget")

    index_speedup = report["index_admission_speedup"]
    if index_speedup is None:
        print("no admission measurement; skipping admission gate")
    else:
        print(
            f"index admission speedup: {index_speedup:.2f}x "
            f"(floor {args.min_index_admission_speedup:.1f}x)"
        )
        if index_speedup < args.min_index_admission_speedup:
            print(
                "FAIL: grouped admission delivers less than "
                f"{args.min_index_admission_speedup:.1f}x over the flat "
                "cascade on the 10k-query workload"
            )
            failed = True
        else:
            print("OK: index admission speedup above floor")

    dynnorm_speedup = report["dynnorm_prune_speedup"]
    if dynnorm_speedup is None:
        print("no dynnorm measurement; skipping dynnorm prune gate")
    else:
        print(
            f"dynnorm prune speedup  : {dynnorm_speedup:.2f}x "
            f"(floor {args.min_dynnorm_prune_speedup:.1f}x)"
        )
        if dynnorm_speedup < args.min_dynnorm_prune_speedup:
            print(
                "FAIL: the dynnorm corner bound delivers less than "
                f"{args.min_dynnorm_prune_speedup:.1f}x on the "
                "low-selectivity workload"
            )
            failed = True
        else:
            print("OK: dynnorm prune speedup above floor")

    kernel_speedup = report["kernel_speedup_vs_numpy"]
    if kernel_speedup is None:
        print("no compiled kernel backend available; skipping kernel gate")
    else:
        print(
            f"kernel speedup         : {kernel_speedup:.2f}x on "
            f"{report['kernel_backend']} "
            f"(floor {args.min_kernel_speedup:.1f}x)"
        )
        if kernel_speedup < args.min_kernel_speedup:
            print(
                "FAIL: the compiled kernel backend delivers less than "
                f"{args.min_kernel_speedup:.1f}x over numpy on the "
                "64-query push workload"
            )
            failed = True
        else:
            print("OK: kernel speedup above floor")

    shard_speedup = report["shard_scaling_speedup"]
    shard_workers = report["config"]["shard_workers"]
    cpu_count = report["config"]["cpu_count"] or 1
    if shard_speedup is None:
        print("no shard scaling measurement; skipping shard gate")
    elif cpu_count < shard_workers:
        print(
            f"shard scaling          : {shard_speedup:.2f}x "
            f"(not gated: {cpu_count} cpus < {shard_workers} workers)"
        )
    else:
        print(
            f"shard scaling          : {shard_speedup:.2f}x at "
            f"{shard_workers} workers "
            f"(floor {args.min_shard_scaling:.1f}x)"
        )
        if shard_speedup < args.min_shard_scaling:
            print(
                "FAIL: the sharded runtime delivers less than "
                f"{args.min_shard_scaling:.1f}x at {shard_workers} "
                "workers on the 64-stream workload"
            )
            failed = True
        else:
            print("OK: shard scaling above floor")

    return 1 if failed else 0


def _service_smoke(args: argparse.Namespace) -> int:
    from bench_load import run_load

    result = run_load(
        clients=args.service_clients, ticks=args.service_ticks
    )
    failed = False

    received = result["events_received"]
    expected = result["events_expected"]
    print(f"events delivered       : {received}/{expected}")
    if received != expected:
        print("FAIL: not every expected match event was delivered")
        failed = True
    else:
        print("OK: every expected match event delivered")

    lat = result["latency_ms"]
    if lat is None:
        print("FAIL: no match latencies were measured")
        failed = True
    else:
        print(
            f"match latency p99      : {lat['p99']:.1f}ms "
            f"(ceiling {args.max_service_p99_ms:.0f}ms, "
            f"p50 {lat['p50']:.1f}ms)"
        )
        if lat["p99"] > args.max_service_p99_ms:
            print(
                "FAIL: p99 end-to-end match latency exceeds "
                f"{args.max_service_p99_ms:.0f}ms under "
                f"{args.service_clients} clients"
            )
            failed = True
        else:
            print("OK: p99 match latency within the sanity bound")

    throughput = result["throughput_ticks_per_sec"]
    print(
        f"service throughput     : {throughput:.0f} ticks/sec "
        f"(floor {args.min_service_throughput:.0f})"
    )
    if throughput < args.min_service_throughput:
        print(
            "FAIL: service throughput below "
            f"{args.min_service_throughput:.0f} ticks/sec"
        )
        failed = True
    else:
        print("OK: service throughput above the sanity floor")

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
