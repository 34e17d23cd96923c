#!/usr/bin/env python
"""Per-stage hot-path profile: kernel vs policy vs transform vs dispatch.

Drives a multi-query :class:`~repro.core.monitor.StreamMonitor` with
tracing enabled (:mod:`repro.obs.tracing`) and aggregates the span
buffer into architectural stages, answering "where does one tick's
budget actually go?" at the layer boundaries rather than per function:

* ``kernel``            — Equation 7/8 column updates
  (``kernel.update_column`` / ``kernel.update_columns``)
* ``policy``            — Figure-4 report logic + report policies
* ``transform``         — stream transforms (z-normalisation)
* ``cascade verify``    — full-resolution verification windows
* ``admission``         — the lower-bound admission tier
  (``admission.admit``: corridor tests, group certification, parking);
  empty on cext, whose ``kernel.extend_bank`` runs admission inside the
  compiled loop, per batch under ``--batch`` and per tick otherwise
* ``bank dispatch``     — fused-bank glue around the kernel
  (``engine.bank_step`` / ``engine.bank_extend`` self time)
* ``monitor dispatch``  — per-push plan/collect/dispatch glue
  (``monitor.push`` / ``monitor.push_many`` self time)

Self time (a span's duration minus its child spans) is the attribution
quantity, so stages sum to the traced total without double counting.

Usage::

    PYTHONPATH=src python scripts/profile_hotpath.py [--ticks N]
        [--queries Q] [--mixed] [--batch] [--json PATH]

``--mixed`` registers one query per registered matcher kind on top of
the fused spring bank, so the transform/cascade stages have work to
show.  ``--json`` additionally dumps the raw per-span-name totals.
"""

from __future__ import annotations

import argparse
import json
from typing import Dict, List, Tuple

import numpy as np

from repro.core.monitor import StreamMonitor
from repro.obs.tracing import disable_tracing, enable_tracing

#: stage name -> span names whose *self* time it owns.
STAGES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("kernel", ("kernel.update_column", "kernel.update_columns")),
    ("compiled kernel", ("kernel.step_bank", "kernel.extend_bank")),
    ("policy", ("policy.report",)),
    ("transform", ("transform.forward",)),
    ("cascade verify", ("cascade.verify",)),
    ("admission", ("admission.admit",)),
    ("bank dispatch", ("engine.bank_step", "engine.bank_extend")),
    ("monitor dispatch", ("monitor.push", "monitor.push_many")),
)


def build_monitor(
    queries: int, mixed: bool, rng: np.random.Generator,
    backend: str = None, admission: str = None,
) -> StreamMonitor:
    """A single-stream monitor with ``queries`` fusable spring queries
    (plus one query per non-trivial kind when ``mixed``)."""
    monitor = StreamMonitor(keep_history=False, backend=backend,
                            admission=admission)
    monitor.add_stream("s0")
    for i in range(queries):
        query = np.cumsum(rng.normal(size=8 + 4 * (i % 4)))
        monitor.add_query(f"q{i}", query, epsilon=2.0)
    if mixed:
        extra = np.cumsum(rng.normal(size=12))
        monitor.add_query("q_constrained", extra, epsilon=2.0,
                          matcher="constrained", max_stretch=2.0)
        monitor.add_query("q_normalized", extra, epsilon=4.0,
                          matcher="normalized", warmup=8)
        monitor.add_query("q_cascade", extra, epsilon=2.0,
                          matcher="cascade", reduction=2)
    return monitor


def profile(
    ticks: int,
    queries: int,
    mixed: bool,
    batch: bool,
    seed: int = 20070415,
    backend: str = None,
    admission: str = None,
) -> Dict[str, object]:
    """Run the traced workload; return stage and raw span aggregates."""
    rng = np.random.default_rng(seed)
    monitor = build_monitor(queries, mixed, rng, backend=backend,
                            admission=admission)
    stream = [float(v) for v in np.cumsum(rng.normal(size=ticks))]
    # Warm-up outside the trace: plan construction, numpy dispatch.
    monitor.push("s0", stream[0])

    tracer = enable_tracing(limit=10_000_000)
    try:
        if batch:
            monitor.push_many("s0", stream)
        else:
            for value in stream:
                monitor.push("s0", value)
    finally:
        disable_tracing()

    totals = tracer.totals()
    traced_self = sum(entry["self"] for entry in totals.values()) or 1.0
    claimed = set()
    stages: List[Dict[str, object]] = []
    for stage, span_names in STAGES:
        seconds = sum(
            totals[name]["self"] for name in span_names if name in totals
        )
        calls = sum(
            totals[name]["count"] for name in span_names if name in totals
        )
        claimed.update(span_names)
        if calls:
            stages.append({
                "stage": stage,
                "calls": calls,
                "seconds": seconds,
                "share": seconds / traced_self,
            })
    other = sum(
        entry["self"] for name, entry in totals.items() if name not in claimed
    )
    if other > 0:
        stages.append({
            "stage": "other spans",
            "calls": sum(
                entry["count"]
                for name, entry in totals.items()
                if name not in claimed
            ),
            "seconds": other,
            "share": other / traced_self,
        })
    return {
        "config": {
            "ticks": ticks,
            "queries": queries,
            "mixed": mixed,
            "batch": batch,
            "seed": seed,
            "backend": monitor.backend_name,
            "admission": monitor.admission_name,
        },
        "spans_recorded": len(tracer),
        "spans_dropped": tracer.dropped,
        "traced_seconds": traced_self,
        "stages": stages,
        "span_totals": totals,
    }


def render(report: Dict[str, object]) -> str:
    """The human-readable per-stage table."""
    config = report["config"]
    lines = [
        f"hot-path profile: {config['ticks']} ticks x "
        f"{config['queries']} queries"
        + (" (+mixed kinds)" if config["mixed"] else "")
        + (" via push_many" if config["batch"] else " via push")
        + f" [backend={config.get('backend', 'numpy')}, "
        + f"admission={config.get('admission', 'auto')}]",
        f"{report['spans_recorded']} spans recorded"
        + (f", {report['spans_dropped']} dropped" if report["spans_dropped"]
           else ""),
        "",
        f"{'stage':<18} {'calls':>10} {'total':>12} {'share':>7} {'mean':>10}",
    ]
    for row in report["stages"]:
        mean_us = 1e6 * row["seconds"] / row["calls"] if row["calls"] else 0.0
        lines.append(
            f"{row['stage']:<18} {row['calls']:>10,} "
            f"{row['seconds']:>10.4f} s {row['share']:>6.1%} "
            f"{mean_us:>8.2f} us"
        )
    lines.append(f"{'traced total':<18} {'':>10} "
                 f"{report['traced_seconds']:>10.4f} s")
    return "\n".join(lines)


def main(argv: object = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ticks", type=int, default=5_000,
                        help="stream length (default 5000)")
    parser.add_argument("--queries", type=int, default=16,
                        help="fusable spring queries (default 16)")
    parser.add_argument("--mixed", action="store_true",
                        help="also register constrained/normalized/cascade "
                             "queries so every stage shows up")
    parser.add_argument("--batch", action="store_true",
                        help="drive with one push_many instead of per-tick "
                             "push")
    parser.add_argument("--json", type=str, default=None, metavar="PATH",
                        help="also dump the full report (stages + raw span "
                             "totals) as JSON")
    parser.add_argument("--backend", default=None,
                        choices=("auto", "numpy", "cext"),
                        help="kernel backend (default: auto)")
    parser.add_argument("--admission", default=None,
                        choices=("auto", "flat", "grouped"),
                        help="admission strategy (default: auto)")
    args = parser.parse_args(argv)

    report = profile(args.ticks, args.queries, args.mixed, args.batch,
                     backend=args.backend, admission=args.admission)
    print(render(report))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2)
        print(f"\nwrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
