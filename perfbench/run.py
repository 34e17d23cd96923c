#!/usr/bin/env python3
"""Default-configuration benchmark of the SPRING stream monitor.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload bank_hot --seed 1 --seconds 10 --trace 0

Runs one seeded workload against the configuration users get
(``backend=auto`` -> cext, ``admission=auto``, prune on), checks every
emitted match against a reference computation, and prints a
human-readable report, one ``{"report": ...}`` JSON line with the host
facts and every workload-specific figure, and, as the last line, the
result object: ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``, ``--trace 1`` runs an untraced and a traced pass
and reports the per-layer metrics.  Metric names and units come from
``BENCHMARK.json``.

Everything the run writes (compiled kernel cache, reference digests,
checkpoint directories, temp files) goes under ``.bench_build/`` in the
checkout.  Exit status: 0 on success, 1 when an output mismatched the
reference, 2 on a configuration or environment error, 3 when the load
generator fell behind (the run is invalid rather than slow).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"

WORKLOADS = ("bank_hot", "bank_cold", "service_ingest")


def prepare_environment() -> None:
    """Keep every file the run writes inside the checkout."""
    for sub in ("tmp", "cext", "ref"):
        (BUILD / sub).mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(BUILD / "tmp")
    os.environ["REPRO_CEXT_CACHE"] = str(BUILD / "cext")
    os.environ.pop("REPRO_BACKEND", None)
    import tempfile

    tempfile.tempdir = None
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


def emit(result: dict, trace: bool) -> int:
    """Print the report and the final result line; return the status.

    Metric names and units come from ``BENCHMARK.json``.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    values = result["metrics"]
    missing = sorted(set(units) - set(values))
    if missing:
        raise AssertionError(f"metrics not measured: {missing}")
    report = result["report"]
    for name, (value, unit) in report.get("figures", {}).items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    for name in units:
        print(f"  {name:<34} {values[name]:>14.6g} {units[name]}")
    print(json.dumps({"report": report}, sort_keys=True, default=float))
    attempted = int(result["attempted"])
    failed = int(result["failed"])
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": float(values[name]), "unit": units[name]}
                    for name in units
                },
            }
        )
    )
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="workload size; tiny is for the self-test only",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            "perfbench: src/repro not found next to the benchmark; "
            "run it from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    prepare_environment()
    from perfbench.common import BenchError, StealClock

    steal = StealClock()
    try:
        if args.workload == "service_ingest":
            from perfbench import service as runner
        else:
            from perfbench import inprocess as runner
        result = runner.run(
            args.workload, args.seed, args.seconds, bool(args.trace), args.size
        )
        result["report"]["host"]["cpu_steal_pct"] = steal.percent()
        return emit(result, bool(args.trace))
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return err.status


if __name__ == "__main__":
    sys.exit(main())
