#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny size.

Run from the root of a checkout::

    python3 perfbench/selftest.py

For each workload it runs an untraced and a traced pass and asserts
that the run exits 0, that the last line names every metric of
``BENCHMARK.json`` with its unit, that the reference check passed, and
that on the traced pass the layer self times plus the unattributed
residual add up to the traced wall-clock time.  It also checks that the
benchmark refuses to run, printing no result, from a directory that
holds only ``BENCHMARK.json`` and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = {"bank_hot": "2", "bank_cold": "2", "service_ingest": "4"}


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_workload(workload: str, trace: int, spec: dict) -> None:
    proc = _run(
        ROOT, "--workload", workload, "--seed", "7", "--seconds",
        SECONDS[workload], "--trace", str(trace), "--size", "tiny",
    )
    assert proc.returncode == 0, (workload, trace, proc.stderr[-2000:])
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] >= 1, result
    wanted = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert got == units, (workload, trace, got, units)
    for name, unit in units.items():
        assert f"{name}" in proc.stdout and unit in proc.stdout
    report = json.loads(lines[-2])["report"]
    assert report["host"]["nproc"] >= 1 and report["config"]["backend"] == "cext"
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        attributed = sum(report["trace"]["layer_self_s"].values())
        total = attributed + metrics["trace.unattributed_s"]
        assert abs(total - metrics["trace.wall_s"]) < 1e-6, (total, metrics)
    print(f"ok  {workload:<15} trace={trace}")


def check_bare_directory() -> None:
    """Without the program next to it, the benchmark must fail cleanly."""
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(
            ROOT / "perfbench", bare / "perfbench",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        proc = _run(
            bare, "--workload", "bank_hot", "--seed", "1", "--seconds", "1",
        )
    assert proc.returncode != 0, proc.stdout
    assert '"metrics"' not in proc.stdout, proc.stdout
    print("ok  bare directory refused")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(SECONDS), names
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    check_bare_directory()
    for workload in names:
        for trace in (0, 1):
            check_workload(workload, trace, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
