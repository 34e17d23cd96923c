"""Shared pieces: paths, errors, host facts, the reference-digest cache."""

from __future__ import annotations

import hashlib
import json
import os
import platform
from pathlib import Path
from time import perf_counter
from typing import Callable, List, Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"

#: The kernel backend ``auto`` resolves to in the shipping configuration.
DEFAULT_BACKEND = "cext"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Time :func:`_calibration_loop` takes on the host the benchmark was
#: defined on (2-vCPU Intel Xeon VM, Python 3.11) when nothing else
#: slows it.  Host-normalised figures are expressed at this speed.
CALIBRATION_REF_S = 170e-6

_CALIBRATION_ARRAY = np.arange(64.0)


class BenchError(Exception):
    """A failed run: ``status`` is the process exit code."""

    def __init__(self, message: str, status: int = 2) -> None:
        super().__init__(message)
        self.status = status


def warm_backend() -> dict:
    """Compile (or load) the default kernel backend before any timing.

    Returns the cext cache state seen before and after, and fails
    loudly when ``auto`` does not resolve to the shipping default.
    """
    cache = Path(os.environ["REPRO_CEXT_CACHE"])
    before = "warm" if any(cache.glob("spring-kernels-*.so")) else "cold"
    from repro.core.backends import backend_infos, resolve_backend

    backend = resolve_backend("auto")
    if backend.name != DEFAULT_BACKEND:
        raise BenchError(
            f"backend=auto resolved to {backend.name!r}, not the shipping "
            f"default {DEFAULT_BACKEND!r}: "
            + "; ".join(f"{i.name}: {i.detail}" for i in backend_infos())
        )
    detail = next(i.detail for i in backend_infos() if i.name == backend.name)
    return {"cext_cache_before": before, "cext_cache": detail}


def host_facts(checkpoint_dir: Optional[Path] = None) -> dict:
    """Machine and toolchain facts recorded with every result."""
    facts = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }
    if checkpoint_dir is not None:
        facts["checkpoint_fs"] = _filesystem(checkpoint_dir)
    return facts


class StealClock:
    """Share of CPU time the hypervisor stole while the run measured."""

    def __init__(self) -> None:
        self._start = _cpu_times()

    def percent(self) -> float:
        end = _cpu_times()
        if self._start is None or end is None:
            return 0.0
        total = sum(end) - sum(self._start)
        steal = end[7] - self._start[7]
        return 100.0 * steal / total if total > 0 else 0.0


def _cpu_times() -> Optional[List[int]]:
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    return [int(v) for v in fields[1:9]] if fields[:1] == ["cpu"] else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _filesystem(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (where fsyncs land)."""
    target = str(Path(path).resolve())
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def _calibration_loop() -> None:
    """Fixed interpreter and small-array numpy work, the mix the
    monitor's per-tick path runs; it never calls the program."""
    total = 0
    slots = {}
    for i in range(1500):
        total += (i * i) % 7
        slots[i & 63] = total
    values = _CALIBRATION_ARRAY
    for _ in range(40):
        values = np.minimum(values, values[::-1]) + 1.0


def host_slowdown() -> float:
    """How much slower than :data:`CALIBRATION_REF_S` the host runs now.

    On a shared host a fixed CPU loop runs 1.0x-1.8x its fastest time in
    modes lasting seconds; CPU time slows with wall time, so this is
    contention, not steal.  Timing the calibration loop (best of three,
    about half a millisecond) right beside a measured interval and
    scaling by the ratio takes most of that out.
    """
    best = float("inf")
    for _ in range(3):
        started = perf_counter()
        _calibration_loop()
        best = min(best, perf_counter() - started)
    return best / CALIBRATION_REF_S


def host_slowdown_on(cpu: int) -> float:
    """:func:`host_slowdown` timed on ``cpu``.

    The slow modes of a shared host come and go per CPU, independently,
    so work pinned to another CPU than the caller's is calibrated there.
    The calling thread returns to its previous CPUs afterwards.
    """
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        return host_slowdown()
    finally:
        os.sched_setaffinity(0, before)


def normalised_rate(counts, seconds, slowdowns) -> float:
    """Median over windows of ``count / seconds * slowdown``: a rate at
    the reference host speed, robust to windows a stall dominated."""
    rates = np.asarray(counts, float) / np.asarray(seconds, float)
    return float(np.median(rates * np.asarray(slowdowns, float)))


def percentile_ms(values, q: float) -> float:
    """``q``-th percentile of second-valued samples, in ms (0 if empty)."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) * 1e3


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size (VmHWM) of ``pid`` (default: this process)."""
    status = f"/proc/{pid or 'self'}/status"
    with open(status) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM in {status}")


def source_digest() -> str:
    """Digest of the program and the input generators.

    Keys the reference cache, so a cached reference is only reused for
    the exact code and inputs it was computed from.
    """
    digest = hashlib.sha256()
    files = sorted((ROOT / "src" / "repro").rglob("*.py"))
    files.append(ROOT / "perfbench" / "workloads.py")
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def cached_reference(
    key: str, needed: int, compute: Callable[[int], List[str]]
) -> List[str]:
    """Per-batch reference digests, at least ``needed`` of them.

    ``compute(n)`` produces the first ``n``; results are cached under
    ``.bench_build/ref`` and reused while they are long enough.
    """
    path = BUILD / "ref" / f"{key}.json"
    if path.is_file():
        try:
            cached = json.loads(path.read_text())
        except ValueError:
            cached = []
        if len(cached) >= needed:
            return cached[:needed]
    digests = compute(needed)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(digests))
    os.replace(tmp, path)
    return digests
