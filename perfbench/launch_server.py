"""Run ``repro serve`` with the benchmark's span wrappers installed.

Usage (from the checkout root, with ``src`` and the root on
``PYTHONPATH``)::

    python -m perfbench.launch_server SPANS.json [serve options...]

The server is the CLI's own ``serve`` command in this process; the
:class:`~perfbench.spans.Probe` wrappers record spans per thread (the
asyncio loop and the engine thread).  When the server stops on SIGTERM,
the span summary, the wrappers' counts, the monitor's pruning counters
and the service histograms and counters it publishes on ``/metrics``
are written to ``SPANS.json``.
"""

from __future__ import annotations

import json
import sys

#: Registry families the per-layer report reads.
_FAMILIES = (
    "service_apply_latency_seconds",
    "service_ack_latency_seconds",
    "service_events_delivered_total",
    "service_subscriber_evictions_total",
    "service_inflight_peak_ticks",
)


def main(argv) -> int:
    out, serve_args = argv[0], list(argv[1:])
    from perfbench.spans import Probe
    from repro import cli

    probe = Probe()
    probe.install()
    probe.start()
    try:
        status = cli.main(["serve", *serve_args])
    finally:
        probe.uninstall()
    monitor, engine = probe.monitor, probe.engine
    snapshot = engine.metrics.registry.snapshot()
    dump = {
        "summary": probe.summary(),
        "counters": probe.counters(),
        "backend": monitor.backend_name,
        "queries": len(monitor.queries),
        "prune": monitor.prune_stats(monitor.streams[0]),
        "registry": {name: snapshot[name] for name in _FAMILIES},
    }
    with open(out, "w") as handle:
        json.dump(dump, handle)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
