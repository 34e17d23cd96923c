"""Wire-vs-direct parity: the socket adds transport, never semantics.

The property (ISSUE 9): ticks pushed through the network service
produce a per-stream match-event sequence **byte-identical** to
feeding the same values to a local :class:`StreamMonitor` via
``push_many`` — swept across every available kernel backend and both
admission strategies.  Byte-identical means the literal frame bytes:
both sides run their events through the one canonical encoder
(:func:`repro.service.protocol.encode_event`), and the wire side
compares the raw lines it read off the socket, unparsed.

Cross-stream interleaving is not part of the contract (producers are
independent connections racing into the engine queue); per-stream
order, per-stream sequence numbers, and every match field are.
"""

from __future__ import annotations

import json
from typing import Dict, List

import numpy as np
import pytest

from repro.core.backends import available_backends
from repro.core.monitor import StreamMonitor
from repro.service import protocol
from repro.service.client import ProducerClient, ServiceConnection
from repro.service.engine import EngineConfig
from repro.service.server import start_in_thread

BACKENDS = available_backends()
ADMISSIONS = ("flat", "grouped")

QUERIES = [
    ("spike", [0.0, 5.0, 0.0], 2.0, {}),
    ("dip", [5.0, 0.0, 5.0], 2.0, {}),
    ("ramp", [0.0, 2.0, 4.0, 6.0], 3.0, {}),
]
STREAMS = ("alpha", "beta")


def _workload(rng) -> Dict[str, List[np.ndarray]]:
    """Per-stream batch lists with enough structure to fire every query."""
    motifs = {
        "spike": [1.0, 0.1, 5.0, 0.1, 1.0],
        "dip": [1.0, 5.0, 0.2, 5.0, 1.0],
        "ramp": [1.0, 0.1, 2.0, 4.1, 5.9, 1.0],
    }
    out: Dict[str, List[np.ndarray]] = {}
    for stream in STREAMS:
        values: List[float] = []
        for _ in range(6):
            values.extend(rng.normal(1.0, 0.05, size=rng.integers(5, 30)))
            values.extend(
                motifs[list(motifs)[int(rng.integers(0, len(motifs)))]]
            )
        values.extend(rng.normal(1.0, 0.05, size=10))
        arr = np.asarray(values, dtype=np.float64)
        # Uneven batch boundaries: parity must not depend on framing.
        cuts = sorted(
            set(int(c) for c in rng.integers(1, arr.size, size=7))
        )
        out[stream] = [
            piece for piece in np.split(arr, cuts) if piece.size
        ]
    return out


def _direct_frames(
    batches: Dict[str, List[np.ndarray]], backend: str, admission: str
) -> Dict[str, List[bytes]]:
    """Ground truth: local push_many, events through the wire encoder."""
    monitor = StreamMonitor(
        keep_history=False, backend=backend, admission=admission
    )
    for stream in batches:
        monitor.add_stream(stream)
    for name, query, epsilon, kwargs in QUERIES:
        monitor.add_query(name, query, epsilon, **kwargs)
    seqs = {stream: 0 for stream in batches}
    frames: Dict[str, List[bytes]] = {stream: [] for stream in batches}

    def collect(event) -> None:
        seqs[event.stream] += 1
        frames[event.stream].append(
            protocol.encode_event(event.stream, seqs[event.stream], event)
        )

    monitor.subscribe(collect)
    for stream, pieces in batches.items():
        for piece in pieces:
            monitor.push_many(stream, piece)
    return frames


def _wire_frames(
    batches: Dict[str, List[np.ndarray]],
    backend: str,
    admission: str,
    pipelined: bool,
) -> Dict[str, List[bytes]]:
    """The same workload through sockets; raw event lines, unparsed.

    Closed-loop framing waits for each push's ack.  Pipelined framing
    connects every producer first and sends every frame before reading
    any ack, so pushes queue behind one another and the engine applies
    them in runs.
    """
    config = EngineConfig(
        streams=tuple(batches),
        backend=backend,
        admission=admission,
        queries=QUERIES,
    )
    handle = start_in_thread(config)
    try:
        sub = ServiceConnection("127.0.0.1", handle.port)
        sub.send({"type": "hello", "role": "subscriber"})
        sub.recv_type("hello_ack")
        producers = {}
        for stream, pieces in batches.items():
            producer = ProducerClient("127.0.0.1", handle.port, stream=stream)
            producers[stream] = producer
            if pipelined:
                assert sum(p.size for p in pieces) <= producer.credit
                for piece in pieces:
                    producer.send_push(list(piece))
                continue
            for piece in pieces:
                ack = producer.push(list(piece))
                assert "error" not in ack, ack
        expected = 0
        for stream, producer in producers.items():
            if pipelined:
                for _ in batches[stream]:
                    ack = producer.recv_ack()
                    assert "error" not in ack, ack
            producer.bye()
            producer.close()
            expected += handle.engine.sequence(stream)
        frames: Dict[str, List[bytes]] = {stream: [] for stream in batches}
        sub.settimeout(60.0)
        for _ in range(expected):
            line = sub.file.readline()
            assert line, "server closed before delivering every event"
            frame = json.loads(line)
            assert frame["type"] == "event"
            frames[frame["stream"]].append(line)
        sub.close()
        return frames
    finally:
        handle.stop(checkpoint=False)


@pytest.mark.parametrize(
    "admission, pipelined",
    [
        pytest.param(
            admission, pipelined, id=admission + ("-pipelined" * pipelined)
        )
        for pipelined in (False, True)
        for admission in ADMISSIONS
    ],
)
@pytest.mark.parametrize("backend", BACKENDS)
def test_wire_events_byte_identical_to_direct(
    rng, backend, admission, pipelined
):
    batches = _workload(rng)
    direct = _direct_frames(batches, backend, admission)
    # Sanity: the workload actually exercises every query.
    seen_queries = {
        json.loads(line)["query"]
        for lines in direct.values()
        for line in lines
    }
    assert seen_queries == {name for name, _, _, _ in QUERIES}
    wire = _wire_frames(batches, backend, admission, pipelined)
    for stream in STREAMS:
        assert wire[stream] == direct[stream], (
            f"stream {stream!r}: wire events diverge from direct push_many "
            f"(backend={backend}, admission={admission}, "
            f"pipelined={pipelined})"
        )


def test_event_frames_use_serde_float_encoding(rng):
    """Distances on the wire survive exact round-trips (no repr drift)."""
    batches = _workload(rng)
    direct = _direct_frames(batches, "numpy", "flat")
    for lines in direct.values():
        for line in lines:
            frame = json.loads(line)
            _, _, event = protocol.decode_event(frame)
            assert event.match.distance == json.loads(line)["match"][
                "distance"
            ] or isinstance(frame["match"]["distance"], str)
            # Canonical bytes: re-encoding the decoded event reproduces
            # the original line exactly.
            stream, seq, event = protocol.decode_event(frame)
            assert protocol.encode_event(stream, seq, event) == line
