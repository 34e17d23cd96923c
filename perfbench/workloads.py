"""Seeded input generators for the benchmark workloads.

Every workload is a pure function of ``--seed``: the queries, the
arming prefix and the stream are drawn from one
``numpy.random.Generator`` seeded with ``[seed, workload tag]``, and
the stream is produced block by block in a fixed order, so a run and
its reference computation see the same values however many ticks the
timed region consumes.  The program under test only ever receives the
generated arrays.

Shapes (the ``full`` size is what the benchmark measures; ``tiny``
exists for the self-test):

``bank_hot``
    64 ``spring`` queries of lengths 8/16/24/32 (random-walk shapes
    scaled to corridor half-widths on a fixed 2-4 grid), epsilon 0.5.
    Arming: one noisy copy of every query, so each can park from the
    first timed batch.  Stream: a mean-reverting walk (AR(1) with
    coefficient 0.9, stationary std ~2.2) with a noisy copy of a random
    query embedded every 80-120 ticks; 40-tick batches.
``bank_cold``
    4096 ``spring`` queries whose values lie within 0.5 of level 100,
    epsilon 16.  Arming: 48 ticks near 100 (every query gets a best
    match, the park precondition) and 8 cold ticks.  Stream: noise near
    0 with a 2-5 tick near-miss excursion to ~95.7 every 1125-1875
    ticks, which wakes the queries with the lowest corridor floors and
    forces replays without a match; 40-tick batches.
``service_ingest``
    One spike query ``[0, h, 0]`` (``h`` ~ 5, seeded), epsilon 2.  Stream:
    ``N(1, 0.05)`` noise with the spike motif embedded every 40-60
    ticks; 10-tick push frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Tuple

import numpy as np

QUERY_LENGTHS = (8, 16, 24, 32)

#: Ticks per ``push_many`` call on the in-process workloads.
BANK_BATCH = 40

#: Ticks per push frame on the service workload.
SERVICE_FRAME = 10

#: Values generated per stream block (a whole number of batches/frames).
_BLOCK = 4000

_TAGS = {"bank_hot": 1, "bank_cold": 2, "service_ingest": 3}


@dataclass
class Inputs:
    """Generated queries plus an unbounded, deterministic stream.

    ``queries`` holds ``(name, values, epsilon)``; ``arming`` is pushed
    during set-up; ``next_block()`` returns the next stream block.
    """

    queries: List[Tuple[str, np.ndarray, float]]
    arming: np.ndarray
    shape: dict
    next_block: Callable[[], np.ndarray]


def make(workload: str, seed: int, size: str = "full") -> Inputs:
    """Generate the inputs of ``workload`` for ``seed``."""
    rng = np.random.default_rng([int(seed), _TAGS[workload]])
    return _MAKERS[workload](rng, size)


def batches(inputs: Inputs, width: int):
    """Yield the stream after the arming prefix as ``width``-tick arrays."""
    while True:
        block = inputs.next_block()
        for lo in range(0, block.shape[0], width):
            yield block[lo : lo + width]


# -- bank_hot -----------------------------------------------------------

_HOT_THETA = 0.1  # mean reversion of the walk: stationary std ~2.2
_HOT_SIGMA = 0.95
_HOT_EPSILON = 0.5
_HOT_COPY_NOISE = 0.05


def _bank_hot(rng: np.random.Generator, size: str) -> Inputs:
    count = 64 if size == "full" else 8
    shapes = []
    for i in range(count):
        walk = np.cumsum(rng.normal(size=QUERY_LENGTHS[i % len(QUERY_LENGTHS)]))
        unit = (walk - walk.min()) / (walk.max() - walk.min()) * 2.0 - 1.0
        # Corridor half-widths sit on a fixed grid (2 to 4, permuted
        # against the lengths), so every seed parks and wakes the same
        # mix of queries; the seed draws the shapes and the stream.
        half = 2.0 + 2.0 * ((i * 37) % count) / (count - 1)
        shapes.append(half * unit)
    queries = [(f"q{i}", q, _HOT_EPSILON) for i, q in enumerate(shapes)]
    # Arming: one noisy copy of every query, so each has a best match
    # (the park precondition) before timing starts and the timed region
    # is stationary from its first batch.
    arming = np.concatenate(
        [
            np.concatenate(
                [rng.normal(scale=0.1, size=8), shape + _copy_noise(rng, shape)]
            )
            for shape in shapes
        ]
        + [rng.normal(scale=0.1, size=8)]
    )
    return Inputs(
        queries=queries,
        arming=arming,
        shape={
            "queries": count,
            "lengths": list(QUERY_LENGTHS),
            "epsilon": _HOT_EPSILON,
            "arming_ticks": int(arming.shape[0]),
            "batch_ticks": BANK_BATCH,
            "embed_every_ticks": [80, 120],
            "loop": "closed, one caller",
        },
        next_block=partial(
            _hot_block, rng, {"v": 0.0, "next": 100, "shapes": shapes}
        ),
    )


def _copy_noise(rng: np.random.Generator, shape: np.ndarray) -> np.ndarray:
    return rng.normal(scale=_HOT_COPY_NOISE, size=shape.shape[0])


def _hot_block(rng: np.random.Generator, state: dict) -> np.ndarray:
    noise = rng.normal(scale=_HOT_SIGMA, size=_BLOCK)
    out = np.empty(_BLOCK)
    v = state["v"]
    keep = 1.0 - _HOT_THETA
    for i in range(_BLOCK):
        v = keep * v + noise[i]
        out[i] = v
    state["v"] = v
    shapes = state["shapes"]
    pos = state["next"]
    while True:
        shape = shapes[int(rng.integers(len(shapes)))]
        if pos + shape.shape[0] > _BLOCK:
            break
        out[pos : pos + shape.shape[0]] = shape + _copy_noise(rng, shape)
        pos += int(rng.integers(80, 121))
    state["next"] = max(0, pos - _BLOCK)
    return out


# -- bank_cold ----------------------------------------------------------

_COLD_EPSILON = 16.0
_COLD_ARM_TICKS = 48
_COLD_LEVEL = 95.7  # wakes the queries whose corridor floor is lowest


def _bank_cold(rng: np.random.Generator, size: str) -> Inputs:
    count = 4096 if size == "full" else 256
    queries = []
    for i in range(count):
        walk = np.cumsum(rng.normal(size=QUERY_LENGTHS[i % len(QUERY_LENGTHS)]))
        unit = (walk - walk.min()) / (walk.max() - walk.min()) - 0.5
        # Every value stays within 0.5 of 100, so the arming prefix is
        # guaranteed to give each query a best match within epsilon.
        query = 100.0 + rng.uniform(-0.25, 0.25) + 0.5 * unit
        queries.append((f"q{i}", query, _COLD_EPSILON))
    # The warm stretch arms every query; the cold ticks after it let the
    # captured optima be reported during set-up, not in the timed region.
    arming = np.concatenate(
        [
            100.0 + rng.normal(scale=0.1, size=_COLD_ARM_TICKS),
            rng.normal(scale=0.5, size=8),
        ]
    )
    return Inputs(
        queries=queries,
        arming=arming,
        shape={
            "queries": count,
            "lengths": list(QUERY_LENGTHS),
            "epsilon": _COLD_EPSILON,
            "arming_ticks": int(arming.shape[0]),
            "batch_ticks": BANK_BATCH,
            "excursion_every_ticks": [1125, 1875],
            "excursion_level": _COLD_LEVEL,
            "loop": "closed, one caller",
        },
        next_block=partial(_cold_block, rng, {"next": 1500}),
    )


def _cold_block(rng: np.random.Generator, state: dict) -> np.ndarray:
    out = rng.normal(scale=0.5, size=_BLOCK)
    pos = state["next"]
    while pos + 5 <= _BLOCK:
        width = int(rng.integers(2, 6))
        out[pos : pos + width] = _COLD_LEVEL + rng.normal(scale=0.3, size=width)
        pos += int(rng.integers(1125, 1876))
    state["next"] = max(0, pos - _BLOCK)
    return out


# -- service_ingest -----------------------------------------------------

_SPIKE_EPSILON = 2.0


def _service(rng: np.random.Generator, size: str) -> Inputs:
    height = 5.0 + float(rng.normal(scale=0.2))
    query = np.array([0.0, height, 0.0])
    return Inputs(
        queries=[("query", query, _SPIKE_EPSILON)],
        arming=np.empty(0),
        shape={
            "queries": 1,
            "query": [float(v) for v in query],
            "epsilon": _SPIKE_EPSILON,
            "frame_ticks": SERVICE_FRAME,
            "motif_every_ticks": [40, 60],
        },
        next_block=partial(
            _service_block,
            rng,
            {"next": 45, "motif": np.array([0.1, height, 0.1])},
        ),
    )


def _service_block(rng: np.random.Generator, state: dict) -> np.ndarray:
    out = rng.normal(1.0, 0.05, size=_BLOCK)
    motif = state["motif"]
    pos = state["next"]
    while pos + motif.shape[0] <= _BLOCK:
        out[pos : pos + motif.shape[0]] = motif + rng.normal(
            scale=0.05, size=motif.shape[0]
        )
        pos += int(rng.integers(40, 61))
    state["next"] = max(0, pos - _BLOCK)
    return out


_MAKERS = {
    "bank_hot": _bank_hot,
    "bank_cold": _bank_cold,
    "service_ingest": _service,
}
