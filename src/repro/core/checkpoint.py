"""Checkpoint / restore for long-running matchers.

A production stream monitor runs for weeks; process restarts must not
lose the O(m) matcher state (or force a re-scan of unbounded history —
the thing SPRING exists to avoid).  These helpers serialise any
registered matcher to a plain-Python dict — JSON-safe except for
infinities, which are encoded explicitly — and restore it so the match
stream continues exactly where it stopped.

The registry is open: a matcher class becomes checkpointable by
implementing ``state_dict()`` / ``from_state()`` and registering via
:func:`register_matcher` (the shipped matchers all do).  Unknown
payloads fail with an error that lists every registered type.

The contract is exactness: feeding values ``v1..vk, checkpoint,
restore, vk+1..vn`` produces the same matches (positions, distances,
output times) as an uninterrupted run.  Property-tested in
``tests/core/test_checkpoint.py`` and the protocol-conformance suite.

Path-recording matchers are serialisable too: live warping-path chains
are materialised into lists and rebuilt on load (structural sharing is
re-established lazily as new nodes link to the restored chains).
"""

from __future__ import annotations

import json
from typing import Dict, List, Type

from repro._serde import (
    decode_float,
    decode_floats,
    decode_node,
    encode_float,
    encode_floats,
    encode_node,
)
from repro.core.backends import use_backend
from repro.dtw.steps import canonical_distance_name, resolve_vector_distance
from repro.exceptions import ValidationError

__all__ = [
    "register_matcher",
    "registered_matchers",
    "save_state",
    "load_state",
    "dump_json",
    "load_json",
    "save_monitor",
    "load_monitor",
    "dump_monitor_json",
    "load_monitor_json",
]

_FORMAT_VERSION = 1

# Compatibility aliases: these helpers predate repro._serde and are
# imported under their old private names by tests and tooling.
_encode_float = encode_float
_decode_float = decode_float
_encode_floats = encode_floats
_decode_floats = decode_floats
_encode_node = encode_node
_decode_node = decode_node

#: Open matcher registry: class name -> class.  Populated by
#: :func:`register_matcher`; every class in :mod:`repro.core` registers
#: itself at import time, and third-party matchers can join the same way.
_REGISTRY: Dict[str, Type] = {}


def register_matcher(cls: Type) -> Type:
    """Make a matcher class checkpointable (usable as a decorator).

    The class must implement ``state_dict() -> dict`` (instance) and
    ``from_state(state) -> matcher`` (classmethod); it is registered
    under its ``__name__``, which is what ``save_state`` stamps into
    payloads.
    """
    for hook in ("state_dict", "from_state"):
        if not callable(getattr(cls, hook, None)):
            raise ValidationError(
                f"cannot register {cls.__name__}: missing {hook}()"
            )
    existing = _REGISTRY.get(cls.__name__)
    if existing is not None and existing is not cls:
        raise ValidationError(
            f"matcher name {cls.__name__!r} already registered"
        )
    _REGISTRY[cls.__name__] = cls
    return cls


def registered_matchers() -> List[str]:
    """Names of every checkpointable matcher class."""
    return sorted(_REGISTRY)


def save_state(matcher) -> Dict[str, object]:
    """Serialise a matcher to a plain dict (see module docstring)."""
    cls = type(matcher)
    if _REGISTRY.get(cls.__name__) is not cls:
        raise ValidationError(
            f"cannot checkpoint {cls.__name__}; not registered — "
            f"implement state_dict()/from_state() and call "
            f"register_matcher() (registered: {registered_matchers()})"
        )
    state = matcher.state_dict()
    state["format_version"] = _FORMAT_VERSION
    state["class"] = cls.__name__
    return state


def load_state(state: Dict[str, object]):
    """Rebuild a matcher from :func:`save_state` output."""
    if state.get("format_version") != _FORMAT_VERSION:
        raise ValidationError(
            f"unsupported checkpoint version {state.get('format_version')!r}"
        )
    class_name = state["class"]
    try:
        cls = _REGISTRY[class_name]  # type: ignore[index]
    except KeyError:
        raise ValidationError(
            f"unknown matcher class {class_name!r}; "
            f"registered: {registered_matchers()}"
        ) from None
    return cls.from_state(state)


def dump_json(matcher) -> str:
    """Checkpoint to a strictly-standard JSON string.

    Serialised with ``allow_nan=False``: every non-finite float is
    encoded explicitly (``"inf"`` / ``"-inf"`` / ``"nan"`` strings), so
    the payload round-trips through any spec-compliant JSON parser, not
    just Python's.
    """
    return json.dumps(save_state(matcher), allow_nan=False)


def load_json(payload: str):
    """Restore from :func:`dump_json` output (legacy payloads accepted).

    Files written before NaN hardening may contain Python's
    non-standard ``Infinity``/``NaN`` tokens; ``json.loads`` parses them
    by default and the decoder maps them back.
    """
    return load_state(json.loads(payload))


def _encode_distance_spec(spec: object) -> object:
    """A ``local_distance`` constructor argument to its canonical name."""
    if spec is None or isinstance(spec, str):
        return spec
    name = canonical_distance_name(resolve_vector_distance(spec))
    if name is None:
        raise ValidationError(
            "cannot checkpoint a matcher built with an unnamed "
            "local-distance callable; pass a registered distance name"
        )
    return name


def save_monitor(monitor) -> Dict[str, object]:
    """Serialise a whole :class:`~repro.core.monitor.StreamMonitor`.

    Captures every per-(stream, query) matcher's exact state plus the
    query registrations, so a restarted process resumes all monitoring
    mid-group.  Callbacks and history are process-local and not saved.
    """
    from repro.core.monitor import StreamMonitor

    if not isinstance(monitor, StreamMonitor):
        raise ValidationError(
            f"save_monitor expects a StreamMonitor, got {type(monitor).__name__}"
        )
    # Fused banks (the monitor's batched execution detail) hold the live
    # state for grouped queries; fold it back into the per-query matchers
    # so the serialised form is complete and engine-independent.  Cold-
    # parked queries are written at their *applied* tick, and the replay
    # buffer + parked offsets ride along in the "prune" payload so a
    # resumed process continues mid-park instead of paying a catch-up on
    # every snapshot.
    prune_payload = monitor._checkpoint_sync()
    queries = {}
    for name, spec in monitor._queries.items():
        kwargs = {}
        for key, value in spec.kwargs.items():
            if key == "local_distance":
                value = _encode_distance_spec(value)
                if value is None:
                    continue
            kwargs[key] = value
        queries[name] = {
            "query": spec.query.tolist(),
            "epsilon": encode_float(spec.epsilon),
            "matcher": spec.kind,
            # Legacy readers only know the vector flag.
            "vector": spec.kind == "vector",
            "kwargs": kwargs,
        }
    matchers = {
        stream: {
            query: save_state(spring) for query, spring in per_stream.items()
        }
        for stream, per_stream in monitor._matchers.items()
    }
    payload: Dict[str, object] = {
        "format_version": _FORMAT_VERSION,
        "queries": queries,
        "matchers": matchers,
    }
    if prune_payload:
        payload["prune"] = prune_payload
    return payload


def load_monitor(
    state: Dict[str, object],
    prune: bool = True,
    prune_buffer: int = 1024,
    backend=None,
):
    """Rebuild a monitor from :func:`save_monitor` output.

    ``prune`` / ``prune_buffer`` configure the restored monitor exactly
    like the :class:`~repro.core.monitor.StreamMonitor` constructor.
    Checkpoints taken mid-park re-adopt their parked state either way:
    with pruning disabled the parked spans are caught up immediately,
    so the resumed match stream is byte-identical regardless.

    ``backend`` selects the kernel backend of the restored monitor — a
    runtime property, like the admission strategy its banks' sizes
    pick: checkpoints record neither, and a snapshot written under one
    restores under any other to byte-identical future events.
    """
    from repro.core.monitor import StreamMonitor

    if state.get("format_version") != _FORMAT_VERSION:
        raise ValidationError(
            f"unsupported checkpoint version {state.get('format_version')!r}"
        )
    monitor = StreamMonitor(
        prune=prune,
        prune_buffer=prune_buffer,
        backend=backend,
    )
    for name, spec in state["queries"].items():  # type: ignore[union-attr]
        epsilon = decode_float(spec["epsilon"])
        kind = spec.get("matcher")
        if kind is None:  # legacy payloads carry only the vector flag
            kind = "vector" if spec.get("vector") else "spring"
        monitor.add_query(
            name,
            spec["query"],
            epsilon=epsilon,
            matcher=kind,
            **spec.get("kwargs", {}),
        )
    prune_state = state.get("prune", {})
    for stream, per_stream in state["matchers"].items():  # type: ignore[union-attr]
        monitor.add_stream(stream)
        for query_name, matcher_state in per_stream.items():
            # Loaded matchers bypass the monitor's builder: construct
            # under its backend (so nothing probes "auto" on the way
            # up) and re-point afterwards — the backend is never part
            # of the serialised state.
            with use_backend(monitor._backend):
                matcher = load_state(matcher_state)
            set_backend = getattr(matcher, "set_backend", None)
            if callable(set_backend):
                set_backend(monitor._backend)
            monitor._matchers[stream][query_name] = matcher
        entries = prune_state.get(stream)  # type: ignore[union-attr]
        if entries:
            monitor._restore_prune(stream, entries)
    return monitor


def dump_monitor_json(monitor) -> str:
    """Whole-monitor checkpoint to a strictly-standard JSON string."""
    return json.dumps(save_monitor(monitor), allow_nan=False)


def load_monitor_json(
    payload: str,
    prune: bool = True,
    prune_buffer: int = 1024,
    backend=None,
):
    """Restore a monitor from :func:`dump_monitor_json` output."""
    return load_monitor(
        json.loads(payload),
        prune=prune,
        prune_buffer=prune_buffer,
        backend=backend,
    )
