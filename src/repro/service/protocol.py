"""The wire protocol of the network service: newline-delimited JSON.

One logical stream per connection, one frame per line, UTF-8.  The
format is deliberately boring — every frame is a single JSON object
terminated by ``\\n`` — because the exactness contracts of this repo
are *byte-level*, and a canonical, dependency-free encoding is what
makes the wire-vs-direct parity property testable at that level.

Canonical encoding
------------------
:func:`encode_frame` emits ``json.dumps(obj, sort_keys=True,
separators=(",", ":"), allow_nan=False)`` plus the newline.  Sorted
keys and fixed separators make the bytes a pure function of the frame
content; ``allow_nan=False`` keeps the output parseable by any
spec-compliant JSON parser (non-finite floats are encoded as the
strings ``"nan"`` / ``"inf"`` / ``"-inf"``, the same convention as
checkpoints — see :mod:`repro._serde`).

Frame taxonomy (``type`` field)
-------------------------------
Client → server: ``hello`` (role ``producer`` / ``subscriber`` /
``control``), ``push``, ``register_query`` / ``remove_query`` /
``swap_query``, ``stats``, ``ping``, ``bye``.

Server → client: ``hello_ack``, ``ack``, ``event``, ``ok``, ``stats``,
``pong``, ``error``, ``goodbye``.

Error codes (``error`` frames): ``bad_json``, ``bad_frame``,
``unknown_type``, ``bad_hello``, ``oversized_line``,
``oversized_batch``, ``credit_exceeded``, ``gap``, ``bad_value``,
``bad_query``, ``state``.  An ``error`` frame never closes the
connection by itself except for ``bad_hello``, ``oversized_line`` and
``credit_exceeded``, where the byte stream (or the flow-control
contract) can no longer be trusted.

Liberal input, conservative output
----------------------------------
:func:`decode_frame` accepts the non-standard ``NaN`` / ``Infinity``
tokens Python's own ``json`` emits by default (so naive clients work),
and :func:`decode_values` additionally accepts the ``"nan"`` /
``"inf"`` / ``"-inf"`` string encodings.  What those values *mean* is
not protocol business: they are handed to the engine, where the
unified missing-value policy (:mod:`repro.core.missing`) decides —
NaN is a missing reading (time passes under ``missing="skip"``),
±inf is corrupt and produces a ``bad_value`` error reply.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional

import numpy as np

from repro._serde import decode_float, encode_float
from repro.core.monitor import MatchEvent

__all__ = [
    "PROTOCOL_VERSION",
    "DEFAULT_MAX_BATCH",
    "DEFAULT_MAX_LINE",
    "DEFAULT_CREDIT_WINDOW",
    "DEFAULT_SUBSCRIBER_QUEUE",
    "ROLES",
    "ProtocolError",
    "encode_frame",
    "encode_ack",
    "decode_frame",
    "decode_values",
    "encode_event",
    "decode_event",
    "error_frame",
]

#: Version stamped into ``hello`` / ``hello_ack`` frames.
PROTOCOL_VERSION = 1

#: Hard cap on values per push frame (server-configurable below this).
DEFAULT_MAX_BATCH = 4096

#: Maximum accepted line length in bytes (frames, not values, dominate).
DEFAULT_MAX_LINE = 1 << 20

#: Default per-stream credit window, in ticks.
DEFAULT_CREDIT_WINDOW = 4096

#: Default per-subscriber outbound queue depth (event frames).
DEFAULT_SUBSCRIBER_QUEUE = 1024

#: Connection roles a ``hello`` may declare.
ROLES = ("producer", "subscriber", "control")


class ProtocolError(Exception):
    """A frame the server must answer with a structured ``error`` reply.

    ``code`` is one of the documented error codes; ``fatal`` marks
    violations after which the byte stream cannot be trusted (the
    server closes the connection after replying).  ``fields`` are
    extra reply fields fixed where the error was found, such as the
    ``watermark`` a push was checked against.
    """

    def __init__(
        self, code: str, detail: str, fatal: bool = False, **fields: object
    ) -> None:
        super().__init__(f"{code}: {detail}")
        self.code = code
        self.detail = detail
        self.fatal = fatal
        self.fields = fields

    def frame(self, **extra: object) -> dict:
        """The ``error`` reply frame for this violation."""
        return error_frame(self.code, self.detail, **self.fields, **extra)


def encode_frame(obj: Dict[str, object]) -> bytes:
    """Canonical bytes for one frame: sorted keys, tight separators."""
    return (
        json.dumps(
            obj, sort_keys=True, separators=(",", ":"), allow_nan=False
        ).encode("utf-8")
        + b"\n"
    )


#: :func:`encode_frame` of a successful ``ack``: its keys in sorted order.
_ACK = (
    b'{"applied":%d,"credit":%d,"seq":%d,"trimmed":%d,"type":"ack",'
    b'"watermark":%d}\n'
)


def encode_ack(
    seq: int, applied: int, trimmed: int, watermark: int, credit: int
) -> bytes:
    """Canonical bytes of an ``ack`` that carries no ``error``.

    Equal to :func:`encode_frame` of the same frame, written from its
    fixed key order instead of a sorted dump.
    """
    return _ACK % (applied, credit, seq, trimmed, watermark)


def decode_frame(line: bytes) -> Dict[str, object]:
    """Parse one wire line into a frame dict, or raise :class:`ProtocolError`.

    Accepts any JSON object; stricter shape checks (required fields,
    value types) belong to the per-frame handlers so the error can name
    the offending field.
    """
    if isinstance(line, (bytes, bytearray)):
        try:
            text = line.decode("utf-8", errors="strict")
        except UnicodeDecodeError as err:
            raise ProtocolError(
                "bad_frame", f"frame is not valid UTF-8: {err}"
            ) from None
    else:
        text = line
    stripped = text.strip()
    if not stripped:
        raise ProtocolError("bad_frame", "empty frame")
    try:
        obj = json.loads(stripped)
    except ValueError as err:
        raise ProtocolError("bad_json", f"invalid JSON: {err}") from None
    if not isinstance(obj, dict):
        raise ProtocolError(
            "bad_frame", f"frame must be a JSON object, got {type(obj).__name__}"
        )
    frame_type = obj.get("type")
    if not isinstance(frame_type, str) or not frame_type:
        raise ProtocolError("bad_frame", "frame is missing a 'type' string")
    return obj


#: Item types an all-number ``values`` array converts in one call
#: (``bool`` is not among them: ``type(True)`` is ``bool``).
_NUMBER_TYPES = frozenset((int, float))


def decode_values(raw: object, max_batch: int) -> np.ndarray:
    """Decode a push frame's ``values`` into a float64 array.

    Accepts JSON numbers (including the non-standard ``NaN`` /
    ``Infinity`` tokens, which arrive as floats) and the ``"nan"`` /
    ``"inf"`` / ``"-inf"`` string encodings.  Anything else — or a
    batch over ``max_batch`` — raises :class:`ProtocolError`.  The
    *semantics* of non-finite values are decided downstream by the
    unified missing-value policy, not here.
    """
    if not isinstance(raw, list):
        raise ProtocolError(
            "bad_frame", "'values' must be a JSON array of numbers"
        )
    if len(raw) == 0:
        raise ProtocolError("bad_frame", "'values' must not be empty")
    if len(raw) > max_batch:
        raise ProtocolError(
            "oversized_batch",
            f"batch of {len(raw)} values exceeds max_batch={max_batch}",
        )
    if _NUMBER_TYPES.issuperset(map(type, raw)):
        try:
            return np.array(raw, dtype=np.float64)
        except OverflowError:
            pass  # an int past float range: the loop below names it
    out = np.empty(len(raw), dtype=np.float64)
    for i, item in enumerate(raw):
        if isinstance(item, bool) or not isinstance(
            item, (int, float, str)
        ):
            raise ProtocolError(
                "bad_frame",
                f"values[{i}] is not a number: {item!r}",
            )
        try:
            out[i] = decode_float(item) if isinstance(item, str) else float(item)
        except Exception:
            raise ProtocolError(
                "bad_frame", f"values[{i}] is not a number: {item!r}"
            ) from None
    return out


def _encode_match(event: MatchEvent) -> Dict[str, object]:
    match = event.match
    payload: Dict[str, object] = {
        "start": int(match.start),
        "end": int(match.end),
        "distance": encode_float(match.distance),
        "output_time": (
            int(match.output_time) if match.output_time is not None else None
        ),
    }
    if match.path is not None:
        payload["path"] = [[int(t), int(i)] for t, i in match.path]
    if match.group_start is not None:
        payload["group_start"] = int(match.group_start)
    if match.group_end is not None:
        payload["group_end"] = int(match.group_end)
    return payload


def encode_event(stream: str, seq: int, event: MatchEvent) -> bytes:
    """Canonical ``event`` frame bytes for one :class:`MatchEvent`.

    ``seq`` is the per-stream monotone event sequence number that
    survives checkpoints; consumers deduplicate crash replays with it
    (events with ``seq`` at or below the last seen are re-deliveries).
    This function is the *single* encoder on the event path — the
    wire-vs-direct parity suite feeds locally produced events through
    it and compares against server output byte for byte.
    """
    return encode_frame(
        {
            "type": "event",
            "stream": str(stream),
            "seq": int(seq),
            "query": str(event.query),
            "match": _encode_match(event),
        }
    )


def decode_event(frame: Dict[str, object]):
    """Inverse of :func:`encode_event`: ``(stream, seq, MatchEvent)``."""
    from repro.core.matches import Match

    match_payload = frame["match"]
    if not isinstance(match_payload, dict):
        raise ProtocolError("bad_frame", "'match' must be an object")
    path = match_payload.get("path")
    event = MatchEvent(
        stream=str(frame["stream"]),
        query=str(frame["query"]),
        match=Match(
            start=int(match_payload["start"]),
            end=int(match_payload["end"]),
            distance=decode_float(match_payload["distance"]),
            output_time=(
                int(match_payload["output_time"])
                if match_payload.get("output_time") is not None
                else None
            ),
            path=(
                tuple((int(t), int(i)) for t, i in path)
                if path is not None
                else None
            ),
            group_start=(
                int(match_payload["group_start"])
                if match_payload.get("group_start") is not None
                else None
            ),
            group_end=(
                int(match_payload["group_end"])
                if match_payload.get("group_end") is not None
                else None
            ),
        ),
    )
    return str(frame["stream"]), int(frame["seq"]), event


def error_frame(code: str, detail: str, **extra: object) -> dict:
    """A structured ``error`` reply frame."""
    frame = {"type": "error", "code": str(code), "detail": str(detail)}
    frame.update(extra)
    return frame


def encode_query_array(query: object) -> List[object]:
    """A query template's values as a JSON-safe list (non-finite safe)."""
    return [encode_float(v) for v in np.asarray(query, dtype=np.float64)]


def decode_query_array(raw: object) -> np.ndarray:
    """Decode a ``register_query`` frame's ``query`` array."""
    if not isinstance(raw, list) or not raw:
        raise ProtocolError(
            "bad_query", "'query' must be a non-empty JSON array of numbers"
        )
    try:
        values = np.array([decode_float(v) for v in raw], dtype=np.float64)
    except Exception:
        raise ProtocolError(
            "bad_query", "'query' contains a value that is not a number"
        ) from None
    if not np.isfinite(values).all():
        raise ProtocolError(
            "bad_query", "'query' values must be finite"
        )
    return values


def require_epsilon(raw: object) -> float:
    """Validate a frame's ``epsilon`` field."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ProtocolError("bad_query", f"'epsilon' must be a number, got {raw!r}")
    value = float(raw)
    if math.isnan(value) or value < 0:
        raise ProtocolError(
            "bad_query", f"'epsilon' must be >= 0, got {value!r}"
        )
    return value


def require_name(frame: Dict[str, object], field: str = "name") -> str:
    """Validate a frame's query/stream name field."""
    raw = frame.get(field)
    if not isinstance(raw, str) or not raw:
        raise ProtocolError(
            "bad_frame", f"'{field}' must be a non-empty string"
        )
    if len(raw) > 512:
        raise ProtocolError("bad_frame", f"'{field}' is longer than 512 chars")
    return raw


def optional_name_list(
    frame: Dict[str, object], field: str
) -> Optional[List[str]]:
    """Validate an optional list-of-names filter field (None = no filter)."""
    raw = frame.get(field)
    if raw is None:
        return None
    if not isinstance(raw, list) or not all(
        isinstance(item, str) for item in raw
    ):
        raise ProtocolError(
            "bad_frame", f"'{field}' must be an array of strings or null"
        )
    return [str(item) for item in raw]
