"""Wire-protocol robustness: malformed frames must never take the server down.

The contract under test (ISSUE 9): whatever bytes a client sends —
truncated lines, frames split across TCP packets, invalid JSON,
non-finite payloads, oversized batches — the server answers with a
structured ``error`` frame (or applies the missing-value policy),
keeps the connection in a defined state, and **never** wedges other
connections.  Hypothesis drives the adversarial inputs; after every
barrage a fresh well-formed session must still work end to end.

Pure-function properties of the codec itself (round-trips, canonical
bytes) live here too, since they underwrite the byte-level parity
suite.
"""

from __future__ import annotations

import json
import math
import socket

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro._serde import decode_float
from repro.core.matches import Match
from repro.core.monitor import MatchEvent
from repro.service import protocol
from repro.service.client import ProducerClient, ServiceConnection

# ----------------------------------------------------------------------
# Codec properties (no server needed)
# ----------------------------------------------------------------------

frame_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**31), max_value=2**31),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        st.text(max_size=20),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=10), children, max_size=4),
    ),
    max_leaves=10,
)


@given(
    st.dictionaries(
        st.text(min_size=1, max_size=12), frame_values, max_size=6
    ).map(lambda d: dict(d, type="x"))
)
@settings(max_examples=50, deadline=None)
def test_encode_decode_roundtrip(frame):
    """decode(encode(frame)) == frame for any JSON-safe frame."""
    assert protocol.decode_frame(protocol.encode_frame(frame)) == frame


@given(
    st.dictionaries(
        st.text(min_size=1, max_size=12), frame_values, max_size=6
    ).map(lambda d: dict(d, type="x"))
)
@settings(max_examples=50, deadline=None)
def test_encoding_is_canonical(frame):
    """Key order on input never changes the bytes on the wire."""
    reordered = dict(reversed(list(frame.items())))
    assert protocol.encode_frame(frame) == protocol.encode_frame(reordered)


def test_event_roundtrip_preserves_every_field():
    match = Match(
        start=3,
        end=9,
        distance=1.25,
        output_time=11,
        path=((3, 1), (4, 2), (9, 4)),
        group_start=2,
        group_end=10,
    )
    event = MatchEvent("s1", "spike", match)
    data = protocol.encode_event("s1", 7, event)
    stream, seq, decoded = protocol.decode_event(
        protocol.decode_frame(data)
    )
    assert (stream, seq) == ("s1", 7)
    assert decoded.query == "spike"
    assert decoded.match == match


def test_decode_values_accepts_numbers_strings_and_json_tokens():
    raw = json.loads('[1, 2.5, "nan", "inf", "-inf", NaN, Infinity]')
    values = protocol.decode_values(raw, max_batch=10)
    assert values[0] == 1.0 and values[1] == 2.5
    assert math.isnan(values[2]) and math.isnan(values[5])
    assert values[3] == math.inf and values[6] == math.inf
    assert values[4] == -math.inf


@pytest.mark.parametrize(
    "raw, code",
    [
        ("notalist", "bad_frame"),
        ([], "bad_frame"),
        ([1, "spam"], "bad_frame"),
        ([True], "bad_frame"),
        ([None], "bad_frame"),
        ([[1.0]], "bad_frame"),
        (list(range(11)), "oversized_batch"),
    ],
)
def test_decode_values_rejects_garbage(raw, code):
    with pytest.raises(protocol.ProtocolError) as err:
        protocol.decode_values(raw, max_batch=10)
    assert err.value.code == code


ack_ints = st.integers(min_value=0, max_value=2**66)


@given(ack_ints, ack_ints, ack_ints, ack_ints, ack_ints)
@settings(max_examples=500, deadline=None)
def test_encode_ack_is_the_canonical_encoding(
    seq, applied, trimmed, watermark, credit
):
    frame = {
        "type": "ack",
        "seq": seq,
        "applied": applied,
        "trimmed": trimmed,
        "watermark": watermark,
        "credit": credit,
    }
    assert protocol.encode_ack(
        seq, applied, trimmed, watermark, credit
    ) == protocol.encode_frame(frame)


def _decode_values_by_item(raw, max_batch):
    """``decode_values`` as one loop over the items: the reference its
    one-call path must match."""
    if not isinstance(raw, list):
        raise protocol.ProtocolError(
            "bad_frame", "'values' must be a JSON array of numbers"
        )
    if len(raw) == 0:
        raise protocol.ProtocolError("bad_frame", "'values' must not be empty")
    if len(raw) > max_batch:
        raise protocol.ProtocolError(
            "oversized_batch",
            f"batch of {len(raw)} values exceeds max_batch={max_batch}",
        )
    out = np.empty(len(raw), dtype=np.float64)
    for i, item in enumerate(raw):
        if isinstance(item, bool) or not isinstance(item, (int, float, str)):
            raise protocol.ProtocolError(
                "bad_frame", f"values[{i}] is not a number: {item!r}"
            )
        try:
            out[i] = decode_float(item) if isinstance(item, str) else float(item)
        except Exception:
            raise protocol.ProtocolError(
                "bad_frame", f"values[{i}] is not a number: {item!r}"
            ) from None
    return out


def _decoded(decode, raw, max_batch):
    try:
        values = decode(raw, max_batch)
    except protocol.ProtocolError as err:
        return ("error", err.code, err.detail)
    return ("ok", values.dtype.str, values.shape, values.tobytes())


number_items = st.one_of(
    st.floats(),  # NaN and the infinities included
    st.integers(min_value=-(2**64), max_value=2**64),
    st.sampled_from([2**53 + 1, -(2**53) - 1, 2**63, 2**64 + 1, 10**400]),
)
value_items = st.one_of(
    number_items,
    st.booleans(),
    st.none(),
    st.sampled_from(["nan", "inf", "-inf"]),
    st.text(max_size=6),
    st.lists(number_items, max_size=2),
    st.dictionaries(st.text(max_size=3), number_items, max_size=2),
)


@given(
    st.one_of(
        st.lists(number_items, max_size=12),
        st.lists(value_items, max_size=12),
        value_items,
    ),
    st.sampled_from([4, 10, 4096]),
)
@settings(max_examples=1000, deadline=None)
def test_decode_values_matches_the_per_item_reference(raw, max_batch):
    """Same array bytes, or the same error code and detail."""
    assert _decoded(protocol.decode_values, raw, max_batch) == _decoded(
        _decode_values_by_item, raw, max_batch
    )


@pytest.mark.parametrize(
    "line, code",
    [
        (b"", "bad_frame"),
        (b"   \n", "bad_frame"),
        (b"{not json}\n", "bad_json"),
        (b'{"type": "push"', "bad_json"),
        (b"[1, 2, 3]\n", "bad_frame"),
        (b'"just a string"\n', "bad_frame"),
        (b"{}\n", "bad_frame"),
        (b'{"type": 7}\n', "bad_frame"),
    ],
)
def test_decode_frame_rejects_malformed_lines(line, code):
    with pytest.raises(protocol.ProtocolError) as err:
        protocol.decode_frame(line)
    assert err.value.code == code


# ----------------------------------------------------------------------
# Live-server robustness
# ----------------------------------------------------------------------


def _assert_alive(handle):
    """A fresh, fully well-formed session still works end to end."""
    producer = ProducerClient("127.0.0.1", handle.port, stream="s1")
    before = producer.watermark
    ack = producer.push([1.0, 1.0])
    assert ack["applied"] == 2
    assert ack["watermark"] == before + 2
    producer.bye()
    producer.close()


junk_lines = st.one_of(
    st.binary(max_size=64).filter(lambda b: b"\n" not in b),
    st.text(max_size=64).map(lambda t: t.replace("\n", " ").encode()),
    st.sampled_from(
        [
            b"{not json}",
            b'{"type": "push"',
            b'{"type": []}',
            b"[1,2,3]",
            b'{"type": "push", "seq": 1}',
            b'{"type": "push", "seq": -4, "values": [1]}',
            b'{"type": "push", "seq": 1, "values": "x"}',
            b'{"type": "push", "seq": 1, "values": []}',
            b'{"type": "frobnicate"}',
            b'{"type": "hello", "role": "producer"}',
        ]
    ),
)


@given(st.lists(junk_lines, min_size=1, max_size=6))
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_junk_frames_get_error_replies_not_crashes(server, lines):
    """Arbitrary junk on a producer connection: errors, never death."""
    producer = ProducerClient("127.0.0.1", server.port, stream="s1")
    for line in lines:
        producer.send_raw(line + b"\n")
    # The connection still speaks the protocol afterwards: a valid
    # push must be acked (the server never wedges mid-connection).
    producer.settimeout(30.0)
    seq = producer.send_push([1.0])
    while True:
        frame = producer.recv()
        assert frame is not None, "server closed on a recoverable error"
        if frame.get("type") == "ack" and frame.get("seq") == seq:
            assert frame["applied"] == 1
            break
        assert frame.get("type") in ("error", "pong", "ack")
    producer.close()
    _assert_alive(server)


def test_frames_split_across_tcp_packets(server):
    """One frame delivered byte-by-byte parses exactly once."""
    conn = ServiceConnection("127.0.0.1", server.port)
    hello = protocol.encode_frame(
        {"type": "hello", "role": "producer", "stream": "s1"}
    )
    for i in range(len(hello)):
        conn.sock.sendall(hello[i : i + 1])
    ack = conn.recv_type("hello_ack")
    watermark = ack["watermark"]
    push = protocol.encode_frame(
        {"type": "push", "seq": 1, "values": [1.0, 2.0, 1.0]}
    )
    mid = len(push) // 2
    conn.sock.sendall(push[:mid])
    conn.sock.sendall(push[mid:])
    ack = conn.recv_type("ack")
    assert ack["applied"] == 3
    assert ack["watermark"] == watermark + 3
    conn.close()


def test_truncated_connection_mid_frame_does_not_leak(server):
    """Dropping the socket mid-frame leaves the server fully usable."""
    raw = socket.create_connection(("127.0.0.1", server.port))
    raw.sendall(b'{"type": "hello", "role": "produ')  # cut mid-token
    raw.close()
    _assert_alive(server)


def test_non_finite_payloads_route_through_missing_policy(server):
    """NaN = missing (skipped, time passes); inf = corrupt (bad_value)."""
    producer = ProducerClient("127.0.0.1", server.port, stream="s1")
    # Default matchers run missing="skip": NaN is accepted and the
    # clock advances (no error member in the ack).
    ack = producer.push([1.0, float("nan"), 1.0])
    assert "error" not in ack and ack["applied"] == 3
    # inf is corrupt for every policy: the clean prefix is applied and
    # acked, the offending tick is reported, the connection survives.
    before = ack["watermark"]
    ack = producer.push([2.0, float("inf"), 2.0])
    assert ack["applied"] == 1
    assert ack["watermark"] == before + 1
    assert ack["error"]["code"] == "bad_value"
    assert str(before + 2) in ack["error"]["detail"]
    # Still alive, same connection.
    ack = producer.push([0.5])
    assert ack["applied"] == 1
    producer.close()


def test_non_finite_json_tokens_accepted_on_the_wire(server):
    """Python-style NaN/Infinity tokens parse; semantics are the policy's."""
    producer = ProducerClient("127.0.0.1", server.port, stream="s1")
    producer.send_raw(
        b'{"type": "push", "seq": 1, "values": [1.0, NaN, 1.0]}\n'
    )
    ack = producer.recv_type("ack")
    assert ack["applied"] == 3 and "error" not in ack
    producer.send_raw(
        b'{"type": "push", "seq": 2, "values": [Infinity]}\n'
    )
    ack = producer.recv_type("ack")
    assert ack["applied"] == 0 and ack["error"]["code"] == "bad_value"
    producer.close()


def test_oversized_batch_rejected_without_side_effects(service_server):
    handle = service_server(max_batch=8)
    producer = ProducerClient("127.0.0.1", handle.port, stream="s1")
    assert producer.max_batch == 8
    before = producer.watermark
    producer.send_push(list(np.zeros(9)))
    frame = producer.recv()
    assert frame["type"] == "error"
    assert frame["code"] == "oversized_batch"
    # Nothing was applied, and the connection still works.
    ack = producer.push(list(np.ones(8)))
    assert ack["applied"] == 8
    assert ack["watermark"] == before + 8
    producer.close()


def test_oversized_line_closes_only_that_connection(service_server):
    handle = service_server(max_line=4096)
    raw = socket.create_connection(("127.0.0.1", handle.port))
    raw.sendall(b"x" * 8192)  # no newline within the limit
    raw.settimeout(30.0)
    data = b""
    while True:
        chunk = raw.recv(4096)
        if not chunk:
            break
        data += chunk
    assert b"oversized_line" in data
    raw.close()
    _assert_alive(handle)


def test_push_before_hello_is_rejected(server):
    conn = ServiceConnection("127.0.0.1", server.port)
    conn.send({"type": "push", "seq": 1, "values": [1.0]})
    frame = conn.recv()
    assert frame["type"] == "error" and frame["code"] == "bad_hello"
    conn.close()
    _assert_alive(server)


def test_bad_role_is_rejected(server):
    conn = ServiceConnection("127.0.0.1", server.port)
    conn.send({"type": "hello", "role": "superuser"})
    frame = conn.recv()
    assert frame["type"] == "error" and frame["code"] == "bad_hello"
    conn.close()


def test_producer_without_stream_is_rejected(server):
    conn = ServiceConnection("127.0.0.1", server.port)
    conn.send({"type": "hello", "role": "producer"})
    frame = conn.recv()
    assert frame["type"] == "error" and frame["code"] == "bad_frame"
    conn.close()


def test_wedged_connection_does_not_block_others(server):
    """A connection that sent garbage and went silent stalls nobody."""
    raw = socket.create_connection(("127.0.0.1", server.port))
    raw.sendall(b'{"type": "hello", "role": "producer", "stream": "s1"}\n')
    raw.sendall(b"garbage that is not json\n")  # leave it hanging, unread
    _assert_alive(server)
    raw.close()
