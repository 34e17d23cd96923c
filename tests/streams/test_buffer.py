"""Unit tests for the ring buffer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.streams import RingBuffer


class TestRingBuffer:
    def test_rejects_zero_capacity(self):
        with pytest.raises(ValidationError):
            RingBuffer(0)

    def test_fill_and_len(self):
        buf = RingBuffer(5)
        assert len(buf) == 0
        for value in range(3):
            buf.push(float(value))
        assert len(buf) == 3
        for value in range(10):
            buf.push(float(value))
        assert len(buf) == 5

    def test_latest_order(self):
        buf = RingBuffer(4)
        for value in range(10):
            buf.push(float(value))
        np.testing.assert_allclose(buf.latest(3), [7.0, 8.0, 9.0])

    def test_window_by_absolute_ticks(self):
        buf = RingBuffer(6)
        for value in range(1, 11):  # tick t holds value t
            buf.push(float(value))
        np.testing.assert_allclose(buf.window(6, 8), [6.0, 7.0, 8.0])

    def test_window_matches_spring_coordinates(self, rng):
        """The motivating use: slice the stream by a Match's positions."""
        from repro.core import Spring

        y = rng.normal(size=4)
        x = np.concatenate([rng.normal(size=20) + 9, y, rng.normal(size=5) + 9])
        buf = RingBuffer(16)
        spring = Spring(y, epsilon=1e-9)
        match = None
        for value in x:
            buf.push(float(value))
            match = spring.step(value) or match
        match = match or spring.flush()
        assert match is not None
        np.testing.assert_allclose(buf.window(match.start, match.end), y)

    def test_evicted_window_raises(self):
        buf = RingBuffer(3)
        for value in range(10):
            buf.push(float(value))
        with pytest.raises(ValidationError):
            buf.window(1, 2)

    def test_future_window_raises(self):
        buf = RingBuffer(3)
        buf.push(1.0)
        with pytest.raises(ValidationError):
            buf.window(1, 5)

    def test_invalid_window_raises(self):
        buf = RingBuffer(3)
        buf.push(1.0)
        with pytest.raises(ValidationError):
            buf.window(2, 1)

    def test_oldest_tick(self):
        buf = RingBuffer(4)
        with pytest.raises(ValidationError):
            buf.oldest_tick
        for value in range(10):
            buf.push(float(value))
        assert buf.oldest_tick == 7
        assert buf.total_pushed == 10

    def test_trimmed_snapshot_holds_only_the_kept_ticks(self):
        buf = RingBuffer(8)
        for value in range(1, 11):  # tick t holds value t
            buf.push(float(value))
        restored = RingBuffer.from_state(buf.state_dict(keep=3))
        assert restored.capacity == 8 and restored.total_pushed == 10
        assert len(restored) == 3 and restored.oldest_tick == 8
        np.testing.assert_allclose(restored.window(8, 10), [8.0, 9.0, 10.0])
        with pytest.raises(ValidationError):
            restored.window(7, 10)
        restored.push(11.0)
        np.testing.assert_allclose(restored.latest(8), [8.0, 9.0, 10.0, 11.0])
        assert restored.state_dict() == RingBuffer.from_state(
            restored.state_dict()
        ).state_dict()
        assert RingBuffer.from_state(buf.state_dict(keep=0)).oldest_tick == 11


# ----------------------------------------------------------------------
# SharedRingBuffer
# ----------------------------------------------------------------------

from repro.streams import SharedRingBuffer  # noqa: E402


def _reader_child(descriptor, reader, expect, out):
    """Spawn target: consume ``expect`` values, send them back."""
    ring = SharedRingBuffer.attach(descriptor)
    try:
        got = []
        while len(got) < expect:
            _, values = ring.read_new(reader)
            got.extend(values.tolist())
        out.put((reader, got))
    finally:
        ring.close()


class TestSharedRingBuffer:
    def test_rejects_bad_config(self):
        with pytest.raises(ValidationError):
            SharedRingBuffer(0)
        with pytest.raises(ValidationError):
            SharedRingBuffer(4, max_readers=0)

    def test_push_read_round_trip(self):
        ring = SharedRingBuffer(8, max_readers=2)
        try:
            assert ring.push_many(np.arange(5.0)) == 5
            first, values = ring.read_new(0)
            assert first == 1
            np.testing.assert_array_equal(values, np.arange(5.0))
            # Reader 1 has its own cursor.
            first, values = ring.read_new(1)
            assert first == 1 and values.shape[0] == 5
            # Nothing new for reader 0 now.
            _, empty = ring.read_new(0)
            assert empty.shape[0] == 0
        finally:
            ring.close()
            ring.unlink()

    def test_backpressure_respects_listed_readers_only(self):
        ring = SharedRingBuffer(4, max_readers=2)
        try:
            assert ring.push_many(np.arange(4.0), readers=[0, 1]) == 4
            # Both cursors at 0: the ring is full for them.
            assert ring.push_many(np.arange(2.0), readers=[0, 1]) == 0
            ring.read_new(0)
            # Reader 1 still pins the window...
            assert ring.push_many(np.arange(2.0), readers=[0, 1]) == 0
            # ...unless the writer declares it dead.
            assert ring.push_many(np.arange(2.0), readers=[0]) == 2
        finally:
            ring.close()
            ring.unlink()

    def test_unlisted_readers_get_overwritten(self):
        ring = SharedRingBuffer(3, max_readers=1)
        try:
            ring.push_many(np.arange(10.0))  # no readers listed: wraps
            assert ring.write_seq == 3  # only capacity fits per call
            ring.push_many(np.arange(3.0, 10.0))
            assert ring.write_seq == 6
        finally:
            ring.close()
            ring.unlink()

    def test_read_limit_and_cursor_reposition(self):
        ring = SharedRingBuffer(8, max_readers=1)
        try:
            ring.push_many(np.arange(6.0))
            first, values = ring.read_new(0, limit=2)
            assert first == 1 and values.tolist() == [0.0, 1.0]
            ring.set_reader_seq(0, 5)
            first, values = ring.read_new(0)
            assert first == 6 and values.tolist() == [5.0]
            with pytest.raises(ValidationError):
                ring.set_reader_seq(0, 99)  # beyond write_seq
            with pytest.raises(ValidationError):
                ring.read_new(5)  # reader id out of range
        finally:
            ring.close()
            ring.unlink()

    def test_descriptor_attach_same_process(self):
        ring = SharedRingBuffer(8, max_readers=1)
        view = None
        try:
            ring.push_many(np.asarray([7.0, 8.0]))
            view = SharedRingBuffer.attach(ring.descriptor)
            first, values = view.read_new(0)
            assert first == 1 and values.tolist() == [7.0, 8.0]
            # The cursor lives in shared memory: the owner sees it move.
            assert ring.reader_seq(0) == 2
        finally:
            if view is not None:
                view.close()
            ring.close()
            ring.unlink()

    def test_cross_process_reader(self):
        import multiprocessing as mp

        ctx = mp.get_context("spawn")
        ring = SharedRingBuffer(64, max_readers=1)
        try:
            out = ctx.Queue()
            child = ctx.Process(
                target=_reader_child, args=(ring.descriptor, 0, 10, out)
            )
            child.start()
            try:
                for chunk in (np.arange(4.0), np.arange(4.0, 10.0)):
                    pushed = 0
                    while pushed < chunk.shape[0]:
                        pushed += ring.push_many(chunk[pushed:], readers=[0])
                _, got = out.get(timeout=60)
                assert got == [float(v) for v in range(10)]
            finally:
                child.join(timeout=60)
                assert child.exitcode == 0
        finally:
            ring.close()
            ring.unlink()
