"""Fixed-capacity ring buffers: in-process and shared-memory.

SPRING itself needs no history, but surrounding tooling does: examples
display the matched subsequence, the monitor CLI prints context windows,
and the SPRING(path) memory accounting wants the recent raw values.  A
ring buffer gives that with a hard memory cap — keeping the whole system
inside the constant-space story.

Two flavours:

* :class:`RingBuffer` — plain numpy storage inside one process.
* :class:`SharedRingBuffer` — the same fixed-capacity idea over
  :mod:`multiprocessing.shared_memory`, with one writer and a fixed set
  of reader cursors.  This is the data plane of the sharded runtime
  (:mod:`repro.runtime.shard`): the supervisor publishes stream values
  once, and each worker process consumes them at its own pace without
  copies through pipes or queues.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro._serde import decode_floats, encode_floats
from repro.exceptions import ValidationError

__all__ = ["RingBuffer", "SharedRingBuffer"]


class RingBuffer:
    """Keep the most recent ``capacity`` values of a scalar stream.

    Indexing is by absolute 1-based stream tick, so callers can slice by
    the positions SPRING reports without tracking offsets themselves.
    """

    def __init__(self, capacity: int) -> None:
        if int(capacity) < 1:
            raise ValidationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._data = np.empty(self.capacity, dtype=np.float64)
        self._count = 0  # total values ever pushed == last absolute tick
        # Oldest tick ever held: 1, or later after a trimmed restore.
        self._first = 1

    def push(self, value: float) -> None:
        """Append one value, evicting the oldest when full."""
        self._data[self._count % self.capacity] = value
        self._count += 1

    def __len__(self) -> int:
        return self._count - self.oldest_tick + 1 if self._count else 0

    @property
    def total_pushed(self) -> int:
        """Absolute tick of the newest value (0 when empty)."""
        return self._count

    @property
    def storage(self) -> np.ndarray:
        """The backing array: tick ``t`` lives at slot ``(t - 1) % capacity``.

        For compiled writers that fill slots in place and then declare
        them with :meth:`advance_to`.
        """
        return self._data

    def advance_to(self, count: int) -> None:
        """Declare every value up to absolute tick ``count`` written
        through :attr:`storage`."""
        self._count = int(count)

    @property
    def oldest_tick(self) -> int:
        """Absolute 1-based tick of the oldest retained value."""
        if self._count == 0:
            raise ValidationError("buffer is empty")
        return max(self._first, self._count - self.capacity + 1)

    def latest(self, n: int) -> np.ndarray:
        """The ``n`` most recent values, oldest first."""
        n = min(n, len(self))
        if n == 0:
            return np.empty(0, dtype=np.float64)
        return self.window(self._count - n + 1, self._count)

    def window(self, start_tick: int, end_tick: int) -> np.ndarray:
        """Values for absolute ticks ``start_tick..end_tick`` (inclusive).

        Raises when part of the window has been evicted — the caller
        sized the buffer too small for the query it is displaying.
        """
        if start_tick < 1 or end_tick < start_tick:
            raise ValidationError(
                f"invalid window [{start_tick}, {end_tick}]"
            )
        if end_tick > self._count:
            raise ValidationError(
                f"window end {end_tick} is in the future (now={self._count})"
            )
        if start_tick < self.oldest_tick:
            raise ValidationError(
                f"window start {start_tick} already evicted "
                f"(oldest retained: {self.oldest_tick})"
            )
        idx = (np.arange(start_tick - 1, end_tick)) % self.capacity
        return self._data[idx].copy()

    def state_dict(self, keep: Optional[int] = None) -> dict:
        """JSON-safe snapshot: capacity, total pushed, retained values.

        ``keep`` stores only the newest ``keep`` retained values; the
        restored buffer then holds just those, and older windows raise
        as evicted.
        """
        n = len(self) if keep is None else min(int(keep), len(self))
        values = self.latest(n) if n else np.empty(0, dtype=np.float64)
        return {
            "capacity": self.capacity,
            "count": self._count,
            "values": encode_floats(values),
        }

    @classmethod
    def from_state(cls, state: dict) -> "RingBuffer":
        """Rebuild a buffer at the snapshot's own capacity.

        Unlike :meth:`load_state_dict` this never rejects on a capacity
        mismatch with some pre-existing buffer — callers restoring a
        checkpoint under a different configured capacity keep the
        snapshot's layout (the pruning engine relies on this so resumed
        parked spans replay exactly as they would have).
        """
        buffer = cls(int(state["capacity"]))
        buffer.load_state_dict(state)
        return buffer

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output (capacity must match)."""
        if int(state["capacity"]) != self.capacity:
            raise ValidationError(
                f"buffer capacity mismatch: have {self.capacity}, "
                f"checkpoint has {state['capacity']}"
            )
        values = decode_floats(state["values"])
        # Replay the retained window so the modular layout is rebuilt
        # exactly: rewind the counter, then push the values back.
        self._count = int(state["count"]) - values.shape[0]
        self._first = self._count + 1
        for value in values:
            self.push(float(value))


class SharedRingBuffer:
    """Single-writer, multi-reader ring buffer over shared memory.

    One process (the *writer*, normally a shard supervisor) publishes a
    scalar stream; up to ``max_readers`` other processes consume it,
    each through its own cursor slot.  Values are addressed by absolute
    1-based stream tick, exactly like :class:`RingBuffer`, so readers
    can hand positions straight to matchers.

    Layout (all 8-byte aligned, fixed at creation)::

        int64[0]                write_seq  — total values ever published
        int64[1]                capacity
        int64[2]                max_readers
        int64[3 .. 3+R-1]       per-reader consumed counts
        float64[... capacity]   value slots (tick t lives at (t-1) % capacity)

    Publication is guarded by one shared ``multiprocessing.Lock``: the
    writer fills slots and advances ``write_seq`` inside a single
    critical section, and a reader snapshots the counter and copies its
    slots inside another.  The lock is not (primarily) about mutual
    exclusion — ownership already bounds who mutates what: only the
    writer moves ``write_seq`` and only reader ``r`` moves cursor ``r``.
    It is about *memory ordering*: plain numpy stores into shared
    memory carry no barrier, so on weakly-ordered CPUs (ARM64 — Apple
    Silicon, Graviton) a lock-free reader could observe an advanced
    ``write_seq`` before the slot data became visible and consume
    garbage.  The lock's acquire/release pairs impose the
    happens-before edges x86-TSO used to give for free, making a
    reader that observes ``write_seq == n`` guaranteed to see the
    slots for ticks ``<= n`` fully written.  The cost is per *batch*
    (one acquisition per ``push_many`` / ``read_new`` call), never per
    tick.

    The writer decides which cursors exert backpressure by passing the
    live reader ids to :meth:`push_many` / :meth:`free_space` — a dead
    worker's stalled cursor must not wedge the stream while the
    supervisor restarts it (the recovery replay covers the gap).

    Spawn-safety: the buffer travels between processes as its
    :attr:`descriptor`; the receiving process calls :meth:`attach`.
    The descriptor carries the shared lock, which ``multiprocessing``
    only pickles while a process is being spawned — pass descriptors
    through ``Process`` arguments, not through queues after start.
    Attached handles deliberately unregister
    from the ``multiprocessing`` resource tracker so that a worker
    killed with SIGKILL never triggers the tracker's premature-unlink
    warning — the creating process owns the segment's lifetime via
    :meth:`unlink`.
    """

    _HEADER_SLOTS = 3

    def __init__(
        self,
        capacity: int,
        max_readers: int = 1,
        *,
        _shm=None,
        _lock=None,
    ) -> None:
        import multiprocessing
        from multiprocessing import shared_memory

        capacity = int(capacity)
        max_readers = int(max_readers)
        if capacity < 1:
            raise ValidationError(f"capacity must be >= 1, got {capacity}")
        if max_readers < 1:
            raise ValidationError(
                f"max_readers must be >= 1, got {max_readers}"
            )
        header_slots = self._HEADER_SLOTS + max_readers
        size = 8 * (header_slots + capacity)
        if _shm is None:
            self._shm = shared_memory.SharedMemory(create=True, size=size)
            self._owner = True
        else:
            self._shm = _shm
            self._owner = False
        # The publication fence (see class docstring).  Created once by
        # the owner and shared via the descriptor so every process
        # brackets header access with the same lock.  Always from the
        # spawn context: a spawn-context SemLock travels into spawn
        # children by name and into fork children by inheritance,
        # whereas a fork-context one is rejected when pickled for a
        # spawn target.
        self._lock = (
            _lock
            if _lock is not None
            else multiprocessing.get_context("spawn").Lock()
        )
        self.capacity = capacity
        self.max_readers = max_readers
        self._header = np.ndarray(
            (header_slots,), dtype=np.int64, buffer=self._shm.buf
        )
        self._data = np.ndarray(
            (capacity,),
            dtype=np.float64,
            buffer=self._shm.buf,
            offset=8 * header_slots,
        )
        if self._owner:
            self._header[:] = 0
            self._header[1] = capacity
            self._header[2] = max_readers

    # -- lifecycle -----------------------------------------------------

    @property
    def name(self) -> str:
        """Shared-memory segment name (stable process-wide handle)."""
        return self._shm.name

    @property
    def descriptor(self) -> Dict[str, object]:
        """Handle another process can :meth:`attach` to.

        Carries the shared publication lock, so it pickles only while
        a process is being spawned (pass it via ``Process`` args).
        """
        return {
            "name": self._shm.name,
            "capacity": self.capacity,
            "max_readers": self.max_readers,
            "lock": self._lock,
        }

    @classmethod
    def attach(cls, descriptor: Dict[str, object]) -> "SharedRingBuffer":
        """Open an existing buffer from its :attr:`descriptor`."""
        from multiprocessing import resource_tracker, shared_memory

        # CPython <= 3.12 registers the segment with the resource
        # tracker even on attach.  Workers share the creator's tracker
        # process, so that second registration is a duplicate — and
        # un-registering it later would strip the *creator's* entry,
        # breaking the creator's own unlink.  Suppress registration for
        # the attach call instead: the creating process alone owns the
        # segment's lifetime.
        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            shm = shared_memory.SharedMemory(name=str(descriptor["name"]))
        finally:
            resource_tracker.register = original_register
        return cls(
            int(descriptor["capacity"]),
            int(descriptor["max_readers"]),
            _shm=shm,
            _lock=descriptor["lock"],
        )

    def close(self) -> None:
        """Detach this handle (the segment survives until unlinked)."""
        # Views into shm.buf must be dropped before close() or mmap
        # refuses to release the mapping.
        self._header = None
        self._data = None
        self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment (creator only; call after :meth:`close`)."""
        self._shm.unlink()

    # -- writer side ---------------------------------------------------

    @property
    def write_seq(self) -> int:
        """Total values ever published (== absolute tick of the newest)."""
        with self._lock:
            return int(self._header[0])

    def reader_seq(self, reader: int) -> int:
        """Total values consumed by reader ``reader``."""
        self._check_reader(reader)
        with self._lock:
            return int(self._header[self._HEADER_SLOTS + reader])

    def set_reader_seq(self, reader: int, seq: int) -> None:
        """Reposition a reader cursor (writer-side recovery only).

        Safe only while no process is concurrently reading through that
        slot — the sharded supervisor uses it between a worker's death
        and its replacement's spawn.
        """
        self._check_reader(reader)
        seq = int(seq)
        with self._lock:
            write = int(self._header[0])
            if seq < 0 or seq > write:
                raise ValidationError(
                    f"reader seq {seq} outside [0, {write}]"
                )
            self._header[self._HEADER_SLOTS + reader] = seq

    def _free_space_locked(self, readers: Sequence[int]) -> int:
        write = int(self._header[0])
        floor = write
        for reader in readers:
            floor = min(
                floor, int(self._header[self._HEADER_SLOTS + reader])
            )
        return self.capacity - (write - floor)

    def free_space(self, readers: Iterable[int] = ()) -> int:
        """Slots the writer may fill without overrunning ``readers``.

        With no readers listed, only the capacity bounds the writer
        (old values are overwritten ring-style).
        """
        readers = [int(r) for r in readers]
        for reader in readers:
            self._check_reader(reader)
        with self._lock:
            return self._free_space_locked(readers)

    def push_many(
        self, values: np.ndarray, readers: Iterable[int] = ()
    ) -> int:
        """Publish as many of ``values`` as fit; returns the count.

        Slots are filled and ``write_seq`` advanced inside one locked
        section — a concurrent reader never observes a
        published-but-unwritten tick, on any memory model.
        """
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        readers = [int(r) for r in readers]
        for reader in readers:
            self._check_reader(reader)
        with self._lock:
            room = self._free_space_locked(readers)
            count = min(int(room), values.shape[0])
            if count <= 0:
                return 0
            write = int(self._header[0])
            idx = (write + np.arange(count)) % self.capacity
            self._data[idx] = values[:count]
            self._header[0] = write + count
        return count

    def push(self, value: float, readers: Iterable[int] = ()) -> bool:
        """Publish one value; False when backpressure blocks it."""
        return self.push_many(np.asarray([value]), readers) == 1

    # -- reader side ---------------------------------------------------

    def read_new(
        self, reader: int, limit: Optional[int] = None
    ) -> Tuple[int, np.ndarray]:
        """Consume everything published past this reader's cursor.

        Returns ``(first_tick, values)`` where ``first_tick`` is the
        absolute 1-based tick of ``values[0]`` (undefined when empty).
        Advances the cursor past what was returned.
        """
        self._check_reader(reader)
        slot = self._HEADER_SLOTS + reader
        with self._lock:
            cursor = int(self._header[slot])
            write = int(self._header[0])
            count = write - cursor
            if limit is not None:
                count = min(count, int(limit))
            if count <= 0:
                return cursor + 1, np.empty(0, dtype=np.float64)
            idx = (cursor + np.arange(count)) % self.capacity
            values = self._data[idx].copy()
            self._header[slot] = cursor + count
        return cursor + 1, values

    def _check_reader(self, reader: int) -> None:
        if not 0 <= int(reader) < self.max_readers:
            raise ValidationError(
                f"reader {reader} outside [0, {self.max_readers})"
            )
