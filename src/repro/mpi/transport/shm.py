"""Shared-memory frame pool for the multiprocess transport.

Every data message crosses as one record of a :class:`FrameQueue`, the
single-producer/single-consumer queue of its ordered rank pair (an
unnamed ``memfd`` whose descriptor the producer passes over the socket;
its protocol is in :mod:`.process_backend`).  Large payload frames (the
protocol-5 out-of-band ndarray buffers, flat ``'buffer'``-kind sends
and pickle blobs of :attr:`ShmPool.threshold` bytes or more) do not
ride the record: they cross through named POSIX shared memory.  A
frame is copied exactly once on each side: the sender copies the
caller's bytes into shared memory (that copy *is* the isolation copy
the thread backend makes), and the receiver ends up with a private
read-only array.  Two routes, chosen per frame by
:meth:`ShmPool.export`:

- **Ring** (the common case).  Each ordered (sender, receiver) pair has
  one reusable ring segment, created by the sender on its first bulk
  frame to that peer: a 64-byte header holding the consumer's position
  (a native u64), then :data:`RING_CAPACITY` bytes of frame space.  The
  sender keeps its head locally, places each frame 64-byte aligned
  (at offset 0 when it would not fit before the end, or when the ring
  is empty) and ships only ``("ring", offset, nbytes, end)``.  The
  receiving thread that takes the record copies the frame out and then
  stores ``end`` into the header: that store is the credit return, no
  message needed.  Positions are virtual byte counts that only grow,
  so "empty" (position == head) and "full" (``end - position >
  RING_CAPACITY``) never alias.
- **Segment** (the fallback).  A frame larger than half the capacity,
  one that finds its ring full, or any frame on a host without rings
  gets a one-off segment; the receiver maps it read-only, and the
  kernel unmaps it when the last array viewing it dies.  No sender ever
  waits for a credit.

Ordering.  The producer must read the consumer's position before it
writes the frame, and the consumer's copy-out must complete before its
position store is visible.  x86-64's total store order gives both
(loads are never reordered with later stores), and the frame bytes are
stored before the queue record naming them (stores are never reordered
with other stores).  On any other ISA the pool uses no rings: every
bulk frame takes the segment route.  A :class:`FrameQueue` returns its
credit the same way and has no such fallback, so it is for x86-64 only.

Lifetime protocol (the part that keeps ``/dev/shm`` clean), the same
for rings and segments:

- The creator names the segment with the session prefix.
- The receiver unlinks the name *at map time*.  POSIX keeps the memory
  itself alive until the last mapping goes away, but the name is gone,
  so a receiver crash after mapping leaks nothing.
- A segment nobody mapped (its receiver was SIGKILLed first) still
  carries the session prefix, and the parent sweeps
  ``/dev/shm/<prefix>*`` at teardown (and again at interpreter exit).

Segments are plain ``/dev/shm`` files mapped with :mod:`mmap`, never
registered with multiprocessing's ``resource_tracker``: lifetime is
entirely the explicit protocol above.
"""

from __future__ import annotations

import atexit
import itertools
import mmap
import os
import platform
import secrets
import struct
import threading
from collections import Counter
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["ShmPool", "FrameQueue", "new_session_id", "sweep_session",
           "segment_names", "shm_threshold", "SHM_PREFIX", "RING_CAPACITY",
           "FENCED"]

SHM_PREFIX = "repro-shm-"

_DEFAULT_MIN = 64 * 1024  # frames below this ride inline in a record

#: frame space of one ring; frames above half of it take a segment
RING_CAPACITY = 16 << 20
_HEADER = 64   # the consumer's position, padded to a cache line
_ALIGN = 64
_POS = struct.Struct("Q")  # native: one aligned 8-byte load/store

#: x86-64's total store order, on which rings and the small-frame queue
#: rely (see the module docstring); the process transport, whose every
#: data message is a queue record, starts nowhere else
FENCED = platform.machine().lower() in ("x86_64", "amd64")


def shm_threshold() -> int:
    """Minimum frame size (bytes) routed through shared memory."""
    try:
        return int(os.environ.get("REPRO_MPI_SHM_MIN", _DEFAULT_MIN))
    except ValueError:
        return _DEFAULT_MIN


def new_session_id() -> str:
    """A name component unique to one world (parent pid + random)."""
    return f"{os.getpid():x}-{secrets.token_hex(4)}"


def segment_names(session_id: str) -> List[str]:
    """Names of this session's live segments (Linux: /dev/shm listing)."""
    prefix = SHM_PREFIX + session_id + "-"
    try:
        return sorted(n for n in os.listdir("/dev/shm")
                      if n.startswith(prefix))
    except OSError:
        return []


def sweep_session(session_id: str) -> int:
    """Unlink every leftover segment of *session_id*; returns the count.

    Run by the parent at world teardown and at interpreter exit: the only
    segments still named here are ones nobody mapped (the receiving rank
    died first), since receivers unlink on map.
    """
    swept = 0
    for name in segment_names(session_id):
        try:
            os.unlink(os.path.join("/dev/shm", name))
            swept += 1
        except OSError:
            pass
    return swept


def _create(name: str, size: int) -> mmap.mmap:
    """Create /dev/shm/*name* with *size* bytes and map it read-write."""
    path = os.path.join("/dev/shm", name)
    fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o600)
    try:
        os.ftruncate(fd, size)
        return mmap.mmap(fd, size)
    except BaseException:
        os.unlink(path)
        raise
    finally:
        os.close(fd)


def _map_and_unlink(name: str, size: int, writable: bool) -> mmap.mmap:
    """Map /dev/shm/*name* and unlink the name.  Raises
    ``FileNotFoundError`` if it is gone (swept after its sender died)."""
    path = os.path.join("/dev/shm", name)
    fd = os.open(path, os.O_RDWR if writable else os.O_RDONLY)
    try:
        try:
            os.unlink(path)
        except OSError:
            pass
        return mmap.mmap(fd, size, access=mmap.ACCESS_WRITE if writable
                         else mmap.ACCESS_READ)
    finally:
        os.close(fd)


def _round_up(position: int) -> int:
    """The first virtual position at ring offset 0 not before *position*."""
    return -(-position // RING_CAPACITY) * RING_CAPACITY


class _OutRing:
    """The producer's side of one ring: the mapping and its head."""

    __slots__ = ("mm", "head", "floor")

    def __init__(self, mm: mmap.mmap):
        self.mm = mm
        self.head = 0   # virtual end of the last frame written
        self.floor = 0  # virtual start of the frame that reset an empty ring

    def claim(self, nbytes: int):
        """Reserve an aligned slot; ``(offset, end)`` or None if full."""
        size = -(-nbytes // _ALIGN) * _ALIGN
        # position load before any frame store (see the module docstring)
        tail = max(_POS.unpack_from(self.mm)[0], self.floor)
        start = self.head
        if tail == start:
            # empty: restart at offset 0, so only in-flight pages are used
            start = self.floor = tail = _round_up(start)
        elif start % RING_CAPACITY + size > RING_CAPACITY:
            start = _round_up(start)  # wrap to offset 0
        end = start + size
        if end - tail > RING_CAPACITY:
            return None
        self.head = end
        return start % RING_CAPACITY, end


_QUEUE_MIN = 256 << 10  # smallest record space of a small-frame queue
# queue header: one cache line each for the producer's head and the
# position it last resumed at offset 0 from an empty queue, the
# consumer's tail, its "spinning" flag and the doorbell flag
_QHEAD, _QSKIP, _QTAIL, _QSPIN, _QBELL, _QDATA = 0, 8, 64, 128, 192, 256
_RLEN = struct.Struct("Q")  # record length; 0 marks "resume at offset 0"
_RHDR = struct.Struct("QQ")  # record length, then its stamp


class FrameQueue:
    """One ordered rank pair's single-producer/single-consumer queue of
    small records in shared memory.

    The producer creates it (``fd=None``) and hands :attr:`fd` to the
    consumer, which maps the same file.  Positions are virtual byte
    counts, as in the bulk ring; a record is ``[u64 length][u64
    stamp][bytes]`` padded to 8 bytes and never split across the end.
    Records restart at offset 0 whenever the queue is empty, so
    request/reply traffic keeps touching the same first page.  A stamp
    is a non-decreasing number the producer gives each record;
    :meth:`take` stops before the first record stamped above its limit.
    One thread consumes at a time: callers hold :attr:`lock` around
    :meth:`take`.
    """

    __slots__ = ("fd", "mm", "capacity", "head", "tail", "lock", "records")

    def __init__(self, capacity: int, fd: Optional[int] = None):
        if fd is None:  # unnamed: nothing in /dev/shm to sweep
            fd = os.memfd_create("repro-queue", os.MFD_CLOEXEC)
            os.ftruncate(fd, _QDATA + capacity)
        self.fd = fd
        self.mm = mmap.mmap(fd, _QDATA + capacity)
        self.capacity = capacity
        self.head = 0     # producer: virtual end of the last record
        self.tail = 0     # consumer: virtual end of the last record taken
        self.lock = threading.Lock()  # one consumer at a time
        self.records = 0  # producer: records put so far

    def close_fd(self) -> None:
        """Close the file; the mapping stays."""
        if self.fd is not None:
            os.close(self.fd)
            self.fd = None

    # -- producer -----------------------------------------------------------
    def put(self, parts: List, nbytes: int, stamp: int = 0) -> bool:
        """Write one record, the concatenation of *parts* (*nbytes* in
        all) stamped *stamp*, and publish it; False (nothing written)
        when full."""
        size = _record_size(nbytes)
        if size > self.capacity:
            raise ValueError(f"record of {nbytes} bytes exceeds the "
                             f"{self.capacity}-byte queue")
        mm, cap = self.mm, self.capacity
        # tail load before any record store (see the module docstring)
        tail = _POS.unpack_from(mm, _QTAIL)[0]
        start = self.head
        offset = start % cap
        if offset and tail == start:
            # empty: resume at offset 0, so only in-flight pages are used
            _POS.pack_into(mm, _QSKIP, start)
            start = tail = start - offset + cap
        elif offset + size > cap:
            # no room before the end: mark the rest unused, wrap to 0
            if start - offset + cap + size - tail > cap:
                return False
            _RLEN.pack_into(mm, _QDATA + offset, 0)
            start = start - offset + cap
        end = start + size
        if end - tail > cap:
            return False
        at = _QDATA + start % cap
        _RHDR.pack_into(mm, at, nbytes, stamp)
        at += _RHDR.size
        for part in parts:
            n = len(part)
            mm[at:at + n] = part
            at += n
        _POS.pack_into(mm, _QHEAD, end)  # publish
        self.head = end
        self.records += 1
        return True

    def owes_doorbell(self) -> bool:
        """After a put: whether the consumer neither spins nor has a
        doorbell coming, in which case one is now owed (and noted).

        The lock acquire between the head store and the flag loads is
        the full fence of this store->load (Dekker) handoff: on x86-64
        it is a locked instruction."""
        with self.lock:  # unused on the producer's side but as a fence
            pass
        mm = self.mm
        if mm[_QSPIN] or mm[_QBELL]:
            return False
        mm[_QBELL] = 1
        return True

    # -- consumer -----------------------------------------------------------
    def set_spinning(self, on: bool) -> None:
        self.mm[_QSPIN] = 1 if on else 0

    def clear_bell(self) -> None:
        self.mm[_QBELL] = 0

    def ready(self) -> bool:
        """Whether a published record awaits (a lock-free peek)."""
        return _POS.unpack_from(self.mm, _QHEAD)[0] != self.tail

    def take(self, limit: Optional[int] = None) -> List[bytes]:
        """Copy out, in order, every published record stamped *limit* or
        lower (every one with None), then hand their space back."""
        mm, cap = self.mm, self.capacity
        head = _POS.unpack_from(mm, _QHEAD)[0]
        skip = _POS.unpack_from(mm, _QSKIP)[0]
        pos = self.tail
        out = []
        while pos < head:
            offset = pos % cap
            at = _QDATA + offset
            (n,) = _RLEN.unpack_from(mm, at)
            if offset and (pos == skip or n == 0):
                pos += cap - offset  # the producer resumed at offset 0
                continue
            n, stamp = _RHDR.unpack_from(mm, at)
            if limit is not None and stamp > limit:
                break
            out.append(mm[at + _RHDR.size:at + _RHDR.size + n])
            pos += _record_size(n)
        if pos != self.tail:
            self.tail = pos
            _POS.pack_into(mm, _QTAIL, pos)  # the copies are done: credit
        return out


def _record_size(nbytes: int) -> int:
    return -(-(_RHDR.size + nbytes) // 8) * 8


class ShmPool:
    """Per-process pool: outgoing rings and segments, incoming rings."""

    def __init__(self, session_id: str, rank: int):
        self.session_id = session_id
        self.rank = rank
        self._counter = itertools.count(1)
        #: rings need x86-64's store order (see the module docstring)
        self.rings = FENCED
        #: frames of this many bytes or more take a ring or a segment
        self.threshold = shm_threshold()
        #: record space of each small-frame queue this pool's world makes
        self.queue_capacity = -(-max(_QUEUE_MIN, 4 * self.threshold)
                                // mmap.PAGESIZE) * mmap.PAGESIZE
        self._out: Dict[int, _OutRing] = {}
        self._in: Dict[int, mmap.mmap] = {}
        #: frames exported so far, by route ("ring" or "segment")
        self.routes: Counter = Counter()
        self._routes_lock = threading.Lock()

    def _ring_name(self, src: int, dst: int) -> str:
        return f"{SHM_PREFIX}{self.session_id}-ring{src}to{dst}"

    # -- sender side --------------------------------------------------------
    def export(self, data, peer: Optional[int] = None) -> Tuple:
        """Copy *data* (a buffer-like) into shared memory for *peer*.

        Returns the wire placement: ``("ring", offset, nbytes, end)`` or
        ``("shm", name, nbytes)``.  The caller must send placements to
        *peer* in the order they were exported.  *peer* defaults to this
        pool's own rank: a loopback ring, restored by the same pool.
        """
        peer = self.rank if peer is None else peer
        view = memoryview(data).cast("B")
        nbytes = view.nbytes
        if self.rings and nbytes <= RING_CAPACITY // 2:
            ring = self._out.get(peer)
            if ring is None:
                ring = self._out[peer] = _OutRing(_create(
                    self._ring_name(self.rank, peer),
                    _HEADER + RING_CAPACITY))
            slot = ring.claim(nbytes)
            if slot is not None:
                offset, end = slot
                at = _HEADER + offset
                ring.mm[at:at + nbytes] = view
                self._count("ring")
                return ("ring", offset, nbytes, end)
        name = (f"{SHM_PREFIX}{self.session_id}-r{self.rank}"
                f"-{next(self._counter)}")
        mm = _create(name, max(nbytes, 1))
        mm[:nbytes] = view
        mm.close()
        self._count("segment")
        return ("shm", name, nbytes)

    def _count(self, route: str) -> None:
        # senders to different peers export concurrently
        with self._routes_lock:
            self.routes[route] += 1

    # -- receiver side ------------------------------------------------------
    def restore(self, placement, peer: Optional[int] = None) -> np.ndarray:
        """The read-only ``uint8`` frame *placement* names, sent by *peer*.

        A ring frame is copied out into a private array and its space
        handed back; a segment is mapped and unlinked, and stays mapped
        exactly as long as an array views it.  Raises
        ``FileNotFoundError`` if the segment is gone (swept after the
        sender died) -- callers surface that as a failed-rank condition.
        """
        if placement[0] == "ring":
            peer = self.rank if peer is None else peer
            _, offset, nbytes, end = placement
            mm = self._in.get(peer)
            if mm is None:
                mm = self._in[peer] = _map_and_unlink(
                    self._ring_name(peer, self.rank),
                    _HEADER + RING_CAPACITY, writable=True)
            at = _HEADER + offset
            data = mm[at:at + nbytes]
            # the copy-out is complete: return the credit
            _POS.pack_into(mm, 0, end)
            return np.frombuffer(data, dtype=np.uint8)
        _, name, nbytes = placement
        mm = _map_and_unlink(name, max(nbytes, 1), writable=False)
        return np.frombuffer(mm, dtype=np.uint8, count=nbytes)

    def close(self) -> None:
        """Drop the rings (their mappings go with the last reference)."""
        self._out = {}
        self._in = {}


def register_atexit_sweep(session_id: str) -> None:
    """Sweep *session_id* at interpreter exit (parent-side belt and
    braces for crash-during-teardown paths)."""
    atexit.register(sweep_session, session_id)
