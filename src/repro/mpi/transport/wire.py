"""Wire protocol of the multiprocess transport.

Two paths connect every ordered pair of ranks:

- **Records** carry every data message.  A record is one
  :class:`~repro.mpi.runtime.Message` envelope, its payload placement
  spec and its inline chunks, written in place into the pair's
  :class:`~.shm.FrameQueue` (:func:`encode_record`,
  :func:`decode_record`):

      [u32 header length][header pickle][chunk 0][chunk 1]...

  with the header ``(meta, spec, chunk_lens)``.  Frames of the pool's
  :attr:`~.shm.ShmPool.threshold` bytes or more (and chunks that would
  push a record past half the queue) do not ride the record at all:
  they go through the bulk ring or a one-off segment (see :mod:`.shm`)
  and only their placement rides the spec, a ring slot ``("ring",
  offset, nbytes, end)`` or a segment ``("shm", name, nbytes)``.  The
  sender claims ring slots and writes the record under one per-channel
  lock, so ring order equals queue order.
- **The socket** (one socketpair per rank pair, :class:`Channel`)
  carries only control frames (what ``World._publish`` announces,
  counters, RMA service, the queue handoff), doorbells and EOF:

      [u32 header length][header pickle]

  with the header ``(msgtype, body)``.  A header length of 0 is a
  *doorbell*: "drain my queue" (see :mod:`.process_backend`).  The
  ``QUEUE`` frame passes the producer's queue file descriptor
  (``SCM_RIGHTS``).  :attr:`Channel.frames` counts the frames that are
  not doorbells; each record is stamped with that count when it is
  written, so the receiver delivers a record only after every frame
  sent before it.

A short read anywhere raises :class:`EOFError`: with SIGKILLed peers
the kernel closes the socket mid-frame, and the receiver must treat a
truncated message exactly like a closed connection (a dead rank).
"""

from __future__ import annotations

import array
import pickle
import socket
import struct
import threading
from collections import Counter
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from .shm import ShmPool

__all__ = ["Channel", "DOORBELL", "QUEUE", "FAILSTOP", "ABORT", "REVOKE",
           "AGREE", "DECIDED", "CTRS_REQ", "CTRS_REP", "CTRS_RESET",
           "RMA_REQ", "RMA_REP", "encode_payload", "decode_payload",
           "encode_record", "decode_record"]

# socket frame types
DOORBELL = 0      # no header: drain the queue
FAILSTOP = 2      # (rank, cause)
ABORT = 3         # (origin_rank, cause)
REVOKE = 4        # base_ctx_id
AGREE = 5         # (key, rank, value)
DECIDED = 6       # (key, result)
CTRS_REQ = 7      # reply_id
CTRS_REP = 8      # (reply_id, CounterSnapshot)
CTRS_RESET = 9    # None
RMA_REQ = 10      # (kind, win_id, offset, data | (count, dtype_str), op,
#                    reply_id)
RMA_REP = 11      # (reply_id, None | data | exception)
QUEUE = 12        # queue capacity; the queue's fd rides as SCM_RIGHTS

_PREFIX = struct.Struct("!I")
_HLEN = struct.Struct("I")
_FDS = socket.CMSG_SPACE(array.array("i", [0]).itemsize)


class Channel:
    """One rank's end of a socketpair, with framed send/recv.

    Writes are serialized by :attr:`lock`: the rank's main thread (data
    records and their doorbells) and its receiver threads (control
    replies) share the socket.  :attr:`sent` counts frames written, by
    type, and :attr:`frames` those that are not doorbells.
    """

    def __init__(self, sock):
        self.sock = sock
        self.lock = threading.Lock()
        self.sent: Counter = Counter()
        self.frames = 0

    def send(self, msgtype: int, body: Any, fds: Sequence[int] = ()) -> None:
        header = pickle.dumps((msgtype, body), protocol=5)
        frame = _PREFIX.pack(len(header)) + header
        with self.lock:
            if fds:
                sent = self.sock.sendmsg(
                    [frame], [(socket.SOL_SOCKET, socket.SCM_RIGHTS,
                               array.array("i", fds))])
                frame = frame[sent:]
            if frame:
                self.sock.sendall(frame)
            self.sent[msgtype] += 1
            self.frames += 1

    def ring(self) -> None:
        """Send a doorbell; the caller holds :attr:`lock`."""
        self.sock.sendall(_PREFIX.pack(0))
        self.sent[DOORBELL] += 1

    def _read_exact(self, n: int, fds: Optional[List[int]] = None):
        buf = bytearray(n)
        view = memoryview(buf)
        got = 0
        while got < n:
            if fds is None:
                r = self.sock.recv_into(view[got:], n - got)
            else:
                r, anc, _, _ = self.sock.recvmsg_into([view[got:]], _FDS)
                for level, kind, data in anc:
                    if level == socket.SOL_SOCKET \
                            and kind == socket.SCM_RIGHTS:
                        fds.extend(array.array("i", data))
            if r == 0:
                raise EOFError("peer closed the transport socket")
            got += r
        return buf

    def recv(self) -> Tuple[int, Any, List[int]]:
        """Read one frame: ``(msgtype, body, fds)``, a doorbell as
        ``(DOORBELL, None, [])``; raises EOFError on close or
        truncation."""
        fds: List[int] = []
        (hlen,) = _PREFIX.unpack(self._read_exact(_PREFIX.size, fds))
        if hlen == 0:
            return DOORBELL, None, fds
        msgtype, body = pickle.loads(self._read_exact(hlen))
        return msgtype, body, fds

    def close(self) -> None:
        # shutdown() first: close() alone does not wake a receiver
        # thread blocked in recv_into() on this fd, which would leave
        # every teardown waiting out the thread-join timeout
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


# ----------------------------------------------------------------------
# payload encoding (the three Message kinds of the thread runtime)
# ----------------------------------------------------------------------
class _Placer:
    """Routes one payload's buffers inline (a chunk) or through shared
    memory: a buffer of the threshold or more goes bulk, and so does one
    that would push the inline total past the pool's record budget."""

    __slots__ = ("pool", "peer", "budget", "chunks")

    def __init__(self, pool: Optional[ShmPool], peer):
        self.pool = pool  # None: every buffer inline
        self.peer = peer
        self.budget = 0 if pool is None else pool.queue_capacity // 2
        self.chunks: List = []

    def __call__(self, data):
        view = memoryview(data).cast("B")
        n = view.nbytes
        if self.pool is not None:
            if n >= self.pool.threshold or n > self.budget:
                return self.pool.export(view, self.peer)
            self.budget -= n
        self.chunks.append(view)
        return ("inline",)


def encode_payload(pool: Optional[ShmPool], kind: str, payload,
                   peer: Optional[int] = None) -> Tuple[Any, List]:
    """Flatten a Message payload for *peer* into (spec, inline_chunks).

    *peer* defaults to the pool's own rank (a loopback ring)."""
    place = _Placer(pool, peer)
    if kind == "pickle":
        spec = place(payload)
    elif kind == "buffer":
        arr = np.ascontiguousarray(payload)
        spec = (arr.dtype.str, arr.shape, place(arr))
    elif kind == "pickle5":
        blob, frames = payload
        spec = (place(blob),
                [place(np.ascontiguousarray(f)) for f in frames])
    else:
        raise ValueError(f"unknown message kind {kind!r}")
    return spec, place.chunks


def _restore(pool: ShmPool, peer, placement, chunks: List, idx: List[int]):
    if placement[0] != "inline":
        return pool.restore(placement, peer)
    i = idx[0]
    idx[0] += 1
    frame = np.frombuffer(chunks[i], dtype=np.uint8)
    frame.flags.writeable = False
    return frame


def decode_payload(pool: ShmPool, kind: str, spec, chunks: List,
                   peer: Optional[int] = None):
    """Rebuild the exact payload shape the thread backend delivers:
    read-only buffers, so receiver-side copy-on-write still holds.
    *peer* is the sender, as for :func:`encode_payload`."""
    idx = [0]
    if kind == "pickle":
        return _restore(pool, peer, spec, chunks, idx).tobytes()
    if kind == "buffer":
        dtype_str, shape, placement = spec
        raw = _restore(pool, peer, placement, chunks, idx)
        arr = raw.view(np.dtype(dtype_str)).reshape(shape)
        arr.flags.writeable = False
        return arr
    if kind == "pickle5":
        blob = _restore(pool, peer, spec[0], chunks, idx).tobytes()
        frames = [_restore(pool, peer, p, chunks, idx) for p in spec[1]]
        return blob, frames
    raise ValueError(f"unknown message kind {kind!r}")


# ----------------------------------------------------------------------
# queue records: one data message each
# ----------------------------------------------------------------------
def encode_record(pool: ShmPool, meta: tuple, payload,
                  peer: int) -> Tuple[List, int]:
    """The parts of *peer*'s record for one message and their total
    size.  *meta* is ``(ctx_id, src, tag, kind, nbytes, seq, jump)``.
    Bulk buffers are exported here, so call this under the channel lock
    that orders the record."""
    spec, chunks = encode_payload(pool, meta[3], payload, peer)
    header = pickle.dumps((meta, spec, [c.nbytes for c in chunks]),
                          protocol=5)
    parts = [_HLEN.pack(len(header)), header] + chunks
    return parts, _HLEN.size + len(header) + sum(c.nbytes for c in chunks)


def decode_record(pool: ShmPool, record, peer: int):
    """``(meta, payload)`` from one record *peer* sent.  Raises
    ``FileNotFoundError`` if a bulk segment it names was swept."""
    view = memoryview(record)
    (hlen,) = _HLEN.unpack_from(view)
    at = _HLEN.size + hlen
    meta, spec, lens = pickle.loads(view[_HLEN.size:at])
    chunks = []
    for n in lens:
        chunks.append(view[at:at + n])
        at += n
    return meta, decode_payload(pool, meta[3], spec, chunks, peer)
