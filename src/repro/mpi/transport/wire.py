"""Wire protocol of the multiprocess transport.

One socketpair connects every pair of ranks.  Each message is a
length-prefixed pickled *header* followed by zero or more raw payload
chunks whose sizes the header declares:

    [u32 header length][header pickle][chunk 0][chunk 1]...

The header is ``(msgtype, body, chunk_lens)``.  ``DATA`` messages carry
a :class:`~repro.mpi.runtime.Message` envelope; everything else is
control traffic (what ``World._publish`` announces, counters, RMA
service).  Bulk ndarray frames of :func:`~.shm.shm_threshold` bytes or
more do not travel as chunks at all -- they go through shared memory
(see :mod:`.shm`) and only their placement rides the header: a ring
slot ``("ring", offset, nbytes, end)`` or a one-off segment ``("shm",
name, nbytes)``.  A ``DATA`` message claims its ring slots under the
same per-channel lock as its socket write
(:meth:`Channel.send_payload`), so ring order equals socket order, and
the receiver thread restores them in that order.

A short read anywhere raises :class:`EOFError`: with SIGKILLed peers
the kernel closes the socket mid-frame, and the receiver must treat a
truncated message exactly like a closed connection (a dead rank).
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from .shm import ShmPool, shm_threshold

__all__ = ["Channel", "DATA", "FAILSTOP", "ABORT", "REVOKE", "AGREE",
           "DECIDED", "CTRS_REQ", "CTRS_REP", "CTRS_RESET", "RMA_REQ",
           "RMA_REP", "encode_payload", "decode_payload"]

# message types
DATA = 1          # (envelope_meta, payload_spec)
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

_LEN = struct.Struct("!I")


class Channel:
    """One rank's end of a socketpair, with framed send/recv.

    Sends are serialized by a per-channel lock: the rank's main thread
    (data sends) and its receiver thread (control replies) share the
    socket.
    """

    def __init__(self, sock):
        self.sock = sock
        self._send_lock = threading.Lock()

    def fileno(self) -> int:
        return self.sock.fileno()

    def send(self, msgtype: int, body: Any,
             chunks: Sequence = ()) -> None:
        with self._send_lock:
            self._write(msgtype, body, chunks)

    def send_payload(self, pool: ShmPool, peer: int, meta: tuple,
                     kind: str, payload) -> None:
        """Send one ``DATA`` message, body ``meta + (spec,)``, to *peer*.

        Every byte of *payload* is copied (into a ring, a segment or the
        socket) before this returns, so the caller may reuse its buffers.
        """
        with self._send_lock:
            spec, chunks = encode_payload(pool, kind, payload, peer)
            self._write(DATA, meta + (spec,), chunks)

    def _write(self, msgtype: int, body: Any, chunks: Sequence) -> None:
        chunks = [memoryview(c).cast("B") for c in chunks]
        header = pickle.dumps(
            (msgtype, body, [c.nbytes for c in chunks]), protocol=5)
        self.sock.sendall(_LEN.pack(len(header)) + header)
        for c in chunks:
            self.sock.sendall(c)

    def _read_exact(self, n: int) -> memoryview:
        buf = bytearray(n)
        view = memoryview(buf)
        got = 0
        while got < n:
            r = self.sock.recv_into(view[got:], n - got)
            if r == 0:
                raise EOFError("peer closed the transport socket")
            got += r
        return memoryview(buf)

    def recv(self) -> Tuple[int, Any, List[memoryview]]:
        """Read one framed message; raises EOFError on close/truncation."""
        (hlen,) = _LEN.unpack(self._read_exact(4))
        msgtype, body, chunk_lens = pickle.loads(self._read_exact(hlen))
        chunks = [self._read_exact(n) for n in chunk_lens]
        return msgtype, body, chunks

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
def _place(pool: Optional[ShmPool], peer, data, threshold: int,
           chunks: List):
    """Route one buffer inline (chunk) or through shared memory."""
    view = memoryview(data).cast("B")
    if pool is not None and view.nbytes >= threshold:
        return pool.export(view, peer)
    chunks.append(view)
    return ("inline",)


def encode_payload(pool: Optional[ShmPool], kind: str, payload,
                   peer: Optional[int] = None) -> Tuple[Any, List]:
    """Flatten a Message payload for *peer* into (spec, inline_chunks).

    *peer* defaults to the pool's own rank (a loopback ring)."""
    threshold = shm_threshold()
    chunks: List = []
    if kind == "pickle":
        chunks.append(memoryview(payload))
        return None, chunks
    if kind == "buffer":
        arr = np.ascontiguousarray(payload)
        spec = (arr.dtype.str, arr.shape,
                _place(pool, peer, arr, threshold, chunks))
        return spec, chunks
    if kind == "pickle5":
        blob, frames = payload
        chunks.append(memoryview(blob))
        spec = [_place(pool, peer, np.ascontiguousarray(f), threshold,
                       chunks)
                for f in frames]
        return spec, chunks
    raise ValueError(f"unknown message kind {kind!r}")


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
    if kind == "pickle":
        return bytes(chunks[0])
    idx = [0]
    if kind == "buffer":
        dtype_str, shape, placement = spec
        raw = _restore(pool, peer, placement, chunks, idx)
        arr = raw.view(np.dtype(dtype_str)).reshape(shape)
        arr.flags.writeable = False
        return arr
    if kind == "pickle5":
        blob = bytes(chunks[0])
        idx = [1]
        frames = [_restore(pool, peer, p, chunks, idx) for p in spec]
        return blob, frames
    raise ValueError(f"unknown message kind {kind!r}")
