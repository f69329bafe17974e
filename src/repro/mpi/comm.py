"""Communicators: point-to-point and collective operations.

The interface follows mpi4py's conventions (see the tutorial the substrate
guides reference): lowercase methods communicate arbitrary picklable Python
objects; uppercase methods communicate NumPy buffers with near-zero
interpretation overhead.  Collectives are implemented *on top of* the
point-to-point layer with the classic algorithms (binomial trees, rings,
recursive doubling, pairwise exchange, dissemination barrier) so that
message counters reflect genuine algorithmic traffic rather than magic
shared-memory shortcuts.  Each algorithm is written once, as a kernel
over a ``(send, recv)`` pair; the object and buffer forms of a collective
differ only in the pair they hand it (:meth:`Intracomm._io`).

Broadcast, reduce and allreduce are *adaptive*: each call picks the
cheapest algorithm for its message size, communicator size and declared
:class:`~repro.mpi.costmodel.Topology` under the active
:class:`~repro.mpi.costmodel.CostModel` (see
:func:`repro.mpi.costmodel.select_algorithm`).  The chosen algorithm is
recorded on the call's ``mpi.coll`` trace span, its ``mpi.coll.calls``
metric labels and the per-rank counters, so the selection is observable
and assertable.  Pass ``algorithm=`` to force a specific variant.
"""

from __future__ import annotations

import math
import pickle
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..chaos.core import ENGINE as _CH
from ..obs import causal as _CZ
from ..trace import TRACER as _TR
from . import ops as _ops
from .costmodel import (COLLECTIVE_ALGORITHMS, COMMODITY_CLUSTER, CostModel,
                        Topology, select_algorithm)
from .datatypes import _decode_recv_spec, decode_buffer_spec
from .errors import (CommRevokedError, RankError, RankFailure, TagError,
                     TruncationError)
from .request import RecvRequest, SendRequest
from .runtime import RankContext, _NOT_FAILED
from .status import ANY_SOURCE, ANY_TAG, Status

__all__ = ["Group", "Intracomm", "set_collective_tuning",
           "collective_label_catalogue"]


def _loads(payload, kind: str = "pickle"):
    """Decode a pickled payload, surfacing corruption as a typed error.

    ``pickle5`` payloads carry their ndarray data as out-of-band frames;
    unpickling reconstructs arrays as *read-only views* of the frames (the
    sender's single isolation copy) -- zero additional copies on the
    receive side.  A payload truncated in flight (chaos injection, or any
    future real transport) fails to decode with an arbitrary
    ``UnpicklingError`` / ``EOFError`` / ``ValueError``; callers must
    instead see the substrate's own :class:`TruncationError` so tests and
    solvers can handle it.
    """
    try:
        if kind == "pickle5":
            blob, frames = payload
            return pickle.loads(blob, buffers=frames)
        return pickle.loads(payload)
    except Exception as exc:
        raise TruncationError(
            f"received payload failed to decode ({exc!r}); payload was "
            f"truncated or corrupted in flight") from exc


# ----------------------------------------------------------------------
# collective algorithm tuning (process-wide defaults)
# ----------------------------------------------------------------------

#: Cost model consulted by adaptive collectives when the communicator has
#: no instance-level override (:meth:`Intracomm.set_collective_tuning`).
_DEFAULT_COST_MODEL: CostModel = COMMODITY_CLUSTER
#: Declared node topology; ``None`` means flat (no hierarchy to exploit).
_DEFAULT_TOPOLOGY: Optional[Topology] = None

#: Object-path payloads have per-rank pickle sizes, which must never feed
#: the (SPMD-consistent) selection; without an explicit ``size_hint`` the
#: selection assumes a small message.
_OBJECT_SIZE_GUESS = 512

#: Algorithms that combine operands out of rank order: commutative ops
#: only.  (``binomial-tree`` reorders only as a reduction; a broadcast
#: always selects with ``commutative=True``.)
_REORDERING = frozenset({"binomial-tree", "ring", "rabenseifner",
                         "hierarchical"})
#: Reductions that cut the payload into per-member blocks: ndarrays only.
#: (An object broadcast carries scatter-allgather as its pickled bytes.)
_SEGMENTED = frozenset({"ring", "rabenseifner"})


def set_collective_tuning(cost_model: Optional[CostModel] = None,
                          topology: Optional[Topology] = None) -> None:
    """Set the process-wide cost model / topology for adaptive collectives.

    Both are inherited by every communicator that has no instance-level
    override.  Pass :data:`~repro.mpi.costmodel.FLAT` to clear a topology.
    SPMD note: this mutates module state shared by all ranks of a thread
    world, so it is inherently SPMD-consistent; call it outside the SPMD
    region (or identically on every rank).
    """
    global _DEFAULT_COST_MODEL, _DEFAULT_TOPOLOGY
    if cost_model is not None:
        _DEFAULT_COST_MODEL = cost_model
    if topology is not None:
        _DEFAULT_TOPOLOGY = None if topology.is_flat else topology


def _block_bounds(n: int, m: int) -> List[Tuple[int, int]]:
    """Balanced split of ``n`` elements into ``m`` contiguous blocks."""
    base, extra = divmod(n, m)
    bounds = []
    start = 0
    for k in range(m):
        size = base + (1 if k < extra else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


def _spans(counts, displs) -> List[Tuple[int, int]]:
    """Block bounds of a v-collective's ``counts``/``displs`` layout."""
    return [(d, d + c) for c, d in zip(counts, displs)]


class _Blocks:
    """Per-member blocks of one flat buffer, indexed like the list an
    object collective holds: ``blocks[k]`` is a view of block k and
    ``blocks[k] = value`` copies into it.  Handing a kernel this or a
    list is what lets one kernel serve both forms of a collective."""

    __slots__ = ("flat", "bounds")

    def __init__(self, flat: np.ndarray, bounds: List[Tuple[int, int]]):
        self.flat = flat
        self.bounds = bounds

    def __len__(self) -> int:
        return len(self.bounds)

    def __getitem__(self, k: int) -> np.ndarray:
        lo, hi = self.bounds[k]
        return self.flat[lo:hi]

    def __setitem__(self, k: int, value) -> None:
        lo, hi = self.bounds[k]
        self.flat[lo:hi] = value


def _combiner(op: _ops.Op, buffers: bool):
    """The ``combine(a, b, out)`` every reduction kernel folds with.

    It returns ``a op b``, operands in the order given.  On buffers the
    result lands in *out* -- the kernel's accumulator, or ``None`` for a
    fresh array.  A binary ufunc writes it there directly (an
    elementwise ufunc may alias *out* with an operand).  Any other
    ``np_func`` -- ``MAXLOC``, ``MINLOC``, a :func:`create_op` callable
    that takes no ``out=`` -- computes a fresh result, copied into *out*.
    Objects ignore *out*.
    """
    if not buffers:
        return lambda a, b, out: op(a, b)
    f = op.np_func
    if isinstance(f, np.ufunc) and f.nin == 2 and f.nout == 1:
        return lambda a, b, out: f(a, b, out=out)

    def combine(a, b, out):
        res = f(a, b)
        if out is None:
            return res
        out[...] = res
        return out

    return combine


def _accumulator(sflat: np.ndarray, rflat: Optional[np.ndarray]):
    """``(acc, in_place)``: the array a buffer reduction accumulates in.

    The leading elements of *rflat* when they can hold the result as
    they are -- the send dtype, C-contiguous and writable: *sflat* is
    copied in, or not at all when the two are the same memory.  Without
    *rflat* (a non-root ``Reduce``), on a dtype mismatch, a strided or
    read-only *rflat*, or partial overlap with *sflat*: a private
    staging copy of *sflat*, which the caller copies out at the end.
    """
    n = sflat.size
    if (rflat is not None and rflat.dtype == sflat.dtype
            and rflat.size >= n and rflat.flags.c_contiguous
            and rflat.flags.writeable):
        acc = rflat[:n]
        if not np.may_share_memory(acc, sflat):
            np.copyto(acc, sflat)
            return acc, True
        if (sflat.flags.c_contiguous
                and sflat.__array_interface__["data"][0]
                == acc.__array_interface__["data"][0]):
            return acc, True
    return sflat.copy(), False


def _traced_collective(default_algorithm: str):
    """Wrap a collective so each call records one span tagged with the
    algorithm it executed and the bytes this rank sent in it, and counts
    the (op, algorithm) pair in the rank's wire counters.  Adaptive
    collectives overwrite the default label via
    :meth:`Intracomm._note_algorithm`; the label a call records is always
    the algorithm that actually ran."""
    def deco(fn):
        name = fn.__name__

        def wrapper(self, *args, **kwargs):
            if _CH.enabled:
                _CH.on_op("coll", self._ctx.rank)
            # entry guard: a collective over a revoked comm or a dead
            # member can never complete -- fail typed and immediately
            # rather than blocking until some recv inside the algorithm
            # happens to involve the dead rank (a root's bcast, for
            # instance, never receives at all)
            self._check_usable(name)
            ctrs = self._ctx.world.counters[self._ctx.rank]
            rec = _TR.recording
            # plain attribute read: exactness not worth a lock here
            b0 = ctrs.bytes_sent if rec else 0
            t0 = _TR.now() if rec else 0.0
            notes = self._algo_notes
            notes.append(default_algorithm)
            try:
                out = fn(self, *args, **kwargs)
                algorithm = notes[-1]
            finally:
                notes.pop()
            # collectives issued while an ODIN control op executes inherit
            # its causal identity (None outside any tagged op)
            op_id = _CZ.current_op_id()
            ctrs.record_coll(name, algorithm, op_id)
            if rec:
                _TR.complete("mpi.coll", name, t0, rank=self._ctx.rank,
                             algorithm=algorithm, size=self._size,
                             op_id=op_id, sent=ctrs.bytes_sent - b0)
            return out

        wrapper.__name__ = name
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper
    return deco


#: Algorithm label recorded by every non-adaptive collective, keyed by the
#: op name that appears in spans / metrics.  The adaptive ops (bcast,
#: reduce, allreduce and their buffer twins) instead draw labels from
#: :data:`~repro.mpi.costmodel.COLLECTIVE_ALGORITHMS`.
_STATIC_LABELS: Dict[str, str] = {
    "barrier": "dissemination",
    "scatter": "linear-root",
    "gather": "linear-root",
    "allgather": "ring",
    "alltoall": "pairwise-exchange",
    "scan": "linear-chain",
    "exscan": "linear-chain",
    "reduce_scatter": "alltoall+fold",
    "Scatter": "linear-root",
    "Scatterv": "linear-root",
    "Gather": "linear-root",
    "Gatherv": "linear-root",
    "Allgather": "ring",
    "Allgatherv": "ring",
    "Alltoall": "pairwise-exchange",
    "Scan": "linear-chain",
    "Exscan": "linear-chain",
}


def collective_label_catalogue() -> Dict[str, Tuple[str, ...]]:
    """Every algorithm label each collective op may legally record.

    The audit test (and any trace consumer) checks observed
    ``algorithm=`` span/metric labels against this catalogue, so a
    collective whose label drifts from its implementation fails loudly.
    """
    cat = {op: (label, "local") for op, label in _STATIC_LABELS.items()}
    for op in ("allreduce", "Allreduce"):
        cat[op] = COLLECTIVE_ALGORITHMS["allreduce"]
    for op in ("bcast", "Bcast"):
        cat[op] = COLLECTIVE_ALGORITHMS["bcast"]
    for op in ("reduce", "Reduce"):
        cat[op] = COLLECTIVE_ALGORITHMS["reduce"]
    return cat


class Group:
    """An ordered set of world ranks; the process-group abstraction."""

    def __init__(self, world_ranks: Sequence[int]):
        self._ranks = list(world_ranks)

    @property
    def size(self) -> int:
        return len(self._ranks)

    def rank_of(self, world_rank: int) -> int:
        """Group rank of a world rank (-1 if absent)."""
        try:
            return self._ranks.index(world_rank)
        except ValueError:
            return -1

    def Incl(self, ranks: Sequence[int]) -> "Group":
        """Subgroup containing the given *group* ranks, in that order."""
        return Group([self._ranks[r] for r in ranks])

    def Excl(self, ranks: Sequence[int]) -> "Group":
        excl = set(ranks)
        return Group([wr for i, wr in enumerate(self._ranks) if i not in excl])

    def world_ranks(self) -> List[int]:
        return list(self._ranks)


class Intracomm:
    """A communicator over an ordered list of world ranks.

    Each rank holds its own instance; instances on different ranks that
    were created by the same (SPMD-ordered) sequence of calls share a
    context id, which is what isolates their message traffic.
    """

    def __init__(self, ctx: RankContext, world_ranks: Sequence[int],
                 ctx_id: Any = ("world",)):
        self._ctx = ctx
        self._world_ranks = list(world_ranks)
        # world rank -> comm rank, built once: message-source translation
        # must not pay an O(size) list scan per received message
        self._rank_of_world = {wr: r for r, wr
                               in enumerate(self._world_ranks)}
        self._ctx_id = ctx_id
        self._rank = self._rank_of_world[ctx.rank]
        self._size = len(self._world_ranks)
        self._coll_seq = 0   # per-collective context stream; SPMD-consistent
        self._child_seq = 0  # id stream for derived communicators
        self._agree_seq = 0  # agreement rendezvous stream; SPMD-consistent
        # algorithm-label stack for the _traced_collective wrappers (a
        # stack because adaptive collectives nest: allreduce -> Reduce)
        self._algo_notes: List[str] = []
        self._cost_model: Optional[CostModel] = None
        self._topology: Optional[Topology] = None

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._size

    def Get_rank(self) -> int:
        return self._rank

    def Get_size(self) -> int:
        return self._size

    @property
    def group(self) -> Group:
        return Group(self._world_ranks)

    @property
    def context(self) -> RankContext:
        return self._ctx

    def world_rank(self, rank: int) -> int:
        """Translate a comm rank to its world rank."""
        return self._world_ranks[rank]

    def counters(self):
        """This rank's live traffic counters (world-wide, not per-comm)."""
        return self._ctx.world.counters[self._ctx.rank]

    def traffic_snapshot(self):
        return self.counters().snapshot()

    def __repr__(self):
        return (f"Intracomm(rank={self._rank}/{self._size}, "
                f"ctx={self._ctx_id!r})")

    # ------------------------------------------------------------------
    # collective tuning
    # ------------------------------------------------------------------
    def set_collective_tuning(self, cost_model: Optional[CostModel] = None,
                              topology: Optional[Topology] = None
                              ) -> "Intracomm":
        """Override the cost model / topology for *this* communicator.

        A non-flat *topology* must partition ``range(size)`` of this
        communicator (``ValueError`` otherwise).  Pass
        :data:`~repro.mpi.costmodel.FLAT` to clear a topology.  Returns
        ``self`` so the call chains off a constructor.
        """
        if cost_model is not None:
            self._cost_model = cost_model
        if topology is not None:
            if topology.is_flat:
                self._topology = None
            else:
                topology.validate(self._size)
                self._topology = topology
        return self

    def _tuning(self) -> Tuple[CostModel, Optional[Topology]]:
        model = self._cost_model if self._cost_model is not None \
            else _DEFAULT_COST_MODEL
        topo = self._topology if self._topology is not None \
            else _DEFAULT_TOPOLOGY
        return model, topo

    def _note_algorithm(self, algorithm: str) -> None:
        """Record which algorithm the innermost active collective ran."""
        if self._algo_notes:
            self._algo_notes[-1] = algorithm

    def _select(self, coll: str, nbytes: int, count: Optional[int],
                commutative: bool, algorithm: Optional[str]) -> str:
        """The algorithm one call runs: *algorithm* if forced, else the
        cost-model argmin -- legal on every rank alike, or ``ValueError``.

        *count* is the element count, ``None`` for a non-ndarray object.
        Illegal: an unknown or ``local`` name, an order-sensitive op on a
        reordering algorithm, a segmented reduction of an object, and
        ``hierarchical`` without a topology declared for this size.
        """
        model, topo = self._tuning()
        if algorithm is None:
            algo = select_algorithm(coll, self._size, int(nbytes), model,
                                    topology=topo, commutative=commutative,
                                    count=count)
        else:
            legal = COLLECTIVE_ALGORITHMS[coll]
            if algorithm not in legal or algorithm == "local":
                raise ValueError(
                    f"unknown {coll} algorithm {algorithm!r}; choose from "
                    f"{sorted(a for a in legal if a != 'local')}")
            algo = algorithm
        if not commutative and algo in _REORDERING:
            raise ValueError(
                f"{coll} algorithm {algo!r} reorders operands; "
                f"non-commutative ops need an order-preserving variant")
        if count is None and algo in _SEGMENTED:
            raise ValueError(
                f"{coll} algorithm {algo!r} requires ndarray payloads")
        if algo == "hierarchical" and self._groups() is None:
            raise ValueError(
                f"hierarchical {coll} requires a topology declared for "
                f"this communicator size")
        return algo

    def _groups(self) -> Optional[List[List[int]]]:
        """Usable topology groups for this communicator, else None."""
        _model, topo = self._tuning()
        if topo is None:
            return None
        return topo.groups_for(self._size)

    # ------------------------------------------------------------------
    # argument checking helpers
    # ------------------------------------------------------------------
    def _check_rank(self, rank: int, allow_any: bool = False) -> None:
        if allow_any and rank == ANY_SOURCE:
            return
        if not 0 <= rank < self._size:
            raise RankError(f"rank {rank} out of range for size {self._size}")

    @staticmethod
    def _check_tag(tag: int, allow_any: bool = False) -> None:
        if allow_any and tag == ANY_TAG:
            return
        if tag < 0:
            raise TagError(f"tag must be >= 0, got {tag}")

    def _check_usable(self, opname: str) -> None:
        """Raise the typed fault if this comm is revoked or has a dead
        member.  O(size) only once a failure exists; two attribute reads
        otherwise."""
        world = self._ctx.world
        if world._revoked and world.is_revoked(self._ctx_id):
            raise CommRevokedError(
                f"{opname} on revoked communicator ctx={self._ctx_id!r}")
        if world.has_failures:
            for wr in self._world_ranks:
                cause = world.failure_cause(wr)
                if cause is not _NOT_FAILED:
                    raise RankFailure(wr, f"{opname} (world rank {wr} is "
                                      f"a member of ctx={self._ctx_id!r})",
                                      cause)

    def _p2p_ctx(self):
        world = self._ctx.world
        if world._revoked and world.is_revoked(self._ctx_id):
            raise CommRevokedError(
                f"point-to-point op on revoked communicator "
                f"ctx={self._ctx_id!r}")
        return (self._ctx_id, "p")

    def _next_coll(self):
        """Fresh context id for one collective call (base tag 0).

        Each call gets its *own* context rather than a shared context
        with an incrementing tag, so a multi-phase algorithm is free to
        use small tag offsets for its internal phases without colliding
        with any other collective in flight on the same communicator.
        """
        seq = self._coll_seq
        self._coll_seq += 1
        return (self._ctx_id, "c", seq), 0

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------
    def _source(self, source: int, tag: int) -> int:
        """Validate a receive's (source, tag); return the source's world
        rank (``ANY_SOURCE`` passes through)."""
        self._check_rank(source, allow_any=True)
        self._check_tag(tag, allow_any=True)
        return ANY_SOURCE if source == ANY_SOURCE \
            else self._world_ranks[source]

    def _fill_status(self, status: Optional[Status], msg) -> None:
        if status is not None:
            status.source = self._rank_of_world[msg.src]
            status.tag = msg.tag
            status.count_bytes = msg.nbytes

    def _p2p_recv(self, source: int, tag: int, status: Optional[Status]):
        """Blocking receive of one point-to-point message.  A wildcard
        source watches every member: a death anywhere in the comm fails
        it rather than leaving it waiting on a sender that may be dead."""
        msg = self._ctx.recv_message(self._p2p_ctx(),
                                     self._source(source, tag), tag,
                                     members=self._world_ranks)
        self._fill_status(status, msg)
        return msg

    # Python objects (pickle path)
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        self._check_rank(dest)
        self._check_tag(tag)
        self._ctx.send_object(self._world_ranks[dest], self._p2p_ctx(),
                              tag, obj)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             status: Optional[Status] = None) -> Any:
        msg = self._p2p_recv(source, tag, status)
        return _loads(msg.payload, msg.kind)

    def isend(self, obj: Any, dest: int, tag: int = 0) -> SendRequest:
        self.send(obj, dest, tag)
        return SendRequest()

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> RecvRequest:
        src_world = self._source(source, tag)

        def complete(status):
            msg = self._p2p_recv(source, tag, status)
            return _loads(msg.payload, msg.kind)

        def poll(status):
            msg = self._ctx.poll_message(self._p2p_ctx(), src_world, tag,
                                         remove=True)
            if msg is None:
                return False, None
            self._fill_status(status, msg)
            return True, _loads(msg.payload, msg.kind)

        return RecvRequest(complete, poll)

    def sendrecv(self, sendobj: Any, dest: int, sendtag: int = 0,
                 source: int = ANY_SOURCE, recvtag: int = ANY_TAG) -> Any:
        # Eager buffered sends cannot deadlock, so send-then-recv is safe.
        self.send(sendobj, dest, sendtag)
        return self.recv(source, recvtag)

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
              status: Optional[Status] = None) -> Status:
        """Block until a matching message is available (without receiving)."""
        src_world = self._source(source, tag)
        mb = self._ctx.world.mailboxes[self._ctx.rank]
        msg = mb.retrieve(self._p2p_ctx(), src_world, tag,
                          self._ctx.world.timeout, remove=False,
                          members=self._world_ranks)
        st = status if status is not None else Status()
        self._fill_status(st, msg)
        return st

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
               status: Optional[Status] = None) -> bool:
        msg = self._ctx.poll_message(self._p2p_ctx(),
                                     self._source(source, tag), tag,
                                     remove=False)
        if msg is None:
            return False
        self._fill_status(status, msg)
        return True

    # NumPy buffers (fast path)
    def Send(self, buf, dest: int, tag: int = 0) -> None:
        self._check_rank(dest)
        self._check_tag(tag)
        flat, _count, _dt = decode_buffer_spec(buf)
        self._ctx.send_buffer(self._world_ranks[dest], self._p2p_ctx(),
                              tag, flat)

    def Recv(self, buf, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             status: Optional[Status] = None) -> None:
        flat, _count, dt = _decode_recv_spec(buf)
        incoming = np.asarray(self._p2p_recv(source, tag, status).payload)
        if incoming.nbytes > flat.nbytes:
            raise TruncationError(
                f"message of {incoming.nbytes} bytes does not fit receive "
                f"buffer of {flat.nbytes} bytes")
        n = incoming.nbytes // dt.extent
        flat[:n] = incoming.view(dt.np_dtype)[:n]

    def Isend(self, buf, dest: int, tag: int = 0) -> SendRequest:
        self.Send(buf, dest, tag)
        return SendRequest()

    def Irecv(self, buf, source: int = ANY_SOURCE,
              tag: int = ANY_TAG) -> RecvRequest:
        def complete(status):
            self.Recv(buf, source, tag, status)
            return None

        def poll(status):
            if self._ctx.poll_message(self._p2p_ctx(),
                                      self._source(source, tag), tag,
                                      remove=False) is None:
                return False, None
            self.Recv(buf, source, tag, status)
            return True, None

        return RecvRequest(complete, poll)

    def Sendrecv(self, sendbuf, dest: int, sendtag: int = 0,
                 recvbuf=None, source: int = ANY_SOURCE,
                 recvtag: int = ANY_TAG,
                 status: Optional[Status] = None) -> None:
        self.Send(sendbuf, dest, sendtag)
        self.Recv(recvbuf, source, recvtag, status)

    # ------------------------------------------------------------------
    # collective plumbing: the one (send, recv) pair per payload kind
    # ------------------------------------------------------------------
    def _io(self, ctx_id, ws, np_dtype=None, expect=None):
        """The (send, recv) pair a collective kernel moves data through.

        *ws* is a list of world ranks; both closures address peers by
        index into it, so one kernel serves the full communicator, a
        rotated view of it and any hierarchical subgroup alike.  Without
        *np_dtype* the pair moves pickled objects.  With it the pair
        moves flat buffers, and every receive insists on exactly *expect*
        elements -- or ``slot.size`` when the kernel names the block the
        payload will fill -- so a payload truncated or inflated in flight
        raises :class:`TruncationError` instead of corrupting the result.
        """
        ctx = self._ctx
        if np_dtype is None:
            def send(obj, j, t):
                ctx.send_object(ws[j], ctx_id, t, obj)

            def recv(j, t, slot=None):
                msg = ctx.recv_message(ctx_id, ws[j], t)
                return _loads(msg.payload, msg.kind)

            return send, recv

        def send(block, j, t):
            ctx.send_buffer(ws[j], ctx_id, t, block)

        def recv(j, t, slot=None):
            n = expect if slot is None else slot.size
            msg = ctx.recv_message(ctx_id, ws[j], t)
            got = np.asarray(msg.payload).view(np_dtype)
            if got.size != n:
                raise TruncationError(
                    f"collective receive from world rank {ws[j]} expected "
                    f"{n} elements, received {got.size}: payload truncated "
                    f"or oversized in flight")
            return got

        return send, recv

    def _coll_io(self, np_dtype=None, expect=None):
        """``(tag, send, recv)``: a fresh collective context and the pair
        over the whole communicator."""
        ctx_id, tag = self._next_coll()
        return (tag,) + self._io(ctx_id, self._world_ranks, np_dtype, expect)

    # ------------------------------------------------------------------
    # collective algorithm kernels (generic over the io pair)
    # ------------------------------------------------------------------
    def _bcast_tree(self, tag, ws, i, root_i, value, send, recv):
        """Binomial-tree broadcast over *ws* rooted at index *root_i*.

        MPICH formulation in root-rotated virtual ranks: member v
        receives from ``v - lowbit(v)`` and forwards to ``v + mask`` for
        every mask below its low bit -- ceil(log2 m) rounds, each member
        receives exactly once.
        """
        m = len(ws)
        if m == 1:
            return value
        v = (i - root_i) % m
        mask = 1
        while mask < m:
            if v & mask:
                value = recv((v - mask + root_i) % m, tag)
                break
            mask <<= 1
        mask >>= 1
        while mask:
            if v + mask < m:
                send(value, (v + mask + root_i) % m, tag)
            mask >>= 1
        return value

    def _fold_tree(self, tag, ws, i, acc, combine, send, recv):
        """Rank-ordered binomial fold to member 0.

        Member i always combines ``combine(own_run, higher_run)`` where
        the higher run starts exactly where its own ends, so the fold
        applies *combine* strictly in member order -- valid for
        non-commutative (but associative) operations.  Returns the result
        at member 0, ``None`` elsewhere.
        """
        mask = 1
        m = len(ws)
        while mask < m:
            if i & mask:
                send(acc, i & ~mask, tag)
                return None
            partner = i | mask
            if partner < m:
                acc = combine(acc, recv(partner, tag), acc)
            mask <<= 1
        return acc

    def _reduce_rotated(self, tag, ws, i, root_i, acc, combine, send, recv):
        """Commutative binomial-tree reduce rooted at *root_i*."""
        m = len(ws)
        v = (i - root_i) % m
        mask = 1
        while mask < m:
            if v & mask:
                send(acc, ((v & ~mask) + root_i) % m, tag)
                return None
            partner = v | mask
            if partner < m:
                acc = combine(acc, recv((partner + root_i) % m, tag), acc)
            mask <<= 1
        return acc

    def _reduce_ordered(self, tag, ws, i, root_i, acc, combine, send, recv):
        """Rank-ordered tree fold plus a forward hop to the root.

        Uses tags ``tag`` (fold) and ``tag + 1`` (member 0 -> root).
        """
        acc = self._fold_tree(tag, ws, i, acc, combine, send, recv)
        if root_i == 0:
            return acc
        if i == 0:
            send(acc, root_i, tag + 1)
            return None
        if i == root_i:
            return recv(0, tag + 1)
        return None

    def _reduce_gather_fold(self, tag, ws, i, root_i, value, combine,
                            send, recv):
        """Everyone sends to the root, which folds in member order.

        O(m * msg) root memory pressure -- kept only as an explicitly
        selectable baseline, never chosen by the cost model.  The fold
        lands in the root's own *value* from its turn on; the members
        before it fold into fresh arrays (*value* still holds the root's
        operand then).
        """
        m = len(ws)
        if i != root_i:
            send(value, root_i, tag)
            return None
        acc = None
        for j in range(m):
            part = value if j == i else recv(j, tag)
            acc = part if acc is None else combine(
                acc, part, value if j >= i else None)
        return acc

    def _allreduce_recdbl(self, tag, ws, i, acc, combine, send, recv):
        """Recursive-doubling allreduce with non-power-of-two folding.

        The first ``2r`` members (``r = m - 2^floor(lg m)``) pair-fold so
        a power-of-two subset runs the doubling; folded-out members get
        the result back afterwards.  Combination order is member order
        throughout (participants own contiguous ascending member runs and
        the doubling merges adjacent runs), so the kernel is valid for
        non-commutative ops too.  Tags: ``tag`` fold-in, ``tag + 1``
        doubling exchanges, ``tag + 2`` result return.
        """
        m = len(ws)
        q = 1 << (m.bit_length() - 1)
        r = m - q
        if i < 2 * r:
            if i & 1:
                send(acc, i - 1, tag)
                return recv(i - 1, tag + 2)
            acc = combine(acc, recv(i + 1, tag), acc)
            pn = i // 2
        else:
            pn = i - r
        mask = 1
        while mask < q:
            pj = pn ^ mask
            j = 2 * pj if pj < r else pj + r
            send(acc, j, tag + 1)
            other = recv(j, tag + 1)
            acc = (combine(other, acc, acc) if pj < pn
                   else combine(acc, other, acc))
            mask <<= 1
        if pn < r:
            send(acc, 2 * pn + 1, tag + 2)
        return acc

    def _scatter_linear(self, tag, i, root, blocks, send, recv, slot=None):
        """Linear-root scatter: the root sends ``blocks[j]`` to every
        other member j; returns this member's block (*slot* is where a
        buffer receive will land)."""
        if i != root:
            return recv(root, tag, slot)
        for j in range(len(blocks)):
            if j != root:
                send(blocks[j], j, tag)
        return blocks[root]

    def _gather_linear(self, tag, i, root, mine, blocks, send, recv):
        """Linear-root gather: every other member sends *mine*; the root
        receives member j's block into ``blocks[j]`` (its own slot is the
        caller's to fill)."""
        if i != root:
            send(mine, root, tag)
            return
        for j in range(len(blocks)):
            if j != root:
                blocks[j] = recv(j, tag, blocks[j])

    def _ring_allgather(self, tag, i, blocks, send, recv):
        """Ring allgather: member i starts holding ``blocks[i]``; each of
        m-1 steps passes the newest block right and takes one from the
        left, so the ring position names every arriving block."""
        m = len(blocks)
        cur = i
        for _k in range(m - 1):
            send(blocks[cur], (i + 1) % m, tag)
            cur = (cur - 1) % m
            blocks[cur] = recv((i - 1) % m, tag, blocks[cur])
        return blocks

    def _ring_reduce_scatter(self, tag, i, blocks, combine, send, recv):
        """Ring reduce-scatter: each of m-1 steps passes one block right
        and folds the one arriving from the left into ``blocks``.  Blocks
        fold in ring arrival order, so commutative ops only.  Member i
        ends owning the fully reduced ``blocks[(i + 1) % m]``."""
        m = len(blocks)
        for k in range(m - 1):
            send(blocks[(i - k) % m], (i + 1) % m, tag)
            blk = blocks[(i - k - 1) % m]
            combine(blk, recv((i - 1) % m, tag, blk), blk)

    def _pairwise_exchange(self, tag, i, blocks, out, send, recv):
        """Pairwise-exchange alltoall: step k sends ``blocks[i + k]`` and
        receives ``out[i - k]``; ``out[i]`` is the caller's to fill."""
        m = len(out)
        for k in range(1, m):
            dest, src = (i + k) % m, (i - k) % m
            send(blocks[dest], dest, tag)
            out[src] = recv(src, tag, out[src])
        return out

    def _linear_chain(self, tag, i, value, combine, send, recv, out=None):
        """Linear-chain prefix: member i receives the exclusive prefix
        from i - 1, folds its own value in (into *out* when given, cast
        to its dtype) and forwards the result to i + 1.  Returns
        ``(exclusive prefix or None, inclusive prefix)``."""
        prefix = recv(i - 1, tag) if i > 0 else None
        acc = value if prefix is None else combine(prefix, value, out)
        if i + 1 < self._size:
            send(acc, i + 1, tag)
        return prefix, acc

    def _allreduce_ring(self, tag, ws, i, acc, combine, send, recv):
        """Ring allreduce: ring reduce-scatter then ring allgather.

        2(m-1) steps each moving ~1/m of the vector; bandwidth-optimal,
        latency-heavy.  Commutative ops only.  Tags: ``tag``
        reduce-scatter, ``tag + 1`` allgather.
        """
        bounds = _block_bounds(acc.size, len(ws))
        self._ring_reduce_scatter(tag, i, _Blocks(acc, bounds), combine,
                                  send, recv)
        # member i owns reduced block i + 1: rotate so the ring starts there
        owned = _Blocks(acc, bounds[1:] + bounds[:1])
        self._ring_allgather(tag + 1, i, owned, send, recv)
        return acc

    def _allreduce_rabenseifner(self, tag, ws, i, acc, combine, send, recv):
        """Rabenseifner allreduce: recursive-halving reduce-scatter plus
        recursive-doubling allgather -- ring's bandwidth term at tree
        latency.  Commutative ops only.  Tags: ``tag`` pow2 fold-in,
        ``tag + 1`` halving, ``tag + 2`` doubling, ``tag + 3`` result
        return to folded-out members.
        """
        m = len(ws)
        q = 1 << (m.bit_length() - 1)
        r = m - q
        if i < 2 * r:
            if i & 1:
                send(acc, i - 1, tag)
                acc[:] = recv(i - 1, tag + 3)
                return acc
            acc = combine(acc, recv(i + 1, tag), acc)
            pn = i // 2
        else:
            pn = i - r

        def member(pk):
            return 2 * pk if pk < r else pk + r

        off = [b[0] for b in _block_bounds(acc.size, q)] + [acc.size]
        # recursive halving: each round swap half of the live window with
        # the partner and fold the half we keep
        lo, hi = 0, q
        mask = q >> 1
        while mask:
            j = member(pn ^ mask)
            mid = lo + mask
            if pn & mask:
                give, keep = acc[off[lo]:off[mid]], acc[off[mid]:off[hi]]
                lo = mid
            else:
                give, keep = acc[off[mid]:off[hi]], acc[off[lo]:off[mid]]
                hi = mid
            send(give, j, tag + 1)
            combine(keep, recv(j, tag + 1, keep), keep)
            mask >>= 1
        # recursive doubling allgather of the owned blocks
        mask = 1
        while mask < q:
            pj = pn ^ mask
            my_lo = (pn // mask) * mask
            pr_lo = (pj // mask) * mask
            send(acc[off[my_lo]:off[my_lo + mask]], member(pj), tag + 2)
            theirs = acc[off[pr_lo]:off[pr_lo + mask]]
            theirs[:] = recv(member(pj), tag + 2, theirs)
            mask <<= 1
        if pn < r:
            send(acc, 2 * pn + 1, tag + 3)
        return acc

    def _reduce_ring(self, tag, ws, i, root_i, acc, combine, send, recv):
        """Ring reduce: ring reduce-scatter, owned blocks hop to the root.

        Commutative ops only.  Tags: ``tag`` reduce-scatter, ``tag + 1``
        block gather at the root.
        """
        bounds = _block_bounds(acc.size, len(ws))
        self._ring_reduce_scatter(tag, i, _Blocks(acc, bounds), combine,
                                  send, recv)
        owned = _Blocks(acc, bounds[1:] + bounds[:1])
        self._gather_linear(tag + 1, i, root_i, owned[i], owned, send, recv)
        return acc if i == root_i else None

    def _bcast_scatter_allgather(self, tag, i, root_i, flat, io_for):
        """van de Geijn broadcast of the buffer *flat*: binomial scatter
        + ring allgather, both in root-rotated virtual ranks over the
        pair *io_for* builds for the rotated member list.

        Halves the bandwidth term of the binomial tree for large
        messages at the cost of extra latency.  Tags: ``tag`` scatter,
        ``tag + 1`` allgather.
        """
        ws = self._world_ranks
        m = len(ws)
        v = (i - root_i) % m
        send, recv = io_for(ws[root_i:] + ws[:root_i])
        bounds = _block_bounds(flat.size, m)
        off = [b[0] for b in bounds] + [flat.size]
        # binomial scatter: v receives blocks [v, v + lowbit(v)) from
        # v - lowbit(v), then halves its span downward
        mask = 1
        while mask < m:
            if v & mask:
                span = flat[off[v]:off[min(v + mask, m)]]
                span[:] = recv(v - mask, tag, span)
                break
            mask <<= 1
        mask >>= 1
        while mask:
            if v + mask < m:
                send(flat[off[v + mask]:off[min(v + 2 * mask, m)]],
                     v + mask, tag)
            mask >>= 1
        self._ring_allgather(tag + 1, v, _Blocks(flat, bounds), send, recv)
        return flat

    def _hier_bcast(self, tag, groups, root, value, io_for):
        """Hierarchical broadcast: root -> its group leader -> leaders'
        binomial tree -> intra-group binomial trees.

        *groups* are comm-rank groups from the declared topology;
        *io_for(ws)* builds the (send, recv) pair for a member list.
        Tags: ``tag`` root hop, ``tag + 1`` leader tree, ``tag + 2``
        intra.
        """
        full_ws = self._world_ranks
        me = self._rank
        mine = next(g for g in groups if me in g)
        leaders = [g[0] for g in groups]
        gidx = next(k for k, g in enumerate(groups) if root in g)
        lead0 = groups[gidx][0]
        if root != lead0:
            send, recv = io_for(full_ws)
            if me == root:
                send(value, lead0, tag)
            elif me == lead0:
                value = recv(root, tag)
        if me in leaders:
            lws = [full_ws[r] for r in leaders]
            send, recv = io_for(lws)
            value = self._bcast_tree(tag + 1, lws, leaders.index(me), gidx,
                                     value, send, recv)
        gws = [full_ws[r] for r in mine]
        send, recv = io_for(gws)
        return self._bcast_tree(tag + 2, gws, mine.index(me), 0, value,
                                send, recv)

    def _hier_allreduce(self, tag, groups, value, combine, io_for):
        """Hierarchical allreduce: intra-group fold -> leader
        recursive-doubling -> intra-group broadcast.  Commutative ops
        only (group membership need not follow rank order).  Tags:
        ``tag`` intra fold, ``tag + 1``..``tag + 3`` leader exchange,
        ``tag + 4`` intra broadcast.
        """
        full_ws = self._world_ranks
        me = self._rank
        mine = next(g for g in groups if me in g)
        gws = [full_ws[r] for r in mine]
        gi = mine.index(me)
        send, recv = io_for(gws)
        acc = self._fold_tree(tag, gws, gi, value, combine, send, recv)
        if gi == 0:
            leaders = [g[0] for g in groups]
            lws = [full_ws[r] for r in leaders]
            lsend, lrecv = io_for(lws)
            acc = self._allreduce_recdbl(tag + 1, lws, leaders.index(me),
                                         acc, combine, lsend, lrecv)
        return self._bcast_tree(tag + 4, gws, gi, 0, acc, send, recv)

    # ------------------------------------------------------------------
    # adaptive dispatch: one per collective, shared by both forms
    # ------------------------------------------------------------------
    def _bcast(self, value, root, algorithm, nbytes, count, np_dtype):
        """Select, label and run one broadcast; *np_dtype* ``None`` means
        *value* is an object, else a flat buffer of *count* elements."""
        algo = self._select("bcast", nbytes, count, True, algorithm)
        self._note_algorithm(algo)
        ctx_id, tag = self._next_coll()
        ws, i = self._world_ranks, self._rank
        if algo == "binomial-tree":
            return self._bcast_tree(tag, ws, i, root, value,
                                    *self._io(ctx_id, ws, np_dtype, count))

        def io_for(mws):
            return self._io(ctx_id, mws, np_dtype, count)

        if algo == "hierarchical":
            return self._hier_bcast(tag, self._groups(), root, value, io_for)
        if np_dtype is not None:
            return self._bcast_scatter_allgather(tag, i, root, value, io_for)
        # scatter-allgather of an object: it rides the buffer kernel as its
        # pickled bytes, behind a size header sent down a binomial tree
        blob = pickle.dumps(value, protocol=5) if i == root else None
        n = self._bcast_tree(tag, ws, i, root,
                             None if blob is None else len(blob),
                             *io_for(ws))
        data = (np.frombuffer(blob, dtype=np.uint8).copy()
                if i == root else np.empty(int(n), dtype=np.uint8))
        self._bcast_scatter_allgather(
            tag + 1, i, root, data,
            lambda mws: self._io(ctx_id, mws, np.uint8))
        return value if i == root else _loads(data.tobytes())

    def _reduce(self, value, op, root, algorithm, nbytes, count, np_dtype):
        """Select, label and run one reduction to *root* (``None`` off
        the root)."""
        algo = self._select("reduce", nbytes, count, op.commutative,
                            algorithm)
        self._note_algorithm(algo)
        tag, send, recv = self._coll_io(np_dtype, count)
        kernel = {"binomial-tree": self._reduce_rotated,
                  "rank-ordered-tree": self._reduce_ordered,
                  "gather-fold": self._reduce_gather_fold,
                  "ring": self._reduce_ring}[algo]
        combine = _combiner(op, np_dtype is not None)
        return kernel(tag, self._world_ranks, self._rank, root, value,
                      combine, send, recv)

    def _allreduce(self, algo, value, op, count, np_dtype):
        """Run allreduce kernel *algo*, which the caller selected and
        labelled.  ``reduce+bcast`` is no kernel: each form composes it
        from its two public collectives."""
        ctx_id, tag = self._next_coll()
        ws = self._world_ranks
        combine = _combiner(op, np_dtype is not None)
        if algo == "hierarchical":
            return self._hier_allreduce(
                tag, self._groups(), value, combine,
                lambda mws: self._io(ctx_id, mws, np_dtype, count))
        kernel = {"recursive-doubling": self._allreduce_recdbl,
                  "ring": self._allreduce_ring,
                  "rabenseifner": self._allreduce_rabenseifner}[algo]
        return kernel(tag, ws, self._rank, value, combine,
                      *self._io(ctx_id, ws, np_dtype, count))

    # ------------------------------------------------------------------
    # collectives: object (pickle) path
    # ------------------------------------------------------------------
    @_traced_collective("dissemination")
    def barrier(self) -> None:
        """Dissemination barrier: ceil(log2 p) rounds of pairwise signals."""
        ctx_id, tag = self._next_coll()
        p = self._size
        if p == 1:
            return
        rounds = max(1, math.ceil(math.log2(p)))
        me = self._rank
        for k in range(rounds):
            dist = 1 << k
            dest = (me + dist) % p
            src = (me - dist) % p
            self._ctx.send_object(self._world_ranks[dest], ctx_id,
                                  tag + k, None)
            self._ctx.recv_message(ctx_id, self._world_ranks[src],
                                   tag + k)

    Barrier = barrier

    @_traced_collective("binomial-tree")
    def bcast(self, obj: Any = None, root: int = 0,
              size_hint: Optional[int] = None,
              algorithm: Optional[str] = None) -> Any:
        """Size-adaptive broadcast of a Python object.

        *size_hint* (approximate serialized bytes, SPMD-consistent)
        admits the large-message scatter-allgather variant; without it
        the pickled size is per-rank-unknowable and selection assumes a
        small message.  *algorithm* forces a specific variant.
        """
        self._check_rank(root)
        if self._size == 1:
            self._note_algorithm("local")
            return obj
        nbytes = int(size_hint) if size_hint else _OBJECT_SIZE_GUESS
        count = int(size_hint) if size_hint else None
        return self._bcast(obj, root, algorithm, nbytes, count, None)

    @_traced_collective("linear-root")
    def scatter(self, sendobj: Optional[Sequence] = None,
                root: int = 0) -> Any:
        self._check_rank(root)
        tag, send, recv = self._coll_io()
        if self._rank == root and (sendobj is None
                                   or len(sendobj) != self._size):
            raise ValueError("root must supply a sequence of comm.size "
                             "elements to scatter")
        return self._scatter_linear(tag, self._rank, root, sendobj,
                                    send, recv)

    @_traced_collective("linear-root")
    def gather(self, sendobj: Any, root: int = 0) -> Optional[List[Any]]:
        self._check_rank(root)
        tag, send, recv = self._coll_io()
        out = None
        if self._rank == root:
            out = [None] * self._size
            out[root] = sendobj
        self._gather_linear(tag, self._rank, root, sendobj, out, send, recv)
        return out

    @_traced_collective("ring")
    def allgather(self, sendobj: Any) -> List[Any]:
        """Ring allgather: p-1 steps, each forwarding one block."""
        tag, send, recv = self._coll_io()
        out: List[Any] = [None] * self._size
        out[self._rank] = sendobj
        return self._ring_allgather(tag, self._rank, out, send, recv)

    @_traced_collective("pairwise-exchange")
    def alltoall(self, sendobjs: Sequence[Any]) -> List[Any]:
        """Pairwise-exchange alltoall."""
        if len(sendobjs) != self._size:
            raise ValueError("alltoall needs comm.size send objects")
        tag, send, recv = self._coll_io()
        out: List[Any] = [None] * self._size
        out[self._rank] = sendobjs[self._rank]
        return self._pairwise_exchange(tag, self._rank, sendobjs, out,
                                       send, recv)

    @_traced_collective("binomial-tree")
    def reduce(self, sendobj: Any, op: _ops.Op = _ops.SUM,
               root: int = 0, size_hint: Optional[int] = None,
               algorithm: Optional[str] = None) -> Any:
        """Size-adaptive reduction to *root*.

        Commutative ops default to the rotated binomial tree;
        non-commutative ops fold in strict rank order
        (``rank-ordered-tree``).  ndarray payloads delegate to the buffer
        machinery, where large vectors may take the ring variant.
        """
        self._check_rank(root)
        if self._size == 1:
            self._note_algorithm("local")
            return sendobj
        if isinstance(sendobj, np.ndarray) and sendobj.dtype != object:
            arr = np.ascontiguousarray(sendobj)
            recvarr = np.empty(arr.shape, arr.dtype) \
                if self._rank == root else None
            self._reduce_buffer(arr, recvarr, op, root, algorithm)
            return recvarr
        nbytes = int(size_hint) if size_hint else _OBJECT_SIZE_GUESS
        return self._reduce(sendobj, op, root, algorithm, nbytes, None, None)

    @_traced_collective("reduce+bcast")
    def allreduce(self, sendobj: Any, op: _ops.Op = _ops.SUM,
                  size_hint: Optional[int] = None,
                  algorithm: Optional[str] = None) -> Any:
        """Size-adaptive allreduce.

        ndarray payloads delegate to the buffer machinery (ring /
        Rabenseifner eligible); other objects pick between reduce+bcast,
        recursive doubling and the hierarchical variant.  *size_hint*
        (approximate serialized bytes, SPMD-consistent) steers selection
        for object payloads.
        """
        if self._size == 1:
            self._note_algorithm("local")
            return sendobj
        if isinstance(sendobj, np.ndarray) and sendobj.dtype != object:
            arr = np.ascontiguousarray(sendobj)
            out = np.empty(arr.shape, arr.dtype)
            self._allreduce_buffer(arr, out, op, algorithm)
            return out
        nbytes = int(size_hint) if size_hint else _OBJECT_SIZE_GUESS
        algo = self._select("allreduce", nbytes, None, op.commutative,
                            algorithm)
        self._note_algorithm(algo)
        if algo == "reduce+bcast":
            result = self.reduce(sendobj, op=op, root=0, size_hint=size_hint)
            return self.bcast(result, root=0, size_hint=size_hint)
        return self._allreduce(algo, sendobj, op, None, None)

    @_traced_collective("linear-chain")
    def scan(self, sendobj: Any, op: _ops.Op = _ops.SUM) -> Any:
        """Inclusive prefix reduction along rank order (linear chain)."""
        tag, send, recv = self._coll_io()
        return self._linear_chain(tag, self._rank, sendobj,
                                  _combiner(op, False), send, recv)[1]

    @_traced_collective("linear-chain")
    def exscan(self, sendobj: Any, op: _ops.Op = _ops.SUM) -> Any:
        """Exclusive prefix reduction; rank 0 receives ``None``."""
        tag, send, recv = self._coll_io()
        return self._linear_chain(tag, self._rank, sendobj,
                                  _combiner(op, False), send, recv)[0]

    # ------------------------------------------------------------------
    # collectives: buffer path
    # ------------------------------------------------------------------
    @_traced_collective("binomial-tree")
    def Bcast(self, buf, root: int = 0,
              algorithm: Optional[str] = None) -> None:
        """Size-adaptive broadcast of a NumPy buffer."""
        self._check_rank(root)
        flat, count, dt = _decode_recv_spec(buf)
        if self._size == 1:
            self._note_algorithm("local")
            return
        value = self._bcast(flat, root, algorithm, count * dt.extent, count,
                            dt.np_dtype)
        if value is not flat:
            flat[:] = value

    # Scatter/Gather/Allgather run their v-form's body, not the decorated
    # v-method: one call records one collective.
    @_traced_collective("linear-root")
    def Scatter(self, sendbuf, recvbuf, root: int = 0) -> None:
        """Scatter equal contiguous blocks of *sendbuf* from the root."""
        self._check_rank(root)
        _rflat, rcount, _rdt = _decode_recv_spec(recvbuf)
        self._scatterv(sendbuf, [rcount] * self._size,
                       [rcount * r for r in range(self._size)], recvbuf,
                       root)

    @_traced_collective("linear-root")
    def Scatterv(self, sendbuf, counts, displs, recvbuf,
                 root: int = 0) -> None:
        """Scatter block r (``counts[r]`` elements at ``displs[r]``) to
        rank r, which must receive exactly that many elements."""
        self._check_rank(root)
        self._scatterv(sendbuf, counts, displs, recvbuf, root)

    def _scatterv(self, sendbuf, counts, displs, recvbuf, root) -> None:
        rflat, _rcount, rdt = _decode_recv_spec(recvbuf)
        tag, send, recv = self._coll_io(rdt.np_dtype)
        i = self._rank
        blocks = None
        if i == root:
            sflat, _scount, _sdt = decode_buffer_spec(sendbuf)
            blocks = _Blocks(sflat, _spans(counts, displs))
        mine = rflat[:counts[i]]
        mine[:] = self._scatter_linear(tag, i, root, blocks, send, recv,
                                       mine)

    @_traced_collective("linear-root")
    def Gather(self, sendbuf, recvbuf, root: int = 0) -> None:
        self._check_rank(root)
        _sflat, scount, _sdt = decode_buffer_spec(sendbuf)
        self._gatherv(sendbuf, recvbuf, [scount] * self._size,
                      [scount * r for r in range(self._size)], root)

    @_traced_collective("linear-root")
    def Gatherv(self, sendbuf, recvbuf, counts, displs,
                root: int = 0) -> None:
        """Gather rank r's block into ``counts[r]`` elements at
        ``displs[r]`` of the root's *recvbuf*; it must be exactly that
        long."""
        self._check_rank(root)
        self._gatherv(sendbuf, recvbuf, counts, displs, root)

    def _gatherv(self, sendbuf, recvbuf, counts, displs, root) -> None:
        sflat, scount, sdt = decode_buffer_spec(sendbuf)
        i = self._rank
        out = None
        np_dtype = sdt.np_dtype
        if i == root:
            rflat, _rcount, rdt = _decode_recv_spec(recvbuf)
            np_dtype = rdt.np_dtype
            out = _Blocks(rflat, _spans(counts, displs))
            rflat[displs[root]:displs[root] + scount] = sflat
        tag, send, recv = self._coll_io(np_dtype)
        self._gather_linear(tag, i, root, sflat, out, send, recv)

    @_traced_collective("ring")
    def Allgather(self, sendbuf, recvbuf) -> None:
        _sflat, scount, _dt = decode_buffer_spec(sendbuf)
        self._allgatherv(sendbuf, recvbuf, [scount] * self._size,
                         [scount * r for r in range(self._size)])

    @_traced_collective("ring")
    def Allgatherv(self, sendbuf, recvbuf, counts, displs) -> None:
        """Ring allgather over buffers; every block must arrive with
        exactly ``counts[r]`` elements."""
        self._allgatherv(sendbuf, recvbuf, counts, displs)

    def _allgatherv(self, sendbuf, recvbuf, counts, displs) -> None:
        sflat, scount, _sdt = decode_buffer_spec(sendbuf)
        rflat, _rcount, rdt = _decode_recv_spec(recvbuf)
        tag, send, recv = self._coll_io(rdt.np_dtype)
        me = self._rank
        rflat[displs[me]:displs[me] + scount] = sflat.view(rdt.np_dtype)
        blocks = _Blocks(rflat, _spans(counts, displs))
        self._ring_allgather(tag, me, blocks, send, recv)

    @_traced_collective("pairwise-exchange")
    def Alltoall(self, sendbuf, recvbuf) -> None:
        p = self._size
        sflat, scount, _sdt = decode_buffer_spec(sendbuf)
        rflat, rcount, rdt = _decode_recv_spec(recvbuf)
        if scount % p or rcount % p:
            raise ValueError("Alltoall buffers must divide evenly by size")
        tag, send, recv = self._coll_io(rdt.np_dtype)
        blocks = _Blocks(sflat, _block_bounds(scount, p))
        out = _Blocks(rflat, _block_bounds(rcount, p))
        out[self._rank] = blocks[self._rank].view(rdt.np_dtype)
        self._pairwise_exchange(tag, self._rank, blocks, out, send, recv)

    def _reduce_buffer(self, sendbuf, recvbuf, op, root, algorithm) -> None:
        """Shared engine behind :meth:`Reduce` and ndarray :meth:`reduce`.

        The root accumulates in its *recvbuf* where :func:`_accumulator`
        allows, the other ranks in a staging copy of *sendbuf*; every
        combine is in place (:func:`_combiner`).  On error the root's
        *recvbuf* may hold a partial result (MPI leaves it undefined).
        """
        sflat, scount, sdt = decode_buffer_spec(sendbuf)
        rflat = rdt = None
        if self._rank == root and recvbuf is not None:
            rflat, _rc, rdt = _decode_recv_spec(recvbuf)
        acc, in_place = _accumulator(sflat, rflat)
        if self._size == 1:
            self._note_algorithm("local")
            result = acc
        else:
            result = self._reduce(acc, op, root, algorithm, acc.nbytes,
                                  scount, sdt.np_dtype)
        if rflat is not None and (result is not acc or not in_place):
            rflat[:scount] = np.asarray(result).view(rdt.np_dtype)[:scount]

    @_traced_collective("binomial-tree")
    def Reduce(self, sendbuf, recvbuf, op: _ops.Op = _ops.SUM,
               root: int = 0, algorithm: Optional[str] = None) -> None:
        """Size-adaptive reduction of a NumPy buffer to *root*."""
        self._check_rank(root)
        self._reduce_buffer(sendbuf, recvbuf, op, root, algorithm)

    def _allreduce_buffer(self, sendbuf, recvbuf, op, algorithm) -> None:
        """Shared engine behind :meth:`Allreduce` and ndarray
        :meth:`allreduce`.

        The kernels accumulate in *recvbuf* itself where
        :func:`_accumulator` allows and combine in place
        (:func:`_combiner`): a p = 2 call copies *sendbuf* into *recvbuf*
        once, makes one wire copy per side and combines once, allocating
        nothing.  On error *recvbuf* may hold a partial result (MPI
        leaves it undefined).
        """
        sflat, scount, sdt = decode_buffer_spec(sendbuf)
        rflat, _rcount, rdt = _decode_recv_spec(recvbuf)
        algo = "local"
        if self._size > 1:
            algo = self._select("allreduce", sflat.nbytes, scount,
                                op.commutative, algorithm)
        self._note_algorithm(algo)
        if algo == "reduce+bcast":
            self.Reduce(sendbuf, recvbuf, op=op, root=0)
            self.Bcast(recvbuf, root=0)
            return
        acc, in_place = _accumulator(sflat, rflat)
        result = acc if algo == "local" else self._allreduce(
            algo, acc, op, scount, sdt.np_dtype)
        if result is not acc or not in_place:
            rflat[:scount] = np.asarray(result).view(rdt.np_dtype)[:scount]

    @_traced_collective("reduce+bcast")
    def Allreduce(self, sendbuf, recvbuf, op: _ops.Op = _ops.SUM,
                  algorithm: Optional[str] = None) -> None:
        """Size-adaptive allreduce of a NumPy buffer."""
        self._allreduce_buffer(sendbuf, recvbuf, op, algorithm)

    @_traced_collective("alltoall+fold")
    def reduce_scatter(self, sendobjs: Sequence[Any],
                       op: _ops.Op = _ops.SUM) -> Any:
        """Reduce comm.size contributions elementwise, scatter the results:
        rank r receives the reduction of everyone's sendobjs[r]."""
        if len(sendobjs) != self._size:
            raise ValueError("reduce_scatter needs comm.size send objects")
        shuffled = self.alltoall(list(sendobjs))
        acc = shuffled[0]
        for part in shuffled[1:]:
            acc = op(acc, part)
        return acc

    @_traced_collective("linear-chain")
    def Scan(self, sendbuf, recvbuf, op: _ops.Op = _ops.SUM) -> None:
        """Inclusive prefix reduction over buffers (linear chain)."""
        sflat, scount, sdt = decode_buffer_spec(sendbuf)
        rflat, _rc, rdt = _decode_recv_spec(recvbuf)
        tag, send, recv = self._coll_io(sdt.np_dtype, scount)
        _prefix, acc = self._linear_chain(tag, self._rank, sflat,
                                          _combiner(op, True), send, recv,
                                          np.empty_like(sflat))
        rflat[:acc.size] = acc.view(rdt.np_dtype)

    @_traced_collective("linear-chain")
    def Exscan(self, sendbuf, recvbuf, op: _ops.Op = _ops.SUM) -> None:
        """Exclusive prefix reduction over buffers; rank 0's recvbuf is
        left untouched (MPI leaves it undefined)."""
        sflat, scount, sdt = decode_buffer_spec(sendbuf)
        rflat, _rc, rdt = _decode_recv_spec(recvbuf)
        tag, send, recv = self._coll_io(sdt.np_dtype, scount)
        prefix, _acc = self._linear_chain(tag, self._rank, sflat,
                                          _combiner(op, True), send, recv,
                                          np.empty_like(sflat))
        if prefix is not None:
            rflat[:prefix.size] = prefix.view(rdt.np_dtype)

    # ------------------------------------------------------------------
    # communicator construction
    # ------------------------------------------------------------------
    def dup(self) -> "Intracomm":
        """Duplicate: same group, isolated context."""
        seq = self._child_seq
        self._child_seq += 1
        return Intracomm(self._ctx, self._world_ranks,
                         ctx_id=(self._ctx_id, "dup", seq))

    Dup = dup

    def split(self, color: int, key: int = 0) -> Optional["Intracomm"]:
        """Partition the communicator by *color*, ordering ranks by *key*.

        Returns ``None`` on ranks passing a negative color (MPI_UNDEFINED).
        """
        seq = self._child_seq
        self._child_seq += 1
        triples = self.allgather((color, key, self._rank))
        if color < 0:
            return None
        members = sorted(
            (k, r) for (c, k, r) in triples if c == color)
        ranks = [self._world_ranks[r] for (_k, r) in members]
        return Intracomm(self._ctx, ranks,
                         ctx_id=(self._ctx_id, "split", seq, color))

    Split = split

    def Create(self, group: Group) -> Optional["Intracomm"]:
        """Communicator over a subgroup (collective over the parent)."""
        seq = self._child_seq
        self._child_seq += 1
        self.barrier()
        if group.rank_of(self._ctx.rank) < 0:
            return None
        return Intracomm(self._ctx, group.world_ranks(),
                         ctx_id=(self._ctx_id, "create", seq))

    def Free(self) -> None:
        """No-op: contexts are garbage collected."""

    # ------------------------------------------------------------------
    # ULFM fault tolerance: revoke / agree / shrink
    # ------------------------------------------------------------------
    def revoke(self) -> None:
        """Revoke this communicator (ULFM ``MPI_Comm_revoke``).

        Non-collective: any single member may call it.  All members'
        in-flight and future operations on this communicator raise
        :class:`CommRevokedError` (blocked waiters wake within the 0.25 s
        detection period).  Derived communicators are not revoked.
        Idempotent.
        """
        self._ctx.world.revoke_ctx(self._ctx_id)
        if _TR.enabled:
            _TR.instant("mpi.coll", "revoke", rank=self._ctx.rank,
                        algorithm="revoke")

    def agree(self, value: Any = 1, combine=None) -> Any:
        """Fault-tolerant agreement (ULFM ``MPI_Comm_agree``).

        Returns ``combine`` over the contributions of every member that
        has not failed -- identically on all survivors, even if members
        die mid-agreement.  The default *combine* is the bitwise AND of
        integer contributions, matching the MPI standard's operator.
        Works on revoked communicators (it is the one collective that
        must, since recovery is negotiated after a revoke).
        """
        seq = self._agree_seq
        self._agree_seq += 1
        if combine is None:
            def combine(values):
                out = ~0
                for v in values:
                    out &= int(v)
                return out
        return self._ctx.world.agreement(
            (self._ctx_id, "agree", seq), self._ctx.rank, value,
            self._world_ranks, combine)

    def shrink(self) -> "Intracomm":
        """New communicator over the surviving members, densely re-ranked
        in parent rank order (ULFM ``MPI_Comm_shrink``).

        Members first agree on the union of their failed-rank views, so
        every survivor constructs the same group.  Works on revoked
        communicators.  A member that dies *after* contributing to the
        agreement may still appear in the shrunk group; the next
        operation on it raises :class:`RankFailure` and the caller can
        shrink again.
        """
        seq = self._agree_seq
        self._agree_seq += 1
        world = self._ctx.world
        failed = world.agreement(
            (self._ctx_id, "shrink", seq), self._ctx.rank,
            frozenset(world.failed_ranks()), self._world_ranks,
            lambda views: frozenset().union(*views))
        survivors = [wr for wr in self._world_ranks if wr not in failed]
        if _TR.enabled:
            _TR.instant("mpi.coll", "shrink", rank=self._ctx.rank,
                        algorithm="shrink", survivors=len(survivors),
                        failed=len(failed))
        return Intracomm(self._ctx, survivors,
                         ctx_id=(self._ctx_id, "shrink", seq))

    def Abort(self, errorcode: int = 1) -> None:
        self._ctx.world.abort(self._ctx.rank,
                              RuntimeError(f"MPI_Abort({errorcode})"))
        self._ctx.world.check_abort()
