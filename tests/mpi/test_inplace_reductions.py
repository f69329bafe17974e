"""Buffer reductions that accumulate in the receive buffer.

``Allreduce``/``Reduce`` copy the send buffer into the receive buffer once
and combine in place there.  Every forced algorithm, at every root, on
p in {2, 3, 4, 5} (so the non-power-of-two folds run) and on both
transports must give exactly the bits of a NumPy fold in member order --
or, for floats whose sum depends on the association, exactly the bits of
the same algorithm run with an op that allocates a fresh array at every
combine.  A send buffer is never modified unless it aliases the receive
buffer.  Receive buffers that cannot be viewed 1-D without a copy are
refused before any message moves.
"""

import tracemalloc

import numpy as np
import pytest

from repro import chaos, mpi
from repro.chaos import FaultPlan
from repro.mpi import (BXOR, COMMODITY_CLUSTER, DOUBLE, FLAT, MAX, MAXLOC,
                       PROD, SUM, Topology, create_op)

BACKENDS = mpi.BACKENDS
SIZES = (1, 13, 300)

ALLREDUCE_ALGOS = ("recursive-doubling", "ring", "rabenseifner",
                   "reduce+bcast", "hierarchical")
REDUCE_ALGOS = ("binomial-tree", "rank-ordered-tree", "gather-fold", "ring")
SEGMENTED = {"ring", "rabenseifner"}
REORDERING = {"binomial-tree", "ring", "rabenseifner", "hierarchical"}

#: hierarchical needs a declared topology that is not flat; p = 2 has none
TOPOLOGIES = {3: [(0,), (1, 2)], 4: [(0, 2), (1, 3)],
              5: [(0, 1, 2), (3, 4)]}

#: the allocating twin of SUM: a callable without ``out=`` takes the
#: fresh-array path, with the same operand order and association
ADD_ALLOC = create_op(lambda a, b: np.add(a, b), name="add-alloc")
#: non-commutative and associative: the leftmost non-zero operand wins
FIRST = create_op(lambda a, b: np.where(a != 0, a, b), commute=False,
                  name="first-nonzero")

OPS = {"sum-exact": SUM, "sum-float": SUM, "prod": PROD, "max": MAX,
       "bxor": BXOR, "maxloc": MAXLOC, "first": FIRST}


@pytest.fixture(autouse=True)
def reset_global_state():
    yield
    mpi.set_collective_tuning(COMMODITY_CLUSTER, FLAT)
    chaos.uninstall()


def _operand(kind, rank, n):
    """Rank *rank*'s send buffer for op *kind* (deterministic)."""
    rng = np.random.default_rng([rank, n, len(kind), ord(kind[-1])])
    if kind == "sum-exact":
        return rng.integers(-50, 50, n).astype(np.float64)
    if kind == "sum-float":
        return rng.normal(size=n)
    if kind == "prod":
        return rng.choice([0.5, 1.0, 2.0, -1.0, -2.0], n)
    if kind == "max":
        return rng.normal(size=n)
    if kind == "bxor":
        return rng.integers(-2 ** 62, 2 ** 62, n, dtype=np.int64)
    if kind == "maxloc":
        return np.array([float(rng.integers(0, 3)), float(rank)])
    if kind == "first":
        return rng.normal(size=n) * (rng.random(n) < 0.4)
    raise ValueError(kind)


def _sizes(kind):
    return (2,) if kind == "maxloc" else SIZES


def _fold(kind, p, n):
    """The NumPy fold of every member's operand in member order."""
    f = OPS[kind].np_func
    acc = _operand(kind, 0, n)
    for r in range(1, p):
        acc = np.asarray(f(acc, _operand(kind, r, n)),
                         dtype=acc.dtype)
    return acc


def _legal(kind, algo, p):
    if algo == "hierarchical" and p not in TOPOLOGIES:
        return False
    if kind == "maxloc" and algo in SEGMENTED:
        return False       # a (value, index) pair cannot be cut in blocks
    return not (kind == "first" and algo in REORDERING)


def _bits(a):
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def _matrix_body(comm):
    """Every op x size x algorithm x root: results and send-buffer
    integrity, keyed for the driver to check."""
    p, me = comm.Get_size(), comm.Get_rank()
    if p in TOPOLOGIES:
        comm.set_collective_tuning(
            topology=Topology(intra_node_groups=TOPOLOGIES[p]))
    out, touched = {}, []

    def check_send(send, kept, key):
        if not np.array_equal(send, kept):
            touched.append(key)

    for kind, op in OPS.items():
        for n in _sizes(kind):
            send = _operand(kind, me, n)
            kept = send.copy()
            for algo in ALLREDUCE_ALGOS:
                if not _legal(kind, algo, p):
                    continue
                recv = np.empty_like(send)
                comm.Allreduce(send, recv, op, algorithm=algo)
                out[("Allreduce", kind, n, algo)] = recv
                check_send(send, kept, ("Allreduce", kind, n, algo))
                if kind == "sum-float":
                    twin = np.empty_like(send)
                    comm.Allreduce(send, twin, ADD_ALLOC, algorithm=algo)
                    out[("Allreduce", "twin", n, algo)] = twin
                out[("allreduce", kind, n, algo)] = comm.allreduce(
                    send, op, algorithm=algo)
                check_send(send, kept, ("allreduce", kind, n, algo))
            for algo in REDUCE_ALGOS:
                if not _legal(kind, algo, p):
                    continue
                for root in range(p):
                    recv = np.empty_like(send) if me == root else None
                    comm.Reduce(send, recv, op, root=root, algorithm=algo)
                    check_send(send, kept, ("Reduce", kind, n, algo, root))
                    got = comm.reduce(send, op, root=root, algorithm=algo)
                    check_send(send, kept, ("reduce", kind, n, algo, root))
                    if me == root:
                        out[("Reduce", kind, n, algo, root)] = recv
                        out[("reduce", kind, n, algo, root)] = got
                    if kind == "sum-float":
                        comm.Reduce(send, recv, ADD_ALLOC, root=root,
                                    algorithm=algo)
                        if me == root:
                            out[("Reduce", "twin", n, algo, root)] = recv
    return out, touched


def _special_body(comm):
    """Aliased, overlapping, counted and mistyped receive buffers."""
    p, me = comm.Get_size(), comm.Get_rank()
    if p in TOPOLOGIES:
        comm.set_collective_tuning(
            topology=Topology(intra_node_groups=TOPOLOGIES[p]))
    out = {}
    for n in SIZES:
        send = _operand("sum-exact", me, n)
        for algo in ALLREDUCE_ALGOS:
            if not _legal("sum-exact", algo, p):
                continue
            buf = send.copy()
            comm.Allreduce(buf, buf, SUM, algorithm=algo)
            out[("alias", n, algo)] = buf
            big = np.zeros(n + 1)
            big[:n] = send
            comm.Allreduce(big[:n], big[1:], SUM, algorithm=algo)
            out[("overlap", n, algo)] = big[1:].copy()
            recv = np.full(n + 4, 7.0)
            comm.Allreduce(send, [recv, n, DOUBLE], SUM, algorithm=algo)
            out[("counted", n, algo)] = recv
            strided = np.full(2 * n, 7.0)
            comm.Allreduce(send, strided[::2], SUM, algorithm=algo)
            out[("strided", n, algo)] = strided
            mistyped = np.empty(n, dtype=np.int64)
            comm.Allreduce(send, mistyped, SUM, algorithm=algo)
            out[("mistyped", n, algo)] = mistyped.view(np.float64)
        for algo in REDUCE_ALGOS:
            for root in range(p):
                buf = send.copy()
                comm.Reduce(buf, buf, SUM, root=root, algorithm=algo)
                out[("alias-reduce", n, algo, root)] = buf
    return out


@pytest.mark.parametrize("p", (2, 3, 4, 5))
@pytest.mark.parametrize("backend", BACKENDS)
class TestInPlaceMatrix:
    def test_every_algorithm_op_and_root(self, backend, p):
        results = mpi.run_spmd(_matrix_body, p, backend=backend,
                               timeout=120.0)
        checked = 0
        for rank, (out, touched) in enumerate(results):
            assert touched == [], f"rank {rank} send buffers changed"
            for key, got in out.items():
                coll, kind, n = key[:3]
                if kind == "twin":
                    continue
                if kind == "sum-float":
                    # the buffer twin serves the ndarray form too
                    want = out[(coll.capitalize(), "twin") + key[2:]]
                    assert _bits(got) == _bits(want), key
                    # and agrees in value with the member-order fold
                    np.testing.assert_allclose(
                        got, _fold(kind, p, n), rtol=1e-12, atol=1e-12)
                else:
                    want = _fold(kind, p, n)
                    assert _bits(got) == _bits(want), (key, got, want)
                checked += 1
        assert checked > 0

    def test_aliased_overlapping_and_counted_buffers(self, backend, p):
        results = mpi.run_spmd(_special_body, p, backend=backend,
                               timeout=120.0)
        for rank, out in enumerate(results):
            for key, got in out.items():
                n = key[1]
                want = _fold("sum-exact", p, n)
                if key[0] == "counted":
                    assert _bits(got[:n]) == _bits(want), key
                    assert (got[n:] == 7.0).all(), key
                elif key[0] == "strided":
                    assert _bits(got[::2]) == _bits(want), key
                    assert (got[1::2] == 7.0).all(), key
                elif key[0] == "alias-reduce":
                    root = key[3]
                    if rank != root:
                        want = _operand("sum-exact", rank, n)
                    assert _bits(got) == _bits(want), (rank, key)
                else:
                    assert _bits(got) == _bits(want), (rank, key)


class TestAllocation:
    def test_megabyte_allreduces_allocate_no_fresh_arrays(self):
        """Twenty 1 MiB Allreduces at p = 2 on the thread transport: the
        only live allocations are the two in-flight wire copies."""
        n = (1 << 20) // 8

        def body(comm):
            send, recv = np.ones(n), np.empty(n)
            comm.Allreduce(send, recv)
            comm.Barrier()
            base = 0
            if comm.rank == 0:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            comm.Barrier()
            for _ in range(20):
                comm.Allreduce(send, recv)
            comm.Barrier()
            assert (recv == 2.0).all()
            return tracemalloc.get_traced_memory()[1] - base

        tracemalloc.start()
        try:
            rise = mpi.run_spmd(body, 2, backend="thread")[0]
        finally:
            tracemalloc.stop()
        assert rise <= 2.5 * (1 << 20), rise


@pytest.mark.parametrize("backend", BACKENDS)
def test_chaos_delay_keeps_results_exact(backend):
    """Held (late) payloads reshape timing only: the accumulator is never
    read by a send after it returns."""
    chaos.install(FaultPlan(seed=11, max_sleep=0.005)
                  .delay(seconds=0.002, prob=0.5, op="send"))
    p = 3

    def body(comm):
        comm.set_collective_tuning(
            topology=Topology(intra_node_groups=TOPOLOGIES[p]))
        send = _operand("sum-exact", comm.rank, 300)
        out = {}
        for algo in ALLREDUCE_ALGOS:
            recv = np.empty_like(send)
            comm.Allreduce(send, recv, SUM, algorithm=algo)
            out[algo] = recv
        for algo in REDUCE_ALGOS:
            recv = np.empty_like(send)
            comm.Reduce(send, recv, SUM, root=p - 1, algorithm=algo)
            if comm.rank == p - 1:
                out[algo] = recv
        return out

    want = _bits(_fold("sum-exact", p, 300))
    for out in mpi.run_spmd(body, p, backend=backend, timeout=60.0):
        for algo, got in out.items():
            assert _bits(got) == want, algo


# ----------------------------------------------------------------------
# receive buffers that cannot be viewed 1-D without a copy
# ----------------------------------------------------------------------
def _bad():
    """A 4 x 2 view of a 4 x 4 array: flattening it would copy."""
    return np.zeros((4, 4))[:, :2]


FAMILIES = {
    "Recv": lambda c: (c.Send(np.ones(8), 1) if c.rank == 0
                       else c.Recv(_bad(), 0)),
    "Irecv": lambda c: (c.Send(np.ones(8), 1) if c.rank == 0
                        else c.Irecv(_bad(), 0).wait()),
    "Bcast": lambda c: c.Bcast(_bad(), root=0),
    "Allreduce": lambda c: c.Allreduce(np.ones((4, 2)), _bad()),
    "Reduce": lambda c: c.Reduce(np.ones(8), _bad(), root=1),
    "Scatter": lambda c: c.Scatter(np.ones(16), _bad(), root=0),
    "Scatterv": lambda c: c.Scatterv(np.ones(16), [8, 8], [0, 8], _bad(),
                                     root=0),
    "Gather": lambda c: c.Gather(np.ones(4), _bad(), root=1),
    "Gatherv": lambda c: c.Gatherv(np.ones(4), _bad(), [4, 4], [0, 4],
                                   root=1),
    "Allgather": lambda c: c.Allgather(np.ones(4), _bad()),
    "Allgatherv": lambda c: c.Allgatherv(np.ones(4), _bad(), [4, 4],
                                         [0, 4]),
    "Alltoall": lambda c: c.Alltoall(np.ones(8), _bad()),
    "Scan": lambda c: c.Scan(np.ones(8), _bad()),
    "Exscan": lambda c: c.Exscan(np.ones(8), _bad()),
}
#: the ranks whose receive buffer the collective writes
RECEIVERS = {"Recv": {1}, "Irecv": {1}, "Reduce": {1}, "Gather": {1},
             "Gatherv": {1}}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("backend", BACKENDS)
def test_non_contiguous_receive_buffer_refused(backend, family):
    def body(comm):
        try:
            FAMILIES[family](comm)
        except ValueError as exc:
            return str(exc)
        return None

    got = mpi.run_spmd(body, 2, backend=backend, timeout=30.0)
    for rank, msg in enumerate(got):
        if rank in RECEIVERS.get(family, {0, 1}):
            assert msg == "receive buffer is not contiguous", (rank, msg)
        else:
            assert msg is None, (rank, msg)


@pytest.mark.parametrize("backend", BACKENDS)
def test_strided_1d_receive_buffers_are_written(backend):
    """A 1-D strided view is a view already: it is accepted and filled."""
    def body(comm):
        red = np.zeros(16)
        comm.Allreduce(np.ones(8), red[::2])
        bc = np.zeros(16)
        comm.Bcast(np.arange(8.0) if comm.rank == 0 else bc[::2], root=0)
        return red, bc

    for rank, (red, bc) in enumerate(mpi.run_spmd(body, 2, backend=backend)):
        assert (red[::2] == 2.0).all() and (red[1::2] == 0.0).all()
        if rank == 1:
            assert (bc[::2] == np.arange(8.0)).all()
            assert (bc[1::2] == 0.0).all()
