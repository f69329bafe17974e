"""Collective operation tests, object and buffer paths, multiple sizes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import mpi
from tests.conftest import spmd

SIZES = [1, 2, 3, 4, 7]


@pytest.mark.parametrize("p", SIZES)
class TestObjectCollectives:
    def test_bcast(self, p):
        def body(comm):
            obj = {"key": [1, 2.5]} if comm.rank == 0 else None
            return comm.bcast(obj, root=0)
        assert spmd(p)(body) == [{"key": [1, 2.5]}] * p

    def test_bcast_nonzero_root(self, p):
        root = p - 1

        def body(comm):
            obj = "hello" if comm.rank == root else None
            return comm.bcast(obj, root=root)
        assert spmd(p)(body) == ["hello"] * p

    def test_scatter(self, p):
        def body(comm):
            data = [(i + 1) ** 2 for i in range(comm.size)] \
                if comm.rank == 0 else None
            return comm.scatter(data, root=0)
        assert spmd(p)(body) == [(i + 1) ** 2 for i in range(p)]

    def test_gather(self, p):
        def body(comm):
            return comm.gather(comm.rank * 2, root=0)
        results = spmd(p)(body)
        assert results[0] == [2 * i for i in range(p)]
        assert all(r is None for r in results[1:])

    def test_allgather(self, p):
        def body(comm):
            return comm.allgather(comm.rank + 100)
        expected = [100 + i for i in range(p)]
        assert spmd(p)(body) == [expected] * p

    def test_alltoall(self, p):
        def body(comm):
            sendobjs = [(comm.rank, dest) for dest in range(comm.size)]
            return comm.alltoall(sendobjs)
        results = spmd(p)(body)
        for dest in range(p):
            assert results[dest] == [(src, dest) for src in range(p)]

    def test_reduce_sum(self, p):
        def body(comm):
            return comm.reduce(comm.rank + 1, op=mpi.SUM, root=0)
        assert spmd(p)(body)[0] == p * (p + 1) // 2

    def test_allreduce_max(self, p):
        def body(comm):
            return comm.allreduce(comm.rank * 3, op=mpi.MAX)
        assert spmd(p)(body) == [3 * (p - 1)] * p

    def test_scan(self, p):
        def body(comm):
            return comm.scan(comm.rank + 1)
        expected = [sum(range(1, i + 2)) for i in range(p)]
        assert spmd(p)(body) == expected

    def test_exscan(self, p):
        def body(comm):
            return comm.exscan(comm.rank + 1)
        results = spmd(p)(body)
        assert results[0] is None
        for i in range(1, p):
            assert results[i] == sum(range(1, i + 1))

    def test_barrier_completes(self, p):
        def body(comm):
            for _ in range(3):
                comm.barrier()
            return True
        assert all(spmd(p)(body))


class TestReduceSemantics:
    def test_noncommutative_op_rank_order(self):
        concat = mpi.create_op(lambda a, b: a + b, commute=False)

        def body(comm):
            return comm.reduce(f"[{comm.rank}]", op=concat, root=0)
        assert spmd(4)(body)[0] == "[0][1][2][3]"

    def test_maxloc(self):
        def body(comm):
            values = [5.0, 9.0, 2.0, 9.0]
            return comm.allreduce((values[comm.rank], comm.rank),
                                  op=mpi.MAXLOC)
        results = spmd(4)(body)
        assert results == [(9.0, 1)] * 4   # ties resolve to lower index

    def test_minloc(self):
        def body(comm):
            values = [5.0, 9.0, 2.0, 2.0]
            return comm.allreduce((values[comm.rank], comm.rank),
                                  op=mpi.MINLOC)
        assert spmd(4)(body) == [(2.0, 2)] * 4

    def test_logical_ops(self):
        def body(comm):
            every = comm.allreduce(comm.rank < 3, op=mpi.LAND)
            some = comm.allreduce(comm.rank == 2, op=mpi.LOR)
            return every, some
        assert spmd(4)(body) == [(False, True)] * 4

    def test_prod(self):
        def body(comm):
            return comm.allreduce(comm.rank + 1, op=mpi.PROD)
        assert spmd(4)(body) == [24] * 4

    def test_bitwise(self):
        def body(comm):
            return comm.allreduce(1 << comm.rank, op=mpi.BOR)
        assert spmd(4)(body) == [0b1111] * 4


@pytest.mark.parametrize("p", SIZES)
class TestBufferCollectives:
    def test_bcast(self, p):
        def body(comm):
            buf = np.arange(16.0) if comm.rank == 0 else np.zeros(16)
            comm.Bcast(buf, root=0)
            return buf.sum()
        assert spmd(p)(body) == [pytest.approx(120.0)] * p

    def test_scatter_gather_roundtrip(self, p):
        def body(comm):
            n = 8
            send = None
            if comm.rank == 0:
                send = np.arange(comm.size * n, dtype=np.float64)
            recv = np.zeros(n)
            comm.Scatter(send, recv, root=0)
            out = np.zeros(comm.size * n) if comm.rank == 0 else \
                np.zeros(0)
            comm.Gather(recv, out if comm.rank == 0 else np.zeros(0),
                        root=0)
            return out.tolist() if comm.rank == 0 else recv[0]
        results = spmd(p)(body)
        assert results[0] == list(np.arange(p * 8.0))

    def test_allgather(self, p):
        def body(comm):
            send = np.full(4, float(comm.rank))
            recv = np.zeros(4 * comm.size)
            comm.Allgather(send, recv)
            return recv
        results = spmd(p)(body)
        expected = np.repeat(np.arange(float(p)), 4)
        for r in results:
            assert np.allclose(r, expected)

    def test_allgatherv_nonuniform(self, p):
        def body(comm):
            count = comm.rank + 1
            counts = [r + 1 for r in range(comm.size)]
            displs = np.concatenate([[0], np.cumsum(counts)[:-1]]).tolist()
            send = np.full(count, float(comm.rank))
            recv = np.zeros(sum(counts))
            comm.Allgatherv(send, recv, counts, displs)
            return recv
        results = spmd(p)(body)
        expected = np.concatenate(
            [np.full(r + 1, float(r)) for r in range(p)])
        for r in results:
            assert np.allclose(r, expected)

    def test_alltoall(self, p):
        def body(comm):
            send = np.arange(comm.size * 2, dtype=np.float64) \
                + 100 * comm.rank
            recv = np.zeros(comm.size * 2)
            comm.Alltoall(send, recv)
            return recv
        results = spmd(p)(body)
        for dest in range(p):
            expected = np.concatenate(
                [100 * src + np.array([2 * dest, 2 * dest + 1.0])
                 for src in range(p)])
            assert np.allclose(results[dest], expected)

    def test_reduce(self, p):
        def body(comm):
            send = np.full(5, float(comm.rank + 1))
            recv = np.zeros(5)
            comm.Reduce(send, recv, op=mpi.SUM, root=0)
            return recv[0]
        assert spmd(p)(body)[0] == p * (p + 1) / 2

    def test_allreduce_min(self, p):
        def body(comm):
            send = np.array([float(comm.rank), -float(comm.rank)])
            recv = np.zeros(2)
            comm.Allreduce(send, recv, op=mpi.MIN)
            return recv.tolist()
        assert spmd(p)(body) == [[0.0, -(p - 1.0)]] * p


def _both_forms(comm):
    """(object form, buffer form) of each collective, as zero-argument
    calls: the fixed-algorithm collectives plus forced tree and
    recursive-doubling variants of the adaptive ones."""
    p, r = comm.size, comm.rank
    mine = np.full(3, float(r))
    blocks = np.zeros(3 * p)
    return {
        "scatter": (
            lambda: comm.scatter(list(range(p)) if r == 0 else None),
            lambda: comm.Scatter(blocks if r == 0 else None, np.zeros(3))),
        "gather": (
            lambda: comm.gather(r),
            lambda: comm.Gather(mine, blocks if r == 0 else None)),
        "allgather": (
            lambda: comm.allgather(r),
            lambda: comm.Allgather(mine, np.zeros(3 * p))),
        "alltoall": (
            lambda: comm.alltoall(list(range(p))),
            lambda: comm.Alltoall(np.ones(3 * p), np.zeros(3 * p))),
        "scan": (lambda: comm.scan(r),
                 lambda: comm.Scan(mine, np.zeros(3))),
        "exscan": (lambda: comm.exscan(r),
                   lambda: comm.Exscan(mine, np.zeros(3))),
        "bcast/binomial-tree": (
            lambda: comm.bcast(r, algorithm="binomial-tree"),
            lambda: comm.Bcast(mine, algorithm="binomial-tree")),
        "reduce/binomial-tree": (
            lambda: comm.reduce(r, algorithm="binomial-tree"),
            lambda: comm.Reduce(mine, np.zeros(3),
                                algorithm="binomial-tree")),
        "reduce/rank-ordered-tree": (
            lambda: comm.reduce(r, algorithm="rank-ordered-tree"),
            lambda: comm.Reduce(mine, np.zeros(3),
                                algorithm="rank-ordered-tree")),
        "allreduce/recursive-doubling": (
            lambda: comm.allreduce(r, algorithm="recursive-doubling"),
            lambda: comm.Allreduce(mine, np.zeros(3),
                                   algorithm="recursive-doubling")),
    }


@pytest.mark.parametrize("p", SIZES)
def test_object_and_buffer_forms_run_one_schedule(p):
    """The two forms of a collective differ only in their send/recv
    pair, so on every rank they send and receive the same number of
    messages to and from the same peers."""
    def body(comm):
        shapes = {}
        for name, forms in _both_forms(comm).items():
            shapes[name] = []
            for call in forms:
                before = comm.traffic_snapshot()
                call()
                delta = comm.traffic_snapshot() - before
                shapes[name].append((delta.sends, delta.recvs,
                                     sorted(delta.by_peer)))
        return shapes

    for shapes in spmd(p)(body):
        for name, (obj_form, buf_form) in shapes.items():
            assert obj_form == buf_form, name


class TestCollectiveProperties:
    @given(values=st.lists(st.integers(-1000, 1000), min_size=4,
                           max_size=4))
    @settings(max_examples=15, deadline=None)
    def test_allreduce_equals_serial_sum(self, values):
        def body(comm):
            return comm.allreduce(values[comm.rank])
        assert spmd(4)(body) == [sum(values)] * 4

    @given(data=st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3))
    @settings(max_examples=15, deadline=None)
    def test_allgather_preserves_order(self, data):
        def body(comm):
            return comm.allgather(data[comm.rank])
        assert spmd(3)(body) == [data] * 3

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None)
    def test_alltoall_is_transpose(self, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.integers(0, 100, size=(4, 4)).tolist()

        def body(comm):
            return comm.alltoall(matrix[comm.rank])
        results = spmd(4)(body)
        for j in range(4):
            assert results[j] == [matrix[i][j] for i in range(4)]
