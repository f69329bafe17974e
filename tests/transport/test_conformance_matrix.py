"""Cross-backend conformance: thread and process transports must agree.

A curated slice of the MPI and ODIN surface -- p2p envelopes, the PR 6
collective-algorithm catalogue, RMA, redistribution, batching, the
worker-side plan cache -- parametrized over ``backend=thread|process``
(see conftest).  Each case checks against a NumPy oracle, so agreement
with the oracle on both backends proves backend equivalence.
"""

import multiprocessing
import os
import socket
import threading
import time

import numpy as np
import pytest

from repro import mpi, odin
from repro.mpi import MAX, SUM
from repro.mpi.runtime import RankContext, World
from repro.mpi.transport.process_backend import ProcessWorld
from repro.mpi.transport.shm import new_session_id

ALLREDUCE_ALGOS = ("reduce+bcast", "recursive-doubling", "ring",
                   "rabenseifner")
BCAST_ALGOS = ("binomial-tree", "scatter-allgather")
REDUCE_ALGOS = ("binomial-tree", "rank-ordered-tree", "gather-fold", "ring")


class TestP2P:
    def test_object_roundtrip(self, spmd):
        def body(comm):
            r = comm.rank
            if r == 0:
                comm.send({"payload": [1, 2, 3], "from": 0}, dest=1, tag=7)
                return comm.recv(source=1, tag=8)
            comm.send({"payload": "reply", "from": 1}, dest=0, tag=8)
            return comm.recv(source=0, tag=7)

        res = spmd(body, 2)
        assert res[0] == {"payload": "reply", "from": 1}
        assert res[1] == {"payload": [1, 2, 3], "from": 0}

    def test_buffer_send_recv(self, spmd):
        def body(comm):
            r = comm.rank
            if r == 0:
                comm.Send(np.arange(64, dtype=np.float64), dest=1)
                return None
            buf = np.empty(64, dtype=np.float64)
            comm.Recv(buf, source=0)
            return buf

        res = spmd(body, 2)
        np.testing.assert_array_equal(res[1], np.arange(64, dtype=float))

    def test_sendrecv_ring(self, spmd):
        def body(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            return comm.sendrecv(comm.rank * 10, dest=right, source=left)

        assert spmd(body, 3) == [20, 0, 10]

    def test_isend_irecv_waitall(self, spmd):
        def body(comm):
            reqs = [comm.isend(("msg", comm.rank, d), dest=d, tag=3)
                    for d in range(comm.size) if d != comm.rank]
            got = sorted(comm.recv(source=s, tag=3)
                         for s in range(comm.size) if s != comm.rank)
            mpi.waitall(reqs)
            return got

        res = spmd(body, 3)
        for r, got in enumerate(res):
            assert got == sorted(("msg", s, r)
                                 for s in range(3) if s != r)

    def test_non_overtaking_same_pair(self, spmd):
        def body(comm):
            if comm.rank == 0:
                for i in range(20):
                    comm.send(i, dest=1, tag=1)
                return None
            return [comm.recv(source=0, tag=1) for _ in range(20)]

        assert spmd(body, 2)[1] == list(range(20))

    def test_received_arrays_are_readonly_views(self, spmd):
        # the PR 4 protocol-5 contract survives the process boundary:
        # out-of-band frames arrive as read-only views on both backends
        def body(comm):
            if comm.rank == 0:
                comm.send({"a": np.ones(32)}, dest=1)
                return None
            got = comm.recv(source=0)["a"]
            writable = got.flags.writeable
            copy = got.copy()
            copy[0] = 5.0  # the copy must be writable
            return (writable, float(copy[0]))

        assert spmd(body, 2)[1] == (False, 5.0)

    def test_truncation_is_typed(self, spmd):
        def body(comm):
            if comm.rank == 0:
                comm.Send(np.arange(10, dtype=np.float64), dest=1)
                return "sent"
            small = np.empty(3, dtype=np.float64)
            try:
                comm.Recv(small, source=0)
                return "no-error"
            except mpi.TruncationError:
                return "truncation"

        assert spmd(body, 2)[1] == "truncation"


class TestCollectiveCatalogue:
    """Every PR 6 algorithm variant, against the NumPy oracle."""

    # 9000 float64 = 72 KB: crosses the 64 KB shared-memory frame
    # threshold, so large-message collectives exercise the shm path
    SIZES = (5, 1000, 9000)

    def test_allreduce_every_algorithm(self, spmd):
        def body(comm):
            out = {}
            for n in self.SIZES:
                mine = np.arange(n, dtype=np.float64) + comm.rank
                for algo in ALLREDUCE_ALGOS:
                    recv = np.empty(n, dtype=np.float64)
                    comm.Allreduce(mine, recv, SUM, algorithm=algo)
                    out[(n, algo)] = recv
            return out

        nranks = 4
        res = spmd(body, nranks)
        for n in self.SIZES:
            oracle = sum(np.arange(n, dtype=np.float64) + r
                         for r in range(nranks))
            for algo in ALLREDUCE_ALGOS:
                for r in range(nranks):
                    np.testing.assert_allclose(res[r][(n, algo)], oracle)

    def test_bcast_every_algorithm(self, spmd):
        def body(comm):
            out = {}
            for n in self.SIZES:
                for algo in BCAST_ALGOS:
                    buf = (np.arange(n, dtype=np.float64)
                           if comm.rank == 0
                           else np.empty(n, dtype=np.float64))
                    comm.Bcast(buf, root=0, algorithm=algo)
                    out[(n, algo)] = buf
            return out

        res = spmd(body, 4)
        for n in self.SIZES:
            for algo in BCAST_ALGOS:
                for r in range(4):
                    np.testing.assert_array_equal(
                        res[r][(n, algo)], np.arange(n, dtype=float))

    def test_reduce_every_algorithm(self, spmd):
        def body(comm):
            out = {}
            for algo in REDUCE_ALGOS:
                mine = np.full(100, float(comm.rank + 1))
                recv = np.empty(100) if comm.rank == 0 else None
                comm.Reduce(mine, recv, MAX, root=0, algorithm=algo)
                out[algo] = recv if comm.rank == 0 else None
            return out

        res = spmd(body, 3)
        for algo in REDUCE_ALGOS:
            np.testing.assert_array_equal(res[0][algo], np.full(100, 3.0))

    def test_gather_scatter_alltoall_scan(self, spmd):
        def body(comm):
            r, p = comm.rank, comm.size
            gathered = comm.gather(r * r, root=0)
            scattered = comm.scatter(
                [10 * i for i in range(p)] if r == 0 else None, root=0)
            allg = comm.allgather(r + 100)
            a2a = comm.alltoall([r * 10 + d for d in range(p)])
            scan = comm.scan(r + 1)
            comm.barrier()
            return gathered, scattered, allg, a2a, scan

        p = 3
        res = spmd(body, p)
        assert res[0][0] == [r * r for r in range(p)]
        assert [x[1] for x in res] == [0, 10, 20]
        for r in range(p):
            assert res[r][2] == [s + 100 for s in range(p)]
            assert res[r][3] == [s * 10 + r for s in range(p)]
            assert res[r][4] == sum(range(1, r + 2))


class TestRMA:
    def test_put_get_accumulate_fence(self, spmd):
        def body(comm):
            r, p = comm.rank, comm.size
            buf = np.zeros(8)
            win = mpi.Win.Create(buf, comm)
            win.Fence()
            win.Put(np.array([float(r + 1)]), (r + 1) % p, 0)
            for t in range(p):
                win.Accumulate(np.array([1.0]), t, 3)
            win.Fence()
            out = np.zeros(1)
            win.Get(out, 0, 0)
            win.Fence()
            win.Free()
            return float(buf[0]), float(buf[3]), float(out[0])

        res = spmd(body, 3)
        assert [x[0] for x in res] == [3.0, 1.0, 2.0]
        assert all(x[1] == 3.0 for x in res)
        assert all(x[2] == 3.0 for x in res)

    def test_lock_unlock_passive_target(self, spmd):
        def body(comm):
            r, p = comm.rank, comm.size
            buf = np.zeros(4)
            win = mpi.Win.Create(buf, comm)
            target = (r + 1) % p
            win.Lock(target)
            win.Put(np.array([42.0]), target, 1)
            win.Unlock(target)
            win.Fence()
            win.Free()
            return float(buf[1])

        assert spmd(body, 3) == [42.0, 42.0, 42.0]

    def test_overrun_is_typed(self, spmd):
        def body(comm):
            buf = np.zeros(4)
            win = mpi.Win.Create(buf, comm)
            win.Fence()
            try:
                win.Put(np.zeros(100), (comm.rank + 1) % comm.size, 0)
                out = "no-error"
            except mpi.MPIError:
                out = "typed"
            win.Fence()
            win.Free()
            return out

        assert spmd(body, 2) == ["typed", "typed"]

    def test_overrun_text_same_for_self_and_remote_targets(self, spmd):
        def body(comm):
            buf = np.zeros(4)
            win = mpi.Win.Create(buf, comm)
            win.Fence()
            texts = {}
            for where, target in (("self", comm.rank),
                                  ("remote", (comm.rank + 1) % comm.size)):
                for kind, call in (
                        ("Put", lambda t: win.Put(np.zeros(9), t, 0)),
                        ("Get", lambda t: win.Get(np.zeros(9), t, 0)),
                        ("Accumulate",
                         lambda t: win.Accumulate(np.ones(9), t, 0))):
                    try:
                        call(target)
                        texts[kind, where] = "no-error"
                    except mpi.MPIError as exc:
                        texts[kind, where] = str(exc)
            win.Fence()
            win.Free()
            return texts

        for texts in spmd(body, 2):
            for kind in ("Put", "Get", "Accumulate"):
                assert texts[kind, "self"] == texts[kind, "remote"] \
                    == f"{kind} overruns the target window"


class TestFailureSeams:
    """The failure paths every transport reaches through one World."""

    def test_expired_lease_is_a_rank_failure_within_the_wake_bound(
            self, backend):
        # the lease is the only detector here: on the process transport
        # the test itself holds the dead rank's socket end open, so no
        # EOF can report the death first
        died_after = 0.2
        peer_end = None
        if backend == "thread":
            world = World(2, timeout=30.0)
            handle = threading.Thread(target=time.sleep, args=(died_after,))
        else:
            ours, peer_end = socket.socketpair()
            world = ProcessWorld(2, 0, new_session_id(), {1: ours},
                                 timeout=30.0)
            mp = multiprocessing.get_context("fork")
            handle = mp.Process(
                target=lambda: (time.sleep(died_after), os._exit(3)))
        ctx = RankContext(world, 0)
        try:
            handle.start()
            world.register_lease(1, handle)
            t0 = time.monotonic()
            with pytest.raises(mpi.RankFailure) as ei:
                ctx.recv_message(("lease", "p"), 1, 0)
            elapsed = time.monotonic() - t0
        finally:
            handle.join(timeout=10)
            world.close()
            if peer_end is not None:
                peer_end.close()
        assert not handle.is_alive()
        assert ei.value.rank == 1
        assert "died without reporting" in str(ei.value)
        # one 0.25 s wake after the death, plus scheduling slack
        assert elapsed - died_after < 0.25 + 0.5

    def test_agreement_timeout_names_the_flight_dump(self, spmd, tmp_path,
                                                     monkeypatch):
        monkeypatch.setenv("REPRO_OBS_DUMP", str(tmp_path / "agree.json"))

        def body(comm):
            if comm.rank == 1:
                time.sleep(1.5)   # never contributes, never fails
                return None
            try:
                comm.agree(1)
                return "agreed"
            except mpi.DeadlockError as exc:
                return str(exc)

        msg = spmd(body, 2, timeout=0.5)[0]
        assert "agreement" in msg and "timed out" in msg
        assert "flight recorder dump" in msg


class TestOdin:
    def test_ufunc_chain(self, odin_ctx):
        with odin_ctx(3) as ctx:
            x = odin.arange(200, ctx=ctx, dtype=np.float64)
            y = odin.sqrt(x * x + 1.0) - 0.5
            np.testing.assert_allclose(
                y.gather(), np.sqrt(np.arange(200.0) ** 2 + 1.0) - 0.5)

    def test_redistribution_round_trip(self, odin_ctx):
        data = np.random.default_rng(7).normal(size=(12, 9))
        with odin_ctx(3) as ctx:
            x = odin.array(data, ctx=ctx)
            y = x.redistribute(odin.CyclicDistribution((12, 9), 0, 3))
            z = y.redistribute(odin.BlockDistribution((12, 9), 1, 3))
            np.testing.assert_allclose(y.gather(), data)
            np.testing.assert_allclose(z.gather(), data)

    def test_batch_on_off_agree(self, backend):
        from repro.odin.context import OdinContext
        results = {}
        for batch in (True, False):
            with OdinContext(2, batch=batch, backend=backend) as ctx:
                x = odin.arange(300, ctx=ctx, dtype=np.float64)
                y = x.redistribute(odin.CyclicDistribution((300,), 0, 2))
                results[batch] = odin.sqrt(y * y).gather()
        np.testing.assert_array_equal(results[True], results[False])

    def test_repeated_redistribution(self, odin_ctx):
        with odin_ctx(2) as ctx:
            data = np.arange(60, dtype=np.float64)
            x = odin.array(data, ctx=ctx)
            dst = odin.CyclicDistribution((60,), 0, 2)
            before = ctx.plan_cache_stats()
            for _ in range(3):
                np.testing.assert_array_equal(x.redistribute(dst).gather(),
                                              data)
            after = ctx.plan_cache_stats()
            # each op builds its plan on both workers; nothing is cached
            assert after["hits"] == before["hits"] == 0
            assert after["misses"] - before["misses"] == 3 * 2

    def test_local_function_ships_to_workers(self, odin_ctx):
        with odin_ctx(2) as ctx:
            hypot = odin.local(lambda x, y: np.hypot(x, y),
                               name="conformance-hypot")
            a = odin.array(np.arange(30, dtype=np.float64), ctx=ctx)
            b = odin.array(np.ones(30), ctx=ctx)
            out = hypot(a, b)
            np.testing.assert_allclose(out.gather(),
                                       np.hypot(np.arange(30.0), 1.0))
