"""Failure detection: heartbeats/leases, typed RankFailure, and the
REPRO_MPI_DEADLINE watchdog with its per-rank pending-op dump."""

import threading
import time

import numpy as np
import pytest

from repro import mpi
from repro.mpi.errors import InjectedFault
from repro.mpi.runtime import World


class TestDeadlineEnv:
    def test_deadline_caps_blocking_recv(self, monkeypatch):
        """REPRO_MPI_DEADLINE caps every blocking wait below the caller's
        timeout and the error dumps each rank's pending op + seq."""
        monkeypatch.setenv("REPRO_MPI_DEADLINE", "0.6")

        def body(comm):
            if comm.rank == 0:
                comm.recv(source=1, tag=9)   # rank 1 never sends

        t0 = time.monotonic()
        with pytest.raises(mpi.DeadlockError) as ei:
            mpi.run_spmd(body, 2, timeout=60.0)
        assert time.monotonic() - t0 < 10.0, "deadline did not cap the wait"
        msg = str(ei.value)
        assert "pending operations by rank" in msg
        assert "rank 0" in msg and "recv(source=1" in msg
        assert "op #" in msg and "heartbeat" in msg

    def test_deadline_ignored_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_MPI_DEADLINE", raising=False)

        def body(comm):
            if comm.rank == 0:
                with pytest.raises(mpi.DeadlockError):
                    comm.recv(source=1, tag=9)

        mpi.run_spmd(body, 2, timeout=0.5)

    def test_bad_deadline_value_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_MPI_DEADLINE", "not-a-number")
        with pytest.raises(ValueError):
            World(2)


class TestRankFailureDetection:
    def test_recv_from_dead_rank_is_typed_and_bounded(self):
        """A blocked recv from a crashed rank raises RankFailure naming
        the dead rank and the pending op, well inside the 60 s timeout
        (the 0.25 s wake period is the detection latency bound)."""
        caught = {}

        def body(comm):
            if comm.rank == 1:
                raise InjectedFault(1, 0, "scripted death")
            t0 = time.monotonic()
            try:
                comm.recv(source=1, tag=3)
            except mpi.RankFailure as exc:
                caught["latency"] = time.monotonic() - t0
                caught["exc"] = exc

        mpi.run_spmd(body, 2, timeout=60.0, fault_mode="failstop")
        exc = caught["exc"]
        assert exc.rank == 1
        assert "recv(source=1" in exc.op
        assert caught["latency"] < 5.0

    def test_collective_with_dead_rank_fails_typed(self):
        outcomes = []

        def body(comm):
            if comm.rank == 2:
                raise InjectedFault(2, 0, "dead before allreduce")
            try:
                comm.allreduce(comm.rank)
            except (mpi.RankFailure, mpi.CommRevokedError) as exc:
                outcomes.append(type(exc).__name__)
                # a survivor may be blocked on another *survivor* (the
                # collective's internal topology), so the ULFM protocol
                # is to revoke: everyone wakes with a typed error
                comm.revoke()

        mpi.run_spmd(body, 3, timeout=30.0, fault_mode="failstop")
        assert len(outcomes) == 2


class TestRankLeases:
    def test_dead_thread_lease_marks_rank_failed(self):
        """A registered rank thread that dies without reporting (not even
        an InjectedFault) is detected by the lease check from a peer's
        blocking wait."""
        world = World(2, timeout=30.0)
        t = threading.Thread(target=lambda: None)
        t.start()
        t.join()  # thread is now dead without having reported anything
        world.register_lease(1, t)
        assert not world.is_failed(1)
        world.check_leases()
        assert world.is_failed(1)
        assert "died without reporting" in repr(world.failure_cause(1))

    def test_unregistered_worlds_keep_deadlock_semantics(self):
        """Without lease registration a missing sender still surfaces as
        DeadlockError (plain run_spmd behaviour is unchanged)."""
        def body(comm):
            if comm.rank == 0:
                with pytest.raises(mpi.DeadlockError):
                    comm.recv(source=1, tag=1)

        mpi.run_spmd(body, 2, timeout=0.5)

    def test_lease_failure_unblocks_peer_recv(self):
        """End-to-end: peer blocked in recv wakes with RankFailure once
        the lease check notices the dead thread."""
        world = World(2, timeout=30.0)
        from repro.mpi.comm import Intracomm
        from repro.mpi.runtime import RankContext

        holder = {}

        def rank1():
            ctx = RankContext(world, 1)
            ctx.bind()
            holder["ready"] = True
            # dies "silently": no mark_failed, no abort

        t1 = threading.Thread(target=rank1)
        t1.start()
        t1.join()
        world.register_lease(1, t1)

        def rank0():
            ctx = RankContext(world, 0)
            ctx.bind()
            comm = Intracomm(ctx, [0, 1])
            try:
                comm.recv(source=1, tag=7)
            except mpi.RankFailure as exc:
                holder["exc"] = exc

        t0 = threading.Thread(target=rank0)
        t0.start()
        t0.join(timeout=10.0)
        assert not t0.is_alive()
        assert holder["exc"].rank == 1
