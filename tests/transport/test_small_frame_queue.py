"""The small-frame queue: every data message of the process transport.

Queue-level tests drive :class:`FrameQueue` directly (a producer and a
consumer mapping of one file), so record placement -- wrap-around, and
the restart at offset 0 whenever the queue is empty -- is checked
without a second process.  The rest runs real worlds on both consumer
paths: ``spin`` (a blocked receive polls its queues) and ``park`` (it
waits on its mailbox and the producer rings a doorbell), forced by
patching the spin predicate before the ranks fork.
"""

import os
import signal
import socket
import threading
import time

import numpy as np
import pytest

from repro import mpi
from repro.mpi.errors import CommRevokedError
from repro.mpi.transport import process_backend
from repro.mpi.transport.shm import (RING_CAPACITY, SHM_PREFIX,
                                     FrameQueue)

CAP = 4096


@pytest.fixture
def queue():
    """A producer and a consumer view of one queue."""
    tx = FrameQueue(CAP)
    rx = FrameQueue(CAP, os.dup(tx.fd))
    tx.close_fd()
    rx.close_fd()
    return tx, rx


def _record(nbytes, seed):
    return bytes([seed % 251]) * nbytes


def _size(nbytes):
    return (16 + nbytes + 7) // 8 * 8  # length and stamp, padded to 8


def test_wrap_around_keeps_records_whole(queue):
    tx, rx = queue
    a, b, c = (_record(1500, s) for s in (1, 2, 3))
    assert tx.put([a], len(a), 0) and tx.put([b], len(b), 1)
    assert rx.take(limit=0) == [a]  # b still in flight
    # c does not fit before the end: it wraps to offset 0, whole
    assert tx.put([c], len(c), 1)
    assert tx.head == CAP + _size(1500)
    assert rx.take() == [b, c]


def test_take_stops_at_the_first_record_stamped_above_its_limit(queue):
    tx, rx = queue
    recs = [_record(40, s) for s in range(6)]
    for rec, stamp in zip(recs, [1, 1, 2, 2, 3, 3]):
        assert tx.put([rec], len(rec), stamp)
    assert rx.take(limit=0) == []
    assert rx.take(limit=1) == recs[:2]
    assert rx.take(limit=1) == []  # held back, in order
    assert rx.take(limit=3) == recs[2:]


def test_restart_at_offset_zero_when_empty(queue):
    tx, rx = queue
    for seed in range(10):
        rec = _record(100 + 37 * seed, seed)
        assert tx.put([rec], len(rec))
        # the queue was empty: every record starts at offset 0
        assert tx.head % CAP == _size(len(rec))
        assert rx.take() == [rec]


def test_full_queue_refuses_then_resumes(queue):
    tx, rx = queue
    rec = _record(1000, 5)
    placed = 0
    while tx.put([rec], len(rec)):
        placed += 1
    assert placed == CAP // _size(1000)
    assert rx.take() == [rec] * placed
    assert tx.put([rec], len(rec))  # credit returned: room again
    assert rx.take() == [rec]


def test_random_traffic_is_fifo(queue):
    tx, rx = queue
    rng = np.random.default_rng(7)
    sent, got = [], []
    for i in range(20_000):
        if rng.random() < 0.6:
            rec = _record(int(rng.integers(1, rng.choice([16, 300, 4000]))),
                          i)
            if tx.put([rec], len(rec)):
                sent.append(rec)
        else:
            got += rx.take()
    got += rx.take()
    assert got == sent


def test_oversized_record_is_refused(queue):
    tx, _ = queue
    with pytest.raises(ValueError):
        tx.put([b"x" * CAP], CAP)


# ----------------------------------------------------------------------
# real worlds, on both consumer paths
# ----------------------------------------------------------------------
@pytest.fixture(params=["spin", "park"])
def path(request, monkeypatch):
    monkeypatch.setattr(process_backend, "_may_spin",
                        lambda nranks: request.param == "spin")
    return request.param


def _run(body, nranks=2, **kwargs):
    kwargs.setdefault("timeout", 60.0)
    return mpi.run_spmd(body, nranks, backend="process", **kwargs)


def _flood_body(comm, n):
    other = 1 - comm.rank
    dup = comm.dup()
    for i in range(n):  # eager: nobody receives until both are done
        (comm if i % 2 else dup).send((comm.rank, i), dest=other)
    evens = [dup.recv(source=other) for _ in range(n // 2)]
    odds = [comm.recv(source=other) for _ in range(n // 2)]
    world = comm.context.world
    return (evens == [(other, i) for i in range(0, n, 2)]
            and odds == [(other, i) for i in range(1, n, 2)],
            world.may_spin, world.routes["queue"])


def test_flood_of_eager_sends_neither_deadlocks_nor_reorders(path):
    n = 10_000
    for ok, spins, queued in _run(_flood_body, args=(n,)):
        assert ok
        assert spins == (path == "spin")
        assert queued >= n


def _mixed_body(comm):
    sizes = [16, 1 << 20, 16, RING_CAPACITY // 2 + 1, 16, 1 << 20, 16]
    if comm.rank == 0:
        for i, n in enumerate(sizes):
            comm.send({"i": i, "a": np.full(n, i, np.uint8)}, dest=1)
            comm.Send(np.full(3, i, np.float64), 1)
        return dict(comm.context.world.shm.routes)
    out = []
    for i, n in enumerate(sizes):
        obj = comm.recv(source=0)
        small = np.empty(3)
        comm.Recv(small, 0)
        out.append(obj["i"] == i and obj["a"].size == n
                   and bool((obj["a"] == i).all()) and (small == i).all())
    return all(out)


def test_small_records_interleave_in_order_with_bulk_frames(path):
    routes, ok = _run(_mixed_body)
    assert ok
    assert routes["ring"] > 0 and routes["segment"] > 0


def _revoke_body(comm):
    dup = comm.dup()
    if comm.rank == 0:
        comm.send("before", dest=1, tag=7)
        dup.revoke()
        return None
    try:
        dup.recv(source=0)
    except CommRevokedError:
        pass
    # the data frame preceded the revoke: it is already here
    return comm.iprobe(source=0, tag=7), comm.recv(source=0, tag=7)


def test_frame_sent_before_a_revoke_arrives_first(path):
    assert _run(_revoke_body)[1] == (True, "before")


def _reset_then_send_body(comm, n):
    world = comm.context.world
    exact = 0
    for i in range(n):
        if comm.rank == 0:
            world.reset_all_counters()  # a control frame to rank 1 ...
            comm.send(i, dest=1)  # ... then a record right behind it
            comm.recv(source=1)
            # rank 1 applied the reset before it took the record, so its
            # one reply is all it has sent since
            exact += world.fetch_counters(1).sends == 1
        else:
            comm.recv(source=0)
            comm.send(i, dest=0)
    return exact


def test_a_record_never_overtakes_a_control_frame_sent_before_it(path):
    n = 300
    assert _run(_reset_then_send_body, args=(n,))[0] == n


def _kill_body(comm):
    if comm.rank == 1:
        comm.send("last words", dest=0)
        os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(0.5)  # the death lands before the receive
    return comm.recv(source=1)


def test_frame_sent_before_a_sigkill_is_received(path):
    res = _run(_kill_body, fault_mode="failstop")
    assert res[0] == "last words"
    assert isinstance(res[1], RuntimeError)


def _full_queue_body(comm):
    if comm.rank == 1:
        comm.send(os.getpid(), dest=0)
        time.sleep(60)  # stopped, then killed, long before this ends
        return None
    pid = comm.recv(source=1)
    os.kill(pid, signal.SIGSTOP)  # nobody drains the queue any more
    killed_at = []

    def kill():
        time.sleep(0.5)
        killed_at.append(time.monotonic())
        os.kill(pid, signal.SIGKILL)

    killer = threading.Thread(target=kill)
    killer.start()
    payload = np.zeros(64)  # ~600-byte records: the queue fills quickly
    try:
        for _ in range(5000):
            comm.send(payload, dest=1)
        done = time.monotonic()
    finally:
        killer.join()
    return done - killed_at[0]


def test_full_queue_to_a_killed_consumer_releases_the_sender(path):
    after_kill = _run(_full_queue_body, fault_mode="failstop")[0]
    # the flood blocked on the full queue until the kill, and returned
    # within one 0.25 s wake of it (plus scheduling slack)
    assert 0 <= after_kill < 0.25 + 0.5


def _pingpong_body(comm, n):
    buf = np.zeros(1)
    other = 1 - comm.rank
    for _ in range(n):
        if comm.rank == 0:
            comm.Send(buf, other)
            comm.Recv(buf, other)
        else:
            comm.Recv(buf, other)
            comm.Send(buf, other)
        comm.Allreduce(buf, buf.copy())
    world = comm.context.world
    sends = world.counters[comm.rank].snapshot().sends
    return dict(world.routes), sends


def test_every_data_message_is_a_queue_record(path):
    for routes, sends in _run(_pingpong_body, args=(200,)):
        assert set(routes) <= {"queue", "doorbell", "control"}
        assert routes["queue"] == sends
        assert routes["doorbell"] <= routes["queue"]
        if path == "park":
            assert routes["doorbell"] > 0


def _repro_segments():
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith(SHM_PREFIX)}
    except OSError:
        return set()


def test_no_shared_memory_leftovers(path):
    before = _repro_segments()
    _run(_flood_body, args=(2000,))
    _run(_mixed_body)
    with pytest.raises(Exception):
        _run(_kill_body)  # abort mode: the death is an error
    assert _repro_segments() <= before


def test_the_process_transport_refuses_a_host_without_store_order(
        monkeypatch):
    # the queue's credit return relies on x86-64's store order
    monkeypatch.setattr(process_backend, "FENCED", False)
    with pytest.raises(mpi.MPIError, match="x86-64"):
        _run(_flood_body, args=(2,))
    a, b = socket.socketpair()
    try:
        with pytest.raises(mpi.MPIError, match="x86-64"):
            process_backend.ProcessWorld(2, 0, "no-session", {1: a})
    finally:
        a.close()
        b.close()
