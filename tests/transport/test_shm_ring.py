"""Per-peer shared-memory rings for bulk frames on the process transport.

Pool-level tests drive :class:`ShmPool` directly: two pools of one
session stand for a sender and a receiver, so ring placement (aligned
slots, wrap, reset to offset 0 when empty, the segment fallback when
full or oversized) is checked without a second process.  The rest runs
real worlds on both transports.
"""

import os

import numpy as np
import pytest

from repro import chaos, mpi
from repro.chaos import FaultPlan
from repro.mpi.transport.shm import (RING_CAPACITY, SHM_PREFIX, ShmPool,
                                     new_session_id, segment_names,
                                     shm_threshold, sweep_session)

MIB = 1 << 20
LIMIT = RING_CAPACITY // 2  # the largest frame a ring takes

needs_rings = pytest.mark.skipif(
    not ShmPool("probe", 0).rings,
    reason="rings need x86-64 store order; other ISAs use segments only")


@pytest.fixture
def pair():
    """A sender pool (rank 0) and a receiver pool (rank 1), one session."""
    session = new_session_id()
    tx, rx = ShmPool(session, 0), ShmPool(session, 1)
    yield tx, rx
    tx.close()
    rx.close()
    sweep_session(session)


def _frame(nbytes, seed):
    return np.random.default_rng(seed).integers(
        0, 256, nbytes, dtype=np.uint8)


@needs_rings
def test_wrap_and_drain_arrive_bit_identical(pair):
    tx, rx = pair
    frames = [_frame(6 * MIB + 100, s) for s in range(4)]
    a = tx.export(frames[0], 1)
    b = tx.export(frames[1], 1)
    got = [rx.restore(a, 0)]
    c = tx.export(frames[2], 1)  # does not fit before the end: wraps
    got += [rx.restore(b, 0), rx.restore(c, 0)]
    d = tx.export(frames[3], 1)  # the ring drained: back to offset 0
    got.append(rx.restore(d, 0))
    assert [p[0] for p in (a, b, c, d)] == ["ring"] * 4
    assert a[1] == 0 and b[1] == 6 * MIB + 128 and c[1] == 0 and d[1] == 0
    for sent, arrived in zip(frames, got):
        assert arrived.flags.writeable is False
        assert arrived.tobytes() == sent.tobytes()


@needs_rings
def test_full_ring_falls_back_then_resumes(pair):
    tx, rx = pair
    frames = [_frame(4 * MIB, s) for s in range(6)]
    placed = [tx.export(f, 1) for f in frames[:5]]  # nothing imported
    assert [p[0] for p in placed] == ["ring"] * 4 + ["shm"]
    assert tx.routes == {"ring": 4, "segment": 1}
    got = [rx.restore(placed[0], 0)]
    placed.append(tx.export(frames[5], 1))  # the credit came back
    assert placed[5][0] == "ring" and placed[5][1] == 0
    got += [rx.restore(p, 0) for p in placed[1:]]
    for sent, arrived in zip(frames, got):
        assert arrived.tobytes() == sent.tobytes()


@needs_rings
def test_ring_limit_is_half_the_capacity(pair):
    tx, rx = pair
    at_limit, over = _frame(LIMIT, 1), _frame(LIMIT + 1, 2)
    p, q = tx.export(at_limit, 1), tx.export(over, 1)
    assert (p[0], q[0]) == ("ring", "shm")
    assert rx.restore(p, 0).tobytes() == at_limit.tobytes()
    assert rx.restore(q, 0).tobytes() == over.tobytes()


def test_names_are_unlinked_when_mapped(pair):
    tx, rx = pair
    placement = tx.export(_frame(LIMIT + 1, 3), 1)
    assert segment_names(tx.session_id) != []
    frame = rx.restore(placement, 0)
    assert segment_names(tx.session_id) == []
    assert frame.flags.writeable is False
    with pytest.raises(ValueError):
        frame.flags.writeable = True  # a read-only mapping underneath


# ----------------------------------------------------------------------
# real worlds: thread and process transports agree bit for bit
# ----------------------------------------------------------------------
SIZES = (shm_threshold() - 1, shm_threshold(), MIB, LIMIT, LIMIT + 1)


def _exchange_body(comm):
    r, p = comm.rank, comm.size
    out = {}
    for n in SIZES:
        mine = _frame(n, 10 * n + r)
        if r == 0:
            comm.Send(mine, 1)
        elif r == 1:
            got = np.empty(n, np.uint8)
            comm.Recv(got, 0)
            out[("Send", n)] = got
        root = _frame(n, n) if r == 0 else np.empty(n, np.uint8)
        comm.Bcast(root, root=0)
        out[("Bcast", n)] = root
        summed = np.empty(n, np.uint8)
        comm.Allreduce(mine, summed)
        out[("Allreduce", n)] = summed
        blocks = comm.alltoall([{"from": r, "a": _frame(n, 7 * n + r + d)}
                                for d in range(p)])
        out[("alltoall", n)] = [(b["from"], b["a"]) for b in blocks]
    world = comm.context.world
    routes = dict(world.shm.routes) if hasattr(world, "shm") else None
    return out, routes


def test_thread_and_process_agree_across_the_ring_limits():
    thread = mpi.run_spmd(_exchange_body, 3, backend="thread", timeout=60.0)
    process = mpi.run_spmd(_exchange_body, 3, backend="process",
                           timeout=60.0)
    for (t_out, _), (p_out, routes) in zip(thread, process):
        assert t_out.keys() == p_out.keys()
        for key, want in t_out.items():
            got = p_out[key]
            if key[0] == "alltoall":
                assert [s for s, _ in got] == [s for s, _ in want]
                for (_, x), (_, y) in zip(got, want):
                    assert x.tobytes() == y.tobytes(), key
            else:
                assert got.tobytes() == want.tobytes(), key
        if ShmPool("probe", 0).rings:
            assert routes["ring"] > 0 and routes["segment"] > 0
    # and the values are the right ones
    n = SIZES[2]
    want = sum(_frame(n, 10 * n + r).astype(np.uint64) for r in range(3))
    assert thread[0][0][("Allreduce", n)].tobytes() \
        == want.astype(np.uint8).tobytes()
    assert thread[1][0][("Send", n)].tobytes() \
        == _frame(n, 10 * n).tobytes()


def _mutate_after_send_body(comm):
    sizes = (1024, MIB, LIMIT + 1)  # inline, ring, segment
    if comm.rank == 0:
        for n in sizes:
            buf = _frame(n, n)
            comm.Send(buf, 1)
            buf[:] = 0
            obj = {"a": _frame(n, n + 1)}
            comm.send(obj, dest=1)
            obj["a"][:] = 0
        return True
    ok = True
    for n in sizes:
        got = np.empty(n, np.uint8)
        comm.Recv(got, 0)
        obj = comm.recv(source=0)
        ok &= got.tobytes() == _frame(n, n).tobytes()
        ok &= obj["a"].tobytes() == _frame(n, n + 1).tobytes()
    return ok


@pytest.mark.parametrize("armed", [False, True], ids=["calm", "chaos"])
def test_sender_may_reuse_its_buffer_at_once(backend, armed):
    if armed:
        chaos.install(FaultPlan(seed=3, max_sleep=0.01)
                      .delay(seconds=0.002, prob=0.5, op="send"))
    try:
        assert mpi.run_spmd(_mutate_after_send_body, 2, backend=backend,
                            timeout=60.0) == [True, True]
    finally:
        if armed:
            chaos.uninstall()


def _drop_segments_body(comm):
    n = 9 * MIB  # above the ring limit: one-off segments
    if comm.rank == 0:
        for i in range(20):
            comm.Send(np.full(n, i, np.uint8), 1)
            comm.send({"a": np.full(n, i, np.uint8)}, dest=1)
        comm.Barrier()
        return None
    got = np.empty(n, np.uint8)
    for i in range(20):
        comm.Recv(got, 0)
        assert comm.recv(source=0)["a"][-1] == i
    comm.Barrier()
    prefix = SHM_PREFIX + comm.context.world.session_id
    with open("/proc/self/maps") as fh:
        return sum(prefix in line for line in fh)


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                    reason="needs /proc/self/maps")
def test_dropped_segments_are_unmapped():
    assert mpi.run_spmd(_drop_segments_body, 2, backend="process",
                        timeout=120.0)[1] <= 1


def _stream_body(comm, nframes):
    """Every rank streams frames of odd sizes to every peer at once."""
    import sys
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand the GIL between receiver threads
    try:
        r, p = comm.rank, comm.size
        peers = [q for q in range(p) if q != r]

        def size(src, dst, i):
            return int(np.random.default_rng([src, dst, i]).integers(
                shm_threshold(), 3 * MIB))

        ok = True
        for i in range(nframes):
            for q in peers:
                comm.Send(_frame(size(r, q, i), (r, q, i)), q)
            for q in peers:
                n = size(q, r, i)
                got = np.empty(n, np.uint8)
                comm.Recv(got, q)
                ok &= got.tobytes() == _frame(n, (q, r, i)).tobytes()
        return ok
    finally:
        sys.setswitchinterval(switch)


def test_concurrent_streams_arrive_bit_identical():
    # three processes on fewer cores: producers and consumers of every
    # ring run concurrently, with wraps at unaligned sizes
    assert mpi.run_spmd(_stream_body, 3, args=(40,), backend="process",
                        timeout=120.0) == [True, True, True]
