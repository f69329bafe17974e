"""No orphaned shared-memory segments, even after SIGKILL teardown.

The shm protocol already minimizes the leak window (receivers unlink a
ring's or segment's /dev/shm name the moment they map it), but a rank
killed between export and map leaves a named segment behind.  The parent
sweeps its session's prefix at shutdown and again at interpreter exit;
these tests SIGKILL ranks mid-transfer and assert /dev/shm ends clean.
"""

import os
import signal

import numpy as np
import pytest

from repro import mpi, odin
from repro.mpi.errors import AbortError, RankFailure
from repro.mpi.transport.shm import SHM_PREFIX, segment_names
from repro.odin.context import OdinContext


MIB = 1 << 20


def _repro_segments():
    try:
        return [n for n in os.listdir("/dev/shm")
                if n.startswith(SHM_PREFIX)]
    except OSError:
        return []


def test_clean_run_leaves_no_segments():
    before = set(_repro_segments())

    def body(comm):
        big = np.arange(40_000, dtype=np.float64)  # 320 KB: shm path
        if comm.rank == 0:
            comm.send({"x": big}, dest=1)
        else:
            comm.recv(source=0)
        return None

    mpi.run_spmd(body, 2, backend="process")
    assert set(_repro_segments()) <= before


def test_sigkill_mid_transfer_leaves_no_segments():
    before = set(_repro_segments())

    def body(comm):
        big = np.arange(100_000, dtype=np.float64)
        if comm.rank == 0:
            # keep exporting segments at the receiver; it dies mid-stream
            for _ in range(50):
                comm.send({"x": big}, dest=1)
            return None
        for _ in range(3):
            comm.recv(source=0)
        os.kill(os.getpid(), signal.SIGKILL)

    with pytest.raises((RankFailure, AbortError, RuntimeError)):
        mpi.run_spmd(body, 2, backend="process", timeout=30.0)
    assert set(_repro_segments()) <= before


def test_odin_worker_sigkill_sweeps_session():
    before = set(_repro_segments())
    ctx = OdinContext(2, backend="process", timeout=30.0)
    session = ctx.world.session_id
    try:
        x = odin.array(np.arange(90_000, dtype=np.float64), ctx=ctx)
        x.gather()  # large blocks crossed the shm path both ways
        os.kill(ctx.worker_pids()[1], signal.SIGKILL)
        with pytest.raises((RankFailure, AbortError)):
            for _ in range(5):
                x.gather()
    finally:
        ctx.shutdown()
    assert segment_names(session) == []
    assert set(_repro_segments()) <= before


def test_sigkill_after_rings_exist_leaves_no_segments():
    before = set(_repro_segments())

    def body(comm):
        frame = np.ones(MIB // 8)  # 1 MiB: the ring path
        if comm.rank == 0:
            # keep streaming: the ring fills once the receiver is gone,
            # and later frames fall back to one-off segments
            for _ in range(60):
                comm.Send(frame, 1)
            return None
        comm.Send(frame, 0)  # rank 1's own ring to rank 0 exists too
        for _ in range(3):
            comm.Recv(frame, 0)
        os.kill(os.getpid(), signal.SIGKILL)

    with pytest.raises((RankFailure, AbortError, RuntimeError)):
        mpi.run_spmd(body, 2, backend="process", timeout=30.0)
    assert set(_repro_segments()) <= before
