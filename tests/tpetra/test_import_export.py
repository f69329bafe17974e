"""Import/Export redistribution plan tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import chaos, mpi, tpetra
from repro.chaos import FaultPlan
from repro.tpetra import CombineMode
from repro.tpetra.import_export import _Plan
from tests.conftest import spmd


def _filled_vector(m, base=0.0):
    v = tpetra.Vector(m)
    v.local_view[...] = m.my_gids.astype(float) + base
    return v


class TestImport:
    def test_block_to_cyclic(self):
        def body(comm):
            n = 12
            src = tpetra.Map.create_contiguous(n, comm)
            tgt = tpetra.Map.create_cyclic(n, comm)
            imp = tpetra.Import(src, tgt)
            x = _filled_vector(src)
            y = tpetra.Vector(tgt)
            y.import_from(x, imp)
            return bool(np.array_equal(y.local_view,
                                       tgt.my_gids.astype(float)))
        assert all(spmd(3)(body))

    def test_identity_import_no_messages(self):
        def body(comm):
            m = tpetra.Map.create_contiguous(9, comm)
            imp = tpetra.Import(m, m)
            return imp.plan.num_messages, imp.num_remote
        assert spmd(3)(body) == [(0, 0)] * 3

    def test_overlapping_target(self):
        """Import onto a one-deep halo (ghosted) map."""
        def body(comm):
            n = 4 * comm.size
            src = tpetra.Map.create_contiguous(n, comm)
            lo, hi = src.min_my_gid, src.max_my_gid
            ghosted = list(range(lo, hi + 1))
            if lo > 0:
                ghosted.append(lo - 1)
            if hi < n - 1:
                ghosted.append(hi + 1)
            tgt = tpetra.Map(n, np.array(ghosted), comm, kind="arbitrary")
            imp = tpetra.Import(src, tgt)
            x = _filled_vector(src)
            y = tpetra.Vector(tgt)
            y.import_from(x, imp)
            return bool(np.array_equal(
                y.local_view, np.array(ghosted, dtype=float)))
        assert all(spmd(4)(body))

    def test_reverse_import_adds(self):
        """Reverse of a ghost import sums ghost contributions to owners."""
        def body(comm):
            n = 3 * comm.size
            src = tpetra.Map.create_contiguous(n, comm)
            lo, hi = src.min_my_gid, src.max_my_gid
            ghosted = list(range(lo, hi + 1))
            if hi < n - 1:
                ghosted.append(hi + 1)
            tgt = tpetra.Map(n, np.array(ghosted), comm, kind="arbitrary")
            imp = tpetra.Import(src, tgt)
            ghost_vals = np.ones((len(ghosted), 1))
            own = tpetra.Vector(src)
            imp.apply_reverse(ghost_vals, own.local, CombineMode.ADD)
            return own.local_view.tolist()
        results = spmd(3)(body)
        flat = [v for r in results for v in r]
        # every owned entry got 1 from itself; first entries of ranks > 0
        # also got 1 from the left neighbor's ghost
        n = len(flat)
        expected = [1.0] * n
        for r in range(1, 3):
            expected[r * 3] = 2.0
        assert flat == expected


class TestExport:
    def test_export_add_assembles(self):
        """Overlapping source contributions sum at the owners."""
        def body(comm):
            n = comm.size + 1
            # every rank contributes to gids r and r+1 (overlapping, so
            # built with the raw Map constructor: not one-to-one)
            src = tpetra.Map(n, np.array([comm.rank, comm.rank + 1]),
                             comm, kind="arbitrary")
            tgt = tpetra.Map.create_contiguous(n, comm)
            exp = tpetra.Export(src, tgt)
            contrib = np.ones((2, 1))
            out = tpetra.Vector(tgt)
            exp.apply(contrib, out.local, CombineMode.ADD)
            return out.local_view.tolist()
        results = spmd(3)(body)
        flat = [v for r in results for v in r]
        # gid 0 and gid n-1 get one contribution, interior gids two
        assert flat == [1.0, 2.0, 2.0, 1.0]

    def test_combine_modes(self):
        def body(comm):
            n = 2 * comm.size
            src = tpetra.Map.create_contiguous(n, comm)
            tgt = tpetra.Map.create_cyclic(n, comm)
            imp = tpetra.Import(src, tgt)
            x = _filled_vector(src)
            y = tpetra.Vector(tgt)
            y.putScalar(100.0)
            y.import_from(x, imp, mode=CombineMode.ADD)
            added = y.local_view.copy()
            y.putScalar(-1000.0)
            y.import_from(x, imp, mode=CombineMode.ABSMAX)
            absmax = y.local_view.copy()
            return added.tolist(), absmax.tolist()
        added, absmax = spmd(2)(body)[0]
        # ADD on top of 100
        assert added == [100.0, 102.0]      # rank 0 cyclic owns gids 0, 2
        assert absmax == [-1000.0, -1000.0]  # |..| of -1000 beats values

    def test_import_multivector(self):
        def body(comm):
            n = 8
            src = tpetra.Map.create_contiguous(n, comm)
            tgt = tpetra.Map.create_cyclic(n, comm)
            mv = tpetra.MultiVector(src, 3)
            mv.local[...] = src.my_gids[:, None] * np.array([1, 10, 100])
            out = tpetra.MultiVector(tgt, 3)
            out.import_from(mv, tpetra.Import(src, tgt))
            expected = tgt.my_gids[:, None] * np.array([1, 10, 100])
            return bool(np.array_equal(out.local, expected))
        assert all(spmd(4)(body))


class TestRoundtripProperty:
    @given(n=st.integers(2, 60), p=st.integers(1, 4),
           seed=st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_there_and_back(self, n, p, seed):
        """block -> random arbitrary -> block restores the vector."""
        rng = np.random.default_rng(seed)
        owner = rng.integers(0, p, size=n)

        def body(comm):
            src = tpetra.Map.create_contiguous(n, comm)
            mid_gids = np.nonzero(owner == comm.rank)[0]
            mid = tpetra.Map(n, mid_gids, comm, kind="arbitrary")
            x = _filled_vector(src)
            y = tpetra.Vector(mid)
            y.import_from(x, tpetra.Import(src, mid))
            z = tpetra.Vector(src)
            z.import_from(y, tpetra.Import(mid, src))
            return bool(np.array_equal(z.local_view, x.local_view))
        assert all(spmd(p)(body))


class TestBufferPath:
    """Halo blocks travel as raw buffers, received from named sources in
    plan order."""

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_one_unpickled_message_per_peer(self, backend):
        def body(comm):
            n = 5 * comm.size
            src = tpetra.Map.create_contiguous(n, comm)
            tgt = tpetra.Map.create_cyclic(n, comm)
            imp = tpetra.Import(src, tgt)
            x = _filled_vector(src)
            y = tpetra.Vector(tgt)
            before = comm.traffic_snapshot()
            imp.apply(x.local, y.local)
            delta = comm.traffic_snapshot() - before
            sent = sum(len(lids) for _r, lids in imp.plan.send_plan)
            ok = np.array_equal(y.local_view, tgt.my_gids.astype(float))
            return (ok, delta.sends, imp.plan.num_messages, delta.recvs,
                    len(imp.plan.recv_plan), delta.bytes_sent, 8 * sent,
                    delta.bytes_recvd, 8 * imp.num_remote)
        for row in mpi.run_spmd(body, 3, backend=backend, timeout=60):
            ok, sends, peers, recvs, sources, bsent, want_sent, brecv, \
                want_recv = row
            assert ok and peers == 2 and sources == 2
            assert (sends, recvs) == (peers, sources)
            # itemsize x elements: no pickle framing on the wire
            assert (bsent, brecv) == (want_sent, want_recv)

    def test_execute_uses_only_buffer_send_and_named_recv(self):
        class Recording:
            """The communicator, logging every method the plan calls."""

            def __init__(self, comm):
                self.comm, self.calls = comm, []

            def __getattr__(self, name):
                method = getattr(self.comm, name)

                def logged(*args, **kwargs):
                    self.calls.append((name, args[1:]))
                    return method(*args, **kwargs)
                return logged

        def body(comm):
            m = tpetra.Map.create_contiguous(12, comm)
            imp = tpetra.Import(m, tpetra.Map.create_cyclic(12, comm))
            y = tpetra.Vector(imp.target)
            rec = Recording(comm)
            imp.plan.execute(rec, _filled_vector(m).local, y.local,
                             CombineMode.INSERT, tag=imp._tag)
            return rec.calls, [r for r, _l in imp.plan.recv_plan]
        for calls, sources in spmd(3)(body):
            names = [name for name, _a in calls]
            assert names == ["Send", "Send", "Recv", "Recv"]
            # receives name their source, in plan order
            assert [a[0] for _n, a in calls[2:]] == sources

    @pytest.mark.parametrize("expected_rows", [2, 4])
    def test_block_of_wrong_size_is_refused(self, expected_rows):
        """Recv accepts a shorter message, so a short block must be
        caught by its byte count; a longer one overflows the buffer.
        Either way the plan refuses before combining anything."""
        def body(comm):
            lids = np.arange(3, dtype=np.int64)
            none = np.zeros(0, dtype=np.int64)
            if comm.rank == 0:
                plan = _Plan([(1, lids)], [], none, none)
            else:
                plan = _Plan([], [(0, np.arange(expected_rows))], none, none)
            tgt = np.full((4, 1), -1.0)
            try:
                plan.execute(comm, np.ones((4, 1)), tgt, CombineMode.ADD,
                             tag=99)
            except mpi.TruncationError:
                return "refused", tgt.ravel().tolist()
            return "ok", tgt.ravel().tolist()
        sender, receiver = spmd(2)(body)
        assert sender == ("ok", [-1.0] * 4)
        assert receiver == ("refused", [-1.0] * 4)

    def test_truncated_in_flight_is_typed(self):
        def body(comm):
            m = tpetra.Map.create_contiguous(16, comm)
            imp = tpetra.Import(m, tpetra.Map.create_cyclic(16, comm))
            y = tpetra.Vector(imp.target)
            comm.Barrier()
            # rank 0's halo sends are the only sends after the install:
            # the fault rule only matches rank 0
            if comm.rank == 0:
                chaos.install(FaultPlan(seed=1).truncate(keep=0.5,
                                                         rank=0))
            imp.apply(_filled_vector(m).local, y.local)
        try:
            with pytest.raises((mpi.TruncationError, mpi.AbortError)) as e:
                spmd(2)(body)
        finally:
            chaos.uninstall()
        assert "halo block from rank 0" in repr(e.value)

    def test_overlapping_add_export_is_bit_identical_across_backends(self):
        """Every rank contributes to every gid with values of mixed
        magnitude, so the sum depends on the order of the additions: both
        backends must combine in plan order (own rows, then sources by
        rank) and give the same bits."""
        n, p = 6, 3
        rng = np.random.default_rng(7)
        contrib = rng.standard_normal((p, n)) * \
            10.0 ** rng.integers(-8, 9, size=(p, n))

        def body(comm):
            src = tpetra.Map(n, np.arange(n), comm, kind="arbitrary")
            tgt = tpetra.Map.create_contiguous(n, comm)
            out = tpetra.Vector(tgt)
            tpetra.Export(src, tgt).apply(contrib[comm.rank][:, None],
                                          out.local, CombineMode.ADD)
            return out.local_view.tobytes()
        expected = []
        for gid in range(n):
            owner = gid * p // n
            total = 0.0 + contrib[owner, gid]
            for r in range(p):
                if r != owner:
                    total += contrib[r, gid]
            expected.append(total)
        got = {be: b"".join(mpi.run_spmd(body, p, backend=be, timeout=60))
               for be in ("thread", "process")}
        assert got["thread"] == got["process"] == \
            np.array(expected).tobytes()
