"""Local-mode (@odin.local) and context lifecycle tests."""

import numpy as np
import pytest

from repro import odin
from repro.odin.context import OdinContext
from tests.conftest import settle_counters


@odin.local
def _hypot(x, y):
    return np.sqrt(x ** 2 + y ** 2)


@odin.local
def _scaled(x, factor=2.0):
    return x * factor


@odin.local
def _stats(x):
    return float(x.sum())


@odin.local
def _neighbor_sum(x):
    """Uses the worker communicator directly (Fig. 1 peer traffic)."""
    comm = odin.worker_comm()
    total = comm.allreduce(float(x.sum()))
    return np.full_like(x, total)


class TestLocalFunctions:
    def test_paper_hypot(self, odin4):
        x = odin.random((300, 4), seed=1)
        y = odin.random((300, 4), seed=2)
        h = _hypot(x, y)
        assert isinstance(h, odin.DistArray)
        assert np.allclose(h.gather(),
                           np.hypot(x.gather(), y.gather()))

    def test_kwargs_and_scalars(self, odin4):
        x = odin.ones(20)
        out = _scaled(x, factor=5.0)
        assert np.allclose(out.gather(), 5.0)

    def test_non_array_returns_collected(self, odin4):
        x = odin.ones(40)
        sums = _stats(x)
        assert isinstance(sums, list) and len(sums) == 4
        assert sum(sums) == pytest.approx(40.0)

    def test_worker_comm_collective_inside_local(self, odin4):
        x = odin.arange(16, dtype=np.float64)
        out = _neighbor_sum(x)
        assert np.allclose(out.gather(), np.arange(16.0).sum())

    def test_worker_index_available(self, odin4):
        @odin.local
        def who(x):
            return {"w": odin.worker_index()}
        infos = who(odin.ones(8))
        assert [i["w"] for i in infos] == [0, 1, 2, 3]

    def test_worker_comm_outside_worker_raises(self, odin4):
        with pytest.raises(RuntimeError):
            odin.worker_comm()
        with pytest.raises(RuntimeError):
            odin.worker_index()

    def test_local_call_serial_escape_hatch(self, odin4):
        assert np.allclose(_hypot.local_call(np.array([3.0]),
                                             np.array([4.0])), 5.0)

    def test_exception_in_local_fn_propagates(self, odin4):
        @odin.local
        def broken(x):
            raise ValueError("worker-side failure")
        with pytest.raises(ValueError, match="worker-side failure"):
            broken(odin.ones(4))

    def test_registered_name(self, odin4):
        @odin.local(name="custom.name")
        def fn(x):
            return x
        assert odin.local_registry["custom.name"] is fn.fn


class TestContextLifecycle:
    def test_explicit_context(self):
        ctx = OdinContext(2)
        try:
            a = odin.arange(10, ctx=ctx)
            assert a.dist.nworkers == 2
            assert np.array_equal(a.gather(), np.arange(10))
        finally:
            ctx.shutdown()

    def test_context_manager(self):
        with OdinContext(3) as ctx:
            a = odin.ones(9, ctx=ctx)
            assert a.sum() == 9.0

    def test_shutdown_blocks_further_use(self):
        ctx = OdinContext(2)
        a = odin.ones(4, ctx=ctx)
        ctx.shutdown()
        with pytest.raises(RuntimeError):
            ctx.gather(a.array_id)

    def test_double_shutdown_ok(self):
        ctx = OdinContext(2)
        ctx.shutdown()
        ctx.shutdown()

    def test_single_worker(self):
        with OdinContext(1) as ctx:
            x = odin.linspace(0, 1, 10, ctx=ctx)
            assert np.allclose(x.gather(), np.linspace(0, 1, 10))

    def test_garbage_collected_arrays_freed(self):
        with OdinContext(2) as ctx:
            ids = []
            for _ in range(5):
                tmp = odin.zeros(100, ctx=ctx)
                ids.append(tmp.array_id)
                del tmp
            # the next op drains the pending-delete queue
            keeper = odin.ones(4, ctx=ctx)
            keeper.gather()
            assert ctx._pending_deletes == []
            # the dead ids are really gone from the worker tables
            for dead in ids:
                with pytest.raises(KeyError):
                    ctx.gather(dead)

    def test_worker_error_does_not_kill_context(self, odin4):
        @odin.local
        def sometimes_bad(x):
            raise KeyError("nope")
        with pytest.raises(KeyError):
            sometimes_bad(odin.ones(4))
        # context still functional afterwards
        assert odin.ones(8).sum() == 8.0

    def test_traffic_accessors(self, odin4):
        ctx = odin.get_context()
        settle_counters(ctx)
        _x = odin.zeros(1000)
        ctx.flush()  # the create waits in the epoch buffer until a sync
        msgs, nbytes = ctx.control_traffic()
        assert msgs >= 1
        # a create is control-only: few hundred bytes regardless of the
        # megabyte-scale payload it allocates
        assert nbytes < 4096
