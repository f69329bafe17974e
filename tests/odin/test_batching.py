"""Control-plane batching semantics (PR 4).

Fire-and-forget ops collapse N bcast+gather round trips into N bcast +
one gather; worker errors from a batched epoch are delivered -- original
type preserved, originating op named -- at the next synchronizing op or
explicit flush().
"""

import gc

import numpy as np
import pytest

from repro import odin
from repro.mpi.errors import InjectedFault
from repro.odin import opcodes
from repro.odin.context import ASYNC_OPCODES, OdinContext
from repro.odin.creation import _create


@pytest.fixture
def ctx():
    with OdinContext(3) as c:
        yield c


class TestBatchedResults:
    def test_create_store_gather_roundtrip(self, ctx):
        x = odin.zeros(99, ctx=ctx)
        y = odin.sin(x) + 1.0
        assert np.allclose(y.gather(), np.ones(99))

    def test_batch_off_matches_batch_on(self):
        results = {}
        for batch in (True, False):
            with OdinContext(3, batch=batch) as ctx:
                x = odin.arange(500, ctx=ctx, dtype=np.float64)
                y = x.redistribute(
                    odin.CyclicDistribution((500,), 0, 3))
                z = odin.sqrt(y * y)
                results[batch] = z.gather()
        assert np.array_equal(results[True], results[False])

    def test_scatter_is_acknowledged_lazily(self, ctx):
        data = np.random.default_rng(0).normal(size=(40, 5))
        x = odin.array(data, ctx=ctx)
        assert np.allclose(x.gather(), data)

    def test_flush_is_idempotent(self, ctx):
        odin.zeros(10, ctx=ctx)
        ctx.flush()
        ctx.flush()


class TestDeferredErrors:
    def test_error_surfaces_at_next_sync_with_op_named(self, ctx):
        dist = odin.GridDistribution((10, 10), (0, 1), (1, 3))
        with pytest.raises(ValueError) as excinfo:
            # index-dependent fill on a 2-D grid fails on the workers;
            # the CREATE is fire-and-forget so the error is deferred
            _create(ctx, dist, np.float64, ("arange", 0.0, 1.0))
            ctx.flush()
        notes = getattr(excinfo.value, "__notes__", [])
        assert any(opcodes.CREATE in n for n in notes)

    def test_error_type_is_preserved(self, ctx):
        with pytest.raises(KeyError):
            ctx.run(opcodes.UFUNC, "negative",
                    (("array", 424242),), ctx.new_array_id())
            ctx.flush()

    def test_earliest_deferred_error_wins(self, ctx):
        bad_ufunc_in = (("array", 555555),)
        with pytest.raises(KeyError, match="555555"):
            ctx.run(opcodes.UFUNC, "negative", bad_ufunc_in,
                    ctx.new_array_id())
            ctx.run(opcodes.UFUNC, "negative", (("array", 666666),),
                    ctx.new_array_id())
            ctx.flush()

    def test_epoch_clears_after_delivery(self, ctx):
        with pytest.raises(KeyError):
            ctx.run(opcodes.UFUNC, "negative", (("array", 777777),),
                    ctx.new_array_id())
            ctx.flush()
        # the failed epoch is drained: later work is unaffected
        x = odin.ones(30, ctx=ctx)
        assert x.gather().sum() == 30.0

    def test_shutdown_delivers_trailing_deferred_errors(self):
        ctx = OdinContext(2)
        ctx.run(opcodes.UFUNC, "negative", (("array", 888888),),
                ctx.new_array_id())
        with pytest.raises(KeyError):
            ctx.shutdown()
        assert not ctx._alive

    def test_sync_op_error_still_raises_immediately(self, ctx):
        with pytest.raises(KeyError):
            ctx.gather(131313)  # GATHER synchronizes: no deferral


class TestBatchPolicy:
    def test_result_bearing_opcodes_are_not_async(self):
        for code in (opcodes.GATHER, opcodes.FETCH, opcodes.REDUCE,
                     opcodes.CALL_LOCAL, opcodes.TRANSFORM,
                     opcodes.GROUPBY, opcodes.SAVE, opcodes.LOAD,
                     opcodes.PLAN_STATS):
            assert code not in ASYNC_OPCODES

    def test_env_var_disables_batching(self, monkeypatch):
        monkeypatch.setenv("REPRO_ODIN_BATCH", "0")
        with OdinContext(2) as ctx:
            assert ctx._batch is False
            x = odin.zeros(8, ctx=ctx)
            assert x.gather().sum() == 0.0

    def test_epoch_cap_auto_flushes(self):
        import repro.odin.context as context_mod
        orig = context_mod._EPOCH_CAP
        context_mod._EPOCH_CAP = 8
        try:
            with OdinContext(2) as ctx:
                for _ in range(20):
                    odin.zeros(4, ctx=ctx)
                assert ctx._epoch_len < 8
        finally:
            context_mod._EPOCH_CAP = orig

    def test_pending_deletes_ride_the_epoch(self, ctx):
        x = odin.zeros(64, ctx=ctx)
        array_id = x.array_id
        del x
        # the queued delete joins the next op's epoch (one broadcast, no
        # extra gather); the id must be gone on the workers afterwards
        odin.zeros(8, ctx=ctx)
        ctx.flush()
        with pytest.raises(KeyError):
            ctx.gather(array_id)


def _pinned_program(ctx):
    """Scatter, two ufuncs, a GC'd delete, a redistribution, a sum, an
    explicit flush and a gather: every route onto the control wire."""
    src = np.arange(48.0)
    x = odin.array(src, ctx=ctx)
    y = x * 2.0
    z = y + 1.0
    del y                     # queued; drained ahead of the next op
    w = z.redistribute(odin.CyclicDistribution((48,), 0, ctx.nworkers))
    total = float(w.sum())
    ctx.flush()
    expect = src * 2.0 + 1.0
    assert total == expect.sum()
    assert np.array_equal(w.gather(), expect)


class TestWireSchedule:
    """The driver's wire traffic for one fixed program, pinned exactly.

    Batching changes only the envelope (an ASYNC wrapper adds bytes) and
    the number of status gathers; the bcast and scatter schedule is the
    same either way.
    """

    # batch -> (control_traffic(), driver coll_calls, final op_id)
    PINNED = {
        True: ((19, 2452), {("bcast", "binomial-tree"): 8,
                            ("gather", "linear-root"): 3,
                            ("scatter", "linear-root"): 1}, 8),
        False: ((19, 2352), {("bcast", "binomial-tree"): 8,
                             ("gather", "linear-root"): 8,
                             ("scatter", "linear-root"): 1}, 8),
    }

    @pytest.mark.parametrize("batch", [True, False])
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_pinned_wire_schedule(self, backend, batch):
        with OdinContext(3, batch=batch, backend=backend) as ctx:
            # no array of this fresh context can queue a delete yet, and
            # a flush here would move the pinned op_id: collect only
            gc.collect()
            ctx.reset_counters()
            _pinned_program(ctx)
            traffic = ctx.control_traffic()
            coll = ctx.world.counters[0].snapshot().coll_calls
            status = ctx.status()
        want_traffic, want_coll, want_op_id = self.PINNED[batch]
        assert traffic == want_traffic
        assert coll == want_coll
        assert status["op_id"] == want_op_id
        gathers = coll[("gather", "linear-root")]
        if batch:
            # sum, flush and gather close epochs; everything else rides
            assert status["epoch_id"] == 3
        else:
            # every status gather closes an epoch, the delete drain's too
            assert status["epoch_id"] == gathers

    @pytest.mark.parametrize("batch", [True, False])
    def test_logged_scatter_replays_after_crash(self, batch):
        """A crash after a scatter: recovery re-sends the pinned copy of
        the scattered data onto the shrunk pool (thread workers: the
        crash closure's state must be shared with the driver)."""
        src = np.linspace(-1.0, 1.0, 37)
        with OdinContext(3, batch=batch, recover=True,
                         backend="thread") as ctx:
            x = odin.array(src, ctx=ctx)
            y = odin.sin(x) * 3.0
            killed = []

            @odin.local
            def crash_once(a):
                if not killed and odin.worker_index() == 1:
                    killed.append(1)
                    raise InjectedFault(2, 0, "scatter replay crash")
                return a * 1.0

            w = crash_once(y)
            assert ctx.nworkers == 2
            expect = np.sin(src) * 3.0
            assert np.array_equal(x.gather(), src)
            assert np.array_equal(y.gather(), expect)
            assert np.array_equal(w.gather(), expect)
