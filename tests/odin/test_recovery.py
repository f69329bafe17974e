"""ODIN fault recovery: partner checkpoints, op-log replay, shrink.

Faults are injected by raising :class:`InjectedFault` inside an
``@odin.local`` function on a chosen worker -- the same mechanism the
chaos harness uses.  The "once" marker is a file, which every worker
sees on either backend.  Each test owns its context (the default fixture
pool must not be cross-contaminated by shrinks).
"""

import os

import numpy as np
import pytest

from repro import odin
from repro.metrics import REGISTRY as _MX
from repro.mpi.errors import InjectedFault
from repro.odin import tabular


def _killer(name, victim_windex, killed):
    """An ``@odin.local`` identity fn that kills one worker, once: the
    victim creates the file *killed* before it dies."""
    @odin.local
    def boom(a):
        if odin.worker_index() == victim_windex and \
                not os.path.exists(killed):
            open(killed, "x").close()
            raise InjectedFault(victim_windex + 1, 0, name)
        return a * 1.0
    return boom


class TestCheckpointReplay:
    def test_crash_after_checkpoint_restores_and_replays(self, tmp_path):
        """Checkpoint, then more ops, then a crash: state restores from
        the partner copies and the post-checkpoint ops replay."""
        ctx = odin.init(3, recover=True)
        try:
            src = np.arange(30.0)
            x = odin.array(src)
            y = x * 2.0
            nbytes = ctx.checkpoint()
            assert nbytes > 0
            z = y + 1.0                     # logged after the checkpoint
            killed = tmp_path / "killed"
            w = _killer("post-ckpt crash", 1, killed)(z)
            assert ctx.nworkers == 2
            expect = src * 2.0 + 1.0
            assert np.array_equal(np.asarray(z), expect)
            assert np.array_equal(np.asarray(w), expect)
            # post-recovery liveness: fresh ops on the shrunk pool
            assert float(odin.sum(z)) == float(expect.sum())
        finally:
            odin.shutdown()

    def test_crash_without_checkpoint_replays_full_log(self, tmp_path):
        """No explicit checkpoint: version 0 is the empty baseline and
        the whole op-log (including the scatter) replays."""
        ctx = odin.init(4, recover=True)
        try:
            src = np.linspace(0.0, 1.0, 101)
            x = odin.array(src)
            y = odin.sin(x) + x * 3.0
            killed = tmp_path / "killed"
            _killer("empty-baseline crash", 2, killed)(y)
            assert ctx.nworkers == 3
            expect = np.sin(src) + src * 3.0
            # replay is deterministic re-execution: bit-identical
            assert np.array_equal(np.asarray(y), expect)
        finally:
            odin.shutdown()

    def test_groupby_replays_with_fresh_counts(self, tmp_path):
        """A GROUPBY's output length per worker depends on the worker
        count: replayed on the shrunk pool, its table gets the counts
        the replay produced, and every key's aggregate survives."""
        ctx = odin.init(4, recover=True)
        try:
            rec = np.zeros(400, dtype=[("k", "i8"), ("v", "f8")])
            rec["k"] = np.arange(400) % 13 - 6
            rec["v"] = np.arange(400.0)
            t = tabular.from_records(rec)
            agg = tabular.group_aggregate(t, "k", "v", op="sum")
            killed = tmp_path / "killed"
            _killer("post-groupby crash", 1, killed)(odin.ones(8))
            assert ctx.nworkers == 3
            assert len(agg.dist.counts()) == 3
            assert sum(agg.dist.counts()) == 13
            out = agg.gather()
            order = np.argsort(out["key"])
            assert np.array_equal(out["key"][order], np.arange(-6, 7))
            want = [rec["v"][rec["k"] == k].sum() for k in range(-6, 7)]
            assert np.array_equal(out["value"][order], want)
        finally:
            odin.shutdown()

    def test_successive_crashes_shrink_to_one(self, tmp_path):
        """Two crashes in a row: checkpoint generation bookkeeping must
        compose across shrinks (3 -> 2 -> 1 workers)."""
        ctx = odin.init(3, recover=True)
        try:
            src = np.arange(24.0)
            z = odin.array(src) * 2.0 + 1.0
            expect = src * 2.0 + 1.0
            killed = tmp_path / "killed"
            _killer("first", 1, killed)(z)
            assert ctx.nworkers == 2
            _killer("second", 1, tmp_path / "killed-again")(z)
            assert ctx.nworkers == 1
            assert np.array_equal(np.asarray(z), expect)
        finally:
            odin.shutdown()

    def test_one_axis_grid_array_restores(self, tmp_path):
        """A grid over one axis is located by grid coordinates; it is
        restored through the same redistribution planner as any other
        layout, onto a one-axis grid over the survivors."""
        ctx = odin.init(3, recover=True)
        try:
            src = np.arange(70.0).reshape(10, 7)
            g = odin.array(src, dist=odin.GridDistribution(src.shape, (0,),
                                                           (3,)))
            ctx.checkpoint()
            killed = tmp_path / "killed"
            _killer("grid crash", 2, killed)(g)
            assert ctx.nworkers == 2
            assert np.array_equal(np.asarray(g), src)
        finally:
            odin.shutdown()

    def test_auto_checkpoint_every_n_ops(self, tmp_path):
        ctx = odin.init(3, recover=True, ckpt_every=2)
        try:
            a = odin.array(np.arange(12.0))
            d = ((a + 1.0) * 2.0) - 3.0     # enough logged ops to trigger
            assert ctx._ckpt_version >= 1
            killed = tmp_path / "killed"
            _killer("after auto ckpt", 0, killed)(d)
            assert ctx.nworkers == 2
            assert np.array_equal(np.asarray(d),
                                  (np.arange(12.0) + 1.0) * 2.0 - 3.0)
        finally:
            odin.shutdown()

    def test_env_vars_enable_recovery_and_auto_checkpoint(self, monkeypatch):
        monkeypatch.setenv("REPRO_ODIN_RECOVER", "1")
        monkeypatch.setenv("REPRO_ODIN_CKPT", "2")
        ctx = odin.init(2)
        try:
            assert ctx._recover and ctx._ckpt_every == 2
        finally:
            odin.shutdown()

    def test_checkpoint_requires_recovery_mode(self):
        ctx = odin.init(2)
        try:
            with pytest.raises(RuntimeError, match="recover"):
                ctx.checkpoint()
        finally:
            odin.shutdown()

    def test_recovery_metrics_and_trace(self, tmp_path):
        """Detections, shrinks, replayed ops and checkpoint bytes are
        visible through repro.metrics."""
        _MX.clear()
        _MX.enable()
        try:
            ctx = odin.init(3, recover=True)
            z = odin.array(np.arange(10.0)) + 5.0
            ctx.checkpoint()
            z = z * 1.0        # logged after the checkpoint -> replayed
            killed = tmp_path / "killed"
            _killer("metrics crash", 1, killed)(z)
            assert np.array_equal(np.asarray(z), np.arange(10.0) + 5.0)
            odin.shutdown()

            def total(name):
                return sum(m.value for m in _MX.metrics()
                           if m.name == name and hasattr(m, "value"))

            assert total("recover.detections") >= 1
            assert total("recover.shrinks") >= 1
            assert total("recover.replayed_ops") >= 1
            assert total("recover.checkpoints") >= 1
            assert total("recover.ckpt_total_bytes") > 0
        finally:
            _MX.disable()
            _MX.clear()


class TestShutdownWithDeadWorkers:
    """Satellite: teardown must never raise once workers are gone."""

    def test_shutdown_after_abort_does_not_raise(self, tmp_path):
        """Without recovery an injected fault aborts the pool; the
        driver already saw the AbortError -- shutdown() swallows it."""
        ctx = odin.init(2)
        e = odin.array(np.arange(6.0))
        killed = tmp_path / "killed"
        with pytest.raises(Exception):
            _killer("die during op", 1, killed)(e)
        odin.shutdown()   # must not raise

    def test_del_after_shutdown_does_not_raise(self):
        ctx = odin.init(2)
        e = odin.array(np.arange(6.0))
        odin.shutdown()
        del e             # __del__ on a dead context: silent

    def test_shutdown_idempotent_after_recovery(self, tmp_path):
        ctx = odin.init(2, recover=True)
        z = odin.array(np.arange(8.0)) * 3.0
        killed = tmp_path / "killed"
        _killer("crash then close", 0, killed)(z)
        assert ctx.nworkers == 1
        odin.shutdown()
        odin.shutdown()   # second call: no-op, no raise
