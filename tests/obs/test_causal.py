"""Causal op tracing: driver, worker and wire must agree on op_id.

The audit the tentpole promises: for any control op, the driver span,
every worker span and the collective counters tagged on both sides all
carry the same op_id -- including batched epochs (fire-and-forget ops)
and post-shrink recovery replays.
"""

import os

import numpy as np
import pytest

from repro import odin
from repro.mpi.errors import InjectedFault
from repro.obs import causal
from repro.odin import opcodes
from repro.odin.context import OdinContext


def _spans(tracer, cat, name=None):
    return [ev for ev in tracer.events()
            if ev[0] == "X" and ev[1] == cat
            and (name is None or ev[2] == name)]


class TestCausalTLS:
    def test_identity_roundtrip(self):
        causal.clear_current()
        assert causal.current() == (None, None)
        causal.set_current(5, 2)
        assert causal.current() == (5, 2)
        assert causal.current_op_id() == 5
        causal.clear_current()
        assert causal.current_op_id() is None

    def test_rank_thread_registry(self):
        import threading
        causal.note_rank_thread("rank 7")
        try:
            assert causal.rank_threads()[
                threading.get_ident()] == "rank 7"
        finally:
            causal.forget_rank_thread()
        assert threading.get_ident() not in causal.rank_threads()


class TestDriverWorkerAgreement:
    def test_sync_op_ids_agree_end_to_end(self, tracer):
        """Driver span op_id == every worker span op_id == the op_id the
        tagged gather collectives were counted under, on both sides of
        the wire."""
        with OdinContext(3) as ctx:
            x = odin.array(np.arange(30.0), ctx=ctx)
            ctx.flush()          # drain the batched CREATE epoch
            tracer.clear()
            _ = np.asarray(x)    # GATHER: synchronizing round trip
            driver = _spans(tracer, "odin.control", str(opcodes.GATHER))
            assert len(driver) == 1
            oid = driver[0][6]["op_id"]
            assert isinstance(oid, int)
            workers = _spans(tracer, "odin.worker", str(opcodes.GATHER))
            assert len(workers) == 3
            assert {ev[6]["op_id"] for ev in workers} == {oid}
            # wire agreement: every rank's counters saw gather traffic
            # attributed to this op_id (driver = rank 0, workers 1..3)
            for rank in range(4):
                snap = ctx.world.counters[rank].snapshot()
                assert "gather" in snap.by_causal.get(oid, {}), \
                    f"rank {rank} missing causal gather for op {oid}"

    def test_batched_epoch_distinct_ids_one_epoch(self, tracer):
        """Fire-and-forget ops within one epoch carry distinct increasing
        op_ids but one shared epoch_id; the epoch advances at the flush."""
        with OdinContext(2) as ctx:
            ctx.flush()
            epoch0 = ctx.status()["epoch_id"]
            tracer.clear()
            a = odin.array(np.arange(8.0), ctx=ctx)
            b = a * 2.0
            c = b + 1.0
            c = c - 0.5
            asyncs = _spans(tracer, "odin.control")
            ids = [ev[6]["op_id"] for ev in asyncs
                   if ev[2].endswith(".async")]
            assert len(ids) >= 3
            assert ids == sorted(ids) and len(set(ids)) == len(ids)
            epochs = {ev[6]["epoch_id"] for ev in asyncs
                      if ev[2].endswith(".async")}
            assert epochs == {epoch0}
            ctx.flush()
            assert ctx.status()["epoch_id"] == epoch0 + 1
            # worker spans for the batched ops carry the same ids
            worker_ids = {ev[6]["op_id"]
                          for ev in _spans(tracer, "odin.worker")}
            assert set(ids) <= worker_ids
            del b, c

    def test_deferred_error_note_names_originating_op_id(self):
        """A failing fire-and-forget op surfaces at the next sync op,
        annotated with the op_id it was issued under."""
        with OdinContext(2) as ctx:
            ctx.flush()
            issued_before = ctx.status()["op_id"]
            with pytest.raises(KeyError) as ei:
                # a batched ufunc on a nonexistent array id fails on the
                # workers; the error defers to the flush
                ctx.run(opcodes.UFUNC, "negative", (("array", 424242),),
                        ctx.new_array_id())
                ctx.flush()
            notes = getattr(ei.value, "__notes__", [])
            assert any("op_id" in n for n in notes)
            # the noted op_id is the UFUNC broadcast (issued_before + 1),
            # not the flush that delivered it
            assert any(f"op_id {issued_before + 1}" in n for n in notes)

    def test_recovery_replay_ids_stay_consistent(self, tracer, tmp_path):
        """After a crash + shrink + replay, the retried op's spans agree
        under the *fresh* broadcast id (replays re-broadcast through
        _bcast, so driver and survivors stay in lockstep)."""
        ctx = odin.init(3, recover=True)
        try:
            src = np.arange(30.0)
            z = odin.array(src) * 2.0 + 1.0
            killed = tmp_path / "killed"

            @odin.local
            def boom(a):
                if odin.worker_index() == 1 and not os.path.exists(killed):
                    open(killed, "x").close()
                    raise InjectedFault(2, 0, "causal-audit crash")
                return a * 1.0

            tracer.clear()
            pre_op = ctx.status()["op_id"]
            w = boom(z)
            assert ctx.nworkers == 2
            assert np.array_equal(np.asarray(w), src * 2.0 + 1.0)
            # the driver's CALL_LOCAL span records the id of the *last*
            # (successful, post-shrink) broadcast of the retried op --
            # later than the crashed attempt's id, never a reuse
            driver = _spans(tracer, "odin.control",
                            str(opcodes.CALL_LOCAL))
            assert len(driver) == 1
            retry_id = driver[0][6]["op_id"]
            assert retry_id > pre_op + 1  # replay consumed fresh ids
            # both surviving workers executed the retry under that id
            worker_ids = [ev[6]["op_id"]
                          for ev in _spans(tracer, "odin.worker",
                                           str(opcodes.CALL_LOCAL))]
            assert worker_ids.count(retry_id) == 2
            # and the wire agrees: survivor counters attribute gather
            # traffic to the retry id (survivor world ranks come from
            # the shrunk comm -- the dead rank's counters froze)
            for rank in ctx.comm._world_ranks[1:]:
                snap = ctx.world.counters[rank].snapshot()
                assert "gather" in snap.by_causal.get(retry_id, {})
            # the op clock only moved forward
            assert ctx.status()["op_id"] >= retry_id
        finally:
            odin.shutdown()

    def test_rank_failure_carries_op_id(self):
        """Without recovery, the RankFailure surfacing on the driver names
        the control op_id that was in flight."""
        ctx = odin.init(2, recover=True)
        try:
            z = odin.array(np.arange(8.0))
            killed = []

            @odin.local
            def die_both(a):
                raise InjectedFault(odin.worker_index() + 1, 0, "all die")

            with pytest.raises(Exception) as ei:
                die_both(z)
            exc = ei.value
            # every worker died -> unrecoverable RuntimeError chained from
            # a RankFailure that carries the causal op_id
            cause = exc
            while cause is not None and not hasattr(cause, "op_id"):
                cause = cause.__cause__
            assert cause is not None
            assert isinstance(cause.op_id, int)
        finally:
            odin.shutdown()
