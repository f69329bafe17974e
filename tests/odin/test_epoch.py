"""One message per epoch.

The driver buffers fire-and-forget ops and ships them as one EPOCH
envelope with the op that synchronises (or with a data-carrying
scatter, a full buffer or shutdown).  These tests pin what that must
not change: the values an op computes are those of its issue time,
errors are deferred per record with the record's own op_id, op ids stay
one per op, and the control loop costs a few messages per sync.
"""

import gc
import os

import numpy as np
import pytest

from repro import odin
from repro.mpi.errors import InjectedFault
from repro.odin import opcodes
from repro.odin.context import OdinContext
from repro.trace import TRACER
from tests.conftest import settle_counters


def _row_plus_operand(ctx):
    """``b = a + v``, then the caller's ``v`` changes before any sync."""
    a_np = np.arange(12.0).reshape(4, 3)
    v = np.array([1.0, 2.0, 3.0])
    a = odin.array(a_np, ctx=ctx)
    b = a + v
    c = b * v
    expect_b, expect_c = a_np + v, (a_np + v) * v
    v[:] = 100.0
    return b, c, expect_b, expect_c


class TestOperandSnapshot:
    @pytest.mark.parametrize("batch", [True, False])
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_mutating_an_operand_after_issue(self, backend, batch):
        with OdinContext(2, batch=batch, backend=backend) as ctx:
            b, c, expect_b, expect_c = _row_plus_operand(ctx)
            assert np.array_equal(b.gather(), expect_b)
            assert np.array_equal(c.gather(), expect_c)

    def test_replay_after_crash_uses_issue_time_operands(self, tmp_path):
        """The op-log keeps the snapshot too: a recovery replay after the
        caller mutated the operand recomputes the issue-time values."""
        with OdinContext(3, recover=True) as ctx:
            b, c, expect_b, expect_c = _row_plus_operand(ctx)
            killed = tmp_path / "killed"

            @odin.local
            def crash_once(x):
                if odin.worker_index() == 1 and not os.path.exists(killed):
                    open(killed, "x").close()
                    raise InjectedFault(2, 0, "operand replay crash")
                return x * 1.0

            w = crash_once(c)
            assert ctx.nworkers == 2
            assert np.array_equal(b.gather(), expect_b)
            assert np.array_equal(c.gather(), expect_c)
            assert np.array_equal(w.gather(), expect_c)


class TestRecords:
    def test_middle_record_error_is_deferred_with_its_op_id(self):
        with OdinContext(2) as ctx:
            x = odin.zeros(8, ctx=ctx)
            settle_counters(ctx)
            first = ctx.status()["op_id"]
            y = x + 1.0
            ctx.run(opcodes.UFUNC, "negative", (("array", 424242),),
                    ctx.new_array_id())
            z = y * 2.0
            assert ctx.status()["epoch_len"] == 3   # nothing shipped yet
            with pytest.raises(KeyError) as excinfo:
                ctx.flush()
            notes = getattr(excinfo.value, "__notes__", [])
            assert any(f"op_id {first + 2}" in n for n in notes), notes
            # one message carried all four records
            assert ctx.world.counters[0].snapshot().coll_calls[
                ("bcast", "binomial-tree")] == 1
            # the records after the failing one still ran
            assert np.array_equal(z.gather(), np.full(8, 2.0))

    def test_scatter_ships_the_buffer_ahead_of_its_blocks(self):
        with OdinContext(2) as ctx:
            x = odin.ones(6, ctx=ctx)
            y = x + 1.0
            assert ctx.status()["epoch_len"] == 2
            z = odin.array(np.arange(6.0), ctx=ctx)
            assert ctx.status()["epoch_len"] == 0
            assert np.array_equal((y + z).gather(), np.arange(6.0) + 2.0)


def _ctrl_loop(x, y, steps=200):
    for i in range(steps):
        y = odin.sin(y) + x
        if i % 10 == 9:
            y.sum()
    return y


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_ctrl_loop_costs_a_few_messages_per_sync(backend):
    """The ledger's ``ctrl`` body: 400 ufuncs, 20 sums, one flush.  The
    driver sends at most three messages per synchronising op, and op
    ids advance by one per op: every id the driver handed out is one
    the workers executed (the deletes drained along the way included)."""
    rng = np.random.default_rng(0)
    TRACER.clear()
    TRACER.enable()
    try:
        with OdinContext(2, backend=backend) as ctx:
            x = odin.array(rng.random(1024), ctx=ctx)
            y = odin.array(rng.random(1024), ctx=ctx)
            settle_counters(ctx)
            op0 = ctx.status()["op_id"]
            gc.disable()
            try:
                y = _ctrl_loop(x, y)
                ctx.flush()
            finally:
                gc.enable()
            op1 = ctx.status()["op_id"]
            msgs, _bytes = ctx.control_traffic()
        events = TRACER.events()
    finally:
        TRACER.disable()
        TRACER.clear()
    syncs = 200 // 10 + 1
    assert msgs <= 3 * syncs
    ran = sorted(ev[6]["op_id"] for ev in events
                 if ev[1] == "odin.worker" and ev[6].get("worker") == 0
                 and ev[6].get("epoch_id") is not None
                 and op0 < ev[6]["op_id"] <= op1)
    # 400 ufuncs + 20 sums + the deletes; the flush is not an executed op
    assert ran == list(range(op0 + 1, op1))
    assert len(ran) >= 420
