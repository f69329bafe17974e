"""A function travels inside the op that runs it, by value, on both
backends.

CALL_LOCAL, TRANSFORM and CREATE's ``fromfunction`` fill carry the
function's marshalled code and closure-cell contents, taken when the op
is issued.  Every test runs on thread workers and on forked process
workers, which share nothing with the driver after the fork.
"""

import os
import threading

import numpy as np
import pytest

from repro import odin
from repro.mpi.errors import InjectedFault
from repro.odin import tabular
from repro.odin.context import OdinContext

from tests.conftest import settle_counters

BACKENDS = ["thread", "process"]

RECORDS = np.zeros(40, dtype=[("k", "i8"), ("v", "f8")])
RECORDS["k"] = np.arange(40) % 5
RECORDS["v"] = np.arange(40.0)


@pytest.fixture(params=BACKENDS)
def ctx(request):
    with OdinContext(2, backend=request.param) as c:
        yield c


def _shifted(offset):
    """A map function closing over *offset*."""
    def shift(block):
        out = block.copy()
        out["v"] += offset
        return out
    return shift


class TestClosures:
    def test_closure_over_a_value(self, ctx):
        k = 3.0
        d = odin.fromfunction(lambda i: i * k, (10,), ctx=ctx)
        assert np.array_equal(d.gather(), np.arange(10.0) * 3.0)

    def test_closure_over_another_local_function(self, ctx):
        # filter_records' predicate wrapper closes over the predicate,
        # which itself closes over a helper function
        def above(b, limit):
            return b["v"] > limit

        t = tabular.from_records(RECORDS, ctx=ctx)
        kept = tabular.filter_records(lambda b: above(b, 29.5), t)
        assert np.array_equal(kept.gather()["v"], np.arange(30.0, 40.0))

    def test_recursive_closure(self, ctx):
        def fact(n):
            return 1 if n <= 1 else n * fact(n - 1)

        d = odin.fromfunction(lambda i: i * fact(4), (6,), ctx=ctx)
        assert np.array_equal(d.gather(), np.arange(6.0) * 24)

    def test_cells_are_taken_at_issue_time(self, ctx):
        scale = [2.0]
        x = odin.arange(8, dtype=np.float64, ctx=ctx)
        y = tabular.map_records(lambda b: b * scale[0], x)
        scale[0] = 100.0     # after issue: the op already holds 2.0
        assert np.array_equal(y.gather(), np.arange(8.0) * 2.0)

    def test_function_defined_after_the_context_started(self, ctx):
        x = odin.arange(8, dtype=np.float64, ctx=ctx)
        offset = 0.5

        @odin.local
        def late(a):
            return a + offset

        assert np.array_equal(late(x).gather(), np.arange(8.0) + 0.5)

    def test_non_function_ships_by_reference(self, ctx):
        d = odin.fromfunction(np.add, (4, 3), ctx=ctx)
        assert np.array_equal(d.gather(), np.fromfunction(np.add, (4, 3)))


class TestCallablePaths:
    def test_fromfunction(self, ctx):
        d = odin.fromfunction(lambda i, j: i * 10 + j, (6, 4), ctx=ctx)
        assert np.array_equal(
            d.gather(), np.fromfunction(lambda i, j: i * 10 + j, (6, 4)))

    def test_map_and_filter_records(self, ctx):
        t = tabular.from_records(RECORDS, ctx=ctx)
        mapped = tabular.map_records(_shifted(100.0), t)
        kept = tabular.filter_records(lambda b: b["k"] == 2, mapped)
        want = RECORDS["v"][RECORDS["k"] == 2] + 100.0
        assert np.array_equal(kept.gather()["v"], want)

    def test_compress(self, ctx):
        data = np.arange(20.0)
        x = odin.array(data, ctx=ctx)
        picked = tabular.compress(x > 12.0, x)
        assert np.array_equal(picked.gather(), data[data > 12.0])

    def test_save_and_load_shared(self, ctx, tmp_path):
        data = np.arange(30.0).reshape(10, 3)
        path = str(tmp_path / "m.bin")
        odin.save_shared(odin.array(data, ctx=ctx), path)
        back = odin.load_shared(path, (10, 3), ctx=ctx)
        assert np.array_equal(back.gather(), data)


class TestWireCost:
    def test_unpicklable_closure_refused_before_any_message(self, ctx):
        x = odin.arange(8, dtype=np.float64, ctx=ctx)
        settle_counters(ctx)
        before = ctx.control_traffic()
        lock = threading.Lock()

        def holds_lock(a):
            with lock:
                return a

        with pytest.raises(TypeError, match="lock"):
            odin.fromfunction(lambda i: i if lock else i, (4,), ctx=ctx)
        with pytest.raises(TypeError, match="lock"):
            tabular.map_records(holds_lock, x)
        with pytest.raises(TypeError, match="lock"):
            odin.local(holds_lock)(x)
        assert ctx.control_traffic() == before

    def test_fromfunction_sum_costs_two_control_messages(self, ctx):
        settle_counters(ctx)
        before = ctx.control_traffic()[0]
        total = odin.fromfunction(lambda i: i + 1.0, (12,), ctx=ctx).sum()
        assert total == sum(range(1, 13))
        # one EPOCH broadcast (CREATE rides it, REDUCE closes it) to two
        # workers; no FLUSH of its own
        assert ctx.control_traffic()[0] - before == 2


class TestUnimportableModule:
    def test_typed_import_error_names_function_and_module(self, ctx):
        def orphan(a):
            return a

        orphan.__module__ = "repro_no_such_module"
        with pytest.raises(ImportError,
                           match="orphan.*repro_no_such_module"):
            odin.local(orphan)(odin.ones(4, ctx=ctx))
        # the context survives the refusal
        assert odin.ones(4, ctx=ctx).sum() == 4.0


@pytest.mark.parametrize("backend", BACKENDS)
def test_replay_runs_each_transform_with_its_own_function(backend,
                                                          tmp_path):
    """Map_records calls with different closures, then a crash: the
    replayed op-log runs each TRANSFORM with the function it was issued
    with, closure cells as they were at issue time."""
    killed = tmp_path / "killed"

    @odin.local
    def crash_once(a):
        if odin.worker_index() == 1 and not os.path.exists(killed):
            open(killed, "x").close()
            raise InjectedFault(2, 0, "ship-by-value replay crash")
        return a

    with OdinContext(3, recover=True, backend=backend) as ctx:
        t = tabular.from_records(RECORDS, ctx=ctx)
        outs = [tabular.map_records(_shifted(off), t)
                for off in (1.0, 1000.0)]
        scale = [2.0]

        def scaled(block):
            out = block.copy()
            out["v"] *= scale[0]
            return out

        doubled = tabular.map_records(scaled, t)
        scale[0] = -1.0
        crash_once(odin.ones(6, ctx=ctx))
        assert ctx.nworkers == 2
        for off, out in zip((1.0, 1000.0), outs):
            assert np.array_equal(out.gather()["v"], RECORDS["v"] + off)
        assert np.array_equal(doubled.gather()["v"], RECORDS["v"] * 2.0)
