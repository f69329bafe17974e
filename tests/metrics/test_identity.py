"""Metric identity: one fixed program, pinned metric values.

The program touches every instrumented layer that runs on the thread
backend -- collectives, RMA, a CG solve, a Tpetra ``Import``, an ODIN
ufunc chain with a cached redistribution, and a ``@jit`` call -- and
the test pins what the metrics view reports for it: the set of
``(name, labels)`` series, every counter value and every histogram
count.  Timings, gauge values and the on-disk compile cache's hit/miss
split vary from run to run and are not pinned.
"""

import gc

import numpy as np

from repro import mpi
from repro.metrics import Counter, Histogram


def _spmd_part(comm):
    from repro import galeri, solvers, tpetra
    from repro.mpi import SUM
    from repro.mpi.rma import Win
    from repro.tpetra.import_export import Import

    comm.bcast(b"z" * 128, root=0)
    comm.allreduce(comm.rank, SUM)
    comm.Allreduce(np.ones(16), np.empty(16), SUM)
    comm.barrier()

    buf = np.zeros(8)
    win = Win.Create(buf, comm)
    win.Fence()
    if comm.rank == 0:
        win.Put(np.ones(4), 1)
    win.Fence()
    win.Free()

    A = galeri.create_matrix("Laplace1D", comm, n=32)
    b = tpetra.Vector(A.range_map())
    b.putScalar(1.0)
    res = solvers.cg(A, b, tol=1e-10)

    n = 16
    src = tpetra.Map.create_contiguous(n, comm)
    gids = np.unique(np.clip(np.arange(src.min_my_gid - 1,
                                       src.max_my_gid + 2), 0, n - 1))
    tgt = tpetra.Map(n, gids, comm, kind="arbitrary")
    imp = Import(src, tgt)
    y = np.zeros(tgt.num_my_elements)
    imp.apply(np.arange(src.num_my_elements, dtype=np.float64), y)
    return res.iterations


def _odin_part():
    from repro import odin
    from repro.odin.context import OdinContext
    from repro.odin.distribution import CyclicDistribution

    with OdinContext(2, backend="thread") as ctx:
        x = odin.arange(64, ctx=ctx)
        y = odin.sin(x) * 2.0 + x
        total = float(y.sum())
        cyc = CyclicDistribution((64,), 0, 2)
        for _ in range(2):          # a plan-cache miss, then a hit
            z = y.redistribute(cyc)
            del z
        ctx.flush()
        del x, y
        ctx.flush()
    return total


def _jit_part():
    from repro.seamless import jit

    @jit
    def identity_poly(x: float) -> float:
        return x * x + 1.0

    return [identity_poly(2.0) for _ in range(3)]


def _run_program():
    gc.collect()
    gc.disable()
    try:
        its = mpi.run_spmd(_spmd_part, 2, timeout=60.0, backend="thread")
        _odin_part()
        _jit_part()
    finally:
        gc.enable()
    return its


def _observed(registry):
    series, values = set(), {}
    for m in registry.metrics():
        labels = sorted(m.labels)
        if m.name == "seamless.cc.disk_cache":
            # hit or miss depends on the compile cache left on disk
            labels = []
        key = m.name + "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"
        series.add(key)
        if m.name == "seamless.cc.disk_cache":
            values[key] = values.get(key, 0) + m.value
        elif isinstance(m, Histogram):
            values[key] = m.count
        elif isinstance(m, Counter):
            values[key] = m.value
    return series, values


#: captured from the program above at the commit before metrics became a
#: view of the trace, with the broadcast series re-captured when an ODIN
#: epoch became one message; counters map to values, histograms to counts
EXPECTED = {
    "mpi.coll.bytes_sent{algorithm=binomial-tree,op=bcast}": 1687,
    "mpi.coll.bytes_sent{algorithm=dissemination,op=barrier}": 40,
    "mpi.coll.bytes_sent{algorithm=linear-root,op=gather}": 408,
    "mpi.coll.bytes_sent{algorithm=pairwise-exchange,op=alltoall}": 1498,
    "mpi.coll.bytes_sent{algorithm=recursive-doubling,op=Allreduce}": 1072,
    "mpi.coll.bytes_sent{algorithm=recursive-doubling,op=allreduce}": 10,
    "mpi.coll.bytes_sent{algorithm=ring,op=allgather}": 126,
    "mpi.coll.calls{algorithm=binomial-tree,op=bcast}": 14,
    "mpi.coll.calls{algorithm=dissemination,op=barrier}": 10,
    "mpi.coll.calls{algorithm=linear-root,op=gather}": 12,
    "mpi.coll.calls{algorithm=pairwise-exchange,op=alltoall}": 10,
    "mpi.coll.calls{algorithm=recursive-doubling,op=Allreduce}": 104,
    "mpi.coll.calls{algorithm=recursive-doubling,op=allreduce}": 2,
    "mpi.coll.calls{algorithm=ring,op=allgather}": 3,
    "mpi.rma.bytes{op=Put}": 32,
    "odin.worker.op_seconds{op=create,worker=0}": 1,
    "odin.worker.op_seconds{op=create,worker=1}": 1,
    "odin.worker.op_seconds{op=delete_many,worker=0}": 5,
    "odin.worker.op_seconds{op=delete_many,worker=1}": 5,
    "odin.worker.op_seconds{op=redistribute,worker=0}": 2,
    "odin.worker.op_seconds{op=redistribute,worker=1}": 2,
    "odin.worker.op_seconds{op=reduce,worker=0}": 1,
    "odin.worker.op_seconds{op=reduce,worker=1}": 1,
    "odin.worker.op_seconds{op=ufunc,worker=0}": 3,
    "odin.worker.op_seconds{op=ufunc,worker=1}": 3,
    "seamless.cc.disk_cache{}": 1,
    "seamless.jit.cache_hits{kernel=identity_poly}": 2,
    "seamless.jit.cache_misses{kernel=identity_poly}": 1,
    "seamless.jit.calls{kernel=identity_poly}": 3,
    "seamless.jit.compile_seconds{kernel=identity_poly}": 1,
    "solver.iterations{method=cg}": 32,
    "solver.residual{method=cg}": None,
    "tpetra.plan.builds{kind=import,rank=0}": 2,
    "tpetra.plan.builds{kind=import,rank=1}": 2,
    "tpetra.plan.executions{rank=0}": 19,
    "tpetra.plan.executions{rank=1}": 19,
    "tpetra.plan.pack_bytes{rank=0}": 152,
    "tpetra.plan.pack_bytes{rank=1}": 152,
    "tpetra.plan.remote_lids_resolved{kind=import,rank=0}": 2,
    "tpetra.plan.remote_lids_resolved{kind=import,rank=1}": 2,
    "tpetra.plan.unpack_bytes{rank=0}": 152,
    "tpetra.plan.unpack_bytes{rank=1}": 152,
}


def test_fixed_program_metric_identity(registry, has_cc):
    its = _run_program()
    assert all(k > 0 for k in its)
    series, values = _observed(registry)
    expected = dict(EXPECTED)
    if not has_cc:
        expected = {k: v for k, v in expected.items()
                    if not k.startswith("seamless.")}
        series = {k for k in series if not k.startswith("seamless.")}
        values = {k: v for k, v in values.items()
                  if not k.startswith("seamless.")}
    assert series == set(expected)
    assert values == {k: v for k, v in expected.items() if v is not None}
