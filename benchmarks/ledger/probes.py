"""Layer probes: the unit cost of one public call per layer.

Each probe times one call many times and reports the median with its
sample count, on both transports where that applies.  These are the
numbers a calibrated alpha/beta cost model would consume; they are not
gated.  Like a workload, the probes run in one fresh child process with
a scrubbed environment.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from .stats import median

BACKENDS = ("thread", "process")


def _entry(samples, unit, scale=1.0, **more):
    return dict({"value": median(samples) * scale, "unit": unit,
                 "n": len(samples)}, **more)


def _time(fn, n, warm=2):
    out = []
    for i in range(n + warm):
        t0 = perf_counter()
        fn()
        if i >= warm:
            out.append(perf_counter() - t0)
    return out


# -- mpi.runtime: p2p latency and streaming bandwidth -----------------------
def _pingpong_body(comm, n):
    buf = np.zeros(1)
    times = []
    for i in range(n + 20):
        if comm.rank == 0:
            t0 = perf_counter()
            comm.Send(buf, 1)
            comm.Recv(buf, 1)
            times.append((perf_counter() - t0) / 2)
        else:
            comm.Recv(buf, 0)
            comm.Send(buf, 0)
    return times[20:]


def _stream_body(comm, n, nbytes):
    data = np.ones(nbytes // 8)
    ack = np.zeros(1)
    times = []
    for _ in range(n + 1):
        if comm.rank == 0:
            t0 = perf_counter()
            comm.Send(data, 1)
            comm.Recv(ack, 1)
            times.append(perf_counter() - t0)
        else:
            comm.Recv(data, 0)
            comm.Send(ack, 0)
    return times[1:]


def _allreduce_body(comm, n, nbytes):
    src = np.ones(nbytes // 8)
    dst = np.empty_like(src)
    snap = comm.traffic_snapshot()
    times = _time(lambda: comm.Allreduce(src, dst), n)
    algos = sorted(a for (op, a) in
                   (comm.traffic_snapshot() - snap).coll_calls
                   if op == "Allreduce")
    return times, algos


def _spmv_body(comm, n):
    from repro import galeri, tpetra
    A = galeri.convection_diffusion_2d(64, 64, comm, conv_x=20.0,
                                       conv_y=10.0)
    x = tpetra.Vector(A.row_map).putScalar(1.0)
    y = tpetra.Vector(A.row_map)
    return _time(lambda: A.apply(x, y), n)


def _mpi_probes(out, n):
    from repro import mpi
    for backend in BACKENDS:
        def run(body, *args, backend=backend):
            return mpi.run_spmd(body, 2, args=args, backend=backend)[0]
        out[f"p2p.latency.{backend}"] = _entry(
            run(_pingpong_body, 20 * n), "us", 1e6, nbytes=8)
        mb = 8
        out[f"p2p.stream.{backend}"] = _entry(
            [mb / t for t in run(_stream_body, n, mb << 20)], "MB/s",
            nbytes=mb << 20)
        for label, nbytes in (("32B", 32), ("64KB", 64 << 10),
                              ("1MB", 1 << 20)):
            times, algos = run(_allreduce_body, 2 * n, nbytes)
            out[f"allreduce.{label}.{backend}"] = _entry(
                times, "us", 1e6, algorithm="+".join(algos))
    out["tpetra.spmv.process"] = _entry(
        mpi.run_spmd(_spmv_body, 2, args=(10 * n,), backend="process")[0],
        "us", 1e6, rows=64 * 64)


# -- mpi.transport: payload encoding either side of the shm threshold ------
def _wire_probes(out, n):
    from repro.mpi.transport import shm, wire
    pool = shm.ShmPool(shm.new_session_id(), 0)
    try:
        thr = shm.shm_threshold()
        for label, nbytes in (("inline", thr // 2), ("shm", 4 * thr)):
            arr = np.ones(nbytes // 8)
            enc, dec = [], []
            for _ in range(5 * n):
                t0 = perf_counter()
                spec, chunks = wire.encode_payload(pool, "buffer", arr)
                t1 = perf_counter()
                wire.decode_payload(pool, "buffer", spec, chunks)
                t2 = perf_counter()
                enc.append(nbytes / 1e6 / (t1 - t0))
                dec.append(nbytes / 1e6 / (t2 - t1))
            out[f"wire.encode.{label}"] = _entry(enc, "MB/s", nbytes=nbytes)
            out[f"wire.decode.{label}"] = _entry(dec, "MB/s", nbytes=nbytes)
    finally:
        pool.close()


# -- odin: control ops, plan build against plan replay ---------------------
def _odin_probes(out, n):
    from repro import odin
    from repro.odin.context import OdinContext
    for backend in BACKENDS:
        with OdinContext(2, backend=backend) as ctx:
            x = odin.array(np.ones(1024), ctx=ctx)
            out[f"odin.ctl.sync.{backend}"] = _entry(
                _time(x.sum, 10 * n), "us", 1e6)

            def batch():
                for _ in range(100):
                    odin.sin(x)
                ctx.flush()
            out[f"odin.ctl.batched.{backend}"] = _entry(
                [t / 100 for t in _time(batch, n)], "us", 1e6,
                batch=100)
    size = 1_000_000
    with OdinContext(2, backend="process") as ctx:
        a = odin.array(np.ones(size), ctx=ctx)

        def move(block):
            dist = odin.BlockCyclicDistribution((size,), 0, 2,
                                                block_size=block)
            t0 = perf_counter()
            a.redistribute(dist)
            ctx.flush()
            return perf_counter() - t0
        build = [move(100 + k) for k in range(n)]
        replay = [move(100 + k) for k in range(n)]
        out["odin.plan.build.process"] = _entry(build, "ms", 1e3, n_elem=size)
        out["odin.plan.replay.process"] = _entry(replay, "ms", 1e3,
                                                 n_elem=size)


# -- seamless: one cold compile, then the fused kernel call ----------------
def _seamless_probes(out, n):
    from repro import seamless
    program = (("load", 0), ("load", 1), ("binary", "multiply"),
               ("unary", "sin"))
    t0 = perf_counter()
    kernel = seamless.compile_elementwise(program, 2)
    out["seamless.compile"] = {"value": perf_counter() - t0, "unit": "s",
                               "n": 1, "available": kernel is not None}
    if kernel is None:
        return
    size = 1_000_000
    u, v, dst = np.ones(size), np.ones(size), np.empty(size)
    out["seamless.kernel"] = _entry(
        [3 * 8 * size / 1e6 / t for t in _time(lambda: kernel(dst, u, v),
                                               3 * n)],
        "MB/s", n_elem=size, note="computed bytes: 2 loads + 1 store")


def run_all(quick=False):
    n = 3 if quick else 10
    out = {}
    _mpi_probes(out, n)
    _wire_probes(out, n)
    _odin_probes(out, n)
    _seamless_probes(out, n)
    return out


def format_probes(probes):
    lines = ["probe                          value  unit   n"]
    for name, p in probes.items():
        more = ", ".join(f"{k}={v}" for k, v in p.items()
                         if k not in ("value", "unit", "n"))
        lines.append(f"{name:<26} {p['value']:>10.2f}  {p['unit']:<5} "
                     f"{p['n']:>3}  {more}")
    return "\n".join(lines)
