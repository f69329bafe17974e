"""Benchmark-side spans around each layer's public entry points.

One table (:data:`BOUNDARIES`) names every boundary; :func:`install`
replaces those attributes with timing wrappers, only for the traced pass
and before any rank is forked, so forked ranks inherit them.  Nothing
under ``src/`` is edited: the layers are measured from outside.

A record is ``(layer, name, start, end, cpu, parent)``: wall start and
end from ``perf_counter``, the calling thread's CPU seconds inside the
span, and the index of the enclosing span on the same thread.  Rank and
repetition are attached by :func:`analyse`.  A layer's self time is a
span's duration minus what its child spans cover; *busy* is the CPU part
of that, *wait* the rest (blocked on a peer, a socket or the GIL).
Records stay in memory until the workload ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
from bisect import bisect_right
from contextlib import contextmanager
from time import perf_counter, process_time, thread_time

GLUE = "bench.glue"   # the repetition's own code between layer calls

_COLLECTIVES = (
    "barrier", "bcast", "scatter", "gather", "allgather", "alltoall",
    "reduce", "allreduce", "scan", "exscan", "reduce_scatter", "Bcast",
    "Scatter", "Scatterv", "Gather", "Gatherv", "Allgather", "Allgatherv",
    "Alltoall", "Reduce", "Allreduce", "Scan", "Exscan", "split", "dup")
_P2P = ("send", "recv", "isend", "irecv", "sendrecv", "probe", "Send",
        "Recv", "Isend", "Irecv", "Sendrecv")
_ARRAY_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "__neg__", "sum", "mean",
    "redistribute", "gather", "copy")
_CREATION = ("array", "random", "zeros", "ones", "full", "arange",
             "linspace", "evaluate")


def _odin_names():
    from repro import odin
    return (tuple(odin.UNARY_NAMES) + tuple(odin.BINARY_NAMES)
            + tuple(odin.TERNARY_NAMES) + _CREATION)


# (layer, "module" or "module:Class", attribute names or a callable that
# returns them, layer for the callable the call returns or None)
BOUNDARIES = [
    ("mpi.comm", "repro.mpi.comm:Intracomm", _COLLECTIVES, None),
    ("mpi.runtime", "repro.mpi.comm:Intracomm", _P2P, None),
    # collectives reach the wire through these, not through Comm.send
    ("mpi.runtime", "repro.mpi.runtime:RankContext",
     ("send_buffer", "send_object", "recv_message", "poll_message"), None),
    ("mpi.runtime", "repro.mpi.request:RecvRequest",
     ("wait", "Wait", "test", "Test"), None),
    ("odin.context", "repro.odin.context:OdinContext",
     ("__init__", "shutdown", "flush", "plan_cache_stats", "run", "create",
      "scatter", "gather", "delete", "call_local"), None),
    ("odin.context", "repro.odin.array:DistArray", _ARRAY_OPS, None),
    ("odin.context", "repro.odin", _odin_names, None),
    ("odin.context", "repro.odin.tabular",
     ("from_records", "group_aggregate"), None),
    # context.py binds execute_op by name at import
    ("odin.worker", "repro.odin.worker", ("execute_op",), None),
    ("odin.worker", "repro.odin.context", ("execute_op",), None),
    ("odin.fusion", "repro.odin.fusion", ("compiled_kernel",),
     "odin.fusion"),
    ("seamless.compile", "repro.seamless", ("compile_elementwise",),
     "seamless.kernel"),
    ("tpetra", "repro.tpetra.crsmatrix:CrsMatrix", ("apply",), None),
    ("tpetra", "repro.tpetra.multivector:MultiVector",
     ("dot", "norm2", "update"), None),
    ("tpetra", "repro.tpetra.multivector:Vector", ("dot", "norm2"), None),
    ("solvers.prec", "repro.solvers.ifpack:ILU0", ("apply",), None),
    ("solvers", "repro.solvers.krylov", ("gmres",), None),
    ("solvers", "repro.solvers", ("gmres",), None),
]

LAYERS = tuple(dict.fromkeys([b[0] for b in BOUNDARIES]
                             + ["odin.fusion", "seamless.kernel", GLUE]))

_tls = threading.local()
_installed = []      # (owner, attribute, original), for uninstall()
_stretch = {}        # layer -> fraction of its CPU to burn again
_fork_hooked = False


def _state():
    st = getattr(_tls, "st", None)
    if st is None:
        st = _tls.st = ([], [])     # records, stack of (index, layer)
    return st


def reset():
    """Forget this thread's records (a forked rank starts clean)."""
    _tls.st = ([], [])


def drain():
    """This thread's records so far; spans still open stay ``None``."""
    records, _stack = _state()
    reset()
    return records


def _spin(seconds):
    end = thread_time() + seconds
    while thread_time() < end:
        pass


def _stretched(layer, fraction, fn):
    """*fn*, burning again *fraction* of the CPU its process used inside
    each outermost call.  Process CPU, because on the process transport a
    rank is a process and its receiver threads do the layer's decoding;
    a driver blocked on its workers burns next to nothing."""
    def wrapper(*args, **kwargs):
        _records, stack = _state()
        outermost = all(l != layer for _i, l in stack[:-1])
        cpu0 = process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            if outermost:
                _spin(fraction * (process_time() - cpu0))
    return wrapper


def _wrap(layer, name, fn, result_layer=None):
    if _stretch.get(layer):
        fn = functools.wraps(fn)(_stretched(layer, _stretch[layer], fn))

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        records, stack = _state()
        index = len(records)
        records.append(None)
        parent = stack[-1][0] if stack else -1
        stack.append((index, layer))
        cpu0 = thread_time()
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            cpu = thread_time() - cpu0
            stack.pop()
            records[index] = (layer, name, t0, t1, cpu, parent)
        if result_layer is not None and callable(out):
            out = _wrap(result_layer, name + ".call", out)
        return out

    return wrapper


@contextmanager
def rep(index):
    """Root span of one repetition on the rank that runs the loop."""
    records, stack = _state()
    slot = len(records)
    records.append(None)
    stack.append((slot, GLUE))
    cpu0 = thread_time()
    t0 = perf_counter()
    try:
        yield
    finally:
        t1 = perf_counter()
        stack.pop()
        records[slot] = (GLUE, f"rep:{index}", t0, t1,
                         thread_time() - cpu0, -1)


def install(stretch=None):
    """Wrap every boundary in the table.  *stretch* maps a layer to the
    fraction of CPU each of its outermost spans burns again before it
    returns: the self-test's injected slowdown."""
    if _installed:
        raise RuntimeError("spans already installed")
    _stretch.clear()
    _stretch.update(stretch or {})
    for layer, target, names, result_layer in BOUNDARIES:
        modname, _, clsname = target.partition(":")
        owner = importlib.import_module(modname)
        if clsname:
            owner = getattr(owner, clsname)
        for attr in (names() if callable(names) else names):
            original = owner.__dict__.get(attr) if clsname \
                else getattr(owner, attr, None)
            if original is None:
                raise AttributeError(f"{target} has no {attr!r}: the "
                                     f"boundary table is out of date")
            setattr(owner, attr, _wrap(layer, attr, original, result_layer))
            _installed.append((owner, attr, original))
    global _fork_hooked
    if not _fork_hooked:
        # a forked rank must not inherit the forking thread's records
        os.register_at_fork(after_in_child=reset)
        _fork_hooked = True


def uninstall():
    while _installed:
        owner, attr, original = _installed.pop()
        setattr(owner, attr, original)
    _stretch.clear()


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def analyse(records, windows=None, wall=None):
    """Per-layer self times of one rank's records.

    A rank that ran the repetition loop has ``rep:<i>`` root spans and
    passes *wall*, the sum of its own timer readings: the layer self
    times, the roots' included as ``bench.glue``, must add up to it.  An
    ODIN worker has no loop of its own; it passes the driver's
    repetition *windows* (same monotonic clock) instead, top-level spans
    are assigned by midpoint, and ``bench.glue`` is the uncovered rest.
    With neither (set-up records) every completed span counts.

    Returns ``{"layers": {layer: {"calls", "wall_s", "cpu_s"}},
    "wall_s", "sum_err"}`` where ``sum_err`` is the share of the wall
    time by which the layers miss (or, for workers, overshoot) it.
    """
    n = len(records)
    child_wall = [0.0] * n
    child_cpu = [0.0] * n
    rep_of = [-1] * n
    starts = [w[0] for w in windows] if windows else []
    layers = {}
    covered = 0.0
    for i, rec in enumerate(records):
        if rec is None:
            continue
        layer, name, t0, t1, cpu, parent = rec
        if parent >= 0:
            if records[parent] is None:
                continue            # child of a span still open: not timed
            child_wall[parent] += t1 - t0
            child_cpu[parent] += cpu
            rep_of[i] = rep_of[parent]
        elif layer == GLUE and name.startswith("rep:"):
            rep_of[i] = int(name[4:])
        elif windows:
            k = bisect_right(starts, (t0 + t1) / 2) - 1
            if k >= 0 and (t0 + t1) / 2 <= windows[k][1]:
                rep_of[i] = k
                covered += t1 - t0
        elif wall is None:
            rep_of[i] = 0
    # children always follow their parent, so their cover is complete now
    for i, rec in enumerate(records):
        if rec is None or rep_of[i] < 0:
            continue
        layer, _name, t0, t1, cpu, parent = rec
        agg = layers.setdefault(layer, {"calls": 0, "wall_s": 0.0,
                                        "cpu_s": 0.0})
        if parent < 0 or records[parent][0] != layer:
            agg["calls"] += 1
        agg["wall_s"] += (t1 - t0) - child_wall[i]
        agg["cpu_s"] += max(cpu - child_cpu[i], 0.0)
    total = sum(a["wall_s"] for a in layers.values())
    if windows:
        wall = sum(t1 - t0 for t0, t1 in windows)
        glue = layers.setdefault(GLUE, {"calls": 0, "wall_s": 0.0,
                                        "cpu_s": 0.0})
        glue["wall_s"] += max(wall - covered, 0.0)
        err = max(covered - wall, 0.0) / wall if wall else 0.0
    else:
        if wall is None:
            wall = total
        err = abs(total - wall) / wall if wall else 0.0
    return {"layers": layers, "wall_s": wall, "sum_err": err}


def merge(analyses):
    """Sum layer tables (over ranks, or over repeated children)."""
    out = {}
    for a in analyses:
        for layer, agg in a["layers"].items():
            cur = out.setdefault(layer, {"calls": 0, "wall_s": 0.0,
                                         "cpu_s": 0.0})
            for k in cur:
                cur[k] += agg[k]
    return out
