"""Flight-ring overhead: always-on must mean almost-free.

The tracer's flight ring (the bounded retention of the one recorder,
:data:`repro.trace.TRACER`) records at every driver control op, worker
op and MPI collective even with tracing disabled, so its cost rides on
every ODIN workload.  The acceptance bound is <=5% end-to-end on the C1
ufunc-scaling workload with tracing off.

Two measurements:

1. the C1 workload (two odin.random arrays, one fused expression,
   evaluate) with the ring off vs. on at the default 4096-slot
   capacity, tracing off both times -- best-of-N wall clock on each
   side;
2. a microbenchmark of one ``Tracer.complete()`` call with only the
   ring on (the hot-path unit: a perf_counter read, a tuple build and
   an index store).
"""

import time
import timeit

import numpy as np

from repro import odin
from repro.odin.context import OdinContext
from repro.trace import TRACER, Tracer

try:
    from .common import Section, main, table
except ImportError:  # executed as a script, not as a package module
    from common import Section, main, table

N = 200_000
WORKERS = 4
REPEATS = 5
APPENDS = 200_000


def _workload():
    with OdinContext(WORKERS) as ctx:
        u = odin.random(N, ctx=ctx, seed=1)
        v = odin.random(N, ctx=ctx, seed=2)
        with odin.lazy():
            expr = odin.sqrt(u * u + v * v) * 2.0 - 1.0
        out = odin.evaluate(expr, use_seamless=False)
        return float(np.asarray(out.gather()).sum())


def _timed_run():
    t0 = time.perf_counter()
    _workload()
    return time.perf_counter() - t0


def _best_of(runs=REPEATS):
    # min-of-N: the least-interfered-with sample estimates the true cost
    return min(_timed_run() for _ in range(runs))


def _ring_off_on(runs):
    """Best-of-*runs* workload time with the ring off, then on (tracing
    stays off: the default configuration)."""
    was = TRACER.flight
    try:
        TRACER.set_flight(False)
        off = _best_of(runs)
        TRACER.set_flight(True)
        on = _best_of(runs)
    finally:
        TRACER.set_flight(was)
    return off, on


def _measure():
    off, on = _ring_off_on(REPEATS)
    # hot-path unit cost, isolated from the workload
    rec = Tracer(enabled=False, capacity=4096)
    t0 = rec.now()
    append = timeit.timeit(
        lambda: rec.complete("bench", "op", t0, rank=0), number=APPENDS)
    guard = timeit.timeit("r.recording", globals={"r": rec},
                          number=1_000_000)
    return off, on, append, guard


def generate_report() -> str:
    off, on, append, guard = _measure()
    overhead = 100.0 * (on - off) / off
    section = Section("C10: flight-ring overhead "
                      f"({WORKERS} workers, N = {N:,}, tracing disabled)")
    section.add(table(
        ["configuration", "best-of-%d (s)" % REPEATS, "vs disabled"],
        [
            ("flight ring off", f"{off:.4f}", "--"),
            ("flight ring on (capacity 4096)", f"{on:.4f}",
             f"{overhead:+.1f}%"),
        ]))
    section.line()
    section.add(table(
        ["microbenchmark", "seconds", "ns/op"],
        [
            ("Tracer.complete() ring append (2e5)", f"{append:.4f}",
             f"{append / APPENDS * 1e9:.0f}"),
            ("Tracer.recording guard (1e6)", f"{guard:.4f}",
             f"{guard * 1e3:.1f}"),
        ]))
    section.line()
    section.line(
        "An append is a clock read, a tuple build and an index store "
        "into a preallocated per-thread ring -- no locks, no "
        "allocation growth.  The acceptance bound is <=5% end-to-end "
        "with tracing disabled; the recorder earns its keep the first "
        "time a crash dump replaces a blind AbortError.")
    return section.render()


def test_flight_overhead_within_bound(benchmark):
    """Ring-on stays within a generous CI bound of ring-off (the report
    shows the measured figure; the acceptance bound of 5% is checked on
    quiet machines, CI uses slack for shared runners)."""
    off, on = benchmark.pedantic(_ring_off_on, args=(3,), rounds=1,
                                 iterations=1)
    assert on < off * 1.5


if __name__ == "__main__":
    main(generate_report)
