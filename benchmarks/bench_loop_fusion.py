"""C3 -- expression optimization: loop fusion.

Compares three executions of sqrt(u*u + v*v) * 2 - 1:

- eager: one control op and one temporary per operation, all five ops
  shipped in one epoch message,
- fused (NumPy stack machine): one control op for the whole expression,
- fused (Seamless): additionally a single native loop, no temporaries.

Each timing ends with ``ctx.flush()``: batched ops run on the workers
only when their epoch ships.
"""

import time

import numpy as np

from repro import odin
from repro.odin.context import OdinContext
from repro.seamless import compiler_available

try:
    from .common import Section, main, table
except ImportError:  # executed as a script, not as a package module
    from common import Section, main, table

N = 2_000_000
W = 4


def _measure():
    rows = []
    with OdinContext(W) as ctx:
        u = odin.random(N, ctx=ctx, seed=1)
        v = odin.random(N, ctx=ctx, seed=2)

        def eager():
            return odin.sqrt(u * u + v * v) * 2.0 - 1.0

        def fused(use_seamless):
            with odin.lazy():
                expr = odin.sqrt(u * u + v * v) * 2.0 - 1.0
            return odin.evaluate(expr, use_seamless=use_seamless)

        def run(label, fn):
            fn()  # warm (compilation, allocation)
            ctx.flush()
            ctx.reset_counters()
            t0 = time.perf_counter()
            out = fn()
            ctx.flush()  # eager ops wait in the epoch buffer until a sync
            dt = time.perf_counter() - t0
            msgs, _b = ctx.control_traffic()
            rows.append((label, f"{dt * 1e3:.1f}", msgs, out))

        run("eager (five ops, one epoch)", eager)
        run("fused, numpy stack machine", lambda: fused(False))
        if compiler_available():
            run("fused, Seamless native loop", lambda: fused(True))
        # verify all variants agree bit for bit (inside the context's
        # lifetime): the expression has no transcendental ops
        ref = rows[0][3].gather()
        for label, _dt, _m, out in rows[1:]:
            assert np.array_equal(out.gather(), ref), label
    return [(r[0], r[1], r[2]) for r in rows]


def generate_report() -> str:
    rows = _measure()
    section = Section("C3: loop fusion of distributed expressions")
    section.add(table(
        ["execution", "time ms", "driver msgs"], rows,
        title=f"sqrt(u*u + v*v) * 2 - 1, N = {N:,}, {W} workers "
              f"(5 elementwise ops)"))
    section.line(
        "The five eager ops already travel as one epoch message with the "
        "flush that closes them, so eager and fused cost the same driver "
        "messages.  Fusion's remaining gain is the compute pass: the "
        "Seamless backend evaluates the whole expression in a single "
        "compiled pass with no intermediate arrays -- the optimization the "
        "paper lists first for ODIN (all variants verified identical).")
    return section.render()


def test_fused_numpy(benchmark):
    with OdinContext(W) as ctx:
        u = odin.random(N // 4, ctx=ctx, seed=1)
        v = odin.random(N // 4, ctx=ctx, seed=2)

        def run():
            with odin.lazy():
                expr = odin.sqrt(u * u + v * v) * 2.0 - 1.0
            return odin.evaluate(expr, use_seamless=False)

        out = benchmark(run)
        assert out.shape == (N // 4,)


def test_fused_native(benchmark):
    if not compiler_available():
        import pytest
        pytest.skip("no C compiler")
    with OdinContext(W) as ctx:
        u = odin.random(N // 4, ctx=ctx, seed=1)
        v = odin.random(N // 4, ctx=ctx, seed=2)

        def run():
            with odin.lazy():
                expr = odin.sqrt(u * u + v * v) * 2.0 - 1.0
            return odin.evaluate(expr, use_seamless=True)

        run()  # compile once
        out = benchmark(run)
        assert out.shape == (N // 4,)


if __name__ == "__main__":
    main(generate_report)
