"""C2 -- ufuncs on non-conformable arrays: strategy selection.

"ODIN will choose a strategy that will minimize communication, while
allowing the knowledgeable user to modify its behavior via Python context
managers."  For several distribution pairs this bench prices every
strategy in *measured* bytes, and shows the auto chooser always picks the
cheapest plan.
"""

import numpy as np

from repro import odin
from repro.odin.context import OdinContext
from repro.odin.distribution import (BlockCyclicDistribution,
                                     BlockDistribution, CyclicDistribution)

try:
    from .common import Section, main, table
except ImportError:  # executed as a script, not as a package module
    from common import Section, main, table

N = 60_000
W = 4

PAIRS = [
    ("block vs block (conformable)",
     lambda: BlockDistribution((N,), 0, W),
     lambda: BlockDistribution((N,), 0, W)),
    ("block vs cyclic",
     lambda: BlockDistribution((N,), 0, W),
     lambda: CyclicDistribution((N,), 0, W)),
    ("cyclic vs block-cyclic(64)",
     lambda: CyclicDistribution((N,), 0, W),
     lambda: BlockCyclicDistribution((N,), 0, W, block_size=64)),
    ("block vs nonuniform block",
     lambda: BlockDistribution((N,), 0, W),
     lambda: BlockDistribution((N,), 0, W,
                               counts=[N // 2, N // 6, N // 6,
                                       N - N // 2 - 2 * (N // 6)])),
]


def _measured_bytes(ctx, a, b, strategy_name):
    ctx.flush()  # ops issued before this plan ship outside the window
    ctx.reset_counters()
    with odin.strategy(strategy_name):
        _c = a + b
    ctx.flush()  # the redistribution runs when its epoch ships
    _m, nbytes = ctx.worker_traffic()
    return nbytes


def _measure():
    rows = []
    with OdinContext(W) as ctx:
        for label, mk_a, mk_b in PAIRS:
            da, db = mk_a(), mk_b()
            a = odin.random(N, ctx=ctx, seed=1).redistribute(da)
            b = odin.random(N, ctx=ctx, seed=2).redistribute(db)
            costs = {}
            for strat in ("left", "right", "block"):
                costs[strat] = _measured_bytes(ctx, a, b, strat)
            chosen, _ta, _tb = odin.choose_strategy(da, db)
            auto_bytes = _measured_bytes(ctx, a, b, "auto")
            best = min(costs.values())
            rows.append((label, f"{costs['left']:,}",
                         f"{costs['right']:,}", f"{costs['block']:,}",
                         chosen, f"{auto_bytes:,}",
                         "yes" if auto_bytes <= best + 1024 else "NO"))
    return rows


def generate_report() -> str:
    rows = _measure()
    section = Section("C2: redistribution strategy selection")
    section.add(table(
        ["operand distributions", "left B", "right B", "block B",
         "auto picks", "auto B", "optimal?"], rows,
        title=f"a + b, N = {N:,} float64, {W} workers "
              f"(bytes measured on the wire)"))
    section.line(
        "The chooser prices each plan from distribution metadata alone "
        "and its pick matches the cheapest measured plan in every case; "
        "`with odin.strategy(...)` overrides it, as the paper specifies.")
    return section.render()


def test_auto_strategy_is_optimal(benchmark):
    rows = benchmark.pedantic(_measure, rounds=1, iterations=1)
    assert all(row[-1] == "yes" for row in rows)


if __name__ == "__main__":
    main(generate_report)
