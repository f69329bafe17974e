"""C6 -- distributed tabular data as a Map-Reduce substrate.

A map -> filter -> shuffled group-by pipeline over structured records,
verified against the serial computation, with the shuffle volume
reported (each worker combines its block to one partial per key, so the
shuffle moves per-key partials, never records).
"""

import time

import numpy as np

from repro import odin
from repro.odin import tabular
from repro.odin.context import OdinContext

try:
    from .common import Section, main, table
except ImportError:  # executed as a script, not as a package module
    from common import Section, main, table

N = 300_000
NCAT = 16
W = 4


def _records():
    rng = np.random.default_rng(0)
    rec = np.zeros(N, dtype=[("category", "i8"), ("value", "f8")])
    rec["category"] = rng.integers(0, NCAT, N)
    rec["value"] = rng.normal(loc=rec["category"].astype(float), scale=1.0)
    return rec


def _measure():
    rec = _records()
    rows = []
    with OdinContext(W) as ctx:
        t0 = time.perf_counter()
        t = tabular.from_records(rec, ctx=ctx)
        ctx.flush()
        rows.append(("distribute records", f"{(time.perf_counter() - t0) * 1e3:.1f}", "-"))

        def clip(block):
            out = block.copy()
            out["value"] = np.abs(out["value"])
            return out

        ctx.reset_counters()
        t0 = time.perf_counter()
        t = tabular.map_records(clip, t)
        ctx.flush()
        _m, b = ctx.worker_traffic()
        rows.append(("map (abs)", f"{(time.perf_counter() - t0) * 1e3:.1f}",
                     f"{b:,}"))

        ctx.reset_counters()
        t0 = time.perf_counter()
        t = tabular.filter_records(lambda blk: blk["value"] > 0.5, t)
        ctx.flush()
        _m, b = ctx.worker_traffic()
        rows.append(("filter (> 0.5)",
                     f"{(time.perf_counter() - t0) * 1e3:.1f}", f"{b:,}"))
        survivors = t.shape[0]

        ctx.reset_counters()
        t0 = time.perf_counter()
        agg = tabular.group_aggregate(t, "category", "value", op="mean")
        _m, shuffle_bytes = ctx.worker_traffic()
        rows.append(("group-by mean (shuffle)",
                     f"{(time.perf_counter() - t0) * 1e3:.1f}",
                     f"{shuffle_bytes:,}"))

        got = {int(r["key"]): float(r["value"]) for r in agg.gather()}
    # serial reference
    ref_rec = rec.copy()
    ref_rec["value"] = np.abs(ref_rec["value"])
    ref_rec = ref_rec[ref_rec["value"] > 0.5]
    for k in np.unique(ref_rec["category"]):
        ref = ref_rec["value"][ref_rec["category"] == k].mean()
        assert abs(got[int(k)] - ref) < 1e-10
    return rows, survivors, shuffle_bytes


def generate_report() -> str:
    rows, survivors, shuffle_bytes = _measure()
    section = Section("C6: Map-Reduce over distributed tabular data")
    section.add(table(["phase", "time ms", "bytes moved"], rows,
                      title=f"{N:,} records, {NCAT} keys, {W} workers"))
    per_row = 16  # i8 + f8
    section.line(
        f"Map and filter move no row data (only the relayed control "
        f"broadcast, <1 KB). The group-by combines before it shuffles: "
        f"each worker reduces its block to one (key, sum, count) partial "
        f"per key, and only those cross the wire -- {shuffle_bytes:,} "
        f"bytes for at most {NCAT} keys x {W} workers; the "
        f"{survivors:,} surviving {per_row}-byte rows themselves are "
        f"{survivors * per_row:,} bytes. Its volume grows with keys x "
        f"workers, not with rows. Per-category means match the serial "
        f"computation to 1e-10 (partial sums change the summation "
        f"order).")
    return section.render()


def test_group_aggregate(benchmark):
    rec = _records()[:50_000]
    with OdinContext(W) as ctx:
        t = tabular.from_records(rec, ctx=ctx)

        def run():
            return tabular.group_aggregate(t, "category", "value", "sum")

        out = benchmark(run)
        assert out.shape[0] == NCAT


if __name__ == "__main__":
    main(generate_report)
