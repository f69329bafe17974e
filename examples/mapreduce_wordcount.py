"""Paper section III-I: distributed tabular data and Map-Reduce.

A word-count-shaped pipeline over a distributed structured array: map
(normalize scores), filter (drop invalid rows), and a shuffled group-by
aggregation -- "distributed structured arrays provide the fundamental
components for parallel Map-Reduce style computations."
"""

import numpy as np

from repro import odin
from repro.odin import tabular

odin.init(nworkers=4)

# synthetic event log: (category id, score) records
N = 200_000
rng = np.random.default_rng(0)
records = np.zeros(N, dtype=[("category", "i8"), ("score", "f8")])
records["category"] = rng.integers(0, 12, size=N)
records["score"] = rng.normal(loc=records["category"], scale=2.0)

table = tabular.from_records(records)
print(f"distributed table: {table.shape[0]:,} records on "
      f"{table.dist.nworkers} workers")

# MAP: clip scores into [0, 20) (stays worker-local)
def normalize(block):
    out = block.copy()
    out["score"] = np.clip(out["score"], 0.0, 20.0)
    return out


table = tabular.map_records(normalize, table)

# FILTER: keep only confident rows (length changes per worker)
table = tabular.filter_records(lambda b: b["score"] > 1.0, table)
print(f"after filter: {table.shape[0]:,} records "
      f"(counts per worker: {table.dist.counts()})")

# REDUCE: per-category mean score; each worker combines its rows per key
# and only those partials are shuffled, by key hash, between workers
means = tabular.group_aggregate(table, "category", "score", op="mean")
counts = tabular.group_aggregate(table, "category", "score", op="count")

m = {int(r["key"]): float(r["value"]) for r in means.gather()}
c = {int(r["key"]): int(r["value"]) for r in counts.gather()}

# serial reference
ref_tbl = records.copy()
ref_tbl["score"] = np.clip(ref_tbl["score"], 0.0, 20.0)
ref_tbl = ref_tbl[ref_tbl["score"] > 1.0]

print(f"\n{'category':>9}{'count':>10}{'mean score':>12}{'serial ref':>12}")
for k in sorted(m):
    ref = ref_tbl["score"][ref_tbl["category"] == k].mean()
    print(f"{k:>9}{c[k]:>10}{m[k]:>12.4f}{ref:>12.4f}")
    assert np.isclose(m[k], ref)

print("\ndistributed Map-Reduce matches the serial computation.")
odin.shutdown()
