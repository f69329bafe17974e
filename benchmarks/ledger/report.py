"""Names, units, bounds and the printed tables of the ledger.

The metric names here are the vocabulary later issues use; the list in
``BENCHMARK.json`` is checked against them by the self-test.
"""

from __future__ import annotations

from . import spans

# name -> (unit, better, bound as a share of the median).  These are the
# bounds ``compare`` judges by; it can afford them because it answers
# ``unresolved`` when the spread is wider.  ``BENCHMARK.json`` gives the
# benchmark driver, which only accepts or rejects, wider ones (README).
END_TO_END = {
    "rep_s": ("s", "lower", 0.10),
    "setup_s": ("s", "lower", 0.15),
    "peak_rss_mb": ("MB", "lower", 0.10),
}
SETUP_FLOOR_S = 0.050    # setup_s is worse only beyond its bound AND this

PER_LAYER = {
    "mpi.transport.msgs": "count", "mpi.transport.bytes": "B",
    "mpi.runtime.calls": "count", "mpi.runtime.busy_s": "s",
    "mpi.comm.calls": "count", "mpi.comm.busy_s": "s",
    "mpi.comm.algorithms": "count", "mpi.wait_s": "s",
    "odin.context.ops": "count", "odin.context.busy_s": "s",
    "odin.context.ctl_msgs": "count", "odin.context.ctl_bytes": "B",
    "odin.worker.busy_s": "s", "odin.worker.plan_hits": "count",
    "odin.worker.plan_misses": "count",
    "odin.fusion.busy_s": "s", "odin.fusion.computed_bytes": "B",
    "seamless.compile_s": "s", "seamless.kernel_s": "s",
    "tpetra.busy_s": "s", "solvers.prec_s": "s",
    "solvers.iterations": "count", "solvers.busy_s": "s",
    "bench.glue_s": "s", "oracle.rep_s": "s",
    "trace.rep_s": "s", "trace.sum_err": "%",
}

_BUSY = {"mpi.runtime.busy_s": "mpi.runtime", "mpi.comm.busy_s": "mpi.comm",
         "odin.context.busy_s": "odin.context",
         "odin.worker.busy_s": "odin.worker",
         "odin.fusion.busy_s": "odin.fusion",
         "seamless.kernel_s": "seamless.kernel", "tpetra.busy_s": "tpetra",
         "solvers.prec_s": "solvers.prec", "solvers.busy_s": "solvers",
         "bench.glue_s": spans.GLUE}


def all_ranks(entry):
    """Layer table summed over the ranks of a traced entry."""
    return spans.merge(entry["ranks"].values())


def layer_metrics(entry):
    """Every per-layer metric of a traced entry, per repetition and
    summed over ranks; counts are exact, times are medians' inputs."""
    layers = all_ranks(entry)
    c = entry["counters"]

    def get(layer, key):
        return layers.get(layer, {}).get(key, 0.0)

    out = {name: get(layer, "cpu_s") for name, layer in _BUSY.items()}
    out.update({
        "mpi.transport.msgs": c["msgs"], "mpi.transport.bytes": c["bytes"],
        "mpi.runtime.calls": get("mpi.runtime", "calls"),
        "mpi.comm.calls": get("mpi.comm", "calls"),
        "mpi.comm.algorithms": len(entry["coll_calls"]),
        "mpi.wait_s": sum(max(get(l, "wall_s") - get(l, "cpu_s"), 0.0)
                          for l in ("mpi.runtime", "mpi.comm")),
        "odin.context.ops": c.get("ops", 0),
        "odin.context.ctl_msgs": c.get("ctl_msgs", 0),
        "odin.context.ctl_bytes": c.get("ctl_bytes", 0),
        "odin.worker.plan_hits": c.get("plan_hits", 0),
        "odin.worker.plan_misses": c.get("plan_misses", 0),
        "odin.fusion.computed_bytes":
            entry["extra"].get("odin.fusion.computed_bytes", 0),
        # the compiler runs as a subprocess during set-up: wall, not CPU
        "seamless.compile_s": entry["setup_layers"].get(
            "seamless.compile", {}).get("wall_s", 0.0),
        "solvers.iterations": entry["extra"].get("solvers.iterations", 0),
        "oracle.rep_s": entry["oracle_rep_s"],
        "trace.rep_s": entry["rep_s"],
        "trace.sum_err": 100.0 * max(r["sum_err"]
                                     for r in entry["ranks"].values()),
    })
    return out


def busy_share(entry, layers):
    """Share of all ranks' CPU inside *layers*."""
    table = all_ranks(entry)
    total = sum(a["cpu_s"] for a in table.values())
    return sum(table.get(l, {}).get("cpu_s", 0.0) for l in layers) / total \
        if total else 0.0


# ----------------------------------------------------------------------
# printing
# ----------------------------------------------------------------------
def format_entry(entry):
    """Every end-to-end metric of one workload, by name with its unit."""
    name = entry["workload"]
    if "rep_s" not in entry:
        return f"{name}: no child finished ({len(entry['crashed'])} crashed)"
    rep = entry["rep"]
    high = (f"p{rep['high_p']}={rep['high_value'] * 1e3:.2f}ms"
            if rep["high_p"] else "p--")
    return (
        f"{name}\n"
        f"  rep_s        {entry['rep_s']:.6f} s   (n={rep['n']}, "
        f"q1={rep['q1'] * 1e3:.2f}ms q3={rep['q3'] * 1e3:.2f}ms {high}, "
        f"{entry['units_per_s']:.4g} {entry['unit']}/s, "
        f"vs_serial={entry['vs_serial']:.3g})\n"
        f"  setup_s      {entry['setup_s']:.6f} s   "
        f"(median of {entry['children']} set-ups)\n"
        f"  peak_rss_mb  {entry['peak_rss_mb']:.3f} MB\n"
        f"  fail_frac    {entry['fail_frac']:.6f}     "
        f"({entry['failed']}/{entry['attempted']} failed, "
        f"{entry['stderr_lines']} stderr lines, counts "
        f"{'exact' if entry['counters_exact'] else 'DIFFER between children'})")


def format_layers(entry, untraced=None):
    """The per-layer table of one traced workload."""
    lines = [f"{entry['workload']}  (traced rep_s {entry['rep_s']:.6f} s"]
    if untraced and "rep_s" in untraced:
        overhead = entry["rep_s"] / untraced["rep_s"] - 1
        lines[0] += f", trace_overhead {overhead:+.1%}"
    lines[0] += ")"
    lines.append(f"  {'rank':<8} {'layer':<17} {'calls':>8} {'busy ms':>9} "
                 f"{'wait ms':>9} {'share':>6}")
    for rank, table in entry["ranks"].items():
        wall = table["wall_s"]
        for layer in spans.LAYERS:
            agg = table["layers"].get(layer)
            if not agg:
                continue
            wait = max(agg["wall_s"] - agg["cpu_s"], 0.0)
            lines.append(
                f"  {rank:<8} {layer:<17} {agg['calls']:>8.1f} "
                f"{agg['cpu_s'] * 1e3:>9.3f} {wait * 1e3:>9.3f} "
                f"{agg['wall_s'] / wall:>6.1%}")
        lines.append(f"  {rank:<8} {'= wall':<17} {'':>8} "
                     f"{wall * 1e3:>19.3f} (layers miss it by "
                     f"{table['sum_err']:.2%})")
    m = layer_metrics(entry)
    lines.append("  per repetition, all ranks: " + ", ".join(
        f"{k}={m[k]:.6g}{PER_LAYER[k]}" for k in PER_LAYER
        if not k.endswith("_s") and m[k]))
    if entry["coll_calls"]:
        lines.append("  algorithms: " + ", ".join(
            f"{k} x{v:g}" for k, v in sorted(entry["coll_calls"].items())))
    return "\n".join(lines)
