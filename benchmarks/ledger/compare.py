"""``compare A.json B.json``: is B worse than A, and can we tell?

One row per (workload, end-to-end metric).  The verdict is ``worse``
when B's median exceeds A's by more than the metric's bound, ``ok`` when
it does not, and ``unresolved`` when the answer cannot be trusted: the
two hosts differ, or the run-to-run spread of either file (the
interquartile distance of its per-child values over their median) is
itself wider than the bound -- unless B is so much worse that its lower
quartile lies above A's upper quartile.  ``fail_frac`` is worse on any increase.  When both files hold
a traced pass, each ``rep_s`` row also names the layer whose self time
per repetition grew most: that is where a regression went.
"""

from __future__ import annotations

from .report import END_TO_END, SETUP_FLOOR_S, all_ranks
from .stats import quartiles, spread

FINGERPRINT_KEYS = ("nproc", "cpu_model", "python", "numpy", "machine")


def same_host(a, b):
    fa, fb = a.get("fingerprint", {}), b.get("fingerprint", {})
    return all(fa.get(k) == fb.get(k) for k in FINGERPRINT_KEYS)


def _beyond(metric, relative, absolute):
    """Whether a change, or a spread, exceeds the metric's bound.  Set-up
    time must also move by more than the absolute floor."""
    bound = END_TO_END[metric][2]
    return relative > bound and (metric != "setup_s"
                                 or absolute > SETUP_FLOOR_S)


def verdict(metric, a, b, comparable=True):
    """Row for one metric of one workload; *a* and *b* are ledger
    entries (parent and change)."""
    unit, _better, bound = END_TO_END[metric]
    va, vb = a[metric], b[metric]
    by_a, by_b = a[metric + "_by_child"], b[metric + "_by_child"]
    worse = _beyond(metric, vb / va - 1, vb - va)
    noisy = any(_beyond(metric, spread(v), q3 - q1)
                for v in (by_a, by_b) for q1, q3 in [quartiles(v)])
    qa, qb = quartiles(by_a), quartiles(by_b)
    if noisy and worse and qb[0] > qa[1]:
        noisy = False       # the distributions do not even overlap
    row = {"metric": metric, "unit": unit, "a": va, "b": vb,
           "a_quartiles": qa, "b_quartiles": qb,
           "change": vb / va - 1, "bound": bound}
    row["verdict"] = ("unresolved" if noisy or not comparable
                      else "worse" if worse else "ok")
    return row


def attribute(a, b):
    """``(layer, seconds)``: the layer whose self time per repetition,
    summed over ranks, grew most from traced entry *a* to *b*."""
    la, lb = all_ranks(a), all_ranks(b)
    growth = {layer: lb.get(layer, {}).get("wall_s", 0.0)
              - la.get(layer, {}).get("wall_s", 0.0)
              for layer in set(la) | set(lb)}
    layer = max(growth, key=growth.get)
    return layer, growth[layer]


def compare(a, b):
    """All rows for two result files (as dicts)."""
    comparable = same_host(a, b)
    rows = []
    for name, ea in a["workloads"].items():
        eb = b["workloads"].get(name)
        if eb is None:
            continue
        if "rep_s" not in ea or "rep_s" not in eb:
            rows.append({"workload": name, "metric": "rep_s", "unit": "s",
                         "verdict": "worse" if "rep_s" in ea
                         else "unresolved"})
            continue
        for metric in END_TO_END:
            rows.append(dict(verdict(metric, ea, eb, comparable),
                             workload=name))
        ta = a.get("traced", {}).get(name, {})
        tb = b.get("traced", {}).get(name, {})
        if "ranks" in ta and "ranks" in tb:
            row = next(r for r in rows[-len(END_TO_END):]
                       if r["metric"] == "rep_s")
            row["layer"], row["layer_growth_s"] = attribute(ta, tb)
        fa, fb = ea["fail_frac"], eb["fail_frac"]
        rows.append({"workload": name, "metric": "fail_frac", "unit": "",
                     "a": fa, "b": fb, "change": fb - fa, "bound": 0.0,
                     "verdict": "worse" if fb > fa else "ok"})
    return rows


def format_rows(rows, comparable=True):
    lines = [] if comparable else [
        "host fingerprints differ: every timing verdict is unresolved"]
    lines.append(f"{'workload':<16} {'metric':<12} {'A':>12} {'B':>12} "
                 f"{'change':>8} {'bound':>6}  A q1..q3 / B q1..q3"
                 f"{'':<14} verdict")
    for r in rows:
        if "a" not in r:
            lines.append(f"{r['workload']:<16} {r['metric']:<12} "
                         f"{'(no result)':>42}  {r['verdict']}")
            continue
        qs = ""
        if "a_quartiles" in r:
            qs = "{:.4g}..{:.4g} / {:.4g}..{:.4g}".format(
                *r["a_quartiles"], *r["b_quartiles"])
        lines.append(
            f"{r['workload']:<16} {r['metric']:<12} {r['a']:>12.6g} "
            f"{r['b']:>12.6g} {r['change']:>+8.1%} {r['bound']:>6.0%}  "
            f"{qs:<40} {r['verdict']}"
            + (f"  (most growth: {r['layer']} "
               f"{r['layer_growth_s'] * 1e3:+.3f} ms/rep)"
               if "layer" in r and r["verdict"] == "worse" else ""))
    return "\n".join(lines)
