"""Command line of the ledger.

``python -m benchmarks.ledger run --seed S --out FILE.json [--trace]``
runs every workload and the probes; ``probes`` runs the probes alone;
``compare A.json B.json`` judges B against A.  ``run.py`` in this
directory is the one-workload entry that ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

from . import SCHEMA, compare as cmp, harness, probes, report
from .workloads import WORKLOADS

DEFAULT_SECONDS = 8


def fingerprint():
    import numpy
    import scipy
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "machine": platform.machine(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             cwd=str(harness.ROOT), capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def require_library():
    if not (harness.ROOT / "src" / "repro").is_dir():
        sys.exit(f"ledger: {harness.ROOT / 'src' / 'repro'} not found: "
                 f"the benchmark measures the library in this checkout")


def _parse_stretch(text):
    if not text:
        return None
    layer, _, frac = text.partition("=")
    return {layer: float(frac)}


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------
def cmd_run(args):
    require_library()
    names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    doc = {"schema": SCHEMA, "fingerprint": fingerprint(),
           "commit": git_commit(), "seed": args.seed,
           "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
           "loadavg_start": os.getloadavg()[0], "quick": args.quick,
           "seconds": args.seconds, "workloads": {}, "traced": {}}
    common = dict(seed=args.seed, seconds=args.seconds, quick=args.quick,
                  stretch=_parse_stretch(args.stretch))
    print(f"# ledger run: seed {args.seed}, {len(names)} workloads, "
          f"p=2, closed loop" + (" [quick: no timing verdicts]"
                                 if args.quick else ""))
    for name in names:
        entry = harness.measure(name, **common)
        doc["workloads"][name] = entry
        print(report.format_entry(entry), flush=True)
    if args.trace:
        print("\n# traced pass: per-layer self time per repetition "
              "(busy = CPU, wait = blocked)")
        for name in names:
            entry = harness.measure(name, trace=True, spans_dir=args.spans,
                                    **common)
            doc["traced"][name] = entry
            if "ranks" in entry:
                entry["layer_metrics"] = report.layer_metrics(entry)
                untraced = doc["workloads"][name]
                if "rep_s" in untraced:
                    entry["trace_overhead"] = \
                        entry["rep_s"] / untraced["rep_s"] - 1
                print(report.format_layers(entry, untraced), flush=True)
            else:
                print(report.format_entry(entry), flush=True)
    if not args.workloads:
        doc["probes"] = harness.run_probes(args.quick)
        print("\n# probes")
        print(probes.format_probes(doc["probes"]))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"\nwritten to {args.out}")
    entries = list(doc["workloads"].values()) + list(doc["traced"].values())
    bad = [e["workload"] for e in entries if e["failed"] or e["crashed"]]
    if bad:
        print(f"FAILED oracle checks or crashed: {sorted(set(bad))}")
        return 1
    return 0


def cmd_probes(args):
    require_library()
    result = harness.run_probes(args.quick)
    print(probes.format_probes(result))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"schema": SCHEMA, "fingerprint": fingerprint(),
                       "probes": result}, fh, indent=1, sort_keys=True)
    return 0


def cmd_compare(args):
    with open(args.a) as fh:
        a = json.load(fh)
    with open(args.b) as fh:
        b = json.load(fh)
    rows = cmp.compare(a, b)
    print(cmp.format_rows(rows, cmp.same_host(a, b)))
    worse = [r for r in rows if r["verdict"] == "worse"]
    unresolved = [r for r in rows if r["verdict"] == "unresolved"]
    print(f"{len(rows)} rows: {len(worse)} worse, {len(unresolved)} "
          f"unresolved")
    return 1 if worse else 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger",
                                     description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="run every workload")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out")
    run.add_argument("--trace", action="store_true",
                     help="run a second, traced pass for the layer table")
    run.add_argument("--quick", action="store_true",
                     help="3 repetitions each: correctness and schema only")
    run.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                     help="timed seconds per workload")
    run.add_argument("--workloads", help="comma-separated subset "
                     "(skips the probes)")
    run.add_argument("--spans", help="directory for raw span dumps")
    run.add_argument("--stretch", help="LAYER=FRACTION: burn that share "
                     "of the layer's CPU again (the self-test's slowdown)")
    run.set_defaults(fn=cmd_run)
    pr = sub.add_parser("probes", help="run the layer probes")
    pr.add_argument("--quick", action="store_true")
    pr.add_argument("--out")
    pr.set_defaults(fn=cmd_probes)
    co = sub.add_parser("compare", help="judge B.json against A.json")
    co.add_argument("a")
    co.add_argument("b")
    co.set_defaults(fn=cmd_compare)
    args = parser.parse_args(argv)
    return args.fn(args)


# ----------------------------------------------------------------------
# the BENCHMARK.json entry: one workload, one JSON line
# ----------------------------------------------------------------------
def bench_main(argv):
    parser = argparse.ArgumentParser(prog="benchmarks/ledger/run.py")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_library()
    entry = harness.measure(args.workload, args.seed, args.seconds,
                            trace=bool(args.trace))
    if "rep_s" not in entry:
        sys.stderr.write("\n".join(entry["crashed"]) + "\n")
        return 1
    if args.trace:
        print(report.format_layers(entry))
        values = report.layer_metrics(entry)
        units = report.PER_LAYER
    else:
        print(report.format_entry(entry))
        values = {k: entry[k] for k in report.END_TO_END}
        units = {k: v[0] for k, v in report.END_TO_END.items()}
    print(json.dumps({
        "correct": entry["failed"] == 0 and not entry["crashed"],
        "attempted": entry["attempted"], "failed": entry["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units}}))
    return 0
