"""Run one workload: the child that measures, the parent that repeats it.

:func:`measure` is the parent.  It starts fresh child processes, one
after another, until their timed repetitions add up to the requested
seconds (at least three, so ``setup_s`` is a median of several set-ups,
at most seven).  Each child gets a scrubbed environment and its own
``TMPDIR`` inside the checkout, so the Seamless ``cc`` disk cache is cold
and compile time lands in ``setup_s`` every time.

:func:`child_main` is the child: generate inputs and the oracle outside
the timers, set the system up, run one untimed warm-up repetition, then
the closed loop -- the next repetition starts only after the previous
result was checked.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import signal
import subprocess
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

from . import spans
from .stats import median, summary
from .workloads import NRANKS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SCRATCH = ROOT / ".ledger_tmp"
MIN_CHILDREN, MAX_CHILDREN = 3, 7
QUICK_REPS = 3
CHILD_TIMEOUT = 150


# ----------------------------------------------------------------------
# the child
# ----------------------------------------------------------------------
def timed_loop(rep, check, nreps, traced):
    """The closed loop: returns (seconds per repetition, failed count,
    last result)."""
    times, failed, out = [], 0, None
    root = spans.rep if traced else nullcontext
    for i in range(nreps):
        t0 = perf_counter()
        with root(i):
            out = rep(i)
        t1 = perf_counter()
        times.append(t1 - t0)
        if not check(out):
            failed += 1
    return times, failed, out


def _drain_worker():
    return spans.drain()


def _odin_counters(ctx):
    ctl = ctx.control_traffic()
    return {"ops": ctx.status()["op_id"], "ctl_msgs": ctl[0],
            "ctl_bytes": ctl[1]}


def _algorithms(delta):
    """``op/algorithm -> calls`` of a counter delta, JSON-friendly."""
    return {f"{op}/{algo}": n for (op, algo), n in delta.coll_calls.items()}


def _run_odin(wl, inputs, expected, nreps, traced):
    from repro import odin
    from repro.odin.context import OdinContext
    drain = odin.local(_drain_worker, name="ledger.drain") if traced \
        else None

    def drain_workers(ctx):
        replies = ctx.call_local(drain.name, (), {}, out_id=None)
        return [payload for _tag, payload in replies]

    ctx = OdinContext(NRANKS, backend=wl.backend)
    try:
        state = wl.setup(ctx, inputs)
        out = wl.rep(state, -1)
        t_ready = perf_counter()
        warm_ok = wl.check(state, out, expected, deep=True)
        del out
        setup_records = None
        if traced:
            setup_records = [spans.drain()] + drain_workers(ctx)
        plan0 = ctx.plan_cache_stats()
        wrk0 = ctx.worker_traffic()
        drv0 = _odin_counters(ctx)
        snap0 = ctx.comm.traffic_snapshot()
        times, failed, out = timed_loop(
            lambda i: wl.rep(state, i),
            lambda o: wl.check(state, o, expected), nreps, traced)
        coll = _algorithms(ctx.comm.traffic_snapshot() - snap0)
        drv1 = _odin_counters(ctx)
        wrk1 = ctx.worker_traffic()
        plan1 = ctx.plan_cache_stats()
        records = None
        if traced:
            records = [spans.drain()] + drain_workers(ctx)
        counters = {k: drv1[k] - drv0[k] for k in drv0}
        counters["wrk_msgs"] = wrk1[0] - wrk0[0]
        counters["wrk_bytes"] = wrk1[1] - wrk0[1]
        counters["plan_hits"] = plan1["hits"] - plan0["hits"]
        counters["plan_misses"] = plan1["misses"] - plan0["misses"]
        extra = wl.extra(state, out)
        del out, state
    finally:
        t0 = perf_counter()
        ctx.shutdown()
        teardown = perf_counter() - t0
    return {"t_ready": t_ready, "warm_ok": warm_ok, "times": [times],
            "failed": failed, "counters": counters,
            "coll_calls": coll,      # the driver's side of each control op
            "extra": extra, "teardown_s": teardown,
            "records": records, "setup_records": setup_records}


def _spmd_body(comm, wl, inputs, expected, nreps, traced):
    spans.reset()
    state = wl.setup(comm, inputs)
    out = wl.rep(state, -1)
    t_ready = perf_counter()
    warm_ok = wl.check(state, out, expected, deep=True)
    setup_records = spans.drain() if traced else None
    snap0 = comm.traffic_snapshot()
    times, failed, out = timed_loop(
        lambda i: wl.rep(state, i),
        lambda o: wl.check(state, o, expected), nreps, traced)
    delta = comm.traffic_snapshot() - snap0
    return {"t_ready": t_ready, "warm_ok": warm_ok, "times": times,
            "failed": failed, "msgs": delta.sends,
            "bytes": delta.bytes_sent,
            "coll_calls": _algorithms(delta),
            "extra": wl.extra(state, out),
            "records": spans.drain() if traced else None,
            "setup_records": setup_records}


def _run_spmd(wl, inputs, expected, nreps, traced):
    from repro import mpi
    ranks = mpi.run_spmd(_spmd_body, NRANKS,
                         args=(wl, inputs, expected, nreps, traced),
                         backend=wl.backend)
    coll = {}
    for r in ranks:
        for key, n in r["coll_calls"].items():
            coll[key] = coll.get(key, 0) + n
    return {"t_ready": max(r["t_ready"] for r in ranks),
            "warm_ok": all(r["warm_ok"] for r in ranks),
            "times": [r["times"] for r in ranks],
            # a repetition fails if it fails on any rank; ranks run in
            # lock-step, so the largest per-rank count is a lower bound
            "failed": max(r["failed"] for r in ranks),
            "counters": {"msgs": sum(r["msgs"] for r in ranks),
                         "bytes": sum(r["bytes"] for r in ranks)},
            "coll_calls": coll, "extra": ranks[0]["extra"],
            "teardown_s": 0.0,
            "records": [r["records"] for r in ranks] if traced else None,
            "setup_records": [r["setup_records"] for r in ranks]
            if traced else None}


def _layer_tables(wl, raw):
    """Per-rank layer tables of the timed loop, plus the set-up's."""
    loop_ranks = raw["times"]       # one list per rank that ran the loop
    windows = []
    names = ["driver"] + [f"worker{i}" for i in range(NRANKS)] \
        if wl.kind == "odin" else [f"rank{i}" for i in range(NRANKS)]
    tables = {}
    for k, records in enumerate(raw["records"]):
        if k < len(loop_ranks):
            a = spans.analyse(records, wall=sum(loop_ranks[k]))
            if k == 0:
                windows = sorted((r[2], r[3]) for r in records
                                 if r and r[0] == spans.GLUE and r[5] < 0)
        else:
            a = spans.analyse(records, windows=windows)
        tables[names[k]] = a
    setup = spans.merge(spans.analyse(records)
                        for records in raw["setup_records"])
    return tables, setup


def run_child(spec, t_entry):
    """Measure one child's worth of *spec*; returns the result dict."""
    wl = WORKLOADS[spec["workload"]]
    traced = bool(spec["trace"])
    nreps = spec["reps"] or wl.reps
    t0 = perf_counter()
    inputs = wl.inputs(spec["seed"])
    t1 = perf_counter()
    expected = wl.oracle(inputs)
    t2 = perf_counter()
    if traced or spec.get("stretch"):
        spans.install(stretch=spec.get("stretch"))
    run = _run_odin if wl.kind == "odin" else _run_spmd
    raw = run(wl, inputs, expected, nreps, traced)
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    # a repetition ends when its slowest rank does
    times = [max(per_rank) for per_rank in zip(*raw["times"])]
    failed = raw["failed"] if raw["warm_ok"] else len(times)
    counters = {k: v / nreps for k, v in raw["counters"].items()}
    if wl.kind == "odin":
        counters["msgs"] = counters["ctl_msgs"] + counters["wrk_msgs"]
        counters["bytes"] = counters["ctl_bytes"] + counters["wrk_bytes"]
    result = {
        "workload": wl.name, "seed": spec["seed"], "trace": traced,
        "times": times, "attempted": len(times), "failed": failed,
        # inputs and oracle are the benchmark's work, not the library's
        "setup_s": raw["t_ready"] - t_entry - (t2 - t0),
        "oracle_s": t2 - t1,
        "teardown_s": raw["teardown_s"],
        "peak_rss_mb": usage / 1024.0,
        "counters": counters,
        "coll_calls": {k: v / nreps for k, v in raw["coll_calls"].items()},
        "extra": raw["extra"],
    }
    if traced:
        tables, setup = _layer_tables(wl, raw)
        result["ranks"] = tables
        result["setup_layers"] = setup
        if spec.get("spans_path"):
            with open(spec["spans_path"], "w") as fh:
                json.dump(raw["records"], fh)
    return result


def child_main(spec_json, t_entry):
    spec = json.loads(spec_json)
    if spec.get("probes"):
        from . import probes
        result = probes.run_all(spec["quick"])
    else:
        result = run_child(spec, t_entry)
    tmp = spec["out"] + ".part"
    with open(tmp, "w") as fh:
        json.dump(result, fh)
    os.replace(tmp, spec["out"])
    return 0


# ----------------------------------------------------------------------
# the parent
# ----------------------------------------------------------------------
def scrubbed_env(tmpdir):
    """The child's environment: no REPRO_* knob survives, TMPDIR fresh."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONPATH"}
    env["TMPDIR"] = str(tmpdir)
    return env


def _spawn(spec, workdir):
    out = workdir / "result.json"
    err = workdir / "stderr.txt"
    tmp = workdir / "tmp"
    tmp.mkdir()
    spec = dict(spec, out=str(out))
    with open(err, "w") as errfh:
        # its own process group, so a child that dies or hangs cannot
        # leave forked ranks behind
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--child",
             json.dumps(spec)],
            stdout=subprocess.DEVNULL, stderr=errfh,
            env=scrubbed_env(tmp), cwd=str(ROOT), start_new_session=True)
        try:
            proc.wait(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            pass
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    stderr = err.read_text(errors="replace")
    result = json.loads(out.read_text()) if out.exists() else None
    return proc.returncode, result, stderr


@contextmanager
def _scratch(tag):
    """A directory of our own inside the checkout, removed afterwards."""
    SCRATCH.mkdir(exist_ok=True)
    base = SCRATCH / f"{os.getpid()}-{tag}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir()
    try:
        yield base
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass            # another measurement is using it


def measure(name, seed, seconds, trace=False, quick=False, stretch=None,
            spans_dir=None):
    """Run children for *name* and merge them into one ledger entry."""
    wl = WORKLOADS[name]
    children, stderr_lines, crashed = [], 0, []
    timed = 0.0
    with _scratch(f"{name}-{int(trace)}") as base:
        while True:
            k = len(children)
            workdir = base / str(k)
            workdir.mkdir()
            spec = {"workload": name, "seed": seed, "trace": int(trace),
                    "reps": QUICK_REPS if quick else 0,
                    "stretch": stretch,
                    "spans_path": str(Path(spans_dir) / f"{name}.{k}.json")
                    if spans_dir else None}
            code, result, stderr = _spawn(spec, workdir)
            stderr_lines += len(stderr.splitlines())
            if code != 0 or result is None:
                crashed.append(stderr[-2000:])
                break
            children.append(result)
            timed += sum(result["times"])
            if quick or len(children) >= MAX_CHILDREN or \
                    (len(children) >= MIN_CHILDREN and timed >= seconds):
                break
    return merge_children(wl, seed, children, crashed, stderr_lines,
                          quick)


def run_probes(quick=False):
    """The layer probes, in one fresh child."""
    with _scratch("probes") as base:
        code, result, stderr = _spawn({"probes": True, "quick": quick},
                                      base)
    if code != 0 or result is None:
        raise RuntimeError(f"probe child failed:\n{stderr[-2000:]}")
    return result


def merge_children(wl, seed, children, crashed, stderr_lines, quick=False):
    nominal = QUICK_REPS if quick else wl.reps
    times = [t for c in children for t in c["times"]]
    attempted = sum(c["attempted"] for c in children) \
        + nominal * len(crashed)
    failed = sum(c["failed"] for c in children) + nominal * len(crashed)
    entry = {
        "workload": wl.name, "why": wl.why, "backend": wl.backend,
        "nranks": NRANKS, "seed": seed, "children": len(children),
        "crashed": crashed, "stderr_lines": stderr_lines,
        "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted if attempted else 1.0,
        "reps_per_child": nominal,
    }
    if not children:
        return entry
    rep = summary(times)
    entry.update({
        "rep_s": rep["median"], "rep": rep,
        "rep_s_by_child": [median(c["times"]) for c in children],
        "setup_s": median([c["setup_s"] for c in children]),
        "setup_s_by_child": [c["setup_s"] for c in children],
        "peak_rss_mb": median([c["peak_rss_mb"] for c in children]),
        "peak_rss_mb_by_child": [c["peak_rss_mb"] for c in children],
        "teardown_s": median([c["teardown_s"] for c in children]),
        "unit": wl.unit,
        "units_per_s": wl.units_per_rep / rep["median"],
        "oracle_rep_s": median([c["oracle_s"] for c in children]),
        "counters": children[0]["counters"],
        "coll_calls": children[0]["coll_calls"],
        "extra": children[0]["extra"],
        # exact counts must be the same in every child of one seed
        "counters_exact": all(
            (c["counters"], c["coll_calls"], c["extra"])
            == (children[0]["counters"], children[0]["coll_calls"],
                children[0]["extra"]) for c in children),
    })
    entry["vs_serial"] = entry["oracle_rep_s"] / entry["rep_s"]
    if children[0].get("ranks"):
        entry["ranks"] = _merge_ranks(children)
        entry["setup_layers"] = _per_rep(
            spans.merge({"layers": c["setup_layers"]} for c in children),
            len(children))
    return entry


def _per_rep(layers, n):
    return {layer: {k: v / n for k, v in agg.items()}
            for layer, agg in layers.items()}


def _merge_ranks(children):
    """Per rank: layer table per repetition, wall per repetition and the
    worst sum-to-wall error over the children."""
    out = {}
    nreps = sum(c["attempted"] for c in children)
    for rank in children[0]["ranks"]:
        parts = [c["ranks"][rank] for c in children]
        out[rank] = {
            "layers": _per_rep(spans.merge(parts), nreps),
            "wall_s": sum(p["wall_s"] for p in parts) / nreps,
            "sum_err": max(p["sum_err"] for p in parts),
        }
    return out
