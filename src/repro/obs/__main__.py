"""Pretty-print a live process's observability endpoints.

Usage::

    python -m repro.obs status  --port 9100
    python -m repro.obs metrics --port 9100
    python -m repro.obs flight  --port 9100 --out flight.json
    python -m repro.obs profile --port 9100 --seconds 2 --out out.folded

``--port`` defaults to ``REPRO_OBS_PORT`` so the same environment
variable that switches the endpoint on in the workload also points
this CLI at it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import urllib.request
from collections import Counter


def _fetch(host: str, port: int, path: str, timeout: float = 10.0) -> str:
    url = f"http://{host}:{port}{path}"
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.read().decode("utf-8")


def _render_status(doc: dict) -> str:
    lines = [f"pid {doc.get('pid')}: {len(doc.get('contexts', []))} "
             f"live context(s)"]
    for ctx in doc.get("contexts", []):
        if "error" in ctx:
            lines.append(f"  context error: {ctx['error']}")
            continue
        lines.append(
            f"  {ctx.get('kind', 'context')}: "
            f"{ctx.get('nworkers')} worker(s), "
            f"{'alive' if ctx.get('alive') else 'shut down'}, "
            f"op_id={ctx.get('op_id')} epoch_id={ctx.get('epoch_id')} "
            f"epoch_len={ctx.get('epoch_len')}"
            f"{' batching' if ctx.get('batching') else ''}"
            f"{' recover' if ctx.get('recover') else ''}")
        if ctx.get("recover"):
            lines.append(f"    ckpt version {ctx.get('ckpt_version')}, "
                         f"op-log length {ctx.get('oplog_len')}")
        plan = ctx.get("plan_cache")
        if plan:
            lines.append(f"    plans built: {plan.get('misses')}")
        for r in ctx.get("ranks", []):
            state = ("FAILED" if r.get("failed")
                     else r.get("pending") or "idle")
            seq = r.get("op_seq")
            seq_txt = f" [op #{seq}]" if seq is not None else ""
            lines.append(f"    rank {r.get('rank')}: {state}{seq_txt} "
                         f"(heartbeat {r.get('heartbeat_age_s')}s ago)")
    return "\n".join(lines)


def _render_flight(doc: dict) -> str:
    events = [e for e in doc.get("traceEvents", [])
              if e.get("ph") in ("X", "i")]
    by_cat = Counter(e.get("cat", "?") for e in events)
    lines = [f"flight recorder: {len(events)} event(s)"]
    for cat, n in by_cat.most_common():
        lines.append(f"  {cat:<16} {n}")
    fault = (doc.get("otherData") or {}).get("last_fault")
    if fault:
        lines.append(f"last fault: {fault.get('kind')} "
                     f"(op_id={fault.get('op_id')}) "
                     f"{fault.get('detail') or ''}".rstrip())
    lines.append("(use --out FILE to save the loadable trace JSON)")
    return "\n".join(lines)


def main(argv=None) -> int:
    env_port = os.environ.get("REPRO_OBS_PORT", "").strip()
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Query a live process's repro.obs status endpoint.")
    parser.add_argument("what",
                        choices=["status", "metrics", "flight", "profile"])
    parser.add_argument("--port", type=int,
                        default=int(env_port) if env_port.isdigit() else 0,
                        help="endpoint port (default: $REPRO_OBS_PORT)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--seconds", type=float, default=0.5,
                        help="profile sampling window (profile only)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="also write the raw response to FILE")
    parser.add_argument("--raw", action="store_true",
                        help="print the raw response instead of the "
                             "pretty rendering")
    args = parser.parse_args(argv)
    if not args.port:
        parser.error("--port is required (or set REPRO_OBS_PORT)")

    path = {"status": "/status", "metrics": "/metrics",
            "flight": "/flight",
            "profile": f"/profile?seconds={args.seconds}"}[args.what]
    try:
        body = _fetch(args.host, args.port, path)
    except OSError as exc:
        print(f"error: cannot reach http://{args.host}:{args.port}{path}: "
              f"{exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(body)
        print(f"wrote {len(body)} bytes to {args.out}")
    if args.raw or args.what in ("metrics", "profile"):
        sys.stdout.write(body)
    elif args.what == "status":
        print(_render_status(json.loads(body)))
    elif args.what == "flight":
        print(_render_flight(json.loads(body)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
