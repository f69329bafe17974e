"""Shared helpers for the benchmark suite.

Every bench module exposes ``generate_report() -> str`` producing the
table/series the corresponding paper artifact requires (see DESIGN.md's
experiment index); ``benchmarks/run_all.py`` collects them into
EXPERIMENTS.md.  The ``test_*`` functions additionally register wall-clock
timings with pytest-benchmark.
"""

from __future__ import annotations

import io
from typing import Callable, Iterable, List, Sequence

__all__ = ["table", "Section", "main"]


def table(headers: Sequence[str], rows: Iterable[Sequence], title: str = "",
          widths: Sequence[int] = None) -> str:
    """Render a fixed-width text table."""
    rows = [tuple(str(c) for c in row) for row in rows]
    if widths is None:
        widths = [max(len(h), *(len(r[i]) for r in rows)) + 2
                  if rows else len(h) + 2
                  for i, h in enumerate(headers)]
    out = io.StringIO()
    if title:
        out.write(title + "\n")
    header_line = "".join(h.ljust(w) for h, w in zip(headers, widths))
    out.write(header_line.rstrip() + "\n")
    out.write("-" * len(header_line.rstrip()) + "\n")
    for row in rows:
        out.write("".join(c.ljust(w)
                          for c, w in zip(row, widths)).rstrip() + "\n")
    return out.getvalue()


def main(generate_report: Callable[[], str]) -> None:
    """CLI entry point shared by every bench module's ``__main__`` block.

    Observability flags:

    ``--trace OUT.json``
        switch on :mod:`repro.trace` for the run and write a Chrome
        ``trace_event`` file (load it in ``chrome://tracing`` or
        https://ui.perfetto.dev).
    ``--metrics OUT.json``
        switch on :mod:`repro.metrics` (a view of the trace, so this
        keeps the full trace too) and write the folded metrics (plus the
        ``TimeMonitor`` table) as JSON.
    ``--analyze``
        switch on tracing and print the post-mortem analysis (load
        imbalance, wait states, critical path, communication matrix)
        after the report.
    ``--profile OUT.folded``
        sample every rank thread's stack during the run
        (:mod:`repro.obs.profiler`) and write flame-graph-ready folded
        stacks (feed to ``flamegraph.pl`` or speedscope).

    ``REPRO_TRACE=1`` in the environment enables collection too; the
    flags are how the data gets onto disk either way.
    """
    import argparse

    parser = argparse.ArgumentParser(
        description="Run this benchmark and print its report.")
    parser.add_argument(
        "--trace", metavar="OUT.json", default=None,
        help="enable repro.trace and write a Chrome trace_event JSON "
             "file of the run")
    parser.add_argument(
        "--metrics", metavar="OUT.json", default=None,
        help="enable repro.metrics and write the metric registry (and "
             "TimeMonitor table) as JSON")
    parser.add_argument(
        "--analyze", action="store_true",
        help="enable repro.trace and print the post-mortem analysis "
             "(imbalance, wait states, critical path, comm matrix)")
    parser.add_argument(
        "--profile", metavar="OUT.folded", default=None,
        help="sample rank-thread stacks during the run and write "
             "flame-graph-ready folded stacks")
    args = parser.parse_args()
    if args.trace or args.analyze:
        from repro import trace
        trace.enable()
    if args.metrics:
        from repro import metrics
        metrics.enable()
    prof = None
    if args.profile:
        from repro.obs.profiler import SamplingProfiler
        prof = SamplingProfiler()
        prof.start()
    print(generate_report())
    if prof is not None:
        prof.stop()
        folded = prof.folded()
        with open(args.profile, "w") as fh:
            fh.write(folded)
        nsamples = sum(int(line.rsplit(" ", 1)[1])
                       for line in folded.splitlines() if line)
        print(f"[profile] wrote {nsamples} samples to {args.profile}")
    if args.trace:
        from repro.trace import write_chrome_trace
        nevents = write_chrome_trace(args.trace)
        print(f"[trace] wrote {nevents} events to {args.trace}")
    if args.metrics:
        from repro import metrics
        with open(args.metrics, "w") as fh:
            fh.write(metrics.to_json(indent=2))
        print(f"[metrics] wrote {len(metrics.get_registry())} metric(s) "
              f"to {args.metrics}")
    if args.analyze:
        from repro.trace import analyze
        print(analyze.report())


class Section:
    """Accumulates a titled report."""

    def __init__(self, title: str):
        self.parts: List[str] = [f"## {title}", ""]

    def add(self, text: str) -> "Section":
        self.parts.append(text)
        return self

    def line(self, text: str = "") -> "Section":
        self.parts.append(text)
        return self

    def render(self) -> str:
        return "\n".join(self.parts) + "\n"
