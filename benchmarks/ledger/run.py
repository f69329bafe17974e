"""The entry ``BENCHMARK.json`` names: one workload, one JSON line.

``python3 benchmarks/ledger/run.py --workload W --seed N --seconds S
--trace 0|1`` measures workload W and prints, as its last line, the
object the benchmark driver reads.  The same file is what the harness
starts for every measuring child (``--child SPEC``), which is why the
clock is read before anything else is imported: a child's ``setup_s``
includes importing NumPy and the library.
"""

import sys
import time

T_ENTRY = time.perf_counter()

from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _bootstrap():
    """Run by path: import ``benchmarks.ledger`` and ``repro`` from this
    checkout, and keep this directory's module names (``stats``,
    ``compare``...) from shadowing anything."""
    sys.path[:] = [p for p in sys.path
                   if p == "" or Path(p).resolve() != HERE]
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]


def main(argv):
    _bootstrap()
    if argv[:1] == ["--child"]:
        from benchmarks.ledger.harness import child_main
        return child_main(argv[1], T_ENTRY)
    from benchmarks.ledger.cli import bench_main
    return bench_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
