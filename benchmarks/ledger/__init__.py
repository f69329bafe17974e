"""The ledger: the repo's wall-clock benchmark.

Eight paper-level workloads on both transports, timed from outside the
library in a closed loop, checked against a NumPy/SciPy oracle, with a
second traced run that splits each repetition into the layers named
after the modules under ``src/repro``.  See ``README.md`` in this
directory for the metric, layer and workload vocabulary.

Nothing here imports ``benchmarks/common.py`` or any ``bench_*.py``:
those stay report generators that later changes may edit freely.
"""

SCHEMA = 1
