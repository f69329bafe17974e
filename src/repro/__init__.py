"""repro -- a Python HPC framework: PyTrilinos, ODIN, and Seamless.

Reproduction of Smith, Spotz & Ross-Ross, "A Python HPC framework:
PyTrilinos, ODIN, and Seamless" (SC 2012, PyHPC workshop).

The package is organized as the paper's three pillars plus their substrates:

- :mod:`repro.mpi`       -- message-passing substrate (MPI-like, thread SPMD)
- :mod:`repro.trace`     -- per-rank event tracing & analysis (REPRO_TRACE=1)
- :mod:`repro.metrics`   -- counters/gauges/histograms folded from the trace
- :mod:`repro.teuchos`   -- general tools (parameter lists, timers)
- :mod:`repro.tpetra`    -- distributed linear algebra (maps, vectors, CRS matrices)
- :mod:`repro.epetra`    -- first-generation fixed-dtype facade over tpetra
- :mod:`repro.solvers`   -- Krylov, direct, preconditioners, AMG, eigen, nonlinear
- :mod:`repro.isorropia` -- partitioning and load balancing
- :mod:`repro.galeri`    -- gallery of example maps and matrices
- :mod:`repro.triutils`  -- testing utilities and matrix I/O
- :mod:`repro.odin`      -- Optimized Distributed NumPy
- :mod:`repro.seamless`  -- JIT / static compilation / C interop
- :mod:`repro.core`      -- the framework glue tying the three pillars together
"""

__version__ = "1.0.0"

__all__ = [
    "mpi",
    "trace",
    "metrics",
    "teuchos",
    "tpetra",
    "epetra",
    "solvers",
    "isorropia",
    "galeri",
    "triutils",
    "odin",
    "seamless",
    "core",
]
