"""Live observability: causal op tracing, flight recorder, status
endpoint, sampling profiler.

Post-mortem tooling (``repro.trace``, ``repro.metrics``) answers "what
happened"; this package answers "what is happening *right now*, and
which driver op caused it":

- :mod:`repro.obs.causal` -- the (op_id, epoch_id) identity every
  control op carries from the ODIN driver to worker spans, metrics and
  tagged collective counters.
- :mod:`repro.obs.flight` -- :data:`FLIGHT`, the fault policy over the
  tracer's flight ring (the bounded retention of the one recorder,
  :data:`repro.trace.TRACER`): on a fault it records an ``obs.fault``
  instant and dumps the ring as analyzer-loadable Chrome trace JSON.
- :mod:`repro.obs.server` -- :func:`serve`, the opt-in HTTP endpoint
  (``/metrics``, ``/status``, ``/flight``, ``/profile``); also started
  automatically when ``REPRO_OBS_PORT`` is set.
- :mod:`repro.obs.profiler` -- ``sys._current_frames`` stack sampling
  into flame-graph-ready folded stacks.

Quickstart::

    import repro.obs as obs
    srv = obs.serve(port=9100)          # or REPRO_OBS_PORT=9100
    # ... run the workload; from another terminal:
    #   python -m repro.obs status --port 9100
    #   curl localhost:9100/metrics

The heavy pieces (HTTP server, profiler) import lazily; importing this
package costs only the causal/flight/status modules, which are
stdlib + repro.trace.
"""

from __future__ import annotations

from . import causal  # noqa: F401  (re-exported submodule)
from . import status  # noqa: F401
from .flight import FLIGHT, FlightRecorder  # noqa: F401

__all__ = ["FLIGHT", "FlightRecorder", "causal", "status", "serve",
           "serve_shutdown"]


def serve(port: int = 0, host: str = "127.0.0.1"):
    """Start the runtime status endpoint; returns an ``ObsServer``."""
    from .server import serve as _serve
    return _serve(port=port, host=host)


def serve_shutdown() -> None:
    """Stop the endpoint started by :func:`serve` (mainly for tests)."""
    from .server import shutdown as _shutdown
    _shutdown()
