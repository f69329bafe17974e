"""Metrics as a view of the one recorder.

Every metric is a fold over the full trace (:meth:`Tracer.events
<repro.trace.tracer.Tracer.events>`) through one table, :data:`FOLDS`,
which is the only code that knows metric names.  Instrumented sites
emit trace events and nothing else, so ``/metrics`` agrees with the
trace by construction, and the events forked ranks ship back to the
driver count too.  :class:`TraceMetrics` is the process-wide view
(:data:`repro.metrics.REGISTRY`): its switch is the tracer's, and each
read folds the trace into a fresh :class:`MetricsRegistry`.
"""

from __future__ import annotations

from typing import Iterable

from ..trace import TRACER
from ..trace.tracer import Event
from .registry import MetricsRegistry

__all__ = ["FOLDS", "TraceMetrics", "fold"]

#: event fields a rule reads instead of an arg
NAME, RANK, DUR = "@name", "@rank", "@dur"
_OP_ALGO = {"op": NAME, "algorithm": "algorithm"}
_KERNEL = {"kernel": "kernel"}
_WORKER = {"worker": "worker"}
_PLAN = {"rank": RANK, "kind": "kind"}

#: ``(category, name)`` -- or a category alone, for its other names --
#: to the metrics one such event updates, as ``(kind, metric, value,
#: labels)`` rules.  *kind*: ``c`` counter, ``g`` gauge, ``h``
#: histogram.  *value*: a number, :data:`DUR`, an arg name, or
#: ``"arg=v"`` (1 when the arg equals v); an absent value updates
#: nothing, and a counter only ever adds a positive one.  *labels*:
#: label -> arg name, :data:`NAME` or :data:`RANK`.
FOLDS = {
    "mpi.coll": [("c", "mpi.coll.calls", 1, _OP_ALGO),
                 ("c", "mpi.coll.bytes_sent", "sent", _OP_ALGO)],
    "mpi.rma": [("c", "mpi.rma.bytes", "nbytes", {"op": NAME})],
    "odin.worker": [("h", "odin.worker.op_seconds", DUR,
                     {"op": NAME, "worker": "worker"})],
    ("odin.worker", "fused.kernel"): [],
    ("odin.worker", "fused.stack"): [],
    ("odin.worker", "redistribute.exchange"): [
        ("c", "odin.plan_cache.hits", "plan=hit", _WORKER),
        ("c", "odin.plan_cache.misses", "plan=miss", _WORKER)],
    "solver.krylov": [("c", "solver.iterations", 1, {"method": "method"}),
                      ("g", "solver.residual", "resid",
                       {"method": "method"})],
    ("solver.krylov", "aztecoo.iterate"): [],
    "chaos": [("c", "chaos.injected", 1, {"kind": NAME, "op": "op"})],
    ("odin.fusion", "fallback"): [("c", "odin.fusion.fallbacks", 1, {})],
    ("recover", "checkpoint"): [
        ("c", "recover.checkpoints", 1, {}),
        ("c", "recover.ckpt_total_bytes", "nbytes", {}),
        ("h", "recover.ckpt_seconds", DUR, {})],
    ("recover", "shrink+replay"): [
        ("c", "recover.detections", 1, {}),
        ("c", "recover.shrinks", "ok", {}),
        ("c", "recover.replayed_ops", "replayed", {}),
        ("h", "recover.seconds", DUR, {})],
    ("recover", "solver.shrink+restore"): [
        ("c", "recover.solver_detections", 1, {}),
        ("c", "recover.solver_restarts", 1, {})],
    ("recover", "iterate_ckpt"): [
        ("c", "recover.iterate_ckpts", 1, {}),
        ("c", "recover.iterate_ckpt_bytes", "nbytes", {})],
    ("recover", "worker.ckpt"): [
        ("c", "recover.ckpt_bytes", "nbytes", _WORKER)],
    ("recover", "worker.restore"): [
        ("c", "recover.restored_arrays", "arrays", _WORKER)],
    ("tpetra.plan", "build"): [
        ("c", "tpetra.plan.builds", 1, _PLAN),
        ("c", "tpetra.plan.remote_lids_resolved", "remote", _PLAN)],
    ("tpetra.plan", "execute"): [
        ("c", "tpetra.plan.executions", 1, {"rank": RANK}),
        ("c", "tpetra.plan.pack_bytes", "pack", {"rank": RANK}),
        ("c", "tpetra.plan.unpack_bytes", "unpack", {"rank": RANK})],
    ("tpetra.plan", "reverse"): [("c", "tpetra.plan.reverse_builds", 1, {})],
    ("seamless.jit", "call"): [("c", "seamless.jit.calls", 1, _KERNEL)],
    ("seamless.jit", "hit"): [("c", "seamless.jit.cache_hits", 1, _KERNEL)],
    ("seamless.jit", "compile"): [
        ("c", "seamless.jit.cache_misses", 1, _KERNEL),
        ("h", "seamless.jit.compile_seconds", DUR, _KERNEL)],
    ("seamless.jit", "fallback"): [
        ("c", "seamless.jit.fallbacks", 1, _KERNEL)],
    ("seamless.cc", "disk_cache"): [
        ("c", "seamless.cc.disk_cache", 1, {"result": "result"})],
    ("seamless.elementwise", "no_compiler"): [
        ("c", "seamless.elementwise.no_compiler", 1, {})],
    ("seamless.elementwise", "compile"): [
        ("c", "seamless.elementwise.fused_kernels", 1, {}),
        ("h", "seamless.elementwise.compile_seconds", DUR, {})],
    ("seamless.vectorize", "compile"): [
        ("h", "seamless.vectorize.compile_seconds", DUR, _KERNEL)],
    ("seamless.vectorize", "dispatch"): [
        ("c", "seamless.vectorize.dispatch", 1,
         {"kernel": "kernel", "path": "path"})],
    ("seamless.vectorize", "build_failed"): [
        ("c", "seamless.vectorize.build_failures", 1,
         {"kernel": "kernel", "error": "error"})],
}


def fold(events: Iterable[Event]) -> MetricsRegistry:
    """The metrics *events* add up to, in a fresh registry."""
    reg = MetricsRegistry()
    for _ph, cat, name, rank, _ts, dur, args in events:
        rules = FOLDS.get((cat, name), FOLDS.get(cat))
        if not rules:
            continue
        fields = dict(args or (), **{NAME: name, RANK: rank, DUR: dur})
        for kind, metric, value, labels in rules:
            if isinstance(value, str):
                key, _, want = value.partition("=")
                value = fields.get(key)
                if want:
                    value = int(value == want)
            if value is None or (kind == "c" and not value > 0):
                continue
            labels = {k: fields.get(src) for k, src in labels.items()}
            if kind == "c":
                reg.inc(metric, value, **labels)
            elif kind == "g":
                reg.set_gauge(metric, value, **labels)
            else:
                reg.observe(metric, value, **labels)
    return reg


class TraceMetrics:
    """The process-wide metrics view of :data:`~repro.trace.TRACER`:
    on exactly while the full trace is kept (``REPRO_TRACE=1``,
    :func:`repro.trace.enable` or :meth:`enable`); :meth:`clear` drops
    the trace it is folded from."""

    @property
    def enabled(self) -> bool:
        return TRACER.enabled

    def enable(self) -> None:
        TRACER.enable()

    def disable(self) -> None:
        TRACER.disable()

    def clear(self) -> None:
        TRACER.clear()

    def snapshot(self) -> MetricsRegistry:
        """The trace so far, folded into a fresh registry."""
        return fold(TRACER.events())

    def metrics(self):
        return self.snapshot().metrics()

    def get(self, name: str, **labels):
        return self.snapshot().get(name, **labels)

    def __len__(self):
        return len(self.snapshot())
