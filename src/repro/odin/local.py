"""The local mode of interaction: ``@odin.local`` (paper section III-C).

The decorator's two tasks, straight from the paper: (1) broadcast the
function to all workers and inject it into their namespace, so it can be
called from the global level; (2) create a global version so that calling
it broadcasts a message to all workers to call their local copy, with
distributed-array arguments replaced by the local segment.

Workers may run in other processes, so a function reaches them by
value, on either backend: every CALL_LOCAL carries the function's
marshalled code and the contents of its closure cells, taken when the
call is issued, and each worker rebinds it over its own copy of the
defining module.  A closure therefore sees the values it captured at
call time; anything a worker assigns into a captured object stays on
that worker.

Inside a local function the worker may communicate directly with its peers
through :func:`repro.odin.context.worker_comm` -- "for performance critical
routines, users are encouraged to create local functions that communicate
directly with other worker nodes so as to ensure that the ODIN process does
not become a performance bottleneck".
"""

from __future__ import annotations

import functools
from typing import Callable, Optional

from .array import DistArray
from .context import get_context, local_registry

__all__ = ["local", "LocalFunction"]


class LocalFunction:
    """The global-level proxy of a worker-side function."""

    def __init__(self, fn: Callable, name: Optional[str] = None):
        self.fn = fn
        self.name = name or f"{fn.__module__}.{fn.__qualname__}"
        # catalogue the function under its name on the driver; each call
        # ships it to the workers inside its CALL_LOCAL op
        local_registry[self.name] = fn
        functools.update_wrapper(self, fn)

    def __call__(self, *args, **kwargs):
        ctx = None
        arg_specs = []
        for a in args:
            if isinstance(a, DistArray):
                ctx = a.ctx
                arg_specs.append(("array", a.array_id))
            else:
                arg_specs.append(("value", a))
        kwarg_specs = {}
        for k, v in kwargs.items():
            if isinstance(v, DistArray):
                ctx = v.ctx
                kwarg_specs[k] = ("array", v.array_id)
            else:
                kwarg_specs[k] = ("value", v)
        ctx = ctx if ctx is not None else get_context()
        out_id = ctx.new_array_id()
        results = ctx.call_local(self.name, tuple(arg_specs), kwarg_specs,
                                 out_id=out_id)
        if {status[0] for status in results} == {"stored"}:
            # every worker produced a conforming local block: the result is
            # a new distributed array (the paper's hypot example)
            return DistArray.stored(ctx, out_id, results, self.name)
        return [status[1] for status in results]

    def local_call(self, *args, **kwargs):
        """Run the underlying function directly (driver-side, serial)."""
        return self.fn(*args, **kwargs)

    def __repr__(self):
        return f"LocalFunction({self.name})"


def local(fn: Callable = None, *, name: Optional[str] = None):
    """Decorator registering *fn* as an ODIN local function.

    ::

        @odin.local
        def hypot(x, y):
            return odin.sqrt(x**2 + y**2)

        h = hypot(x, y)      # x, y DistArrays -> h is a DistArray
    """
    if fn is None:
        return lambda f: LocalFunction(f, name=name)
    return LocalFunction(fn, name=name)

