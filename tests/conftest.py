"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro import mpi


def spmd(nranks, timeout=60.0):
    """Run a function on an nranks-rank world, returning per-rank results.

    Usage::

        def body(comm):
            return comm.allreduce(1)
        results = spmd(4)(body)
    """
    def runner(fn, *args, **kwargs):
        return mpi.run_spmd(fn, nranks, args=args, kwargs=kwargs,
                            timeout=timeout)
    return runner


def settle_counters(ctx):
    """Zero an ODIN context's wire counters with no delete pending.

    A ``DistArray`` freed by the cyclic GC queues a delete that the next
    op drains as its own broadcast; collecting and flushing first keeps
    such a delete out of the window a test then measures.
    """
    gc.collect()
    ctx.flush()
    ctx.reset_counters()


@pytest.fixture(params=[1, 2, 3, 4])
def nranks(request):
    """Sweep of world sizes for distribution-sensitive tests."""
    return request.param


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def has_cc():
    from repro.seamless import compiler_available
    return compiler_available()


@pytest.fixture(scope="module")
def odin4():
    """A module-scoped 4-worker ODIN context."""
    from repro import odin
    ctx = odin.init(4)
    yield ctx
    odin.shutdown()
