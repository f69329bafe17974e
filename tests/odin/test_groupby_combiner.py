"""Group-by as combine -> shuffle -> merge.

Each worker reduces its block to one partial per key and only the
partials cross the wire.  The result must be what the record shuffle
gave: the same rows on the same workers in the same key order, with
``count``/``min``/``max`` bit-identical to NumPy and ``sum``/``mean``
within the conformance harness's ULP budget.  Bad requests are refused
on the driver, before any worker can raise inside the shuffle.
"""

import time

import numpy as np
import pytest

from repro.odin import tabular
from repro.odin.context import OdinContext
from repro.odin.creation import array
from repro.odin.worker import _key_hash

from ..conftest import settle_counters

OPS = ["count", "sum", "mean", "min", "max"]
N = 2_000
_WORDS = np.array(["alpha", "beta", "gamma", "delta", "", "zeta", "eta"])
_FLOATS = np.array([0.5, -2.25, np.nan, 3.0, 1e300, -7.125, 0.1])


def _keys(kind, rng):
    """Keys of one flavour; each stresses one grouping path."""
    if kind == "i8-neg":                 # dense bincount below zero
        return rng.integers(-40, 40, N)
    if kind == "u8":                     # dense, near the top of uint64
        return np.uint64(2 ** 64 - 200) + rng.integers(
            0, 150, N).astype(np.uint64)
    if kind == "i8-wide":                # span >> rows: np.unique
        return rng.choice(rng.integers(-2 ** 62, 2 ** 62, 30), N)
    if kind == "str":
        return rng.choice(_WORDS, N)
    if kind == "f8-nan":
        return rng.choice(_FLOATS, N)
    if kind == "one-key":
        return np.full(N, 7, dtype=np.int64)
    raise AssertionError(kind)


def _table(kind, seed=0):
    rng = np.random.default_rng(seed)
    keys = _keys(kind, rng)
    rec = np.zeros(N, dtype=[("k", keys.dtype), ("v", "f8")])
    rec["k"] = keys
    rec["v"] = rng.normal(loc=3.0, size=N)
    return rec


def _counts(layout, P):
    """Rows per worker: even, or with the last worker holding none."""
    if layout == "even":
        return None
    counts = [N // (P - 1)] * (P - 1) + [0]
    counts[0] += N - sum(counts)
    return counts


def _same_keys(a, b):
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    if a.dtype.kind == "f":
        return np.array_equal(a, b, equal_nan=True)
    return np.array_equal(a, b)


def _record_shuffle(rec, P, op):
    """Per worker, the rows the record shuffle produced: every record
    went to ``_key_hash(key) % P`` and that worker grouped them; the
    values here come from NumPy's own reductions per key."""
    fold = {"count": len, "sum": np.sum, "mean": np.mean, "min": np.min,
            "max": np.max}[op]
    dest = _key_hash(rec["k"]) % P
    blocks = []
    for v in range(P):
        keys = np.unique(rec["k"][dest == v])
        values = []
        for k in keys:
            hit = np.isnan(rec["k"]) if k != k else rec["k"] == k
            values.append(fold(rec["v"][hit]))
        blocks.append((keys, np.array(values, dtype=np.float64)))
    return blocks


def _per_worker(out):
    table = out.gather()
    bounds = np.cumsum([0] + out.dist.counts())
    return [table[bounds[v]:bounds[v + 1]] for v in range(len(bounds) - 1)]


def _within_ulps(got, want, ulps):
    tol = ulps * np.spacing(np.maximum(np.abs(got), np.abs(want)))
    return bool(np.all(np.abs(got - want) <= tol))


@pytest.fixture(scope="module", params=[2, 3, 4], ids=lambda p: f"P{p}")
def ctx(request):
    c = OdinContext(request.param)
    yield c
    c.shutdown()


class TestCombinerMatchesRecordShuffle:
    @pytest.mark.parametrize("op", OPS)
    @pytest.mark.parametrize("layout", ["even", "gap"])
    @pytest.mark.parametrize("kind", ["i8-neg", "u8", "i8-wide", "str",
                                      "f8-nan", "one-key"])
    def test_rows_owners_and_values(self, ctx, kind, layout, op):
        P = ctx.nworkers
        rec = _table(kind)
        t = array(rec, ctx=ctx, counts=_counts(layout, P))
        out = tabular.group_aggregate(t, "k", "v", op=op)
        assert out.dtype == np.dtype([("key", rec.dtype["k"]),
                                      ("value", np.float64)])
        got = _per_worker(out)
        want = _record_shuffle(rec, P, op)
        for v, (block, (keys, values)) in enumerate(zip(got, want)):
            assert _same_keys(block["key"], keys), (v, block["key"], keys)
            if op in ("sum", "mean"):
                assert _within_ulps(block["value"], values, 8 * max(4, N))
            else:
                assert np.array_equal(block["value"], values), v


class TestCombinerEdges:
    @pytest.mark.parametrize("op", ["min", "max"])
    def test_nan_values_propagate(self, ctx, op):
        rec = _table("i8-neg", seed=3)
        rec["v"][::97] = np.nan
        out = tabular.group_aggregate(tabular.from_records(rec, ctx=ctx),
                                      "k", "v", op=op).gather()
        fold = np.min if op == "min" else np.max
        for k, value in zip(out["key"], out["value"]):
            want = fold(rec["v"][rec["k"] == k])
            assert np.array_equal(value, want, equal_nan=True), k

    def test_integer_values_and_narrow_keys(self, ctx):
        # int8 keys spanning more than int8 can hold as a difference
        rec = np.zeros(N, dtype=[("k", "i1"), ("v", "i4")])
        rng = np.random.default_rng(9)
        rec["k"] = rng.integers(-128, 128, N)
        rec["v"] = rng.integers(-1000, 1000, N)
        out = tabular.group_aggregate(tabular.from_records(rec, ctx=ctx),
                                      "k", "v", op="sum").gather()
        order = np.argsort(out["key"])
        keys = np.unique(rec["k"])
        assert np.array_equal(out["key"][order], keys)
        want = [rec["v"][rec["k"] == k].sum() for k in keys]
        assert np.array_equal(out["value"][order], want)

    def test_empty_table(self, ctx):
        rec = _table("i8-neg")[:0]
        out = tabular.group_aggregate(tabular.from_records(rec, ctx=ctx),
                                      "k", "v", op="mean")
        assert out.shape == (0,)
        assert out.gather().dtype.names == ("key", "value")


class TestCombinerWire:
    def test_partials_not_records_cross_the_wire(self):
        """400 000 (i8, f8) records over 64 keys: the record shuffle
        moved ~3.2 MB between two workers, the partials a few KB."""
        rng = np.random.default_rng(4)
        rec = np.zeros(400_000, dtype=[("k", "i8"), ("v", "f8")])
        rec["k"] = rng.integers(0, 64, len(rec))
        rec["v"] = rng.normal(size=len(rec))
        ctx = OdinContext(2)
        try:
            t = tabular.from_records(rec, ctx=ctx)
            settle_counters(ctx)
            out = tabular.group_aggregate(t, "k", "v", op="mean")
            _msgs, nbytes = ctx.worker_traffic()
            assert 0 < nbytes <= 64 * 1024, nbytes
            assert out.shape == (64,)
        finally:
            ctx.shutdown()


class TestDriverRefusals:
    """Refused before any message, so no worker can raise while its
    peers wait in the shuffle (one worker below holds no rows, the case
    in which a worker-side check would pass on one worker only)."""

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_refused_fast_and_context_survives(self, backend):
        ctx = OdinContext(3, backend=backend)
        try:
            rec = np.zeros(90, dtype=[("k", "i8"), ("v", "f8"),
                                      ("name", "U3"), ("obj", "O")])
            rec["k"] = np.arange(90) % 5
            rec["v"] = 1.0
            rec["obj"] = [None, 1, "a"] * 30
            t = array(rec, ctx=ctx, counts=[0, 40, 50])
            cases = [(ValueError, "k", "v", "median"),
                     (TypeError, "obj", "v", "count"),
                     *((TypeError, "k", "name", op)
                       for op in ("sum", "mean", "min", "max"))]
            for exc, key, field, op in cases:
                t0 = time.perf_counter()
                with pytest.raises(exc):
                    tabular.group_aggregate(t, key, field, op=op)
                assert time.perf_counter() - t0 < 2.0, (key, field, op)
            # count reads no values, so any value field will do
            out = tabular.group_aggregate(t, "k", "name", op="count")
            got = out.gather()
            assert np.array_equal(np.sort(got["key"]), np.arange(5))
            assert np.all(got["value"] == 18.0)
        finally:
            ctx.shutdown()
