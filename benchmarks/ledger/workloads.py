"""The eight workloads: inputs from a seed, one repetition, its oracle.

Every workload runs p = 2 ranks (an ODIN workload: one driver plus two
workers).  Inputs and the oracle are NumPy/SciPy only and are computed
outside every timer; the library receives nothing but the generated
arrays.  ``reps`` is fixed per workload so that one child process always
does the same work: the process transport keeps every bulk shared-memory
frame mapped until its world closes, so resident memory (and, past
roughly 0.6 GB of such frames on the reference host, repetition time)
depends on how many repetitions a world has run.
"""

from __future__ import annotations

import numpy as np

NRANKS = 2


def _close(got, want, rtol=1e-9):
    return bool(np.allclose(got, want, rtol=rtol, atol=0.0))


class Workload:
    """One row of the ledger.  ``kind`` is ``"odin"`` (``setup`` receives
    an OdinContext) or ``"spmd"`` (``setup`` receives the rank's comm)."""

    name = why = kind = backend = unit = ""
    reps = 0             # timed repetitions per child process
    units_per_rep = 0.0  # for the derived units_per_s

    def inputs(self, seed):
        raise NotImplementedError

    def oracle(self, inputs):
        raise NotImplementedError

    def setup(self, handle, inputs):
        raise NotImplementedError

    def rep(self, state, index):
        raise NotImplementedError

    def check(self, state, out, expected, deep=False):
        """Whether *out* matches the oracle.  *deep* (the warm-up
        repetition) may also verify state a scalar result cannot."""
        raise NotImplementedError

    def extra(self, state, out):
        """Exact per-repetition facts for the layer table."""
        return {}


# ----------------------------------------------------------------------
# ODIN control plane
# ----------------------------------------------------------------------
class Ctrl(Workload):
    kind = "odin"
    unit = "ops"
    N = 1024
    STEPS = 200
    units_per_rep = 2 * STEPS + STEPS // 10
    reps = 28

    def __init__(self, backend):
        self.backend = backend
        self.name = f"ctrl.{backend}"
        other = "process" if backend == "thread" else "thread"
        wire = "mailbox" if backend == "thread" else "socket-frame"
        self.why = (f"400 batched ufunc ops on 1 KiB arrays, a sum() every "
                    f"10th: per-op control cost on the {wire} path; must "
                    f"not move when only ctrl.{other}'s wire changes")

    def inputs(self, seed):
        rng = np.random.default_rng([seed, 1])
        return {"x": rng.random(self.N), "y": rng.random(self.N)}

    def oracle(self, inputs):
        x, y = inputs["x"], inputs["y"].copy()
        for _ in range(self.STEPS):
            y = np.sin(y) + x
        return float(y.sum())

    def setup(self, ctx, inputs):
        from repro import odin
        return {"ctx": ctx, "odin": odin,
                "x": odin.array(inputs["x"], ctx=ctx),
                "y": odin.array(inputs["y"], ctx=ctx)}

    def rep(self, state, index):
        odin, x, y = state["odin"], state["x"], state["y"]
        total = None
        for i in range(self.STEPS):
            y = odin.sin(y) + x
            if i % 10 == 9:
                total = y.sum()
        state["ctx"].flush()
        return total

    def check(self, state, out, expected, deep=False):
        return _close(out, expected)


# ----------------------------------------------------------------------
# lazy evaluation / loop fusion
# ----------------------------------------------------------------------
class Fused(Workload):
    name = "fused.process"
    kind = "odin"
    backend = "process"
    why = ("one fused 4M-element expression then sum(): compute and "
           "memory passes, a few control frames; bypasses every "
           "messaging optimisation")
    unit = "MB"
    N = 4_000_000
    units_per_rep = 4 * 8 * N / 1e6   # 2 loads + 1 store + 1 reduction pass
    reps = 30

    def inputs(self, seed):
        rng = np.random.default_rng([seed, 2])
        return {"u": rng.random(self.N), "v": rng.random(self.N)}

    def oracle(self, inputs):
        u, v = inputs["u"], inputs["v"]
        out = np.exp(-(np.sqrt(u * u + v * v) * 2 - 1) ** 2) \
            + np.sin(u) * np.cos(v)
        return float(out.sum())

    def setup(self, ctx, inputs):
        from repro import odin
        return {"odin": odin, "u": odin.array(inputs["u"], ctx=ctx),
                "v": odin.array(inputs["v"], ctx=ctx)}

    def rep(self, state, index):
        odin, u, v = state["odin"], state["u"], state["v"]
        with odin.lazy():
            expr = odin.exp(-(odin.sqrt(u * u + v * v) * 2 - 1) ** 2) \
                + odin.sin(u) * odin.cos(v)
        return odin.evaluate(expr).sum()

    def check(self, state, out, expected, deep=False):
        return _close(out, expected)

    def extra(self, state, out):
        return {"odin.fusion.computed_bytes": self.units_per_rep * 1e6}


# ----------------------------------------------------------------------
# redistribution: plan replay and plan build
# ----------------------------------------------------------------------
class Redist(Workload):
    kind = "odin"
    backend = "process"
    unit = "MB"
    N = 1_000_000
    units_per_rep = 3 * 8 * N / 1e6

    def __init__(self, fresh):
        self.fresh = fresh
        if fresh:
            self.name = "redist.fresh"
            self.reps = 12
            self.why = ("the redist.replay pipeline with a block size "
                        "never seen before: every plan is a miss, so "
                        "planning, hashing and caching cost shows here")
        else:
            self.name = "redist.replay"
            self.reps = 40
            self.why = ("block -> cyclic -> block-cyclic(64) -> block of "
                        "1M float64, same layouts every time: bulk "
                        "worker-to-worker bytes and plan replay")

    def inputs(self, seed):
        rng = np.random.default_rng([seed, 3])
        # the same block sizes for every seed, in a seeded order: planning
        # cost grows with the number of blocks, so a seeded *choice* of
        # sizes would move rep_s from seed to seed.  Around 64, never 64.
        sizes = [b for b in range(58, 71) if b != 64]
        return {"a": rng.random(self.N),
                "blocks": [int(b) for b in rng.permutation(sizes)]}

    def oracle(self, inputs):
        return float(inputs["a"].sum())

    def setup(self, ctx, inputs):
        from repro import odin
        return {"odin": odin, "a": odin.array(inputs["a"], ctx=ctx),
                "blocks": inputs["blocks"], "input": inputs["a"]}

    def rep(self, state, index):
        odin, a, n = state["odin"], state["a"], self.N
        size = 64
        if self.fresh:      # the warm-up (index -1) has a size of its own
            size = state["blocks"][index] if index >= 0 else 71
        c = a.redistribute(odin.CyclicDistribution((n,), 0, NRANKS))
        d = c.redistribute(odin.BlockCyclicDistribution(
            (n,), 0, NRANKS, block_size=size))
        e = d.redistribute(odin.BlockDistribution((n,), 0, NRANKS))
        return e.sum(), e

    def check(self, state, out, expected, deep=False):
        total, e = out
        if deep and not np.array_equal(e.gather(), state["input"]):
            return False    # a sum cannot see misplaced elements
        return _close(total, expected)


# ----------------------------------------------------------------------
# tabular shuffle
# ----------------------------------------------------------------------
class Shuffle(Workload):
    name = "shuffle.process"
    kind = "odin"
    backend = "process"
    why = ("group-by-mean over 400k (i8,f8) records, 64 keys, then "
           "gather: the map-reduce shuffle, an object-path alltoall "
           "between ODIN workers")
    unit = "rows"
    N = 400_000
    KEYS = 64
    units_per_rep = N
    reps = 60

    def inputs(self, seed):
        rng = np.random.default_rng([seed, 4])
        rec = np.zeros(self.N, dtype=[("k", "i8"), ("v", "f8")])
        rec["k"] = rng.integers(0, self.KEYS, self.N)
        rec["v"] = rng.normal(loc=rec["k"].astype(float))
        return {"rec": rec}

    def oracle(self, inputs):
        rec = inputs["rec"]
        sums = np.bincount(rec["k"], weights=rec["v"], minlength=self.KEYS)
        return sums / np.bincount(rec["k"], minlength=self.KEYS)

    def setup(self, ctx, inputs):
        from repro.odin import tabular
        return {"tabular": tabular,
                "t": tabular.from_records(inputs["rec"], ctx=ctx)}

    def rep(self, state, index):
        agg = state["tabular"].group_aggregate(state["t"], "k", "v",
                                               op="mean")
        return agg.gather()

    def check(self, state, out, expected, deep=False):
        out = np.sort(out, order="key")
        return (out.shape[0] == self.KEYS
                and np.array_equal(out["key"], np.arange(self.KEYS))
                and _close(out["value"], expected, rtol=1e-10))


# ----------------------------------------------------------------------
# SPMD: time to solution
# ----------------------------------------------------------------------
def convection_diffusion_scipy(nx, ny, conv_x, conv_y):
    """First-order upwind convection-diffusion on the unit square, built
    from Kronecker products: independent of ``repro.galeri``."""
    import scipy.sparse as sp
    hx, hy = 1.0 / (nx + 1), 1.0 / (ny + 1)

    def line(n, h, conv):
        lo = -1.0 / h ** 2 - max(conv, 0.0) / h
        hi = -1.0 / h ** 2 + min(conv, 0.0) / h
        return sp.diags([lo, 2.0 / h ** 2 + abs(conv) / h, hi],
                        [-1, 0, 1], shape=(n, n))

    return (sp.kron(sp.identity(ny), line(nx, hx, conv_x))
            + sp.kron(line(ny, hy, conv_y), sp.identity(nx))).tocsr()


class Gmres(Workload):
    name = "gmres.process"
    kind = "spmd"
    backend = "process"
    why = ("GMRES(30)+ILU(0) on 64x64 convection-diffusion to 1e-10: "
           "latency-bound Allreduces, Tpetra halo exchange and Python "
           "solver glue; time to solution")
    unit = "iterations"
    NX = NY = 64
    CONV = (20.0, 10.0)
    ITERATIONS = 119
    units_per_rep = ITERATIONS
    reps = 10

    def inputs(self, seed):
        rng = np.random.default_rng([seed, 5])
        # ones plus 1 % seeded noise: a different system per seed at the
        # same difficulty (a fully random right-hand side moves the
        # iteration count, and so the time, by +-12 % from seed to seed)
        return {"b": 1.0 + 0.01 * rng.standard_normal(self.NX * self.NY)}

    def oracle(self, inputs):
        from scipy.sparse.linalg import spsolve
        A = convection_diffusion_scipy(self.NX, self.NY, *self.CONV)
        return {"A": A, "x": spsolve(A.tocsc(), inputs["b"])}

    def setup(self, comm, inputs):
        from repro import galeri, solvers, tpetra
        A = galeri.convection_diffusion_2d(self.NX, self.NY, comm,
                                           conv_x=self.CONV[0],
                                           conv_y=self.CONV[1])
        b = tpetra.Vector(A.row_map)
        b.local_view = inputs["b"][A.row_map.my_gids]
        return {"A": A, "b": b, "prec": solvers.ILU0(A), "comm": comm,
                "gmres": solvers.gmres}

    def rep(self, state, index):
        return state["gmres"](state["A"], state["b"], prec=state["prec"],
                              tol=1e-10, maxiter=2000)

    def check(self, state, out, expected, deep=False):
        if deep:
            A = state["A"].to_scipy_global(root=None)
            if abs(A - expected["A"]).max() > 1e-9 * abs(expected["A"]).max():
                return False
        want = expected["x"][state["A"].row_map.my_gids]
        return bool(out.converged
                    and np.abs(out.x.local_view - want).max()
                    <= 1e-7 * np.abs(expected["x"]).max())

    def extra(self, state, out):
        return {"solvers.iterations": out.iterations}


class Coll(Workload):
    name = "coll.process"
    kind = "spmd"
    backend = "process"
    why = ("20 x 32 B Allreduce, 4 x (1 MB Allreduce + 1 MB Bcast), one "
           "object allreduce, one 20k-row object alltoall: collectives "
           "dominate on the buffer and the object engine, small and large")
    unit = "MB"
    SMALL, BIG, ROWS = 4, 131072, 20_000
    units_per_rep = 4 * 2 * BIG * 8 / 1e6
    reps = 40

    def inputs(self, seed):
        rng = np.random.default_rng([seed, 6])
        rec = np.zeros((NRANKS, self.ROWS), dtype=[("k", "i8"), ("v", "f8")])
        rec["k"] = rng.integers(0, 1 << 40, rec.shape)
        rec["v"] = rng.random(rec.shape)
        return {"small": rng.random((NRANKS, self.SMALL)),
                "big": rng.random((NRANKS, self.BIG)),
                "root": rng.random(self.BIG),
                "obj": rng.random(NRANKS), "rec": rec}

    def oracle(self, inputs):
        return {"small": inputs["small"].sum(axis=0),
                "big": inputs["big"].sum(axis=0),
                "obj": float(inputs["obj"].sum())}

    def setup(self, comm, inputs):
        r = comm.rank
        return {"comm": comm, "small": inputs["small"][r].copy(),
                "big": inputs["big"][r].copy(),
                "bc": inputs["root"].copy() if r == 0
                else np.zeros(self.BIG),
                "sout": np.zeros(self.SMALL), "bout": np.zeros(self.BIG),
                "obj": float(inputs["obj"][r]), "rec": inputs["rec"],
                "root": inputs["root"]}

    def rep(self, state, index):
        comm = state["comm"]
        small, sout = state["small"], state["sout"]
        big, bout, bc = state["big"], state["bout"], state["bc"]
        for _ in range(20):
            comm.Allreduce(small, sout)
        for _ in range(4):
            comm.Allreduce(big, bout)
            comm.Bcast(bc, root=0)
        total = comm.allreduce(state["obj"])
        mine = state["rec"][comm.rank]
        blocks = comm.alltoall([mine[j::NRANKS] for j in range(NRANKS)])
        return total, blocks

    def check(self, state, out, expected, deep=False):
        total, blocks = out
        r = state["comm"].rank
        ok = (_close(state["sout"], expected["small"])
              and _close(state["bout"], expected["big"])
              and np.array_equal(state["bc"], state["root"])
              and _close(total, expected["obj"])
              and all(np.array_equal(blocks[j], state["rec"][j][r::NRANKS])
                      for j in range(NRANKS)))
        # a stale buffer must not pass the next repetition's check
        state["sout"].fill(0.0)
        state["bout"].fill(0.0)
        if r != 0:
            state["bc"].fill(0.0)
        return ok


WORKLOADS = {w.name: w for w in (
    Ctrl("thread"), Ctrl("process"), Fused(), Redist(fresh=False),
    Redist(fresh=True), Gmres(), Coll(), Shuffle())}
