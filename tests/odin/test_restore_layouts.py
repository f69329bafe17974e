"""Recovery restores every layout through the redistribution planner.

Each case checkpoints one array, crashes a worker with a chaos
:class:`FaultPlan` (first, middle or last worker, P in {3, 4}), and
gathers: the array is rebuilt from its checkpoint -- the dead worker's
tiles from its ring partner's copy -- and must be bit-identical to the
run without a crash, on the survivors' version of its layout.  The plan
is installed through the context, so the file runs on either transport.
"""

import numpy as np
import pytest

from repro import mpi, odin
from repro.chaos.core import FaultPlan
from repro.odin import tabular
from repro.odin.context import OdinContext
from repro.odin.distribution import (ArbitraryDistribution,
                                     BlockCyclicDistribution,
                                     BlockDistribution, ConcatDistribution,
                                     CyclicDistribution, GridDistribution)
from repro.odin.worker import WorkerState, _restore

SHAPE = (23, 17)
VALUES = np.random.default_rng(11).normal(size=SHAPE)


def _records():
    rec = np.zeros(300, dtype=[("k", "i8"), ("v", "f8")])
    rec["k"] = np.arange(300) * 7 % 29
    rec["v"] = np.random.default_rng(5).normal(size=300)
    return rec


def _grid(P):
    return (2, 2) if P == 4 else (3, 1)


LAYOUTS = {
    "block-axis0": lambda P: BlockDistribution(SHAPE, 0, P),
    "block-axis1": lambda P: BlockDistribution(SHAPE, 1, P),
    "cyclic": lambda P: CyclicDistribution(SHAPE, 0, P),
    "block-cyclic": lambda P: BlockCyclicDistribution(SHAPE, 1, P,
                                                      block_size=3),
    "arbitrary": lambda P: ArbitraryDistribution(SHAPE, 0, np.array_split(
        np.random.default_rng(P).permutation(SHAPE[0]), P)),
    "concat": lambda P: ConcatDistribution(
        [BlockDistribution((9, SHAPE[1]), 0, P),
         CyclicDistribution((SHAPE[0] - 9, SHAPE[1]), 0, P)], 0),
    "grid": lambda P: GridDistribution(SHAPE, (1, 0), _grid(P)),
    "tabular": None,
}


def _run(layout, P, victim=None):
    """The gathered array and its layout after an optional crash of
    worker *victim* once the array is checkpointed."""
    with OdinContext(P, recover=True) as ctx:
        if layout == "tabular":
            # a group-by result: block-with-counts rows, one per key
            x = tabular.group_aggregate(
                tabular.from_records(_records(), ctx=ctx), "k", "v")
        else:
            x = odin.array(VALUES, dist=LAYOUTS[layout](P), ctx=ctx)
        ctx.checkpoint()
        if victim is not None:
            ctx.install_chaos(FaultPlan(seed=victim).crash(
                rank=victim + 1, after=1))
        try:
            for _ in range(3):          # until the crash has fired
                got = x.gather()
                if victim is None or ctx.nworkers < P:
                    break
        finally:
            if victim is not None:
                ctx.uninstall_chaos()
        assert ctx.nworkers == (P if victim is None else P - 1)
        return got, x.dist


@pytest.mark.parametrize("P,victim", [(3, 0), (3, 1), (3, 2),
                                      (4, 0), (4, 2), (4, 3)])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_restore_is_bit_identical(layout, P, victim):
    want, old_dist = _run(layout, P)
    got, new_dist = _run(layout, P, victim)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    if layout != "tabular":
        assert np.array_equal(got, VALUES)
        assert new_dist.same_as(old_dist.with_nworkers(P - 1))
    else:
        assert new_dist.counts() == BlockDistribution(
            (len(want),), 0, P - 1).counts()


def test_unknown_layout_restores_as_uniform_blocks():
    """An array checkpointed with no distribution (a transform output
    before its SET_DIST) is rows in old worker order, re-dealt as
    uniform blocks over the survivors."""
    rows = np.arange(40.0).reshape(20, 2)
    counts = [7, 0, 5, 8]            # four old workers, one block empty
    cuts = np.cumsum([0] + counts)
    blocks = [rows[cuts[t]:cuts[t + 1]] for t in range(4)]
    dead, old_n = 1, 4
    alive = [t for t in range(old_n) if t != dead]

    def body(comm):
        j = comm.rank
        state = WorkerState(index=j, comm=comm)
        t = alive[j]
        state.checkpoints[1] = ({5: (blocks[t], None)},
                                {5: (blocks[t - 1], None)}, (t - 1) % old_n)
        _restore(state, 1, alive, [dead], old_n)
        return state.arrays[5]

    out = mpi.run_spmd(body, len(alive), timeout=30)
    want = BlockDistribution((20, 2), 0, len(alive))
    for j, (block, dist) in enumerate(out):
        assert dist is None
        assert np.array_equal(block, rows[want.global_selector(j)])
