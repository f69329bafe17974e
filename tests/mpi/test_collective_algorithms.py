"""Differential conformance for the adaptive collective algorithms.

Every algorithm variant (object + buffer paths) runs against a NumPy
oracle across communicator sizes 1-8 and message sizes straddling the
cost-model crossover points; trace spans, metrics and wire counters must
all record the algorithm that actually ran; oversized or truncated
payloads must surface as typed :class:`TruncationError`, and injected
faults (delay / truncate / crash) must abort rather than hang.
"""

import numpy as np
import pytest

from repro import chaos, mpi
from repro.chaos import FaultPlan
from repro.metrics import REGISTRY
from repro.mpi import (COMMODITY_CLUSTER, FLAT, MAX, SUM, Topology,
                       TruncationError, collective_label_catalogue, create_op,
                       select_algorithm)
from repro.mpi.errors import InjectedFault
from repro.trace import TRACER

ALLREDUCE_ALGOS = ("reduce+bcast", "recursive-doubling", "ring",
                   "rabenseifner")
BCAST_ALGOS = ("binomial-tree", "scatter-allgather")
REDUCE_ALGOS = ("binomial-tree", "rank-ordered-tree", "gather-fold", "ring")

#: element counts whose float64 byte sizes straddle the recdbl/segmented
#: (~12 KB at p=8) and binomial/scatter-allgather (~28 KB) crossovers
SIZES = (1, 3, 7, 64, 1000, 6000)

RECOVERABLE = (mpi.RankFailure, mpi.CommRevokedError)


@pytest.fixture(autouse=True)
def reset_global_tuning():
    """No test leaves process-wide tuning or a fault plan behind."""
    yield
    mpi.set_collective_tuning(COMMODITY_CLUSTER, FLAT)
    chaos.uninstall()


def _concat(a, b):
    return a + b


class TestBufferConformance:
    """Forced-algorithm sweeps against NumPy oracles."""

    @pytest.mark.parametrize("nranks", range(1, 9))
    def test_allreduce_every_algorithm(self, nranks):
        def body(comm):
            out = {}
            r = comm.Get_rank()
            for n in SIZES:
                mine = np.arange(n, dtype=np.float64) + r
                for algo in ALLREDUCE_ALGOS:
                    recv = np.empty(n, dtype=np.float64)
                    comm.Allreduce(mine, recv, SUM, algorithm=algo)
                    out[(n, algo, "sum")] = recv
                recv = np.empty(n, dtype=np.float64)
                comm.Allreduce(mine, recv, MAX, algorithm="ring")
                out[(n, "ring", "max")] = recv
            return out

        results = mpi.run_spmd(body, nranks)
        for n in SIZES:
            base = np.arange(n, dtype=np.float64)
            expect_sum = nranks * base + sum(range(nranks))
            expect_max = base + (nranks - 1)
            for out in results:
                for algo in ALLREDUCE_ALGOS:
                    np.testing.assert_allclose(out[(n, algo, "sum")],
                                               expect_sum)
                np.testing.assert_allclose(out[(n, "ring", "max")],
                                           expect_max)

    @pytest.mark.parametrize("nranks", (1, 2, 3, 5, 8))
    def test_reduce_every_algorithm_and_root(self, nranks):
        roots = sorted({0, nranks - 1, nranks // 2})

        def body(comm):
            out = {}
            r = comm.Get_rank()
            for n in (3, 64, 1000):
                mine = np.arange(n, dtype=np.float64) * (r + 1)
                for algo in REDUCE_ALGOS:
                    for root in roots:
                        recv = (np.empty(n, dtype=np.float64)
                                if r == root else None)
                        comm.Reduce(mine, recv, SUM, root=root,
                                    algorithm=algo)
                        if r == root:
                            out[(n, algo, root)] = recv
            return out

        results = mpi.run_spmd(body, nranks)
        scale = sum(range(1, nranks + 1))
        for n in (3, 64, 1000):
            expect = np.arange(n, dtype=np.float64) * scale
            for algo in REDUCE_ALGOS:
                for root in roots:
                    np.testing.assert_allclose(
                        results[root][(n, algo, root)], expect)

    @pytest.mark.parametrize("nranks", (1, 2, 3, 5, 8))
    def test_bcast_every_algorithm_and_root(self, nranks):
        roots = sorted({0, nranks - 1})

        def body(comm):
            out = {}
            r = comm.Get_rank()
            for n in (1, 7, 1000, 6000):
                for algo in BCAST_ALGOS:
                    for root in roots:
                        buf = (np.arange(n, dtype=np.float64) * (root + 1)
                               if r == root
                               else np.zeros(n, dtype=np.float64))
                        comm.Bcast(buf, root=root, algorithm=algo)
                        out[(n, algo, root)] = buf
            return out

        for out in mpi.run_spmd(body, nranks):
            for n in (1, 7, 1000, 6000):
                for algo in BCAST_ALGOS:
                    for root in roots:
                        np.testing.assert_allclose(
                            out[(n, algo, root)],
                            np.arange(n, dtype=np.float64) * (root + 1))


class TestObjectConformance:
    """Lowercase (pickled-object) paths, including non-commutative ops."""

    @pytest.mark.parametrize("nranks", (1, 2, 3, 5, 8))
    def test_object_allreduce_and_bcast(self, nranks):
        def body(comm):
            out = {}
            r = comm.Get_rank()
            for algo in ("reduce+bcast", "recursive-doubling"):
                out[("sum", algo)] = comm.allreduce(r + 1, SUM,
                                                    algorithm=algo)
            # ndarray objects delegate to the buffer engines, so the
            # segmented algorithms are legal here too
            arr = np.full(100, float(r))
            for algo in ALLREDUCE_ALGOS:
                out[("arr", algo)] = comm.allreduce(arr, SUM,
                                                    algorithm=algo)
            payload = {"blob": list(range(50)), "rank": 0}
            for algo in BCAST_ALGOS:
                got = comm.bcast(payload if r == 0 else None, root=0,
                                 algorithm=algo)
                out[("bcast", algo)] = got
            return out

        expect_arr = np.full(100, float(sum(range(nranks))))
        for out in mpi.run_spmd(body, nranks):
            for algo in ("reduce+bcast", "recursive-doubling"):
                assert out[("sum", algo)] == sum(range(1, nranks + 1))
            for algo in ALLREDUCE_ALGOS:
                np.testing.assert_allclose(out[("arr", algo)], expect_arr)
            for algo in BCAST_ALGOS:
                assert out[("bcast", algo)] == {"blob": list(range(50)),
                                                "rank": 0}

    @pytest.mark.parametrize("nranks", (2, 3, 5, 8))
    def test_noncommutative_ops_preserve_rank_order(self, nranks):
        """String concatenation distinguishes every evaluation order."""
        concat = create_op(_concat, commute=False, name="concat")

        def body(comm):
            word = f"[{comm.Get_rank()}]"
            out = {}
            for algo in ("reduce+bcast", "recursive-doubling"):
                out[("allreduce", algo)] = comm.allreduce(word, concat,
                                                          algorithm=algo)
            for algo in ("rank-ordered-tree", "gather-fold"):
                out[("reduce", algo)] = comm.reduce(word, concat, root=0,
                                                    algorithm=algo)
            out["auto"] = comm.reduce(word, concat, root=0)
            return out

        expect = "".join(f"[{i}]" for i in range(nranks))
        results = mpi.run_spmd(body, nranks)
        for out in results:
            for algo in ("reduce+bcast", "recursive-doubling"):
                assert out[("allreduce", algo)] == expect
        for algo in ("rank-ordered-tree", "gather-fold"):
            assert results[0][("reduce", algo)] == expect
        assert results[0]["auto"] == expect


class TestHierarchical:
    """Topology-aware variants over the same p2p substrate."""

    TOPOLOGIES = {
        5: [(0,), (1, 2, 3, 4)],
        8: [(0, 1, 2, 3), (4, 5, 6, 7)],
    }

    @pytest.mark.parametrize("nranks", (5, 8))
    def test_hierarchical_matches_flat(self, nranks):
        topo = Topology(intra_node_groups=self.TOPOLOGIES[nranks])

        def body(comm):
            comm.set_collective_tuning(topology=topo)
            r = comm.Get_rank()
            out = {"obj": comm.allreduce(r + 1, SUM,
                                         algorithm="hierarchical")}
            mine = np.arange(200, dtype=np.float64) + r
            recv = np.empty(200, dtype=np.float64)
            comm.Allreduce(mine, recv, SUM, algorithm="hierarchical")
            out["buf"] = recv
            buf = (np.arange(64, dtype=np.float64) if r == 2
                   else np.zeros(64, dtype=np.float64))
            comm.Bcast(buf, root=2, algorithm="hierarchical")
            out["bcast_buf"] = buf
            out["bcast_obj"] = comm.bcast(
                "deep payload" if r == 3 else None, root=3,
                algorithm="hierarchical")
            return out

        expect = (nranks * np.arange(200, dtype=np.float64)
                  + sum(range(nranks)))
        for out in mpi.run_spmd(body, nranks):
            assert out["obj"] == sum(range(1, nranks + 1))
            np.testing.assert_allclose(out["buf"], expect)
            np.testing.assert_allclose(out["bcast_buf"],
                                       np.arange(64, dtype=np.float64))
            assert out["bcast_obj"] == "deep payload"

    def test_interleaved_groups(self):
        """Groups need not be contiguous rank runs."""
        topo = Topology(intra_node_groups=[(0, 2, 4, 6), (1, 3, 5, 7)])

        def body(comm):
            comm.set_collective_tuning(topology=topo)
            recv = np.empty(32, dtype=np.float64)
            comm.Allreduce(np.full(32, float(comm.Get_rank())), recv,
                           SUM, algorithm="hierarchical")
            return recv

        for recv in mpi.run_spmd(body, 8):
            np.testing.assert_allclose(recv, np.full(32, float(sum(range(8)))))

    def test_module_level_topology_is_inherited(self):
        mpi.set_collective_tuning(
            topology=Topology(intra_node_groups=[(0, 1), (2, 3)]))

        def body(comm):
            return comm.allreduce(comm.Get_rank(), SUM,
                                  algorithm="hierarchical")

        assert mpi.run_spmd(body, 4) == [6] * 4


class TestAutoSelection:
    """The adaptive path must agree with the cost model's argmin."""

    def test_allreduce_crossover(self):
        model = COMMODITY_CLUSTER
        small_n, large_n = 8, 200_000

        def body(comm):
            out = {}
            for n in (small_n, large_n):
                recv = np.empty(n, dtype=np.float64)
                before = comm.traffic_snapshot()
                comm.Allreduce(np.ones(n), recv, SUM)
                delta = comm.traffic_snapshot() - before
                out[n] = delta.algorithms_used("Allreduce")
            return out

        results = mpi.run_spmd(body, 8)
        small_pred = select_algorithm("allreduce", 8, 8 * small_n, model,
                                      count=small_n)
        large_pred = select_algorithm("allreduce", 8, 8 * large_n, model,
                                      count=large_n)
        for out in results:
            assert out[small_n] == {small_pred}
            assert out[large_n] == {large_pred}
        # the acceptance bar: at least two distinct algorithms selected,
        # at the sizes the cost model says they should flip
        assert small_pred != large_pred
        assert small_pred == "recursive-doubling"
        assert large_pred in ("ring", "rabenseifner")

    def test_bcast_crossover(self):
        model = COMMODITY_CLUSTER
        small_n, large_n = 8, 100_000

        def body(comm):
            out = {}
            for n in (small_n, large_n):
                buf = np.ones(n, dtype=np.float64)
                before = comm.traffic_snapshot()
                comm.Bcast(buf, root=0)
                out[n] = (comm.traffic_snapshot()
                          - before).algorithms_used("Bcast")
            return out

        small_pred = select_algorithm("bcast", 8, 8 * small_n, model,
                                      count=small_n)
        large_pred = select_algorithm("bcast", 8, 8 * large_n, model,
                                      count=large_n)
        for out in mpi.run_spmd(body, 8):
            assert out[small_n] == {small_pred}
            assert out[large_n] == {large_pred}
        assert (small_pred, large_pred) == ("binomial-tree",
                                            "scatter-allgather")

    def test_object_path_without_hint_stays_small(self):
        """Per-rank pickle sizes must not feed selection; a missing
        size_hint means the small-message algorithm on every rank."""
        def body(comm):
            # rank-dependent payload size on the root only: selection
            # still has to be SPMD-consistent
            payload = "x" * 100_000 if comm.Get_rank() == 0 else None
            before = comm.traffic_snapshot()
            got = comm.bcast(payload, root=0)
            algos = (comm.traffic_snapshot() - before).algorithms_used("bcast")
            return len(got), algos

        for n, algos in mpi.run_spmd(body, 4):
            assert n == 100_000
            assert algos == {"binomial-tree"}


class TestValidation:
    """Forced-algorithm and topology misuse fails loudly, SPMD-wide."""

    def test_bad_requests_raise_value_error(self):
        concat = create_op(_concat, commute=False, name="concat")

        def body(comm):
            checks = {}
            arr = np.ones(4)
            recv = np.empty(4)

            def expect_value_error(key, fn):
                try:
                    fn()
                    checks[key] = "no error"
                except ValueError:
                    checks[key] = "ValueError"
                except Exception as exc:  # noqa: BLE001 - recorded for assert
                    checks[key] = type(exc).__name__

            expect_value_error(
                "unknown", lambda: comm.allreduce(1, SUM,
                                                  algorithm="segmented"))
            expect_value_error(
                "local-forced", lambda: comm.allreduce(1, SUM,
                                                       algorithm="local"))
            expect_value_error(
                "ring-on-object",
                lambda: comm.allreduce([1, 2], SUM, algorithm="ring"))
            expect_value_error(
                "hier-no-topology",
                lambda: comm.Allreduce(arr, recv, SUM,
                                       algorithm="hierarchical"))
            expect_value_error(
                "noncomm-ring",
                lambda: comm.allreduce("x", concat, algorithm="ring"))
            expect_value_error(
                "noncomm-binomial-reduce",
                lambda: comm.reduce("x", concat, root=0,
                                    algorithm="binomial-tree"))
            expect_value_error(
                "wrong-size-topology",
                lambda: comm.set_collective_tuning(
                    topology=Topology(intra_node_groups=[(0, 1), (2, 3)])))
            return checks

        for checks in mpi.run_spmd(body, 2):
            assert checks == {k: "ValueError" for k in checks}, checks


class TestTruncation:
    """Size mismatches surface as TruncationError, never corruption."""

    def test_allgatherv_oversized_block_aborts_typed(self):
        """A rank whose declared count disagrees (oversized payload on
        the wire) must trigger TruncationError on the receiver instead
        of silently overwriting the neighbouring block."""
        recv_store = {}

        def body(comm):
            r = comm.Get_rank()
            # rank 1 believes its block is 6 elements; everyone else
            # expects 4 -- the 6-element payload would overflow into
            # block 2's slot without the size check
            counts = [4, 6, 4] if r == 1 else [4, 4, 4]
            displs = [0, 4, 8]
            send = np.full(counts[r], float(r + 1))
            recv = np.full(12, -1.0)
            recv_store[r] = recv
            comm.Allgatherv(send, recv, counts, displs)

        with pytest.raises(TruncationError, match="oversized"):
            mpi.run_spmd(body, 3, timeout=30.0)
        # rank 2's own block (slot 8:12) was written locally before the
        # ring started; the oversized block-1 payload must not have
        # spilled into it
        np.testing.assert_allclose(recv_store[2][8:12], np.full(4, 3.0))

    def test_chaos_truncate_aborts_every_algorithm(self):
        """In-flight truncation surfaces as TruncationError (no hang,
        no silent wrong answer) for each buffer algorithm."""
        cases = [
            lambda c: c.Allreduce(np.ones(1000), np.empty(1000), SUM,
                                  algorithm="ring"),
            lambda c: c.Allreduce(np.ones(1000), np.empty(1000), SUM,
                                  algorithm="rabenseifner"),
            lambda c: c.Allreduce(np.ones(1000), np.empty(1000), SUM,
                                  algorithm="recursive-doubling"),
            lambda c: c.Bcast(np.ones(1000), root=0,
                              algorithm="scatter-allgather"),
            lambda c: c.Bcast(np.ones(1000), root=0,
                              algorithm="binomial-tree"),
            lambda c: c.Reduce(np.ones(1000), np.empty(1000), SUM,
                               root=0, algorithm="ring"),
            lambda c: c.Alltoall(np.ones(16), np.empty(16)),
            # a short block must not leave stale data in the receive
            # buffer: every block arrives with exactly counts[r] elements
            lambda c: c.Scatter(np.ones(16) if c.rank == 0 else None,
                                np.empty(4), root=0),
            lambda c: c.Scatterv(np.ones(16) if c.rank == 0 else None,
                                 [4] * 4, [0, 4, 8, 12], np.empty(4),
                                 root=0),
            lambda c: c.Gather(np.ones(4),
                               np.empty(16) if c.rank == 0 else None,
                               root=0),
            lambda c: c.Gatherv(np.ones(4),
                                np.empty(16) if c.rank == 0 else None,
                                [4] * 4, [0, 4, 8, 12], root=0),
            lambda c: c.Allgather(np.ones(4), np.empty(16)),
            lambda c: c.Scan(np.ones(8), np.empty(8), SUM),
            lambda c: c.Exscan(np.ones(8), np.empty(8), SUM),
        ]
        for i, coll in enumerate(cases):
            chaos.install(FaultPlan(seed=100 + i)
                          .truncate(keep=0.5, prob=1.0, op="send"))
            try:
                with pytest.raises(TruncationError):
                    mpi.run_spmd(coll, 4, timeout=30.0)
            finally:
                chaos.uninstall()

    def test_chaos_delay_does_not_corrupt(self):
        """Late senders reshape timing, not results: FIFO ordering keeps
        every algorithm correct under injected delays."""
        chaos.install(FaultPlan(seed=7, max_sleep=0.005)
                      .delay(seconds=0.002, prob=0.5, op="send"))

        def body(comm):
            out = {}
            mine = np.arange(256, dtype=np.float64) + comm.Get_rank()
            for algo in ALLREDUCE_ALGOS:
                recv = np.empty(256, dtype=np.float64)
                comm.Allreduce(mine, recv, SUM, algorithm=algo)
                out[algo] = recv
            return out

        expect = 4 * np.arange(256, dtype=np.float64) + 6
        for out in mpi.run_spmd(body, 4, timeout=30.0):
            for algo in ALLREDUCE_ALGOS:
                np.testing.assert_allclose(out[algo], expect)


class TestCrashRecovery:
    """A dead rank aborts the new variants typed; shrink-and-redo works."""

    @pytest.mark.parametrize("algo", ALLREDUCE_ALGOS)
    def test_allreduce_variants_survive_crash(self, algo):
        victim = 2

        def body(comm):
            if comm.rank == victim:
                raise InjectedFault(victim, 0, "scripted collective crash")

            def coll(c):
                recv = np.empty(64, dtype=np.float64)
                c.Allreduce(np.ones(64), recv, SUM, algorithm=algo)
                return recv

            try:
                while True:
                    coll(comm)
            except RECOVERABLE:
                comm.revoke()
            new = comm.shrink()
            return new.size, coll(new)

        out = mpi.run_spmd(body, 4, timeout=30.0, fault_mode="failstop")
        assert isinstance(out[victim], InjectedFault)
        for r in (0, 1, 3):
            size, recv = out[r]
            assert size == 3
            np.testing.assert_allclose(recv, np.full(64, 3.0))

    def test_hierarchical_survives_crash_with_retuned_topology(self):
        victim = 1

        def body(comm):
            if comm.rank == victim:
                raise InjectedFault(victim, 0, "scripted collective crash")
            try:
                while True:
                    comm.set_collective_tuning(
                        topology=Topology(intra_node_groups=[(0, 1),
                                                             (2, 3)]))
                    comm.allreduce(1, SUM, algorithm="hierarchical")
            except RECOVERABLE:
                comm.revoke()
            new = comm.shrink()
            # the old topology no longer fits the shrunk size: declare a
            # fresh one before forcing the hierarchical variant again
            new.set_collective_tuning(
                topology=Topology(intra_node_groups=[(0, 1), (2,)]))
            return new.size, new.allreduce(1, SUM, algorithm="hierarchical")

        out = mpi.run_spmd(body, 4, timeout=30.0, fault_mode="failstop")
        assert isinstance(out[victim], InjectedFault)
        for r in (0, 2, 3):
            assert out[r] == (3, 3)


class TestLabelAudit:
    """Spans, metrics and wire counters must agree on what actually ran,
    and every label must come from the published catalogue."""

    @pytest.fixture(autouse=True)
    def observability(self):
        TRACER.clear()
        TRACER.enable()
        REGISTRY.clear()
        REGISTRY.enable()
        yield
        TRACER.disable()
        TRACER.clear()
        REGISTRY.disable()
        REGISTRY.clear()

    @staticmethod
    def _exercise(comm):
        """One call to every collective in the public surface."""
        p, r = comm.Get_size(), comm.Get_rank()
        big = np.ones(100_000, dtype=np.float64)
        comm.barrier()
        comm.bcast({"k": 1} if r == 0 else None, root=0)
        comm.scatter(list(range(p)) if r == 0 else None, root=0)
        comm.gather(r, root=0)
        comm.allgather(r)
        comm.alltoall([r] * p)
        comm.scan(r, SUM)
        comm.exscan(r, SUM)
        comm.reduce(r, SUM, root=0)
        comm.reduce(f"[{r}]", create_op(_concat, commute=False,
                                        name="concat"), root=0)
        comm.allreduce(r, SUM)
        comm.reduce_scatter([r] * p)
        buf = np.full(4, float(r))
        out4, outp = np.empty(4), np.empty(4 * p)
        comm.Bcast(buf, root=0)
        comm.Bcast(big, root=0)                      # large: segmented
        comm.Scatter(np.ones(4 * p) if r == 0 else None, out4, root=0)
        comm.Scatterv(np.ones(4 * p) if r == 0 else None, [4] * p,
                      [4 * i for i in range(p)], out4, root=0)
        comm.Gather(buf, outp if r == 0 else None, root=0)
        comm.Gatherv(buf, outp if r == 0 else None, [4] * p,
                     [4 * i for i in range(p)], root=0)
        comm.Allgather(buf, outp)
        comm.Allgatherv(buf, outp, [4] * p, [4 * i for i in range(p)])
        comm.Alltoall(np.ones(p), np.empty(p))
        comm.Scan(buf, out4, SUM)
        comm.Exscan(buf, out4, SUM)
        comm.Reduce(buf, out4 if r == 0 else None, SUM, root=0)
        comm.Allreduce(buf, out4, SUM)
        comm.Allreduce(big, np.empty_like(big), SUM)  # large: segmented
        return comm.traffic_snapshot()

    def test_labels_match_catalogue_and_counters(self):
        snaps = mpi.run_spmd(self._exercise, 4)
        catalogue = collective_label_catalogue()

        spans = [ev for ev in TRACER.events() if ev[1] == "mpi.coll"]
        assert spans, "no collective spans recorded"
        for _ph, _cat, op, rank, _ts, _dur, args in spans:
            assert op in catalogue, f"span op {op!r} not in catalogue"
            assert args["algorithm"] in catalogue[op], \
                f"{op} span labelled {args['algorithm']!r}, " \
                f"legal: {catalogue[op]}"
            assert args["size"] == 4

        # counters saw exactly what the spans saw, per (op, algorithm)
        span_counts = {}
        for _ph, _cat, op, rank, _ts, _dur, args in spans:
            key = (op, args["algorithm"])
            span_counts[key] = span_counts.get(key, 0) + 1
        counter_counts = {}
        for snap in snaps:
            for key, n in snap.coll_calls.items():
                counter_counts[key] = counter_counts.get(key, 0) + n
        assert counter_counts == span_counts

        # metrics carry the same label pairs with the same call counts
        metric_counts = {}
        for m in REGISTRY.metrics():
            if m.name == "mpi.coll.calls":
                labels = dict(m.labels)
                metric_counts[(labels["op"], labels["algorithm"])] = m.value
        assert metric_counts == counter_counts

        # the adaptive ops actually exercised more than one algorithm
        all_algos = set()
        for snap in snaps:
            all_algos |= snap.algorithms_used("Allreduce")
            all_algos |= snap.algorithms_used("Bcast")
        assert len(all_algos) >= 2, all_algos
        # and the dishonest "binary-tree"/mislabeled lineage is gone:
        # nothing outside the catalogue ever appears
        legal = {lbl for labels in catalogue.values() for lbl in labels}
        assert set(a for _op, a in counter_counts) <= legal

    def test_one_call_records_one_collective(self):
        """One call leaves exactly one (op, algorithm) pair, keyed by the
        method called: Scatter, Gather and Allgather do not also record
        their v-forms.  (allreduce's reduce+bcast and reduce_scatter's
        alltoall+fold are compositions whose labels name the inner
        collectives they record, so they are not in this list.)"""
        def body(comm):
            p, r = comm.Get_size(), comm.Get_rank()
            buf, out4, outp = np.full(4, float(r)), np.empty(4), \
                np.empty(4 * p)
            counts, displs = [4] * p, [4 * i for i in range(p)]
            send = np.ones(4 * p) if r == 0 else None
            gathered = outp if r == 0 else None
            calls = {
                "barrier": lambda: comm.barrier(),
                "bcast": lambda: comm.bcast(r, root=0),
                "scatter": lambda: comm.scatter(
                    list(range(p)) if r == 0 else None, root=0),
                "gather": lambda: comm.gather(r, root=0),
                "allgather": lambda: comm.allgather(r),
                "alltoall": lambda: comm.alltoall([r] * p),
                "scan": lambda: comm.scan(r, SUM),
                "exscan": lambda: comm.exscan(r, SUM),
                "reduce": lambda: comm.reduce(r, SUM, root=0),
                "Bcast": lambda: comm.Bcast(buf, root=0),
                "Scatter": lambda: comm.Scatter(send, out4, root=0),
                "Scatterv": lambda: comm.Scatterv(send, counts, displs,
                                                  out4, root=0),
                "Gather": lambda: comm.Gather(buf, gathered, root=0),
                "Gatherv": lambda: comm.Gatherv(buf, gathered, counts,
                                                displs, root=0),
                "Allgather": lambda: comm.Allgather(buf, outp),
                "Allgatherv": lambda: comm.Allgatherv(buf, outp, counts,
                                                      displs),
                "Alltoall": lambda: comm.Alltoall(np.ones(p), np.empty(p)),
                "Scan": lambda: comm.Scan(buf, out4, SUM),
                "Exscan": lambda: comm.Exscan(buf, out4, SUM),
                "Reduce": lambda: comm.Reduce(buf, out4, SUM, root=0),
                "Allreduce": lambda: comm.Allreduce(buf, out4, SUM),
            }
            recorded = {}
            for op, call in calls.items():
                before = comm.traffic_snapshot()
                call()
                recorded[op] = (comm.traffic_snapshot() - before).coll_calls
            return recorded

        for recorded in mpi.run_spmd(body, 4):
            for op, pairs in recorded.items():
                assert list(pairs.values()) == [1], (op, pairs)
                assert next(iter(pairs))[0] == op, (op, pairs)

    def test_local_label_at_size_one(self):
        """Adaptive ops degenerate to 'local' on a singleton comm; the
        fixed-algorithm ops keep their static labels."""
        snaps = mpi.run_spmd(self._exercise, 1)
        catalogue = collective_label_catalogue()
        for op in ("bcast", "Bcast", "reduce", "Reduce", "allreduce",
                   "Allreduce"):
            assert snaps[0].algorithms_used(op) == {"local"}, op
        for (op, algo), _n in snaps[0].coll_calls.items():
            assert algo in catalogue[op]
