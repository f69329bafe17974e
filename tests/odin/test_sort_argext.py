"""Distributed sample sort and argmin/argmax tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import odin
from repro.odin.distribution import (BlockCyclicDistribution,
                                     BlockDistribution, CyclicDistribution)
from tests.conftest import settle_counters


class TestSort:
    def test_matches_numpy(self, odin4):
        xs = np.random.default_rng(0).normal(size=50_000)
        s = odin.sort(odin.array(xs))
        assert np.allclose(s.gather(), np.sort(xs))

    def test_stays_distributed_and_balanced(self, odin4):
        xs = np.random.default_rng(1).uniform(size=40_000)
        s = odin.sort(odin.array(xs))
        counts = s.dist.counts()
        assert sum(counts) == 40_000
        # sample splitters keep the blocks within ~2x of ideal
        assert max(counts) < 2.5 * (40_000 / 4)

    def test_data_plane_only(self, odin4):
        xs = np.random.default_rng(2).normal(size=80_000)
        x = odin.array(xs)
        ctx = odin.get_context()
        settle_counters(ctx)
        _s = odin.sort(x)
        ctx.flush()  # the trailing SET_DIST waits in the epoch buffer
        _cm, cb = ctx.control_traffic()
        assert cb < 4_000          # only opcodes + counts through driver

    def test_duplicates(self, odin4):
        xs = np.random.default_rng(3).integers(0, 3, size=9_000) \
            .astype(float)
        s = odin.sort(odin.array(xs))
        assert np.allclose(s.gather(), np.sort(xs))

    def test_cyclic_input(self, odin4):
        xs = np.random.default_rng(4).normal(size=3_000)
        s = odin.sort(odin.array(xs, dist="cyclic"))
        assert np.allclose(s.gather(), np.sort(xs))

    @given(n=st.integers(1, 500), seed=st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_property(self, odin4, n, seed):
        xs = np.random.default_rng(seed).normal(size=n)
        s = odin.sort(odin.array(xs))
        assert np.allclose(s.gather(), np.sort(xs))

    def test_2d_rejected(self, odin4):
        with pytest.raises(ValueError):
            odin.sort(odin.ones((3, 3)))

    def test_result_composes(self, odin4):
        xs = np.random.default_rng(5).normal(size=1000)
        s = odin.sort(odin.array(xs))
        assert s[0] == pytest.approx(xs.min())
        assert s[999] == pytest.approx(xs.max())
        assert (s[1:] - s[:-1]).min() >= 0  # nondecreasing differences


class TestArgExtremes:
    def test_matches_numpy(self, odin4):
        xs = np.random.default_rng(6).normal(size=7_777)
        x = odin.array(xs)
        assert odin.argmin(x) == int(np.argmin(xs))
        assert odin.argmax(x) == int(np.argmax(xs))

    def test_extreme_on_each_worker(self, odin4):
        n = 100
        for pos in (0, 30, 60, 99):
            xs = np.zeros(n)
            xs[pos] = -5.0
            assert odin.argmin(odin.array(xs)) == pos
            xs[pos] = 5.0
            assert odin.argmax(odin.array(xs)) == pos

    def test_tie_breaks_to_lowest_index(self, odin4):
        xs = np.zeros(80)
        xs[10] = xs[70] = 9.0
        assert odin.argmax(odin.array(xs)) == 10

    def test_cyclic_distribution(self, odin4):
        xs = np.random.default_rng(7).normal(size=901)
        x = odin.array(xs, dist="cyclic")
        assert odin.argmin(x) == int(np.argmin(xs))

    def test_2d_rejected(self, odin4):
        with pytest.raises(ValueError):
            odin.argmin(odin.ones((2, 2)))

    @given(n=st.integers(1, 400), seed=st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_property(self, odin4, n, seed):
        xs = np.random.default_rng(seed).normal(size=n)
        x = odin.array(xs)
        assert xs[odin.argmin(x)] == xs.min()
        assert xs[odin.argmax(x)] == xs.max()

    @pytest.mark.parametrize("dist,kw", [("block", {}), ("cyclic", {}),
                                         ("block-cyclic",
                                          {"block_size": 64})])
    def test_regular_layouts_build_no_index_list(self, odin4, monkeypatch,
                                                 dist, kw):
        """The winner's global id comes from the layout's closed form:
        no worker's index list is built on the driver."""
        n, peak = 10 ** 7, 6_543_211
        x = odin.arange(n, dtype=np.int32, dist=dist, **kw)
        y = -abs(x - peak)
        odin.get_context().flush()

        def refuse(dist, worker):
            raise AssertionError(f"index list of worker {worker} built")

        for cls in (BlockDistribution, CyclicDistribution,
                    BlockCyclicDistribution):
            monkeypatch.setattr(cls, "indices_for", refuse)
        assert odin.argmax(y) == peak
        assert odin.argmin(y) == 0
