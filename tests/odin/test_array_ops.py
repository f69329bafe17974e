"""DistArray global-mode tests: creation, ufuncs, reductions, indexing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import odin


class TestCreation:
    def test_zeros_ones_full_empty(self, odin4):
        assert np.allclose(odin.zeros(10).gather(), 0.0)
        assert np.allclose(odin.ones((3, 4)).gather(), 1.0)
        assert np.allclose(odin.full(6, 2.5).gather(), 2.5)
        assert odin.empty(5).shape == (5,)

    def test_arange_matches_numpy(self, odin4):
        assert np.array_equal(odin.arange(17).gather(), np.arange(17))
        assert np.allclose(odin.arange(2, 20, 3).gather(),
                           np.arange(2, 20, 3))

    def test_linspace_matches_numpy(self, odin4):
        got = odin.linspace(1.0, 2 * np.pi, 101).gather()
        assert np.allclose(got, np.linspace(1.0, 2 * np.pi, 101))

    def test_linspace_no_endpoint(self, odin4):
        got = odin.linspace(0, 1, 10, endpoint=False).gather()
        assert np.allclose(got, np.linspace(0, 1, 10, endpoint=False))

    def test_random_reproducible_and_different_per_worker(self, odin4):
        a = odin.random(100, seed=7).gather()
        b = odin.random(100, seed=7).gather()
        assert np.array_equal(a, b)
        # different workers draw different streams
        quarters = [a[i * 25:(i + 1) * 25] for i in range(4)]
        assert not np.allclose(quarters[0], quarters[1])

    def test_array_from_numpy(self, odin4):
        data = np.random.default_rng(1).normal(size=(13, 3))
        d = odin.array(data)
        assert np.allclose(d.gather(), data)

    def test_fromfunction(self, odin4):
        d = odin.fromfunction(lambda i: i ** 2, (12,))
        assert np.allclose(d.gather(), np.arange(12.0) ** 2)

    def test_fromfunction_2d(self, odin4):
        d = odin.fromfunction(lambda i, j: i * 10 + j, (6, 4))
        assert np.allclose(d.gather(), np.fromfunction(
            lambda i, j: i * 10 + j, (6, 4)))

    def test_like_constructors(self, odin4):
        a = odin.random((8, 2), seed=1)
        assert np.allclose(odin.zeros_like(a).gather(), 0.0)
        assert np.allclose(odin.ones_like(a).gather(), 1.0)
        assert odin.empty_like(a).shape == (8, 2)

    def test_dtype_control(self, odin4):
        assert odin.zeros(4, dtype=np.int32).gather().dtype == np.int32
        assert odin.ones(4, dtype=np.complex128).dtype == np.complex128

    @pytest.mark.parametrize("dist,kind", [("block", "block"),
                                           ("cyclic", "cyclic"),
                                           ("block-cyclic", "block-cyclic")])
    def test_distribution_choices(self, odin4, dist, kind):
        d = odin.arange(20, dist=dist)
        assert d.dist.kind == kind
        assert np.array_equal(d.gather(), np.arange(20))

    def test_axis_choice(self, odin4):
        d = odin.ones((3, 16), axis=1)
        assert d.dist.axis == 1
        assert np.allclose(d.gather(), 1.0)

    def test_nonuniform_counts(self, odin4):
        d = odin.zeros(10, counts=[1, 2, 3, 4])
        assert d.dist.counts() == [1, 2, 3, 4]


class TestUfuncs:
    def test_unary_match_numpy(self, odin4):
        x = odin.linspace(0.1, 1.0, 57)
        xs = x.gather()
        for name in ("sqrt", "exp", "log", "sin", "tanh", "floor",
                     "square"):
            got = getattr(odin, name)(x).gather()
            assert np.allclose(got, getattr(np, name)(xs)), name

    def test_binary_match_numpy(self, odin4):
        a = odin.random(40, seed=3)
        b = odin.random(40, seed=4) + 0.5
        av, bv = a.gather(), b.gather()
        for name in ("add", "subtract", "multiply", "divide", "hypot",
                     "maximum", "power"):
            got = getattr(odin, name)(a, b).gather()
            assert np.allclose(got, getattr(np, name)(av, bv)), name

    def test_operator_sugar(self, odin4):
        x = odin.arange(10, dtype=np.float64)
        xs = np.arange(10.0)
        assert np.allclose(((2 * x + 1 - x / 2) ** 2).gather(),
                           (2 * xs + 1 - xs / 2) ** 2)
        assert np.allclose((-x).gather(), -xs)
        assert np.allclose(abs(x - 5).gather(), abs(xs - 5))

    def test_comparisons_produce_bool(self, odin4):
        x = odin.arange(10, dtype=np.float64)
        mask = x > 4
        assert mask.dtype == np.bool_
        assert mask.gather().sum() == 5

    def test_scalar_operands(self, odin4):
        x = odin.ones(12)
        assert np.allclose((10.0 / x).gather(), 10.0)
        assert np.allclose((x - 3).gather(), -2.0)

    def test_ufunc_on_plain_numpy_passthrough(self, odin4):
        assert np.allclose(odin.sqrt(np.array([4.0, 9.0])), [2, 3])

    def test_nonconformable_redistributes_automatically(self, odin4):
        a = odin.arange(30, dist="block")
        b = odin.arange(30, dist="cyclic")
        c = a * b
        assert np.allclose(c.gather(), np.arange(30.0) ** 2)

    def test_strategy_context_manager(self, odin4):
        a = odin.arange(24, dist="block")
        b = odin.arange(24, dist="cyclic")
        for strat in ("left", "right", "block"):
            with odin.strategy(strat):
                assert odin.current_strategy() == strat
                c = a + b
            assert np.allclose(c.gather(), 2 * np.arange(24))
        assert odin.current_strategy() == "auto"

    def test_unknown_strategy(self, odin4):
        with pytest.raises(ValueError):
            with odin.strategy("teleport"):
                pass

    def test_shape_mismatch_rejected(self, odin4):
        with pytest.raises(ValueError):
            odin.ones(5) + odin.ones(6)

    def test_cost_chooser_prefers_zero_move(self, odin4):
        a = odin.ones(40, dist="block")
        b = odin.ones(40, dist="block")
        assert odin.redistribution_cost(a.dist, b.dist) == 0
        name, _ta, _tb = odin.choose_strategy(a.dist, b.dist)
        # any plan is fine when nothing moves, but cost must be 0
        cyc = odin.CyclicDistribution((40,), 0, 4)
        assert odin.redistribution_cost(a.dist, cyc) > 0


class TestReductions:
    def test_full_reductions(self, odin4):
        x = odin.array(np.random.default_rng(5).normal(size=123))
        xs = x.gather()
        assert x.sum() == pytest.approx(xs.sum())
        assert x.min() == pytest.approx(xs.min())
        assert x.max() == pytest.approx(xs.max())
        assert x.mean() == pytest.approx(xs.mean())
        assert x.std() == pytest.approx(xs.std())

    def test_prod(self, odin4):
        x = odin.full(10, 2.0)
        assert x.prod() == pytest.approx(1024.0)

    def test_any_all(self, odin4):
        x = odin.arange(10, dtype=np.float64)
        assert (x > 8).any() and not (x > 8).all()
        assert (x >= 0).all()

    def test_axis_reduction_along_dist_axis(self, odin4):
        data = np.random.default_rng(6).normal(size=(20, 7))
        x = odin.array(data)
        assert np.allclose(x.sum(axis=0), data.sum(axis=0))

    def test_axis_reduction_local_axis_stays_distributed(self, odin4):
        data = np.random.default_rng(7).normal(size=(20, 7))
        x = odin.array(data)
        rowsum = x.sum(axis=1)
        assert isinstance(rowsum, odin.DistArray)
        assert np.allclose(rowsum.gather(), data.sum(axis=1))

    @pytest.mark.parametrize("dist, cls", [
        ("block", odin.BlockDistribution),
        ("cyclic", odin.CyclicDistribution),
        ("block-cyclic", odin.BlockCyclicDistribution)])
    def test_local_axis_reduction_keeps_the_scheme(self, odin4, dist, cls):
        data = np.random.default_rng(8).normal(size=(23, 4))
        x = odin.array(data, dist=dist, block_size=3)
        rowsum = x.sum(axis=1)
        assert type(rowsum.dist) is cls
        assert rowsum.dist.same_as(odin.make_distribution(
            (23,), 4, dist, block_size=3))
        assert np.allclose(rowsum.gather(), data.sum(axis=1))

    def test_module_level_functions(self, odin4):
        x = odin.arange(9, dtype=np.float64)
        assert odin.sum(x) == pytest.approx(36.0)
        assert odin.amax(x) == 8.0
        assert odin.mean(x) == 4.0

    @given(n=st.integers(1, 300), seed=st.integers(0, 99))
    @settings(max_examples=15, deadline=None)
    def test_sum_property(self, odin4, n, seed):
        data = np.random.default_rng(seed).normal(size=n)
        assert odin.array(data).sum() == pytest.approx(data.sum())


class TestIndexing:
    def test_scalar_fetch(self, odin4):
        x = odin.arange(50, dtype=np.float64)
        assert x[0] == 0.0 and x[49] == 49.0 and x[-1] == 49.0

    def test_scalar_fetch_2d(self, odin4):
        data = np.arange(24.0).reshape(6, 4)
        x = odin.array(data)
        assert x[3, 2] == data[3, 2]

    @pytest.mark.parametrize("dist", ["block", "cyclic", "block-cyclic",
                                      "grid", "arbitrary"])
    def test_scalar_fetch_every_layout(self, odin4, monkeypatch, dist):
        """A periodic layout answers ``x[i, j]`` in closed form, never
        building an index list; an irregular one scans its lists."""
        from repro.odin import distribution as D

        n = 23
        want = np.arange(3.0 * n).reshape(n, 3)
        kw = {"block-cyclic": {"block_size": 3},
              "grid": {"axes": (0,), "grid": (4,)},
              "arbitrary": {"index_lists": np.array_split(
                  np.random.default_rng(5).permutation(n), 4)}}
        x = odin.array(want, dist=dist, **kw.get(dist, {}))
        odin4.flush()
        if dist != "arbitrary":
            def refuse(*_args, **_kwargs):
                raise AssertionError("FETCH built an index list")

            for cls in (D.BlockDistribution, D.CyclicDistribution,
                        D.BlockCyclicDistribution, D.GridDistribution):
                monkeypatch.setattr(cls, "indices_for", refuse)
            monkeypatch.setattr(D.GridDistribution, "axis_indices", refuse)
        for i in range(-n, n):
            for j in range(3):
                assert x[i, j] == want[i, j]

    def test_setitem_scalar_slice(self, odin4):
        x = odin.zeros(20)
        x[5:15] = 3.0
        ref = np.zeros(20)
        ref[5:15] = 3.0
        assert np.allclose(x.gather(), ref)

    def test_setitem_single_index(self, odin4):
        x = odin.zeros(10)
        x[7] = 1.5
        assert x[7] == 1.5 and x.sum() == 1.5

    @given(data=st.data(), n=st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_setitem_slice_property(self, odin4, data, n):
        """Periodic layouts assign through closed-form pieces, irregular
        ones through their index lists: both as NumPy does."""
        dist = data.draw(st.sampled_from(["block", "cyclic", "block-cyclic",
                                          "arbitrary"]))
        kw = {"block_size": 3} if dist == "block-cyclic" else {}
        if dist == "arbitrary":
            perm = np.random.default_rng(n).permutation(n)
            kw = {"index_lists": np.array_split(perm, 4)}
        bound = st.one_of(st.none(), st.integers(-n - 2, n + 2))
        sl = slice(data.draw(bound), data.draw(bound),
                   data.draw(st.sampled_from([1, 2, 5, -1, -3, n + 1])))
        want = np.arange(3.0 * n).reshape(n, 3)
        x = odin.array(want, dist=dist, **kw)
        x[sl, 1:] = -1.0
        want[sl, 1:] = -1.0
        assert np.array_equal(x.gather(), want)

    def test_len_and_metadata(self, odin4):
        x = odin.zeros((12, 3))
        assert len(x) == 12 and x.size == 36 and x.ndim == 2
        assert x.nbytes == 36 * 8
        assert "DistArray" in repr(x)

    def test_out_of_range(self, odin4):
        x = odin.zeros(5)
        with pytest.raises(IndexError):
            x[0, 0]
