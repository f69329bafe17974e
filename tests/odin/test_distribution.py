"""Distribution index-math tests (pure, no communication)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.odin.distribution import (ArbitraryDistribution,
                                     BlockCyclicDistribution,
                                     BlockDistribution, CyclicDistribution,
                                     make_distribution)

DISTS = {
    "block": lambda shape, axis, p: BlockDistribution(shape, axis, p),
    "cyclic": lambda shape, axis, p: CyclicDistribution(shape, axis, p),
    "bc2": lambda shape, axis, p: BlockCyclicDistribution(shape, axis, p,
                                                          block_size=2),
    "bc3": lambda shape, axis, p: BlockCyclicDistribution(shape, axis, p,
                                                          block_size=3),
}


class TestPartitionInvariants:
    @pytest.mark.parametrize("name", list(DISTS))
    @given(n=st.integers(1, 200), p=st.integers(1, 7))
    @settings(max_examples=25, deadline=None)
    def test_indices_partition_axis(self, name, n, p):
        d = DISTS[name]((n,), 0, p)
        pieces = [d.indices_for(w) for w in range(p)]
        union = np.sort(np.concatenate(pieces))
        assert np.array_equal(union, np.arange(n))

    @pytest.mark.parametrize("name", list(DISTS))
    @given(n=st.integers(1, 150), p=st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_owner_and_local_position_consistent(self, name, n, p):
        d = DISTS[name]((n,), 0, p)
        gids = np.arange(n)
        owners = d.owner_of(gids)
        pos = d.local_position(gids)
        for w in range(p):
            mine = gids[owners == w]
            expect = d.indices_for(w)
            assert np.array_equal(np.sort(mine), np.sort(expect))
            # local positions invert indices_for
            assert np.array_equal(expect[pos[mine]]
                                  if len(mine) else mine, mine)

    @given(n=st.integers(1, 100), p=st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_counts_sum_to_axis_length(self, n, p):
        for name, mk in DISTS.items():
            d = mk((n,), 0, p)
            assert sum(d.counts()) == n


class TestBlock:
    def test_uniform_split(self):
        d = BlockDistribution((10,), 0, 3)
        assert d.counts() == [4, 3, 3]
        assert d.indices_for(0).tolist() == [0, 1, 2, 3]

    def test_custom_counts(self):
        d = BlockDistribution((10,), 0, 3, counts=[1, 2, 7])
        assert d.counts() == [1, 2, 7]
        assert d.owner_of(9) == 2
        assert not d.uniform

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            BlockDistribution((10,), 0, 2, counts=[3, 3])

    def test_multidim_local_shape(self):
        d = BlockDistribution((9, 5, 2), 0, 3)
        assert d.local_shape(0) == (3, 5, 2)
        d2 = BlockDistribution((9, 5, 2), 1, 5)
        assert d2.local_shape(0) == (9, 1, 2)

    def test_negative_axis(self):
        d = BlockDistribution((4, 6), -1, 2)
        assert d.axis == 1


class TestCyclic:
    def test_round_robin(self):
        d = CyclicDistribution((7,), 0, 3)
        assert d.indices_for(0).tolist() == [0, 3, 6]
        assert d.owner_of(np.array([5])).tolist() == [2]
        assert d.local_position(np.array([6])).tolist() == [2]


class TestBlockCyclic:
    def test_blocks_dealt_round_robin(self):
        d = BlockCyclicDistribution((10,), 0, 2, block_size=2)
        assert d.indices_for(0).tolist() == [0, 1, 4, 5, 8, 9]
        assert d.indices_for(1).tolist() == [2, 3, 6, 7]

    def test_block_size_one_equals_cyclic(self):
        bc = BlockCyclicDistribution((11,), 0, 3, block_size=1)
        cy = CyclicDistribution((11,), 0, 3)
        assert bc.same_as(cy)

    def test_bad_block_size(self):
        with pytest.raises(ValueError):
            BlockCyclicDistribution((5,), 0, 2, block_size=0)

    @pytest.mark.parametrize("n,p,b,expect", [
        (10, 2, 4, [[0, 1, 2, 3, 8, 9], [4, 5, 6, 7]]),  # ragged last block
        (5, 4, 2, [[0, 1], [2, 3], [4], []]),            # worker 3 owns none
        (5, 2, 8, [[0, 1, 2, 3, 4], []]),                # b > n: one block
    ])
    def test_edge_layouts(self, n, p, b, expect):
        d = BlockCyclicDistribution((n,), 0, p, block_size=b)
        got = [d.indices_for(w) for w in range(p)]
        assert all(g.dtype == np.int64 for g in got)
        assert [g.tolist() for g in got] == expect

    @given(n=st.integers(0, 120), p=st.integers(1, 6), b=st.integers(1, 15))
    @settings(max_examples=40, deadline=None)
    def test_indices_match_block_arithmetic(self, n, p, b):
        d = BlockCyclicDistribution((n,), 0, p, block_size=b)
        for w in range(p):
            assert d.indices_for(w).tolist() == \
                [g for g in range(n) if (g // b) % p == w]


class TestArbitrary:
    def test_explicit_lists(self):
        d = ArbitraryDistribution((5,), 0, [np.array([4, 0]),
                                            np.array([1, 2, 3])])
        assert d.owner_of(np.array([4])).tolist() == [0]
        assert d.local_position(np.array([4])).tolist() == [0]
        assert d.local_position(np.array([0])).tolist() == [1]

    def test_non_partition_rejected(self):
        with pytest.raises(ValueError):
            ArbitraryDistribution((4,), 0, [np.array([0, 1]),
                                            np.array([1, 2])])

    def test_with_shape_unsupported(self):
        d = ArbitraryDistribution((2,), 0, [np.array([0, 1])])
        with pytest.raises(ValueError):
            d.with_shape((3,))


class TestConformability:
    def test_same_as_detects_identical_assignment(self):
        a = BlockDistribution((12,), 0, 3)
        b = BlockDistribution((12,), 0, 3)
        c = CyclicDistribution((12,), 0, 3)
        assert a.same_as(b) and not a.same_as(c)

    def test_arbitrary_matching_block_is_conformable(self):
        a = BlockDistribution((6,), 0, 2)
        b = ArbitraryDistribution((6,), 0, [np.arange(3),
                                            np.arange(3, 6)])
        assert a.same_as(b)

    def test_shape_mismatch(self):
        assert not BlockDistribution((6,), 0, 2).same_as(
            BlockDistribution((7,), 0, 2))


class TestFactory:
    @pytest.mark.parametrize("name,cls", [
        ("block", BlockDistribution), ("cyclic", CyclicDistribution),
        ("block-cyclic", BlockCyclicDistribution),
    ])
    def test_make_by_name(self, name, cls):
        d = make_distribution((10,), 2, dist=name)
        assert isinstance(d, cls)

    def test_arbitrary_needs_lists(self):
        with pytest.raises(ValueError):
            make_distribution((4,), 2, dist="arbitrary")

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_distribution((4,), 2, dist="fractal")
