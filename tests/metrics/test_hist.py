"""Histogram bucket geometry, statistics, and exact merging."""

import math

import pytest

from repro.metrics import Histogram


def test_bucket_boundaries_base2():
    h = Histogram("t", base=2.0)
    # exact powers stay in their own bucket: (base**(i-1), base**i]
    assert h.bucket_index(1.0) == 0
    assert h.bucket_index(2.0) == 1
    assert h.bucket_index(2.0 + 1e-9) == 2
    assert h.bucket_index(4.0) == 2
    assert h.bucket_index(3.0) == 2
    assert h.bucket_index(0.5) == -1
    assert h.bucket_index(0.75) == 0
    # zero and negatives land in the dedicated underflow bucket
    assert h.bucket_index(0.0) is None
    assert h.bucket_index(-3.0) is None
    assert h.bucket_upper(None) == 0.0
    assert h.bucket_upper(3) == 8.0


def test_bucket_boundaries_base10():
    h = Histogram("t", base=10.0)
    assert h.bucket_index(1.0) == 0
    assert h.bucket_index(10.0) == 1
    assert h.bucket_index(11.0) == 2
    assert h.bucket_index(1e-3) == -3
    assert h.bucket_upper(h.bucket_index(5.0)) == 10.0


def test_base_must_exceed_one():
    with pytest.raises(ValueError):
        Histogram("t", base=1.0)
    with pytest.raises(ValueError):
        Histogram("t", base=0.5)


def test_observe_tracks_exact_stats():
    h = Histogram("t")
    for v in (0.5, 3.0, 7.0, 0.0):
        h.observe(v)
    assert h.count == 4
    assert h.sum == pytest.approx(10.5)
    assert h.min == 0.0
    assert h.max == 7.0
    assert h.mean == pytest.approx(10.5 / 4)
    # 0.5 -> idx -1, 3.0 -> idx 2, 7.0 -> idx 3, 0.0 -> underflow
    assert h.buckets == {-1: 1, 2: 1, 3: 1, None: 1}


def test_quantiles():
    h = Histogram("t")
    for v in range(1, 101):  # 1..100
        h.observe(float(v))
    assert h.quantile(0.0) == 1.0
    assert h.quantile(1.0) == 100.0
    # 1..100 is uniform in value within (32, 64], so linear interpolation
    # in the holding bucket recovers the exact median: target 50 lands at
    # 32 + 32 * (50 - 32) / 32 = 50.0
    assert h.quantile(0.5) == pytest.approx(50.0)
    # never outside the observed range
    for q in (0.25, 0.5, 0.9, 0.95, 0.99):
        assert h.min <= h.quantile(q) <= h.max
    with pytest.raises(ValueError):
        h.quantile(1.5)
    with pytest.raises(ValueError):
        h.quantile(-0.1)


def test_empty_quantile_is_zero():
    assert Histogram("t").quantile(0.5) == 0.0


def test_merge_is_exact():
    a = Histogram("t")
    b = Histogram("t")
    va = [0.1, 2.0, 50.0]
    vb = [0.0, 2.0, 1e6]
    for v in va:
        a.observe(v)
    for v in vb:
        b.observe(v)
    ref = Histogram("t")
    for v in va + vb:
        ref.observe(v)
    a.merge(b)
    assert a.count == ref.count
    assert a.sum == pytest.approx(ref.sum)
    assert a.min == ref.min
    assert a.max == ref.max
    assert a.buckets == ref.buckets


def test_merge_base_mismatch_rejected():
    with pytest.raises(ValueError):
        Histogram("t", base=2.0).merge(Histogram("t", base=10.0))


def test_to_dict_buckets_sorted_ascending():
    h = Histogram("t")
    for v in (8.0, 0.0, 0.25, 1.5):
        h.observe(v)
    d = h.to_dict()
    uppers = [b["le"] for b in d["buckets"]]
    assert uppers == sorted(uppers)
    assert uppers[0] == 0.0  # underflow bucket leads
    assert sum(b["count"] for b in d["buckets"]) == h.count


def test_quantile_empty_and_underflow():
    assert Histogram("t").quantile(0.5) == 0.0
    h = Histogram("t")
    for v in (-2.0, -1.0, 0.0):
        h.observe(v)
    # all samples in the <=0 bucket: estimates stay within [min, max]
    assert h.min <= h.quantile(0.5) <= h.max


def test_to_dict_carries_interpolated_quantiles():
    h = Histogram("t")
    for v in range(1, 101):
        h.observe(float(v))
    d = h.to_dict()
    assert d["quantiles"]["p50"] == pytest.approx(50.0)
    assert d["quantiles"]["p50"] <= d["quantiles"]["p95"] \
        <= d["quantiles"]["p99"] <= h.max
