"""Log-bucketed histograms.

Fixed-size exact statistics (count, sum, min, max) plus a sparse map of
geometric buckets.  Bucket *i* covers ``(base**(i-1), base**i]`` for
positive observations; zero and negative values land in the dedicated
``le=0`` bucket.  The geometric layout means a histogram over nine
decades of latency (10 ns .. 10 s) needs ~30 buckets at the default
base of 2 -- bounded memory regardless of the distribution, which is
why Prometheus/HdrHistogram-style tooling uses the same shape.

Histograms merge exactly: buckets with equal (base, index) add, so
per-rank histograms can be combined into a global one without losing
anything the per-rank ones knew.  A histogram is a snapshot value: the
metrics fold fills it from one thread, so it takes no lock.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["Histogram"]


class Histogram:
    """A log-bucketed histogram of nonnegative-ish samples."""

    __slots__ = ("name", "labels", "base", "count", "sum", "min", "max",
                 "buckets", "_log_base")

    def __init__(self, name: str, base: float = 2.0, labels=()):
        if base <= 1.0:
            raise ValueError("histogram base must be > 1")
        self.name = name
        self.labels: Tuple[Tuple[str, object], ...] = tuple(labels)
        self.base = float(base)
        self._log_base = math.log(self.base)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        # bucket index -> count; index i covers (base**(i-1), base**i];
        # None is the underflow bucket for values <= 0
        self.buckets: Dict[Optional[int], int] = {}

    # ------------------------------------------------------------------
    # bucket geometry
    # ------------------------------------------------------------------
    def bucket_index(self, value: float) -> Optional[int]:
        """The bucket index holding *value* (None: the <=0 bucket)."""
        if value <= 0.0:
            return None
        # ceil of log_base(value), nudged so exact powers stay in their
        # own bucket: base**i maps to index i, base**i + eps to i+1
        idx = math.ceil(math.log(value) / self._log_base - 1e-12)
        return int(idx)

    def bucket_upper(self, index: Optional[int]) -> float:
        """Inclusive upper bound of a bucket (0.0 for the <=0 bucket)."""
        if index is None:
            return 0.0
        return self.base ** index

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def observe(self, value: float) -> None:
        value = float(value)
        idx = self.bucket_index(value)
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self.buckets[idx] = self.buckets.get(idx, 0) + 1

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold *other* into this histogram (bases must match)."""
        if other.base != self.base:
            raise ValueError(
                f"cannot merge histograms with bases {self.base} and "
                f"{other.base}")
        self.count += other.count
        self.sum += other.sum
        if other.min is not None and (self.min is None
                                      or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None
                                      or other.max > self.max):
            self.max = other.max
        for idx, n in other.buckets.items():
            self.buckets[idx] = self.buckets.get(idx, 0) + n
        return self

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Interpolated q-quantile: linear interpolation *within* the
        bucket holding the q-th sample, clamped to the exact observed
        [min, max], so the error is bounded by the bucket width around
        the true value.  Exact min/max at q = 0 / 1."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if not self.count:
            return 0.0
        if q == 0.0:
            return self.min
        if q == 1.0:
            return self.max
        target = q * self.count
        seen = 0
        for idx in self._sorted_indices():
            n = self.buckets[idx]
            if seen + n >= target:
                if idx is None:
                    # the <=0 underflow bucket has no geometric width:
                    # interpolate between the observed min and 0
                    lo, hi = self.min, min(0.0, self.max)
                else:
                    lo, hi = self.base ** (idx - 1), self.base ** idx
                value = lo + (hi - lo) * (target - seen) / n
                return min(max(value, self.min), self.max)
            seen += n
        return self.max

    def _sorted_indices(self) -> List[Optional[int]]:
        return sorted(self.buckets,
                      key=lambda i: -math.inf if i is None else i)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "type": "histogram",
            "name": self.name,
            "labels": dict(self.labels),
            "base": self.base,
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "quantiles": {"p50": self.quantile(0.50),
                          "p95": self.quantile(0.95),
                          "p99": self.quantile(0.99)},
            "buckets": [{"le": self.bucket_upper(idx),
                         "count": self.buckets[idx]}
                        for idx in self._sorted_indices()],
        }

    def __repr__(self):
        return (f"Histogram({self.name!r}, count={self.count}, "
                f"mean={self.mean:.3g}, max={self.max})")
