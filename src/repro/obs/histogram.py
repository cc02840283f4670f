"""Accumulators the :class:`~repro.obs.MaintenanceStats` table is built
from: :class:`RunningStat` (count/total/min/max) and two log2-bucketed
histograms over it, one implementation under two exported names.

Histograms are log2-bucketed because pure-Python wall-clock numbers are
noisy but their order of magnitude is stable, which is exactly what a
bucketed histogram preserves.  None of this knows a metric's name.
"""

from __future__ import annotations

import math

#: Smallest latency bucket boundary (100 ns — below timer resolution).
_BASE = 1e-7


class RunningStat:
    """Count/total/min/max accumulator for a stream of numbers."""

    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "RunningStat") -> None:
        self.count += other.count
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    def to_dict(self) -> dict:
        if not self.count:
            return {"count": 0, "total": 0.0, "min": None, "max": None, "mean": 0.0}
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
        }

    def __repr__(self) -> str:
        return f"RunningStat(count={self.count}, mean={self.mean:.4g})"


class _Log2Histogram:
    """A count per log2 bucket plus a :class:`RunningStat`.

    Percentiles are reported as the upper boundary of the bucket holding
    the requested rank, i.e. a conservative (over-)estimate within a
    factor of 2.  The two exported subclasses say which bucket a sample
    lands in, that bucket's upper boundary and its JSON label.
    """

    __slots__ = ("buckets", "stat")
    _zero: float = 0  # what a negative sample is clamped to
    _unit = ""

    def __init__(self):
        self.buckets: dict[int, int] = {}
        self.stat = RunningStat()

    def record(self, value: float) -> None:
        if value < 0:
            value = self._zero
        self.stat.record(value)
        index = self._index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    @property
    def count(self) -> int:
        return self.stat.count

    def percentile(self, q: float) -> float:
        """Upper bucket boundary at quantile ``q`` in [0, 1]."""
        if not self.stat.count:
            return 0.0
        rank = max(1, math.ceil(q * self.stat.count))
        seen = 0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= rank:
                return self._bound(index)
        return self.stat.maximum

    def merge(self, other: "_Log2Histogram") -> None:
        self.stat.merge(other.stat)
        for index, count in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + count

    def to_dict(self) -> dict:
        summary = self.stat.to_dict()
        if self.stat.count:
            summary["p50"] = self.percentile(0.50)
            summary["p95"] = self.percentile(0.95)
            summary["p99"] = self.percentile(0.99)
        summary["buckets"] = {
            self._label(index): self.buckets[index] for index in sorted(self.buckets)
        }
        return summary

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(count={self.stat.count}, "
            f"mean={self.stat.mean:.3g}{self._unit})"
        )


class LatencyHistogram(_Log2Histogram):
    """Log2-bucketed histogram of durations in seconds.

    Bucket ``i`` covers ``(_BASE * 2^(i-1), _BASE * 2^i]``; durations at
    or below ``_BASE`` land in bucket 0.
    """

    __slots__ = ()
    _zero, _unit = 0.0, "s"

    @staticmethod
    def _index(seconds: float) -> int:
        return 0 if seconds <= _BASE else int(math.ceil(math.log2(seconds / _BASE)))

    @staticmethod
    def _bound(index: int) -> float:
        return _BASE * (2.0 ** index)

    @staticmethod
    def _label(index: int) -> str:
        return f"<={_BASE * (2.0 ** index):.3g}s"


class CountHistogram(_Log2Histogram):
    """Log2-bucketed histogram of non-negative integer counts.

    Used for quantities like batch sizes and queue depths whose order of
    magnitude is the interesting part.  Bucket ``i`` covers
    ``[2^(i-1), 2^i - 1]`` (bucket 0 holds exact zeros).
    """

    __slots__ = ()

    @staticmethod
    def _index(value: int) -> int:
        return int(value).bit_length()

    @staticmethod
    def _bound(index: int) -> float:
        return 0.0 if index == 0 else float(2 ** index - 1)

    @staticmethod
    def _label(index: int) -> str:
        return "0" if index == 0 else f"<={2 ** index - 1}"
