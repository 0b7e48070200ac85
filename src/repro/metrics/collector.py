"""Measurement primitives: interval counters and statistic accumulators."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..units import SEC

if TYPE_CHECKING:  # annotation only: RunSet aggregation needs no event loop
    from ..sim import EventLoop

__all__ = ["IntervalCounter", "StatAccumulator"]


class IntervalCounter:
    """Bins a byte/event stream into fixed time intervals.

    Used for iperf-style interval goodput reports: every ``add`` call is
    attributed to the bin of the current simulated time.
    """

    def __init__(self, loop: EventLoop, interval_ns: int):
        if interval_ns <= 0:
            raise ValueError("interval must be positive")
        self._loop = loop
        self.interval_ns = int(interval_ns)
        self._bins: Dict[int, int] = {}
        self.total = 0

    def add(self, amount: int) -> None:
        """Credit *amount* to the current interval."""
        index = self._loop.now // self.interval_ns
        self._bins[index] = self._bins.get(index, 0) + amount
        self.total += amount

    def series(self) -> List[Tuple[int, int]]:
        """(interval_start_ns, amount) pairs, time-ordered, gaps filled."""
        if not self._bins:
            return []
        lo = min(self._bins)
        hi = max(self._bins)
        return [
            (index * self.interval_ns, self._bins.get(index, 0))
            for index in range(lo, hi + 1)
        ]

    def total_between(self, start_ns: int, end_ns: int) -> int:
        """Sum of amounts in bins fully inside [start_ns, end_ns)."""
        total = 0
        for index, amount in self._bins.items():
            bin_start = index * self.interval_ns
            if bin_start >= start_ns and bin_start + self.interval_ns <= end_ns:
                total += amount
        return total

    def rate_bps_between(self, start_ns: int, end_ns: int) -> float:
        """Average rate (bits/s) over complete bins inside the window."""
        span = (end_ns - start_ns) // self.interval_ns * self.interval_ns
        if span <= 0:
            return 0.0
        return self.total_between(start_ns, end_ns) * 8 * SEC / span


class StatAccumulator:
    """Streaming mean/variance/min/max, with optional sample retention.

    Welford's algorithm keeps the variance numerically stable; retained
    samples (``keep=True``) allow percentile queries.
    """

    def __init__(self, keep: bool = False):
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min_value: Optional[float] = None
        self.max_value: Optional[float] = None
        self._samples: Optional[List[float]] = [] if keep else None
        #: sorted view of _samples, rebuilt lazily (percentile queries
        #: from grid reports come in batches between adds)
        self._sorted_samples: Optional[List[float]] = None

    def add(self, value: float) -> None:
        """Fold one sample in."""
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if self.min_value is None or value < self.min_value:
            self.min_value = value
        if self.max_value is None or value > self.max_value:
            self.max_value = value
        if self._samples is not None:
            self._samples.append(value)
            self._sorted_samples = None

    @property
    def mean(self) -> float:
        """Sample mean (0.0 when empty)."""
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Unbiased sample variance."""
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stdev(self) -> float:
        """Sample standard deviation."""
        return math.sqrt(self.variance)

    def percentile(self, p: float) -> float:
        """p-th percentile (requires ``keep=True``); linear interpolation."""
        if self._samples is None:
            raise RuntimeError("percentiles need keep=True")
        if not self._samples:
            return 0.0
        data = self._sorted_samples
        if data is None:
            data = self._sorted_samples = sorted(self._samples)
        if len(data) == 1:
            return data[0]
        rank = (len(data) - 1) * p / 100.0
        low = int(rank)
        high = min(low + 1, len(data) - 1)
        frac = rank - low
        return data[low] * (1 - frac) + data[high] * frac
