"""Summary statistics for latency samples.

Plain-Python percentile/summary helpers used by the measurement probes
and the experiment harness.  Percentiles use linear interpolation between
order statistics (the same convention as ``numpy.percentile``'s default),
implemented here so the core library has no hard numpy dependency.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence


def percentile(samples: Sequence[float], q: float) -> float:
    """The q-th percentile (0 ≤ q ≤ 100) with linear interpolation."""
    if not samples:
        raise ValueError("percentile of empty sample set")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile q={q} out of range")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    weight = rank - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


def mean(samples: Sequence[float]) -> float:
    if not samples:
        raise ValueError("mean of empty sample set")
    return sum(samples) / len(samples)


def stddev(samples: Sequence[float]) -> float:
    if len(samples) < 2:
        return 0.0
    m = mean(samples)
    return math.sqrt(sum((x - m) ** 2 for x in samples) / (len(samples) - 1))


@dataclass(frozen=True)
class LatencySummary:
    """Five-number-plus summary of a latency sample set (seconds)."""

    count: int
    mean: float
    p50: float
    p90: float
    p95: float
    p99: float
    p999: float
    max: float

    @staticmethod
    def from_samples(samples: Sequence[float]) -> "LatencySummary":
        if not samples:
            return LatencySummary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        return LatencySummary(
            count=len(samples),
            mean=mean(samples),
            p50=percentile(samples, 50),
            p90=percentile(samples, 90),
            p95=percentile(samples, 95),
            p99=percentile(samples, 99),
            p999=percentile(samples, 99.9),
            max=max(samples),
        )

    def as_millis(self) -> Dict[str, float]:
        """The summary converted to milliseconds, for report tables."""
        return {
            "count": self.count,
            "mean_ms": self.mean * 1e3,
            "p50_ms": self.p50 * 1e3,
            "p90_ms": self.p90 * 1e3,
            "p95_ms": self.p95 * 1e3,
            "p99_ms": self.p99 * 1e3,
            "p99.9_ms": self.p999 * 1e3,
            "max_ms": self.max * 1e3,
        }


class RollingTail:
    """Sliding-window tail-quantile estimator over a sample stream.

    Keeps the last ``window`` samples and answers tail-percentile queries
    over them — the online counterpart of the offline
    :func:`percentile` used by calibration.  O(window log window) per
    estimate, which at guard window sizes (tens of samples) is cheaper
    than maintaining an order-statistics structure.
    """

    def __init__(self, window: int, quantile: float) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        if not 0 <= quantile <= 100:
            raise ValueError(f"quantile {quantile} out of range")
        self.window = window
        self.quantile = quantile
        self._samples: deque = deque(maxlen=window)

    def add(self, value: float) -> None:
        self._samples.append(value)

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> tuple:
        """The current window contents, oldest first."""
        return tuple(self._samples)

    @property
    def full(self) -> bool:
        return len(self._samples) == self.window

    def estimate(self) -> Optional[float]:
        """Tail-quantile of the current window; None while empty."""
        if not self._samples:
            return None
        return percentile(self._samples, self.quantile)

    def maximum(self) -> Optional[float]:
        if not self._samples:
            return None
        return max(self._samples)


def cdf_points(samples: Sequence[float], points: int = 100) -> List[tuple]:
    """(value, cumulative probability) pairs for plotting a CDF."""
    if not samples:
        return []
    ordered = sorted(samples)
    n = len(ordered)
    step = max(1, n // points)
    indices = range(0, n, step)
    out = [(ordered[i], (i + 1) / n) for i in indices]
    # Close on the last index, not the last value: ties at the maximum
    # would otherwise leave the curve ending below 1.
    if indices[-1] != n - 1:
        out.append((ordered[-1], 1.0))
    return out
