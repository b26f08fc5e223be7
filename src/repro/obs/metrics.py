"""Dependency-free metrics primitives: counters, gauges, histograms.

A :class:`MetricsRegistry` holds named counters and gauges created on
first use: the real transport counts its health (reconnects, queue drops,
bad frames) into one per node.  Histograms use **fixed** bucket bounds, so
quantiles are estimated the same way whichever run filled them; the wire
accountant's per-class size histograms (:mod:`repro.obs.wire`) and the
Δ-headroom summary (:mod:`repro.obs.analyze`) are :class:`Histogram`.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple

#: Default latency buckets (seconds): 0.25 ms … ~8 s, doubling.  Chosen
#: to straddle everything the simulator produces — sub-millisecond
#: loopback delivery up to multi-second epoch-change stalls.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = tuple(0.00025 * 2**i for i in range(16))


class Counter:
    """Monotonic counter."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        self.value += n


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket histogram over non-negative samples.

    ``bounds`` are inclusive upper edges; samples above the last bound
    land in the overflow bucket.  Tracks count, sum, min, and max
    exactly; quantiles are estimated by linear interpolation inside the
    containing bucket (the standard fixed-bucket estimator).
    """

    __slots__ = ("bounds", "counts", "overflow", "count", "total", "min", "max")

    def __init__(self, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be a non-empty sorted sequence")
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self.counts: List[int] = [0] * len(self.bounds)
        self.overflow = 0
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``value``, ``count`` times over.

        ``total`` grows by ``value * count`` in one step: the same float
        as ``count`` separate additions whenever the values are integers
        (message sizes), which stay exact far below 2**53.
        """
        if value < 0:
            raise ValueError(f"histogram sample must be >= 0, got {value}")
        if count < 1:
            raise ValueError(f"histogram sample count must be >= 1, got {count}")
        self.count += count
        self.total += value * count
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        idx = bisect.bisect_left(self.bounds, value)
        if idx == len(self.bounds):
            self.overflow += count
        else:
            self.counts[idx] += count

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated q-quantile (0 ≤ q ≤ 1); exact at the recorded extremes."""
        if not 0 <= q <= 1:
            raise ValueError(f"quantile q={q} out of range")
        if self.count == 0:
            return 0.0
        target = q * self.count
        if target <= 0:
            return self.min
        seen = 0.0
        prev_bound = 0.0
        for bound, count in zip(self.bounds, self.counts):
            if count and seen + count >= target:
                frac = (target - seen) / count
                lo = max(prev_bound, self.min)
                hi = min(bound, self.max)
                return lo + frac * (hi - lo) if hi > lo else hi
            seen += count
            prev_bound = bound
        return self.max  # overflow bucket (or q=1)

    def to_dict(self) -> Dict[str, object]:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.5),
            "p99": self.quantile(0.99),
            "bounds": list(self.bounds),
            "buckets": list(self.counts),
            "overflow": self.overflow,
        }


class MetricsRegistry:
    """Named counters and gauges, created on first use.

    Names are slash-separated paths (``trace/verification_failed``,
    ``transport/reconnects_total``); re-requesting a name returns the existing
    instrument, and requesting it with a different type is an error.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, object] = {}

    def _get(self, name: str, cls):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = self._instruments[name] = cls()
        elif not isinstance(instrument, cls):
            raise TypeError(
                f"metric {name!r} already registered as {type(instrument).__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def get(self, name: str) -> Optional[object]:
        return self._instruments.get(name)
