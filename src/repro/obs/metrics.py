"""Dependency-free metrics primitives: counters, gauges, histograms.

The registry is the aggregation layer between raw recordings
(:mod:`repro.obs.recorder`) and human-facing reports: analysis fills it
with per-phase, per-message-class, and per-replica instruments, and the
report/CLI layers render whatever it holds.  Histograms use **fixed**
bucket bounds so two registries filled from different runs (or different
replicas) can be merged bucket-by-bucket without resampling — the same
property Prometheus-style systems rely on.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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

    def to_dict(self) -> Dict[str, object]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def to_dict(self) -> Dict[str, object]:
        return {"type": "gauge", "value": self.value}


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

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram with identical bounds into this one."""
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.overflow += other.overflow
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

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
    """Named instruments, created on first use.

    Names are slash-separated paths (``phase_latency/vote``,
    ``msg_latency/VoteMsg``); re-requesting a name returns the existing
    instrument, and requesting it with a different type is an error.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, object] = {}

    def _get(self, name: str, factory, cls):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory()
            self._instruments[name] = instrument
        elif not isinstance(instrument, cls):
            raise TypeError(
                f"metric {name!r} already registered as {type(instrument).__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, Gauge)

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS
    ) -> Histogram:
        return self._get(name, lambda: Histogram(bounds), Histogram)

    def names(self, prefix: str = "") -> List[str]:
        return sorted(n for n in self._instruments if n.startswith(prefix))

    def get(self, name: str) -> Optional[object]:
        return self._instruments.get(name)

    def histograms(self, prefix: str = "") -> List[Tuple[str, Histogram]]:
        return [
            (n, inst)
            for n in self.names(prefix)
            if isinstance((inst := self._instruments[n]), Histogram)
        ]

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry into this one, instrument by instrument.

        Counters **sum** (a name present on only one side keeps its
        value — merging over disjoint label sets is the common case when
        combining per-replica registries).  Histograms merge
        bucket-by-bucket and raise ``ValueError`` on mismatched bucket
        layouts, the same contract as :meth:`Histogram.merge`.  Gauges
        are instantaneous values with no meaningful sum, so the merge is
        **peak-preserving**: the larger value wins.  A name registered
        with different instrument types on the two sides raises
        ``TypeError``.  Returns ``self`` for chaining.
        """
        for name in other.names():
            instrument = other.get(name)
            if isinstance(instrument, Counter):
                self.counter(name).inc(instrument.value)
            elif isinstance(instrument, Histogram):
                # Requesting with the incoming bounds creates a matching
                # histogram when absent; an existing one keeps its own
                # bounds and merge() raises on a layout mismatch.
                self.histogram(name, instrument.bounds).merge(instrument)
            elif isinstance(instrument, Gauge):
                gauge = self.gauge(name)
                gauge.set(max(gauge.value, instrument.value))
        return self

    def as_dict(self) -> Dict[str, Dict[str, object]]:
        """Everything in the registry, JSON-serializable."""
        return {name: self._instruments[name].to_dict() for name in self.names()}
