"""Fit a :class:`~repro.config.NetworkConfig` from delay measurements.

In a real deployment, the AlterBFT operator runs the probe campaign
(:mod:`repro.measure.probe`) against their cloud and derives the
protocol's Δ from the observed small-message tail.  This module performs
that derivation — and is also how we demonstrate that the simulated
substrate is self-consistent: calibrating against its own samples
recovers the configured parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..config import NetworkConfig
from .stats import mean, percentile

#: The percentile of the measured delays a deployment bounds.
CALIBRATION_PERCENTILE = 99.99

#: Multiplier applied to a measured tail to derive a protocol Δ.
SAFETY_MARGIN = 1.25


@dataclass(frozen=True)
class CalibrationReport:
    """Derived network parameters and the recommended protocol bounds."""

    base_delay: float
    jitter_scale: float
    small_bound: float
    bandwidth: float
    delta_small: float
    delta_big: float

    def to_network_config(self, template: NetworkConfig = NetworkConfig()) -> NetworkConfig:
        """A NetworkConfig with the fitted parameters filled in."""
        return template.with_(
            base_delay=self.base_delay,
            jitter_scale=self.jitter_scale,
            small_bound=self.small_bound,
            bandwidth=self.bandwidth,
        )


def recommend_delta(samples: Sequence[float], quantile: float, margin: float) -> float:
    """The Δ a deployment should provision given observed small delays.

    The online single-class counterpart of :func:`calibrate`'s
    ``delta_small`` derivation, used by the synchrony guard when it
    re-calibrates at runtime: ``margin`` times the observed
    ``quantile``-th percentile.
    """
    if not samples:
        raise ValueError("need at least one sample to recommend a delta")
    return margin * percentile(samples, min(quantile, 100.0))


def calibrate(samples_by_size: Dict[int, List[float]], small_threshold: int) -> CalibrationReport:
    """Fit network parameters from per-size delay samples.

    Args:
        samples_by_size: one-way delay samples keyed by message size.
        small_threshold: size boundary between small and large messages.

    Protocol Δs are :data:`SAFETY_MARGIN` times the
    :data:`CALIBRATION_PERCENTILE` of the delays they must cover.
    """
    small_sizes = sorted(s for s in samples_by_size if s <= small_threshold)
    large_sizes = sorted(s for s in samples_by_size if s > small_threshold)
    if not small_sizes:
        raise ValueError("need at least one small message size to calibrate")

    small_all: List[float] = []
    for size in small_sizes:
        small_all.extend(samples_by_size[size])
    base_delay = min(small_all)
    jitter_scale = max(mean(small_all) - base_delay, 1e-6)
    small_bound = max(small_all)
    delta_small = SAFETY_MARGIN * percentile(small_all, CALIBRATION_PERCENTILE)

    # Bandwidth: least-squares slope of median delay vs size over the
    # large sizes (the size-proportional component dominates there).
    bandwidth = 50e6
    if len(large_sizes) >= 2:
        xs = [float(size) for size in large_sizes]
        ys = [percentile(samples_by_size[size], 50) for size in large_sizes]
        x_mean = mean(xs)
        y_mean = mean(ys)
        denom = sum((x - x_mean) ** 2 for x in xs)
        if denom > 0:
            slope = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys)) / denom
            if slope > 0:
                bandwidth = 1.0 / slope

    # The bound a classical synchronous protocol would need: the far tail
    # over every size measured.
    worst_tail = 0.0
    for size, samples in samples_by_size.items():
        worst_tail = max(worst_tail, percentile(samples, CALIBRATION_PERCENTILE))
    delta_big = SAFETY_MARGIN * worst_tail

    return CalibrationReport(
        base_delay=base_delay,
        jitter_scale=jitter_scale,
        small_bound=small_bound,
        bandwidth=bandwidth,
        delta_small=delta_small,
        delta_big=delta_big,
    )
