"""Message delay models.

The paper's empirical claim — the reason AlterBFT exists — is that public
cloud networks treat message sizes very differently:

* **small messages** (≲ a few KiB) see stable, low delays whose far tail
  can be bounded by a Δ of a few milliseconds, while
* **large messages** (tens of KiB to MiB) see a bandwidth-proportional
  delay plus *heavy-tailed slowdown episodes* (TCP loss recovery,
  incast, throughput collapse) that make any practical bound either
  enormous or frequently violated.

:class:`HybridCloudDelayModel` reproduces exactly that shape.  It is the
substitution for the authors' EC2 measurement campaign (see DESIGN.md):
absolute values are configurable, the small/large dichotomy is structural.
"""

from __future__ import annotations

import math
import random

from ..config import NetworkConfig
from ..errors import ConfigError

#: The far-tail quantile a synchronous deployment bounds large messages
#: at (see :meth:`HybridCloudDelayModel.worst_case_bound`).
WORST_CASE_QUANTILE = 0.999


class DelayModel:
    """Interface: sample a one-way delay for a message.

    Implementations must be pure functions of ``(rng, src, dst, size)`` —
    all randomness comes from the supplied stream, keeping runs
    deterministic.  Links are reliable: every message is delayed, none
    is dropped (drops are fault injection, see
    :meth:`repro.net.simnet.SimNetwork.add_filter`).
    """

    def sample(self, rng: random.Random, src: int, dst: int, size: int) -> float:
        """One-way delay in seconds."""
        raise NotImplementedError

    def small_message_bound(self) -> float:
        """The Δ that small messages between every pair of nodes respect."""
        raise NotImplementedError

    def worst_case_bound(self, max_size: int) -> float:
        """A bound that *every* message up to ``max_size`` bytes respects.

        This is the Δ a classical synchronous protocol (Sync HotStuff)
        must be configured with.  For heavy-tailed models there is no hard
        bound, so implementations return a high-percentile estimate; runs
        that exceed it model exactly the synchrony violations the paper
        warns about.
        """
        raise NotImplementedError


class UniformDelayModel(DelayModel):
    """Size-independent uniform delay — the simplest testing model."""

    def __init__(self, low: float, high: float) -> None:
        if not 0 <= low <= high:
            raise ConfigError("need 0 <= low <= high")
        self.low = low
        self.high = high

    def sample(self, rng: random.Random, src: int, dst: int, size: int) -> float:
        return rng.uniform(self.low, self.high)

    def small_message_bound(self) -> float:
        return self.high

    def worst_case_bound(self, max_size: int) -> float:
        return self.high


class HybridCloudDelayModel(DelayModel):
    """The calibrated public-cloud model (see module docstring).

    Small messages: ``base + Exp(jitter)`` truncated at ``small_bound`` —
    the model *guarantees* the hybrid synchrony assumption for them.

    Large messages: ``base + Exp(jitter) + size/bandwidth`` plus, with
    probability ``slowdown_probability``, a Pareto-distributed slowdown
    with tail index ``slowdown_alpha`` — no finite bound exists, matching
    "eventually timely".
    """

    def __init__(self, config: NetworkConfig) -> None:
        config.validate()
        self.config = config
        # The config is frozen: what every draw needs is read out once.
        self._base_delay = config.base_delay
        self._jitter_rate = 1.0 / config.jitter_scale
        self._small_threshold = config.small_threshold
        self._small_bound = config.small_bound

    def sample(self, rng: random.Random, src: int, dst: int, size: int) -> float:
        delay = self._base_delay + rng.expovariate(self._jitter_rate)
        if size <= self._small_threshold:
            # The cloud keeps small messages under the empirical bound;
            # truncate the tail (resampling would distort the mean).
            return min(delay, self._small_bound)
        cfg = self.config
        delay += size / cfg.bandwidth
        if rng.random() < cfg.slowdown_probability:
            delay += cfg.slowdown_scale * rng.paretovariate(cfg.slowdown_alpha)
        return delay

    def small_message_bound(self) -> float:
        return self.config.small_bound

    def worst_case_bound(self, max_size: int) -> float:
        """High-percentile bound for messages up to ``max_size``.

        Slowdowns strike with probability ``p_slow``, so the overall
        q-quantile of the extra delay is the Pareto quantile at
        ``1 - (1-q)/p_slow`` (zero when ``1-q >= p_slow``).  q =
        :data:`WORST_CASE_QUANTILE` mirrors what a synchronous deployment
        in a cloud actually does: the distribution has no finite bound,
        so the operator picks a far-tail percentile and accepts that the
        model is occasionally violated — exactly the risk the paper's
        hybrid model eliminates for the messages that matter.
        """
        cfg = self.config
        if max_size <= cfg.small_threshold:
            return cfg.small_bound
        tail_quantile = 0.0
        miss = 1.0 - WORST_CASE_QUANTILE
        if cfg.slowdown_probability > 0 and miss < cfg.slowdown_probability:
            conditional = miss / cfg.slowdown_probability
            tail_quantile = cfg.slowdown_scale * math.pow(
                conditional, -1.0 / cfg.slowdown_alpha
            )
        jitter_tail = cfg.jitter_scale * math.log(1.0 / miss)
        return cfg.base_delay + jitter_tail + max_size / cfg.bandwidth + tail_quantile


class WanDelayModel(DelayModel):
    """Multi-region model: a per-pair base delay matrix over a topology.

    Wraps :class:`HybridCloudDelayModel` mechanics with region-dependent
    propagation: intra-region pairs behave like the AZ model; inter-region
    pairs add the topology's round-trip/2 and scale jitter up.
    """

    def __init__(self, config: NetworkConfig, topology: "Topology") -> None:
        config.validate()
        self.config = config
        self.topology = topology

    def _base(self, src: int, dst: int) -> float:
        return self.config.base_delay + self.topology.propagation(src, dst)

    def _pair_small_bound(self, src: int, dst: int) -> float:
        return self._base(src, dst) + self.config.small_bound

    def sample(self, rng: random.Random, src: int, dst: int, size: int) -> float:
        cfg = self.config
        base = self._base(src, dst)
        jitter_scale = cfg.jitter_scale * (1.0 + 4.0 * self.topology.is_cross_region(src, dst))
        delay = base + rng.expovariate(1.0 / jitter_scale)
        if size <= cfg.small_threshold:
            return min(delay, self._pair_small_bound(src, dst))
        delay += size / self.topology.bandwidth(src, dst, cfg.bandwidth)
        if rng.random() < cfg.slowdown_probability:
            delay += cfg.slowdown_scale * rng.paretovariate(cfg.slowdown_alpha)
        return delay

    def small_message_bound(self) -> float:
        """Δ covering small messages between *every* pair — what a
        synchronous protocol deployed across regions must use."""
        n = self.topology.n
        return max(
            self._pair_small_bound(a, b) for a in range(n) for b in range(n) if a != b
        )

    def worst_case_bound(self, max_size: int) -> float:
        cfg = self.config
        base_model = HybridCloudDelayModel(cfg)
        n = self.topology.n
        worst_prop = max(
            self.topology.propagation(a, b) for a in range(n) for b in range(n) if a != b
        )
        worst_bw = min(
            self.topology.bandwidth(a, b, cfg.bandwidth)
            for a in range(n)
            for b in range(n)
            if a != b
        )
        flat = base_model.worst_case_bound(max_size)
        if max_size > cfg.small_threshold:
            flat += max_size / worst_bw - max_size / cfg.bandwidth
        return flat + worst_prop


# Imported late to avoid a cycle (topology imports nothing from here, but
# keeping the reference local documents the dependency direction).
from .topology import Topology  # noqa: E402  (intentional tail import)
