"""Model-bounded adversarial network scheduling.

The hybrid synchronous model (PAPER.md, Section 3) promises exactly two
things about the network: small messages (≤ the configured threshold)
arrive within Δ, and large messages arrive *eventually*.  Everything else
— ordering, jitter, which link is fast, how late a payload is — is the
adversary's to choose.  This module explores that freedom on top of
:class:`~repro.net.simnet.SimNetwork` via its delay-policy hook.

Three profiles:

* ``calibrated`` — no adversary; the calibrated cloud delay model alone.
* ``adversarial`` — worst-case-ish timing inside the model: each directed
  link is (seeded, persistently) either *fast* or *near-Δ* for small
  messages, maximizing reordering between links while never exceeding the
  small-message bound; large messages take the model's delay plus a
  bounded adversarial stall, and payload-class messages (which have a
  request/repair retransmission path) are occasionally dropped outright —
  eventual delivery is preserved by the repair path plus independent
  per-copy drops.
* ``stall-large`` — a transient "large-message partition": during a
  window early in the run, every large message crossing a fixed node cut
  is held until the window closes (never dropped).  Small messages keep
  their near-Δ adversarial timing, so the protocol's Δ-dependent logic
  runs while payload dissemination is effectively severed.

Because the policy layers *after* the delay model's sample (the model's
RNG draws happen regardless), installing an adversary never perturbs the
workload or baseline-network randomness of a seeded run — profile
``calibrated`` at seed *s* is bit-identical to the same run without this
module loaded.  The adversary draws from its own named stream
(``"adversary"``), so its choices are themselves a pure function of the
master seed.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from ..config import NetworkConfig
from ..errors import ConfigError
from ..net.simnet import DelayPolicy
from ..sim.scheduler import Scheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runner.cluster import Cluster

#: Recognized adversary profiles, in sweep order.
PROFILES = ("calibrated", "adversarial", "stall-large")

#: Message types the adversary may drop: each has a request/repair path
#: (payloads re-fetch via AlterBFTReplica.on_payload_request; snapshots and,
#: in every protocol, range responses are re-asked on a retry timer that
#: rotates providers), so a dropped copy is re-fetched and delivery survives.
_DROPPABLE_TYPES = (
    "PayloadMsg",
    "PayloadResponseMsg",
    "SnapshotResponseMsg",
    "BlockRangeResponseMsg",
)

#: Per-copy drop probability for droppable large messages (adversarial
#: profile).  Kept low so the repair path, not luck, restores timeliness.
_DROP_PROBABILITY = 0.02

#: Upper bound on the adversarial extra stall added to large messages,
#: seconds.  Far below the epoch timeout, so the stall alone cannot starve
#: an honest epoch — that pressure is the stall-large profile's job.
_LARGE_EXTRA_MAX = 0.10

#: Transient large-message partition window (stall-large profile).
_STALL_WINDOW: Tuple[float, float] = (1.0, 1.6)


class ModelBoundedAdversary:
    """A seeded delay policy that respects the hybrid synchrony model."""

    def __init__(
        self,
        profile: str,
        network_config: NetworkConfig,
        scheduler: Scheduler,
        rng: random.Random,
    ) -> None:
        if profile not in PROFILES:
            raise ConfigError(f"unknown adversary profile {profile!r}")
        self.profile = profile
        self.scheduler = scheduler
        self.rng = rng
        self._small_threshold = network_config.small_threshold
        self._base = network_config.base_delay
        # Strictly below the bound: the model promises < Δ at delivery,
        # and scenario configs set protocol Δ equal to this bound.
        self._small_ceiling = network_config.small_bound * 0.999
        self._link_bias: Dict[Tuple[int, int], bool] = {}
        self.dropped = 0
        self.stalled = 0

    # -- policy ------------------------------------------------------------

    def policy(self) -> Optional[DelayPolicy]:
        """The delay policy to install, or None for ``calibrated``."""
        if self.profile == "calibrated":
            return None
        return self._apply

    def _apply(
        self, src: int, dst: int, msg: object, size: int, model_delay: Optional[float]
    ) -> Optional[float]:
        if size <= self._small_threshold:
            return self._small_delay(src, dst)
        if self.profile == "stall-large":
            return self._stalled_large(src, dst, model_delay)
        return self._adversarial_large(msg, model_delay)

    # -- small messages: reorder hard, never exceed Δ ----------------------

    def _small_delay(self, src: int, dst: int) -> float:
        bias = self._link_bias.get((src, dst))
        if bias is None:
            bias = self.rng.random() < 0.5
            self._link_bias[(src, dst)] = bias
        lo, hi = (0.85, 1.0) if bias else (0.0, 0.15)
        span = self._small_ceiling - self._base
        return self._base + span * self.rng.uniform(lo, hi)

    # -- large messages ----------------------------------------------------

    def _adversarial_large(
        self, msg: object, model_delay: Optional[float]
    ) -> Optional[float]:
        if (
            type(msg).__name__ in _DROPPABLE_TYPES
            and self.rng.random() < _DROP_PROBABILITY
        ):
            self.dropped += 1
            return None
        return (model_delay or 0.0) + self.rng.uniform(0.0, _LARGE_EXTRA_MAX)

    def _stalled_large(
        self, src: int, dst: int, model_delay: Optional[float]
    ) -> Optional[float]:
        now = self.scheduler.now
        window_start, window_end = _STALL_WINDOW
        crosses_cut = (src % 2) != (dst % 2)
        if window_start <= now < window_end and crosses_cut:
            self.stalled += 1
            held = (window_end - now) + self.rng.uniform(0.0, 0.05)
            return max(model_delay or 0.0, held)
        return model_delay


def install_adversary(cluster: "Cluster", profile: str) -> ModelBoundedAdversary:
    """Build and install the profile's adversary on a freshly built cluster.

    The adversary's stream is derived from the experiment's master seed
    under the name ``"adversary"`` — independent of (and invisible to) the
    network/workload streams, so scenario results replay exactly.
    """
    from ..sim.rng import RngFactory

    rng = RngFactory(cluster.config.seed).stream("adversary")
    adversary = ModelBoundedAdversary(
        profile, cluster.config.network_config, cluster.scheduler, rng
    )
    policy = adversary.policy()
    if policy is not None:
        # Prepend: the adversary *is* the base network model for the run,
        # so gray-failure inflations installed at cluster-build time (e.g.
        # the slow-link behavior) must post-process its output, not be
        # overwritten by it.
        cluster.network.add_delay_policy(policy, prepend=True)
    return adversary
