"""Cluster topologies: replica placement across regions.

A topology assigns each replica to a named region and supplies pairwise
propagation delays and bandwidth scaling.  The single-AZ topology is the
default for the paper's main experiments; the multi-region topology backs
the WAN experiment (E9).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..errors import ConfigError

#: Multiplier applied to per-flow bandwidth across regions: WAN links are
#: thinner than the intra-zone fabric.
CROSS_REGION_BANDWIDTH_FACTOR = 0.25


class Topology:
    """Replica-to-region placement with pairwise network parameters.

    Args:
        placements: region name per replica id.
        region_delays: one-way propagation seconds between region pairs
            (symmetric; missing same-region pairs default to 0).
    """

    def __init__(
        self, placements: Sequence[str], region_delays: Dict[Tuple[str, str], float]
    ) -> None:
        if not placements:
            raise ConfigError("topology needs at least one replica")
        self.placements: Tuple[str, ...] = tuple(placements)
        self._delays: Dict[Tuple[str, str], float] = {}
        for (a, b), d in region_delays.items():
            if d < 0:
                raise ConfigError("propagation delays must be non-negative")
            self._delays[(a, b)] = d
            self._delays[(b, a)] = d

    @property
    def n(self) -> int:
        return len(self.placements)

    def is_cross_region(self, src: int, dst: int) -> bool:
        return self.placements[src] != self.placements[dst]

    def propagation(self, src: int, dst: int) -> float:
        """Extra one-way propagation between the two replicas' regions."""
        a, b = self.placements[src], self.placements[dst]
        if a == b:
            return 0.0
        try:
            return self._delays[(a, b)]
        except KeyError:
            raise ConfigError(f"no delay configured between regions {a!r} and {b!r}") from None

    def bandwidth(self, src: int, dst: int, base_bandwidth: float) -> float:
        """Per-flow bandwidth between the two replicas."""
        if self.is_cross_region(src, dst):
            return base_bandwidth * CROSS_REGION_BANDWIDTH_FACTOR
        return base_bandwidth

    def regions(self) -> List[str]:
        """Distinct region names in placement order."""
        seen: List[str] = []
        for name in self.placements:
            if name not in seen:
                seen.append(name)
        return seen


def single_az(n: int) -> Topology:
    """All replicas in one availability zone (the paper's main setting)."""
    return Topology(placements=["az1"] * n, region_delays={})


def three_regions(n: int) -> Topology:
    """Replicas round-robined across three WAN regions.

    Delay numbers approximate us-east ↔ us-west ↔ eu-west one-way times.
    """
    names = ["us-east", "us-west", "eu-west"]
    placements = [names[i % 3] for i in range(n)]
    delays = {
        ("us-east", "us-west"): 0.032,
        ("us-east", "eu-west"): 0.038,
        ("us-west", "eu-west"): 0.068,
    }
    return Topology(placements=placements, region_delays=delays)
