"""Protocol registry: names → replica classes and resilience styles, and
the optional subsystems a replica carries (its class's ``FEATURES``)."""

from __future__ import annotations

from typing import Dict, Set, Tuple, Type

from ..baselines.hotstuff import HotStuffReplica
from ..baselines.pbft import PBFTReplica
from ..baselines.sync_hotstuff import SyncHotStuffReplica
from ..config import SMALL_MESSAGE_THRESHOLD
from ..consensus.fetch import Fetch
from ..consensus.replica import BaseReplica
from ..consensus.validators import ValidatorSet
from ..core.protocol import AlterBFTReplica
from ..dissem import DisseminationManager
from ..errors import ConfigError
from ..guard import SynchronyMonitor
from ..recovery import MemoryWal, RecoveryManager

#: Every optional subsystem, in attach order — the order hooks fire in.
SUBSYSTEMS: Tuple[type, ...] = (RecoveryManager, SynchronyMonitor, DisseminationManager)

#: name → (replica class, quorum style).
_REGISTRY: Dict[str, Tuple[Type[BaseReplica], str]] = {
    "alterbft": (AlterBFTReplica, "2f+1"),
    "sync-hotstuff": (SyncHotStuffReplica, "2f+1"),
    "hotstuff": (HotStuffReplica, "3f+1"),
    "pbft": (PBFTReplica, "3f+1"),
}


def protocol_names() -> Tuple[str, ...]:
    """All registered protocol names."""
    return tuple(sorted(_REGISTRY))


def _entry(protocol: str) -> Tuple[Type[BaseReplica], str]:
    try:
        return _REGISTRY[protocol]
    except KeyError:
        raise ConfigError(f"unknown protocol {protocol!r}; known: {protocol_names()}") from None


def replica_class_for(protocol: str) -> Type[BaseReplica]:
    return _entry(protocol)[0]


def quorum_style_for(protocol: str) -> str:
    return _entry(protocol)[1]


def wire_phases_for(protocol: str) -> Set[str]:
    """The protocol's wire contract: the declared ``WIRE_PHASE`` of every
    message class its replica class, its fetch or a carried subsystem handles.
    Every class a replica can receive is one its peers send, so this is
    every phase its traffic can occupy; ``repro.obs wire`` flags observed
    traffic outside it."""
    cls = replica_class_for(protocol)
    carried = [s for s in SUBSYSTEMS if s.name in cls.FEATURES]
    return {m.WIRE_PHASE for owner in (cls, Fetch, *carried) for m in owner.HANDLERS}


def attach_subsystems(
    replica: BaseReplica,
    small_threshold: int = SMALL_MESSAGE_THRESHOLD,
    restartable: bool = False,
) -> None:
    """Construct and attach every subsystem ``replica``'s config asks for;
    everything that builds a replica calls this once, before it starts.

    ``restartable`` adds recovery whatever the flags say, for a run that
    restarts replicas: every peer must answer the rejoiner's status
    requests (its range requests go to the fetch every replica has).
    ``small_threshold`` is the network's small/large boundary, which the
    guard measures against.
    """
    replica.refuse_uncarried(replica.config, restartable)
    wanted = replica.config.features(restartable)
    construct = {
        RecoveryManager: lambda: RecoveryManager(replica, MemoryWal()),
        SynchronyMonitor: lambda: SynchronyMonitor(replica, small_threshold),
        DisseminationManager: lambda: DisseminationManager(replica),
    }
    for subsystem in SUBSYSTEMS:
        if subsystem.name in wanted:
            replica.attach(construct[subsystem]())


def validator_set_for(protocol: str, n: int, f: int) -> ValidatorSet:
    """Build the right validator set for a protocol's resilience style."""
    style = quorum_style_for(protocol)
    if style == "2f+1":
        return ValidatorSet.synchronous(n, f)
    return ValidatorSet.partially_synchronous(n, f)


def cluster_size_for(protocol: str, f: int) -> int:
    """Smallest cluster tolerating ``f`` faults under the protocol's model.

    This is the paper's apples-to-apples comparison: at equal f, the
    synchronous-model protocols need 2f+1 replicas, the partially
    synchronous ones 3f+1.
    """
    return 2 * f + 1 if quorum_style_for(protocol) == "2f+1" else 3 * f + 1
