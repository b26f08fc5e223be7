#!/usr/bin/env python3
"""A replicated key-value store over REAL TCP sockets.

Usage::

    python examples/kvstore_cluster.py

Starts an AlterBFT cluster of three replicas on localhost TCP ports —
the same replica code the simulator drives, now on the asyncio
transport — attaches a :class:`repro.smr.KVStore` to each, submits
client commands over a real socket, and verifies every replica executed
the same state.
"""

import asyncio

from repro.config import ProtocolConfig
from repro.consensus.validators import ValidatorSet
from repro.core.protocol import AlterBFTReplica
from repro.crypto.keystore import build_cluster_keys
from repro.net.transport import AsyncReplicaNode, local_peer_map, submit_transaction
from repro.runner.registry import attach_subsystems
from repro.smr import ExecutionEngine, KVStore, encode_command
from repro.types.transaction import Transaction

N, F = 3, 1


async def main() -> None:
    pconf = ProtocolConfig(n=N, f=F, delta=0.02, epoch_timeout=2.0)
    pconf.validate("2f+1")
    signers = build_cluster_keys(pconf.signature_scheme, N)
    validators = ValidatorSet.synchronous(N, F)
    peers = local_peer_map(N)

    nodes, engines = [], []
    for replica_id in range(N):
        replica = AlterBFTReplica(replica_id, validators, pconf, signers[replica_id])
        attach_subsystems(replica)  # whatever pconf's flags ask for (here: nothing)
        engine = ExecutionEngine(KVStore())
        engine.attach(replica.ledger)
        engines.append(engine)
        nodes.append(AsyncReplicaNode(replica, peers))

    # Start concurrently: each node listens first, then dials its peers
    # with retries, so the cluster converges regardless of start order.
    await asyncio.gather(*(node.start() for node in nodes))
    print(f"cluster of {N} replicas up on ports "
          f"{[port for _, port in peers.values()]}")

    # A client submits to every replica (the standard BFT client pattern:
    # whichever replica currently leads can then propose the command).
    commands = [
        encode_command("set", "greeting", b"hello, hybrid synchrony"),
        encode_command("set", "paper", b"Message Size Matters"),
        encode_command("cas", "paper", b"Message Size Matters", b"AlterBFT"),
        encode_command("get", "paper"),
    ]
    loop = asyncio.get_running_loop()
    for seq, command in enumerate(commands):
        tx = Transaction(client_id=7, seq=seq, submitted_at=loop.time(), payload=command)
        for peer in peers.values():
            await submit_transaction(peer, tx)

    # Wait for commits to land everywhere.
    for _ in range(100):
        await asyncio.sleep(0.1)
        if all(engine.result_of(7, len(commands) - 1) is not None for engine in engines):
            break

    for replica_id, engine in enumerate(engines):
        app: KVStore = engine.app  # type: ignore[assignment]
        print(
            f"replica {replica_id}: height={engine.executed_height} "
            f"paper={app.data.get('paper')!r} "
            f"get-result={engine.result_of(7, 3)!r}"
        )
    snapshots = {engine.app.snapshot() for engine in engines}
    print("state machines identical:", len(snapshots) == 1)

    for node in nodes:
        await node.stop()


if __name__ == "__main__":
    asyncio.run(main())
