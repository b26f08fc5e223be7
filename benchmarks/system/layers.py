"""Layer tracing installed from outside the program.

``Tracer`` keeps a stack of open spans; each span's *self* time is its
duration minus the time its child spans cover, so layer self times add up
without double counting.  Aggregates are kept per ``(layer, op)``;
block-granularity records (who proposed / committed which block when) are
kept by the harness, which also writes everything out as JSON.

``install`` puts timing wrappers around the layers' public callables.  It
must run before any replica is constructed (handlers are bound at
construction) and it replaces a function on *every* ``repro`` module
attribute that refers to it, because ``from ..codec import decode`` copies
the name into the importer.
"""

from __future__ import annotations

import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: Aggregate row: [calls, self seconds, units].  ``units`` is whatever the
#: op counts besides calls (bytes encoded, signatures in a batch, ...).
Row = List[float]


class Tracer:
    """Span stack plus per-(layer, op) aggregates."""

    def __init__(self) -> None:
        self.rows: Dict[Tuple[str, str], Row] = {}
        # One child-time accumulator per open span.
        self._stack: List[float] = []

    def row(self, layer: str, op: str) -> Row:
        return self.rows.setdefault((layer, op), [0, 0.0, 0])

    def wrap(
        self,
        layer: str,
        op: str,
        fn: Callable,
        units: Optional[Callable[[tuple, object], int]] = None,
    ) -> Callable:
        """A timing wrapper around the synchronous callable ``fn``."""
        row = self.row(layer, op)
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if units is not None:
                    row[2] += units(args, result)
                return result
            finally:
                elapsed = perf_counter() - start
                row[0] += 1
                row[1] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed

        return traced

    def wrap_coroutine_fn(self, layer: str, op: str, fn: Callable) -> Callable:
        """Wrap an ``async def``: time each resume, not the suspensions.

        A coroutine parked on a socket is not busy; only the synchronous
        stretch between two suspension points is a span.  One call is
        counted when the coroutine returns.
        """
        row = self.row(layer, op)
        stack = self._stack

        class _Timed:
            __slots__ = ("_coro",)

            def __init__(self, coro) -> None:
                self._coro = coro

            def __await__(self):
                coro = self._coro
                step, arg = coro.send, None
                while True:
                    stack.append(0.0)
                    start = perf_counter()
                    try:
                        yielded = step(arg)
                    except StopIteration as stop:
                        row[0] += 1
                        return stop.value
                    finally:
                        elapsed = perf_counter() - start
                        row[1] += elapsed - stack.pop()
                        if stack:
                            stack[-1] += elapsed
                    try:
                        arg = yield yielded
                        step = coro.send
                    except BaseException as exc:  # re-raised inside the coroutine
                        arg = exc
                        step = coro.throw

        def traced(*args, **kwargs):
            return _Timed(fn(*args, **kwargs))

        return traced

    def snapshot(self) -> Dict[Tuple[str, str], Tuple[float, float, float]]:
        return {key: (row[0], row[1], row[2]) for key, row in self.rows.items()}


def delta(
    after: Dict[Tuple[str, str], Tuple[float, float, float]],
    before: Dict[Tuple[str, str], Tuple[float, float, float]],
) -> Dict[Tuple[str, str], Tuple[float, float, float]]:
    """Aggregates accumulated between two snapshots."""
    zero = (0, 0.0, 0)
    return {
        key: tuple(a - b for a, b in zip(row, before.get(key, zero)))  # type: ignore[misc]
        for key, row in after.items()
    }


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind every ``repro`` module attribute that is ``original``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap_methods(
    tracer: Tracer,
    layer: str,
    cls: type,
    ops: Dict[str, str],
    units: Optional[Dict[str, Callable[[tuple, object], int]]] = None,
) -> None:
    """Wrap methods defined on ``cls`` itself; ``ops`` maps method → op."""
    for method, op in ops.items():
        fn = cls.__dict__.get(method)
        if fn is not None:
            setattr(cls, method, tracer.wrap(layer, op, fn, (units or {}).get(method)))


def _on_methods(cls: type, extra: Tuple[str, ...] = ()) -> Dict[str, str]:
    names = [n for n, v in vars(cls).items() if n.startswith("on_") and callable(v)]
    return {name: name for name in (*names, *extra)}


def install(tracer: Tracer, on_propose: Callable[[bytes], None]) -> None:
    """Wrap every layer's public callables.  Call once, before building.

    ``on_propose(block_hash)`` is called when a replica signs a proposal —
    the one block-lifecycle instant a ledger listener cannot see.
    """
    import repro.runner.cluster  # noqa: F401  (imports every layer below)
    import repro.net.transport as transport
    from repro.codec import core as codec
    from repro.consensus.ledger import Ledger
    from repro.consensus.replica import BaseReplica
    from repro.core.protocol import AlterBFTReplica
    from repro.crypto import erasure, merkle
    from repro.crypto.schnorr import SchnorrSignatureScheme
    from repro.crypto.signatures import HashSignatureScheme, SignatureScheme, Signer
    from repro.dissem import DisseminationManager
    from repro.guard import SynchronyMonitor
    from repro.mempool.mempool import Mempool
    from repro.net.simnet import SimNetwork
    from repro.obs.wire import WireAccountant
    from repro.recovery import MemoryWal, RecoveryManager
    from repro.sim.scheduler import Scheduler
    from repro.types import transaction

    def everywhere(layer: str, op: str, fn: Callable, **kw) -> None:
        _replace_everywhere(fn, tracer.wrap(layer, op, fn, **kw))

    # codec: encode_cached calls encode through the module global, so a
    # cache miss shows as an encode span nested in an encode_cached span.
    everywhere("codec", "encode", codec.encode, units=lambda a, r: len(r))
    everywhere("codec", "decode", codec.decode, units=lambda a, r: len(a[0]))
    everywhere("codec", "encode_cached", codec.encode_cached)
    everywhere("codec", "size", codec.encoded_size)

    # crypto: signing at the Signer (what the protocol calls), checking at
    # the scheme (so a hashsig batch's serial loop shows as its verifies).
    _wrap_methods(tracer, "crypto", Signer, {"sign": "sign"})
    batch_units = {"batch_verify": lambda a, r: len(a[1])}
    for scheme in (SignatureScheme, HashSignatureScheme, SchnorrSignatureScheme):
        _wrap_methods(
            tracer,
            "crypto",
            scheme,
            {
                "verify": "verify",
                "batch_verify": "batch_verify",
                "find_invalid": "find_invalid",
                "aggregate": "aggregate",
                "verify_aggregate": "verify_aggregate",
            },
            batch_units,
        )
    for fn in (erasure.encode_shares, erasure.decode_shares):
        everywhere("crypto", "erasure", fn)
    for fn in (
        merkle.merkle_root,
        merkle.verify_proof,
        merkle.verify_multiproof,
        merkle.combine_proofs,
        merkle.expand_multiproof,
    ):
        everywhere("crypto", "merkle", fn)
    _wrap_methods(
        tracer,
        "crypto",
        merkle.MerkleTree,
        {"__init__": "merkle", "prove": "merkle", "prove_multi": "merkle"},
    )

    # core / consensus
    _wrap_methods(tracer, "core", BaseReplica, {"handle": "handle", "on_timer": "timer"})
    _wrap_methods(tracer, "core", AlterBFTReplica, {"on_start": "start"})
    sign_proposal = BaseReplica.sign_proposal

    def noting_sign_proposal(self, block_hash):
        on_propose(block_hash)
        return sign_proposal(self, block_hash)

    BaseReplica.sign_proposal = noting_sign_proposal  # type: ignore[method-assign]
    _wrap_methods(tracer, "consensus", Ledger, {"commit": "ledger_commit"})

    # mempool
    _wrap_methods(
        tracer,
        "mempool",
        Mempool,
        {
            "add": "add",
            "take_batch": "take_batch",
            "remove_committed": "remove_committed",
            "requeue_inflight": "requeue_inflight",
        },
        {"add": lambda a, r: 0 if r else 1},  # units = rejected duplicates
    )

    # transport (tcp) / simnet + scheduler (sim)
    _wrap_methods(tracer, "transport", transport.AsyncReplicaNode, {"send": "send"})
    _replace_everywhere(
        transport.read_frame,
        tracer.wrap_coroutine_fn("transport", "read", transport.read_frame),
    )
    _wrap_methods(tracer, "simnet", SimNetwork, {"send": "send", "broadcast": "send"})
    _wrap_methods(tracer, "sim", Scheduler, {"run": "loop"})

    # wire accounting
    _wrap_methods(
        tracer, "wire", WireAccountant, {"account": "account", "sample_queue": "account"}
    )

    # optional subsystems
    _wrap_methods(
        tracer,
        "dissem",
        DisseminationManager,
        _on_methods(DisseminationManager, ("disseminate", "drop_blocks")),
    )
    _wrap_methods(tracer, "guard", SynchronyMonitor, _on_methods(SynchronyMonitor))
    _wrap_methods(
        tracer, "recovery", RecoveryManager, _on_methods(RecoveryManager, ("start_catchup",))
    )
    _wrap_methods(tracer, "recovery", MemoryWal, {"append": "wal_append"})

    # The simulator's built-in workload generator is harness, not program.
    everywhere("bench", "generator", transaction.make_transaction)
