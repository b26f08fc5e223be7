"""The committed ledger.

An append-only chain of committed blocks.  The ledger enforces the one
invariant that must never break — each committed block's parent is the
previously committed block — and raises
:class:`~repro.errors.SafetyViolation` if a protocol tries to violate it.
Commit listeners (metrics, applications, clients) observe commits in
order, exactly once.

:func:`freeze_history` keeps CPython's cyclic collector off the history
the ledgers hold: a committed block is never freed, so while a run runs
each commit moves everything alive into the collector's permanent
generation, and the run's end moves it back.
"""

from __future__ import annotations

import gc
from typing import Callable, Iterable, List, Optional, Union

from ..crypto.hashing import Digest, sha256
from ..errors import LedgerError, SafetyViolation
from ..types.block import Block, BlockHeader, genesis_block

#: Listener signature: listener(block, commit_time).
CommitListener = Callable[[Block, float], None]


class Ledger:
    """Ordered committed blocks for one replica."""

    def __init__(self) -> None:
        self._blocks: List[Block] = [genesis_block()]
        self._listeners: List[CommitListener] = []
        # Lazy cumulative state digests (see :meth:`state_digest`); index
        # h covers blocks[0..h].  Extended on demand so runs that never
        # checkpoint pay nothing.
        self._digests: List[Digest] = [self._blocks[0].block_hash]
        # Heights committed while a synchrony violation was suspected
        # (repro.guard).  An at-risk flag is an honesty label on the
        # commit's safety argument, not a retraction: the block stays
        # committed, the flag stays forever.
        self._at_risk: set = set()

    def add_listener(self, listener: CommitListener) -> None:
        self._listeners.append(listener)

    @property
    def height(self) -> int:
        """Height of the latest committed block."""
        return self._blocks[-1].height

    @property
    def head(self) -> Block:
        return self._blocks[-1]

    def __len__(self) -> int:
        return len(self._blocks)

    def block_at(self, height: int) -> Block:
        if not 0 <= height < len(self._blocks):
            raise LedgerError(f"no committed block at height {height}")
        return self._blocks[height]

    def committed_hash_at(self, height: int) -> Optional[Digest]:
        if 0 <= height < len(self._blocks):
            return self._blocks[height].block_hash
        return None

    def is_committed(self, block: Union[Block, BlockHeader]) -> bool:
        """Is this block the one committed at its height?"""
        return self.committed_hash_at(block.height) == block.block_hash

    def _append(self, block: Block) -> None:
        """Validate and append ``block`` without notifying listeners."""
        head = self._blocks[-1]
        if block.height != head.height + 1:
            raise SafetyViolation(
                f"commit height {block.height} does not follow head height {head.height}"
            )
        if block.parent != head.block_hash:
            raise SafetyViolation(
                f"committed block at height {block.height} does not extend the committed chain"
            )
        if not block.validate_payload():
            raise LedgerError("committed block has payload/header mismatch")
        self._blocks.append(block)

    def commit(self, block: Block, now: float) -> None:
        """Append ``block``; it must directly extend the current head."""
        self._append(block)
        for listener in self._listeners:
            listener(block, now)

    def commit_chain(self, blocks: List[Block], now: float) -> None:
        """Commit several blocks in ascending height order."""
        for block in blocks:
            self.commit(block, now)

    def install_snapshot(self, blocks: List[Block]) -> None:
        """Adopt an already-committed chain prefix (recovery catchup).

        Appends without firing commit listeners: these blocks committed
        on other replicas long ago — metrics/clients must not count them
        as fresh commits on the rejoining replica.  The chain invariants
        are still enforced per block.
        """
        for block in blocks:
            self._append(block)

    def state_digest(self, height: int) -> Digest:
        """Cumulative digest over the committed prefix up to ``height``.

        Defined by ``d(0) = genesis hash`` and
        ``d(h) = sha256(d(h-1) || block_hash(h))`` — the quantity a
        checkpoint certificate signs.  Computed lazily and cached, so a
        run with checkpointing disabled never hashes anything.
        """
        if not 0 <= height < len(self._blocks):
            raise LedgerError(f"no committed block at height {height}")
        while len(self._digests) <= height:
            h = len(self._digests)
            self._digests.append(sha256(self._digests[h - 1] + self._blocks[h].block_hash))
        return self._digests[height]

    def blocks_in_range(self, from_height: int, to_height: int) -> List[Block]:
        """Committed blocks with ``from_height < height <= to_height``."""
        if to_height > self.height:
            raise LedgerError(f"no committed block at height {to_height}")
        return self._blocks[from_height + 1 : to_height + 1]

    def all_hashes(self) -> List[Digest]:
        return [b.block_hash for b in self._blocks]

    # -- at-risk flags (graceful degradation; see repro.guard) -------------

    def flag_at_risk(self, height: int) -> None:
        """Mark the commit at ``height`` as made under suspected Δ violation."""
        if not 0 < height < len(self._blocks):
            raise LedgerError(f"cannot flag uncommitted height {height}")
        self._at_risk.add(height)

    @property
    def at_risk_count(self) -> int:
        return len(self._at_risk)


def freeze_history(ledgers: Iterable[Ledger]) -> Callable[[], None]:
    """Freeze the collector's heap at every commit of ``ledgers``, until
    the returned thaw is called.

    A commit calls ``gc.freeze()``: everything alive then, the committed
    history with it, moves to the permanent generation, which no
    collection scans, at O(1) cost and with the young-object count reset.
    Lossless because a replica makes no cyclic garbage while it runs
    (``tests/test_gc_freeze.py`` pins it for every protocol, flag and
    check-grid scenario; a socket node's closed connections are the one
    exception, and the node calls :func:`reclaim` for them), so what is
    frozen stays alive. The thaw (``gc.unfreeze()``) moves it all back to
    the oldest generation and leaves the listener inert: a restarted
    replica carries its ledger's listeners over to the new ledger. Call
    it when the run ends, on an exception too, so no later
    ``gc.collect()`` misses anything.
    """
    running = True

    def freeze(block: Block, now: float) -> None:
        if running:
            gc.freeze()

    def thaw() -> None:
        nonlocal running
        running = False
        gc.unfreeze()

    for ledger in ledgers:
        ledger.add_listener(freeze)
    return thaw


def reclaim() -> None:
    """Thaw the heap and collect it in full, now; the next commit freezes
    again. For the cyclic garbage a running replica does make: what died
    while frozen is otherwise held until the thaw."""
    gc.unfreeze()
    gc.collect()
