"""Per-replica mempool.

Holds client transactions until they are committed.  A leader *takes* a
batch when proposing, which moves the transactions to an in-flight set so
pipelined proposals never double-propose; an epoch change requeues
whatever was in flight (the new leader will re-propose it).  Commits
remove transactions wherever they are.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, Optional, Set, Tuple

from ..errors import MempoolError
from ..types.transaction import Transaction

#: Transactions are identified by (client_id, seq).
TxKey = Tuple[int, int]


def tx_key(tx: Transaction) -> TxKey:
    return (tx.client_id, tx.seq)


class Mempool:
    """FIFO transaction pool with in-flight tracking."""

    def __init__(self, capacity: int = 1_000_000) -> None:
        if capacity < 1:
            raise MempoolError("capacity must be positive")
        self.capacity = capacity
        self._pending: "OrderedDict[TxKey, Transaction]" = OrderedDict()
        self._inflight: Dict[TxKey, Transaction] = {}
        # What has committed, in space that follows the clients, not the
        # history: clients number their transactions 0, 1, 2, ..., so per
        # client one count says "every seq in [0, count) is done" and a set
        # holds only the seqs done out of that run (committed ahead of a gap,
        # or negative — the fault behaviours commit ``seq=-1`` markers).
        self._committed_below: Dict[int, int] = {}
        self._committed_beyond: Dict[int, Set[int]] = {}
        #: Optional callback fired when the pool goes empty → non-empty
        #: (lets an idle leader propose immediately on arrival).
        self.wakeup = None

    def add(self, tx: Transaction) -> bool:
        """Queue a transaction; False if it is a duplicate or already done."""
        # Once per transaction a replica hears of: the key and the committed
        # test are spelt out here rather than called (tx_key, _is_committed).
        client_id, seq = key = (tx.client_id, tx.seq)
        pending = self._pending
        if key in pending or key in self._inflight:
            return False
        if 0 <= seq < self._committed_below.get(client_id, 0):
            return False
        beyond = self._committed_beyond.get(client_id)
        if beyond is not None and seq in beyond:
            return False
        if len(pending) >= self.capacity:
            raise MempoolError("mempool is full")
        pending[key] = tx
        if len(pending) == 1 and self.wakeup is not None:
            self.wakeup()
        return True

    def take_batch(
        self,
        max_count: int,
        max_bytes: int,
        exclude: Optional[Iterable[TxKey]] = None,
    ) -> Tuple[Transaction, ...]:
        """Remove and return the next batch, bounded by count and bytes.

        ``exclude`` skips transactions (leaving them pending) that are
        already proposed in an uncommitted chain prefix — how protocols
        with rotating leaders (HotStuff) avoid double-proposing.
        """
        excluded = set(exclude) if exclude is not None else ()
        batch = []
        taken_keys = []
        total = 0
        for key, tx in self._pending.items():
            if len(batch) >= max_count:
                break
            if key in excluded:
                continue
            size = len(tx.wire)
            if batch and total + size > max_bytes:
                break
            taken_keys.append(key)
            batch.append(tx)
            total += size
        for key, tx in zip(taken_keys, batch):
            del self._pending[key]
            self._inflight[key] = tx
        return tuple(batch)

    def remove_committed(self, txs: Iterable[Transaction]) -> None:
        """Drop committed transactions from pending and in-flight."""
        pending, inflight = self._pending, self._inflight
        below, beyond = self._committed_below, self._committed_beyond
        for tx in txs:
            client_id, seq = key = (tx.client_id, tx.seq)
            inflight.pop(key, None)
            pending.pop(key, None)
            if seq == below.get(client_id, 0) and not beyond.get(client_id):
                below[client_id] = seq + 1  # the client's next in line
            else:
                self._mark_committed(client_id, seq)

    def resolve(self, transactions: Tuple[Transaction, ...]) -> Tuple[Transaction, ...]:
        """``transactions`` with each one this pool holds swapped for its copy.

        A held transaction (pending or in flight) replaces a decoded one
        with the same key and the same ``wire``, so a payload rebuilt from
        the wire shares the pool's objects instead of holding a second copy
        of each.  A transaction with an unknown key or different bytes stays
        as given, so the result encodes, hashes and compares exactly as the
        input does.
        """
        pending, inflight = self._pending, self._inflight
        resolved = []
        for tx in transactions:
            key = (tx.client_id, tx.seq)
            held = pending.get(key)
            if held is None:
                held = inflight.get(key)
            if held is not None and held.wire == tx.wire:
                tx = held
            resolved.append(tx)
        return tuple(resolved)

    def _is_committed(self, client_id: int, seq: int) -> bool:
        if 0 <= seq < self._committed_below.get(client_id, 0):
            return True
        beyond = self._committed_beyond.get(client_id)
        return beyond is not None and seq in beyond

    def _mark_committed(self, client_id: int, seq: int) -> None:
        below = self._committed_below.get(client_id, 0)
        if 0 <= seq < below:
            return
        beyond = self._committed_beyond.get(client_id)
        if seq != below:
            if beyond is None:
                beyond = self._committed_beyond[client_id] = set()
            beyond.add(seq)
            return
        below += 1
        if beyond:
            # The gap closed: absorb the run that was waiting above it.
            while below in beyond:
                beyond.remove(below)
                below += 1
        self._committed_below[client_id] = below

    def requeue_inflight(self) -> int:
        """Return in-flight transactions to the front of the queue.

        Called on epoch change: proposals that may never commit get
        re-proposed by the next leader.  Returns the number requeued.
        """
        if not self._inflight:
            return 0
        requeued = sorted(self._inflight.items())
        self._inflight.clear()
        fresh: "OrderedDict[TxKey, Transaction]" = OrderedDict(requeued)
        fresh.update(self._pending)
        self._pending = fresh
        return len(requeued)

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def inflight_count(self) -> int:
        return len(self._inflight)

    def __len__(self) -> int:
        return len(self._pending) + len(self._inflight)
