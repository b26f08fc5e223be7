"""Synthetic client workloads.

A :class:`WorkloadGenerator` schedules transaction arrivals onto every
replica's mempool (clients submit to all replicas so whichever replica
leads can propose the transaction — the standard open-loop BFT benchmark
setup).  Two modes:

* **open loop** (``rate`` set): Poisson arrivals at the offered rate.
* **closed loop / saturation** (``rate`` is None): mempools are topped up
  before every proposal so blocks are always full — used for peak
  throughput measurements.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..config import WorkloadConfig
from ..mempool.mempool import Mempool, TxKey, tx_key
from ..sim.rng import RngFactory
from ..sim.scheduler import Scheduler
from ..types.transaction import Transaction, make_transaction

#: Logical clients stamping transactions: arrivals pick one at random,
#: saturation top-ups take them round-robin.
NUM_CLIENTS = 16


class WorkloadGenerator:
    """Drives client transactions into a simulated cluster."""

    def __init__(
        self,
        scheduler: Scheduler,
        mempools: Sequence[Mempool],
        config: WorkloadConfig,
        rng_factory: RngFactory,
    ) -> None:
        config.validate()
        self.scheduler = scheduler
        self.mempools = list(mempools)
        self.config = config
        self._rng = rng_factory.stream("workload")
        self._next_seq: Dict[int, int] = {c: 0 for c in range(NUM_CLIENTS)}
        self.submitted: Dict[TxKey, Transaction] = {}
        self._saturation_counter = 0

    # -- open loop ---------------------------------------------------------

    def start(self) -> None:
        """Begin generating arrivals (no-op for saturation mode)."""
        if self.config.rate is None:
            self._top_up_all()
            return
        self._schedule_next_arrival()

    def _schedule_next_arrival(self) -> None:
        assert self.config.rate is not None
        gap = self._rng.expovariate(self.config.rate)
        when = self.scheduler.now + gap
        if when > self.config.duration:
            return
        self.scheduler.at(when, self._arrive)

    def _arrive(self) -> None:
        client = self._rng.randrange(NUM_CLIENTS)
        tx = self._make_tx(client)
        for mempool in self.mempools:
            mempool.add(tx)
        self._schedule_next_arrival()

    # -- saturation mode ------------------------------------------------------

    def top_up(self, mempool: Mempool, target_pending: int) -> int:
        """Refill one mempool to ``target_pending`` (saturation mode).

        Returns the number of transactions added.  Transactions created
        here are also offered to the other mempools so every replica can
        commit them.
        """
        added = 0
        while mempool.pending_count < target_pending:
            client = self._saturation_counter % NUM_CLIENTS
            self._saturation_counter += 1
            tx = self._make_tx(client)
            for pool in self.mempools:
                pool.add(tx)
            added += 1
        return added

    def _top_up_all(self) -> None:
        if self.mempools:
            self.top_up(self.mempools[0], target_pending=10_000)

    def _make_tx(self, client: int) -> Transaction:
        seq = self._next_seq.setdefault(client, 0)
        self._next_seq[client] = seq + 1
        tx = make_transaction(client, seq, self.scheduler.now, self.config.tx_size)
        self.submitted[tx_key(tx)] = tx
        return tx

    @property
    def total_submitted(self) -> int:
        return len(self.submitted)
