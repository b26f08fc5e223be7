"""Mempool semantics and workload generation."""

from __future__ import annotations

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import WorkloadConfig
from repro.errors import MempoolError
from repro.mempool.mempool import Mempool, tx_key
from repro.mempool.workload import WorkloadGenerator
from repro.sim.rng import RngFactory
from repro.sim.scheduler import Scheduler
from repro.types.transaction import make_transaction


def tx(client=0, seq=0, size=16):
    return make_transaction(client, seq, 0.0, size)


class TestMempool:
    def test_add_and_take(self):
        pool = Mempool()
        assert pool.add(tx(0, 0))
        assert pool.add(tx(0, 1))
        batch = pool.take_batch(10, 10_000)
        assert [t.seq for t in batch] == [0, 1]
        assert pool.pending_count == 0
        assert pool.inflight_count == 2

    def test_duplicate_rejected(self):
        pool = Mempool()
        assert pool.add(tx(0, 0))
        assert not pool.add(tx(0, 0))

    def test_inflight_not_readdable(self):
        pool = Mempool()
        pool.add(tx(0, 0))
        pool.take_batch(10, 10_000)
        assert not pool.add(tx(0, 0))

    def test_committed_not_readdable(self):
        pool = Mempool()
        transaction = tx(0, 0)
        pool.add(transaction)
        pool.take_batch(10, 10_000)
        pool.remove_committed([transaction])
        assert not pool.add(transaction)
        assert pool.inflight_count == 0

    def test_take_batch_count_limit(self):
        pool = Mempool()
        for seq in range(5):
            pool.add(tx(0, seq))
        assert len(pool.take_batch(3, 10_000)) == 3
        assert pool.pending_count == 2

    def test_take_batch_bytes_limit(self):
        pool = Mempool()
        for seq in range(5):
            pool.add(tx(0, seq, size=100))
        batch = pool.take_batch(10, 250)
        assert 1 <= len(batch) <= 2

    def test_take_batch_always_returns_at_least_one(self):
        pool = Mempool()
        pool.add(tx(0, 0, size=1000))
        assert len(pool.take_batch(10, 10)) == 1  # first tx exempt from byte cap

    def test_requeue_inflight_front(self):
        pool = Mempool()
        pool.add(tx(0, 0))
        pool.take_batch(10, 10_000)
        pool.add(tx(0, 1))
        assert pool.requeue_inflight() == 1
        batch = pool.take_batch(10, 10_000)
        assert [t.seq for t in batch] == [0, 1]  # requeued tx goes first

    def test_capacity(self):
        pool = Mempool(capacity=1)
        pool.add(tx(0, 0))
        with pytest.raises(MempoolError):
            pool.add(tx(0, 1))
        with pytest.raises(MempoolError):
            Mempool(capacity=0)

    def test_wakeup_fires_on_empty_to_nonempty(self):
        pool = Mempool()
        wakes = []
        pool.wakeup = lambda: wakes.append(pool.pending_count)
        pool.add(tx(0, 0))
        pool.add(tx(0, 1))  # already non-empty: no wake
        assert wakes == [1]
        pool.take_batch(10, 10_000)
        pool.add(tx(0, 2))
        assert wakes == [1, 1]

    def test_len(self):
        pool = Mempool()
        pool.add(tx(0, 0))
        pool.take_batch(10, 10_000)
        pool.add(tx(0, 1))
        assert len(pool) == 2


class _SetModelMempool:
    """The mempool as it was: committed keys in one plain, ever-growing set."""

    def __init__(self) -> None:
        self.pending = OrderedDict()
        self.inflight = {}
        self.committed = set()

    def add(self, transaction) -> bool:
        key = tx_key(transaction)
        if key in self.pending or key in self.inflight or key in self.committed:
            return False
        self.pending[key] = transaction
        return True

    def take_batch(self, max_count):
        keys = list(self.pending)[:max_count]
        batch = tuple(self.pending.pop(key) for key in keys)
        self.inflight.update(zip(keys, batch))
        return batch

    def remove_committed(self, transactions) -> None:
        for transaction in transactions:
            key = tx_key(transaction)
            self.inflight.pop(key, None)
            self.pending.pop(key, None)
            self.committed.add(key)

    def requeue_inflight(self) -> int:
        requeued = sorted(self.inflight.items())
        self.inflight.clear()
        self.pending = OrderedDict(requeued + list(self.pending.items()))
        return len(requeued)


# Few clients and a narrow seq range, so duplicates, re-adds after commit,
# out-of-order commits that later close a gap, and the ``seq=-1`` markers the
# fault behaviours commit (``faults/behaviors.py``) all come up constantly.
_keys = st.tuples(st.integers(0, 2), st.one_of(st.integers(-2, 12), st.sampled_from([-1, 2**63])))
_ops = st.one_of(
    st.tuples(st.just("add"), _keys),
    st.tuples(st.just("take"), st.integers(1, 4)),
    st.tuples(st.just("commit"), st.lists(_keys, max_size=5)),
    st.tuples(st.just("commit-inflight"), st.just(None)),
    st.tuples(st.just("requeue"), st.just(None)),
)


class TestCommittedWatermark:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_ops, max_size=80))
    def test_answers_as_the_plain_set_model_does(self, ops):
        pool, model = Mempool(), _SetModelMempool()
        for op, arg in ops:
            if op == "add":
                assert pool.add(tx(*arg)) == model.add(tx(*arg)), (op, arg)
            elif op == "take":
                assert pool.take_batch(arg, 10**9) == model.take_batch(arg)
            elif op == "commit":  # in any order, pooled here or not (another leader's block)
                pool.remove_committed([tx(*key) for key in arg])
                model.remove_committed([tx(*key) for key in arg])
            elif op == "commit-inflight":
                pool.remove_committed(list(model.inflight.values()))
                model.remove_committed(list(model.inflight.values()))
            else:
                assert pool.requeue_inflight() == model.requeue_inflight()
            assert list(pool._pending.items()) == list(model.pending.items())
            assert pool._inflight == model.inflight
        # Every key the model calls committed, and no other, is refused for that reason.
        for client in range(3):
            for seq in [*range(-3, 14), 2**63, 2**63 + 1]:
                assert pool._is_committed(client, seq) == ((client, seq) in model.committed)

    def test_space_follows_the_clients_not_the_history(self):
        pool = Mempool()
        for seq in range(10_000):  # committed in blocks that arrive slightly out of order
            pool.remove_committed([tx(seq % 4, seq // 4 ^ 1, size=1)])
        assert pool._committed_below == {client: 2500 for client in range(4)}
        assert not any(pool._committed_beyond.values())
        assert not pool.add(tx(3, 2499)) and pool.add(tx(3, 2500))


class TestWorkload:
    def make(self, **kwargs):
        scheduler = Scheduler()
        pools = [Mempool(), Mempool()]
        config = WorkloadConfig(**kwargs)
        gen = WorkloadGenerator(scheduler, pools, config, RngFactory(3))
        return scheduler, pools, gen

    def test_open_loop_rate(self):
        scheduler, pools, gen = self.make(rate=1000.0, duration=4.0, tx_size=64)
        gen.start()
        scheduler.run()
        # Poisson arrivals: expect ~4000 ± a wide margin.
        assert 3200 < gen.total_submitted < 4800
        assert pools[0].pending_count == gen.total_submitted
        assert pools[1].pending_count == gen.total_submitted

    def test_arrivals_respect_duration(self):
        scheduler, pools, gen = self.make(rate=500.0, duration=1.0)
        gen.start()
        scheduler.run()
        assert scheduler.now <= 1.01

    def test_all_tx_keys_unique(self):
        scheduler, pools, gen = self.make(rate=2000.0, duration=1.0)
        gen.start()
        scheduler.run()
        assert len(gen.submitted) == gen.total_submitted

    def test_saturation_top_up(self):
        scheduler, pools, gen = self.make(rate=None, duration=1.0)
        gen.start()
        added = gen.top_up(pools[1], target_pending=500)
        assert pools[1].pending_count >= 500
        # Top-ups offer the same transactions to every pool.
        assert pools[0].pending_count >= 500
        assert added >= 0

    def test_invalid_config(self):
        with pytest.raises(Exception):
            WorkloadConfig(tx_size=2).validate()
        with pytest.raises(Exception):
            WorkloadConfig(rate=-1.0).validate()
