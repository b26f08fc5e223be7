"""RNG streams and tracing."""

from __future__ import annotations

from repro.sim.rng import RngFactory, derive_seed
from repro.sim.tracing import Trace


class TestRng:
    def test_derive_seed_stable(self):
        assert derive_seed(1, "net") == derive_seed(1, "net")
        assert derive_seed(1, "net") != derive_seed(2, "net")
        assert derive_seed(1, "net") != derive_seed(1, "workload")

    def test_streams_independent(self):
        factory = RngFactory(42)
        a = factory.stream("a")
        b = factory.stream("b")
        seq_b = [b.random() for _ in range(5)]
        # Drawing from `a` must not change what `b` would have produced.
        fresh = RngFactory(42)
        fresh_a = fresh.stream("a")
        for _ in range(100):
            fresh_a.random()
        assert [fresh.stream("b").random() for _ in range(5)] == seq_b

    def test_stream_memoized(self):
        factory = RngFactory(1)
        assert factory.stream("x") is factory.stream("x")

    def test_same_seed_same_draws(self):
        a = RngFactory(7).stream("s")
        b = RngFactory(7).stream("s")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


class VoteMsg:
    """A message class with no block coordinates."""


class PayloadMsg:
    """A second message class with no block coordinates."""


class TestTrace:
    def test_counters_without_events(self):
        trace = Trace()
        trace.emit("commit")
        trace.emit("commit")
        assert trace.counters["commit"] == 2
        assert not hasattr(trace, "events")

    def test_message_accounting(self):
        trace = Trace()
        trace.wire.account(0, 1, VoteMsg(), 100)
        trace.wire.account(0, 2, PayloadMsg(), 5000)
        trace.wire.account(1, 0, VoteMsg(), 100)
        assert trace.wire.msgs_total == 3
        assert trace.wire.bytes_total == 5200
        assert trace.wire.sender_bytes[0] == 5100
        assert trace.wire.class_msgs["VoteMsg"] == 2
        # The fingerprint reads the accountant: one more offer moves it.
        before = trace.fingerprint()
        trace.wire.account(1, 0, VoteMsg(), 100)
        assert trace.fingerprint() != before
