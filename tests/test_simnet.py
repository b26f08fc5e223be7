"""Simulated network: delivery, partitions, filters, egress serialization."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.net.delay import UniformDelayModel
from repro.net.simnet import LOOPBACK_DELAY, SimNetwork
from repro.sim.rng import RngFactory
from repro.sim.scheduler import Scheduler
from repro.sim.tracing import Trace


def make_net(n=3, low=0.001, high=0.002, **kwargs):
    scheduler = Scheduler()
    net = SimNetwork(
        scheduler, UniformDelayModel(low, high), RngFactory(1), Trace(), **kwargs
    )
    inboxes = {i: [] for i in range(n)}
    for i in range(n):
        net.attach(i, lambda src, msg, i=i: inboxes[i].append((src, msg)))
    return scheduler, net, inboxes


class TestDelivery:
    def test_send_delivers_within_model_bounds(self):
        scheduler, net, inboxes = make_net()
        net.send(0, 1, "hello")
        scheduler.run()
        assert inboxes[1] == [(0, "hello")]
        assert 0.001 <= scheduler.now <= 0.002

    def test_broadcast_includes_self_by_default(self):
        scheduler, net, inboxes = make_net()
        net.broadcast(0, "x")
        scheduler.run()
        assert inboxes[0] == [(0, "x")]
        assert inboxes[1] == [(0, "x")]
        assert inboxes[2] == [(0, "x")]

    def test_broadcast_exclude_self(self):
        scheduler, net, inboxes = make_net()
        net.broadcast(0, "x", include_self=False)
        scheduler.run()
        assert inboxes[0] == []
        assert len(inboxes[1]) == 1

    def test_loopback_fast(self):
        scheduler, net, inboxes = make_net()
        net.send(1, 1, "self")
        scheduler.run()
        assert inboxes[1] == [(1, "self")]
        assert scheduler.now == pytest.approx(LOOPBACK_DELAY)

    def test_duplicate_attach_rejected(self):
        _, net, _ = make_net()
        with pytest.raises(SimulationError):
            net.attach(0, lambda s, m: None)

    def test_message_accounting(self):
        scheduler, net, _ = make_net()
        net.send(0, 1, "hello")
        scheduler.run()
        assert net.wire.msgs_total == 1
        assert net.wire.bytes_total > 0

    def test_send_to_a_tuple_is_one_offer(self):
        scheduler, net, inboxes = make_net(n=4)
        net.send(0, (1, 3), "relay")
        scheduler.run()
        assert [len(inboxes[i]) for i in range(4)] == [0, 1, 0, 1]
        assert net.wire.msgs_total == 2
        assert net.wire.sender_bytes[0] == net.wire.bytes_total

    def test_recorded_latency_is_the_sampled_delay(self):
        """A delay at the model's bound is recorded at exactly the bound,
        whatever the send time: a headroom check against that bound then
        sees no violation by construction."""
        from repro.obs.recorder import SpanRecorder

        obs = SpanRecorder()
        scheduler, net, _ = make_net(low=0.005, high=0.005, obs=obs)
        scheduler.post_at(0.1, net.send, 0, 1, "late")
        scheduler.run()
        assert [sample.latency for sample in obs.messages] == [0.005]


class TestPartitions:
    def test_partition_drops_cross_group(self):
        scheduler, net, inboxes = make_net()
        net.set_partition([{0, 1}, {2}])
        net.send(0, 2, "dropped")
        net.send(0, 1, "delivered")
        scheduler.run()
        assert inboxes[2] == []
        assert inboxes[1] == [(0, "delivered")]

    def test_heal(self):
        scheduler, net, inboxes = make_net()
        net.set_partition([{0}, {1, 2}])
        net.heal_partition()
        net.send(0, 1, "ok")
        scheduler.run()
        assert inboxes[1] == [(0, "ok")]

    def test_node_in_no_group_isolated(self):
        scheduler, net, inboxes = make_net()
        net.set_partition([{1, 2}])
        net.send(0, 1, "never")
        scheduler.run()
        assert inboxes[1] == []


class TestFiltersAndCrash:
    def test_filter_drops(self):
        scheduler, net, inboxes = make_net()
        net.add_filter(lambda src, dst, msg, size: msg != "bad")
        net.send(0, 1, "bad")
        net.send(0, 1, "good")
        scheduler.run()
        assert inboxes[1] == [(0, "good")]

    def test_down_node_neither_sends_nor_receives(self):
        scheduler, net, inboxes = make_net()
        net.take_down(1)
        net.send(0, 1, "to-down")
        net.send(1, 2, "from-down")
        scheduler.run()
        assert inboxes[1] == []
        assert inboxes[2] == []
        net.bring_up(1)
        net.send(0, 1, "back")
        scheduler.run()
        assert inboxes[1] == [(0, "back")]

    def test_down_sender_is_neither_sized_nor_counted(self, monkeypatch):
        import repro.net.simnet as simnet

        sized = []
        real = simnet.encoded_size
        monkeypatch.setattr(simnet, "encoded_size", lambda msg: sized.append(msg) or real(msg))
        scheduler, net, _ = make_net()
        net.take_down(1)
        net.send(1, 2, "from-down")
        net.broadcast(1, "from-down")
        scheduler.run()
        assert sized == []
        assert net.wire.msgs_total == 0
        assert net.wire.bytes_total == 0
        net.send(0, 2, "from-up")
        assert sized == ["from-up"]

    def test_unattached_destination_errors(self):
        scheduler, net, _ = make_net()
        net.send(0, 99, "x")
        with pytest.raises(SimulationError):
            scheduler.run()


class TestDelayPolicyComposition:
    def test_policies_chain_in_registration_order(self):
        scheduler, net, inboxes = make_net()
        seen = []

        def first(src, dst, msg, size, delay):
            seen.append(("first", delay))
            return 0.5

        def second(src, dst, msg, size, delay):
            seen.append(("second", delay))
            return delay * 2

        net.add_delay_policy(first)
        net.add_delay_policy(second)
        net.send(0, 1, "x")
        scheduler.run()
        assert [name for name, _ in seen] == ["first", "second"]
        assert seen[1][1] == 0.5  # second sees first's output
        assert scheduler.now == pytest.approx(1.0)
        assert inboxes[1] == [(0, "x")]

    def test_prepend_puts_policy_first(self):
        _, net, _ = make_net()

        def later(src, dst, msg, size, delay):
            return delay

        def base(src, dst, msg, size, delay):
            return delay

        net.add_delay_policy(later)
        net.add_delay_policy(base, prepend=True)
        assert net.delay_policies == (base, later)

    def test_policy_none_drops_and_short_circuits(self):
        scheduler, net, inboxes = make_net()
        downstream_calls = []
        net.add_delay_policy(lambda src, dst, msg, size, delay: None)
        net.add_delay_policy(
            lambda src, dst, msg, size, delay: downstream_calls.append(delay) or delay
        )
        net.send(0, 1, "x")
        scheduler.run()
        assert inboxes[1] == []
        assert downstream_calls == []

    def test_model_drop_bypasses_policies(self):
        class DroppingModel:
            def sample(self, rng, src, dst, size):
                return None

        scheduler = Scheduler()
        net = SimNetwork(scheduler, DroppingModel(), RngFactory(1), Trace())
        inbox = []
        net.attach(0, lambda s, m: None)
        net.attach(1, lambda s, m: inbox.append(m))
        policy_calls = []
        net.add_delay_policy(
            lambda src, dst, msg, size, delay: policy_calls.append(delay) or delay
        )
        net.send(0, 1, "x")
        scheduler.run()
        assert inbox == []
        assert policy_calls == []

    def test_filter_drop_precedes_delay_policies(self):
        scheduler, net, inboxes = make_net()
        policy_calls = []
        net.add_filter(lambda src, dst, msg, size: False)
        net.add_delay_policy(
            lambda src, dst, msg, size, delay: policy_calls.append(delay) or delay
        )
        net.send(0, 1, "x")
        scheduler.run()
        assert inboxes[1] == []
        assert policy_calls == []

    def test_identity_policy_preserves_delivery_schedule(self):
        """Installing a pass-through policy must not perturb the RNG
        stream or the delivery times other components see."""

        def deliveries(with_policy):
            scheduler, net, _ = make_net()
            times = []
            net._handlers[1] = lambda src, msg: times.append(scheduler.now)
            if with_policy:
                net.add_delay_policy(lambda src, dst, msg, size, delay: delay)
            for i in range(10):
                net.send(0, 1, f"m{i}")
            scheduler.run()
            return times

        assert deliveries(with_policy=True) == deliveries(with_policy=False)


class TestDelayObserver:
    def test_observer_sees_latency_and_runs_before_handler(self):
        scheduler, net, _ = make_net(low=0.002, high=0.002)
        order = []
        net.set_delay_observer(
            1, lambda src, msg, size, latency: order.append(("obs", src, latency))
        )
        net._handlers[1] = lambda src, msg: order.append(("handler", msg))
        net.send(0, 1, "x")
        scheduler.run()
        assert order[0] == ("obs", 0, pytest.approx(0.002))
        assert order[1] == ("handler", "x")

    def test_observer_clearable(self):
        scheduler, net, inboxes = make_net()
        net.set_delay_observer(1, lambda src, msg, size, latency: None)
        net.set_delay_observer(1, None)
        net.send(0, 1, "x")
        scheduler.run()
        assert inboxes[1] == [(0, "x")]

    def test_observer_does_not_change_delivery_times(self):
        def deliveries(with_observer):
            scheduler, net, _ = make_net()
            times = []
            net._handlers[1] = lambda src, msg: times.append(scheduler.now)
            if with_observer:
                net.set_delay_observer(1, lambda src, msg, size, latency: None)
            for i in range(10):
                net.send(0, 1, f"m{i}")
            scheduler.run()
            return times

        assert deliveries(with_observer=True) == deliveries(with_observer=False)

    def test_observer_latency_includes_policy_inflation(self):
        scheduler, net, _ = make_net(low=0.001, high=0.001)
        net.add_delay_policy(lambda src, dst, msg, size, delay: delay + 0.01)
        latencies = []
        net.set_delay_observer(
            1, lambda src, msg, size, latency: latencies.append(latency)
        )
        net.send(0, 1, "x")
        scheduler.run()
        assert latencies == [pytest.approx(0.011)]


class TestEgressSerialization:
    def test_large_copies_queue_behind_each_other(self):
        # 1 MB payload at 1 MB/s egress: 2nd copy departs ~1 s after 1st.
        scheduler, net, inboxes = make_net(
            low=0.0, high=0.0, egress_bandwidth=1_000_000.0, priority_threshold=4096
        )
        big = b"x" * 1_000_000
        arrivals = []
        net._handlers[1] = lambda src, msg: arrivals.append(("r1", scheduler.now))
        net._handlers[2] = lambda src, msg: arrivals.append(("r2", scheduler.now))
        net.broadcast(0, big, include_self=False)
        scheduler.run()
        times = sorted(t for _, t in arrivals)
        assert times[0] == pytest.approx(1.0, rel=0.05)
        assert times[1] == pytest.approx(2.0, rel=0.05)

    def test_small_messages_bypass_egress_queue(self):
        scheduler, net, inboxes = make_net(
            low=0.0, high=0.0, egress_bandwidth=1_000_000.0, priority_threshold=4096
        )
        net.send(0, 1, b"x" * 1_000_000)  # occupies egress for ~1 s
        net.send(0, 2, b"tiny")
        scheduler.run(until=0.5)
        assert inboxes[2], "small message should not wait behind the payload"
