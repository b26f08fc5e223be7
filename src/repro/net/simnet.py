"""The simulated network.

Connects node message handlers through the scheduler: ``send`` and
``broadcast`` offer one message to one node, to a tuple of nodes, or to
every attached node.  An
offer measures the message's real wire size once (``encoded_size``: the
encoder's walk with the chunk lengths summed, so ``len(encode(msg))`` by
construction, memoized per message object) and counts it once, in the
wire accountant the network takes from its trace; each copy then samples
a delay from the network RNG stream and schedules its delivery.
Supports partitions and per-message filters for fault experiments.

Delivery hands the *original* message object to the receiver — the codec
roundtrip is exercised by the real transport and by dedicated tests; the
simulator avoids re-decoding for speed.  Encoded size, however, is always
the genuine wire size.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple, Union

from ..codec import encoded_size
from ..errors import SimulationError
from ..obs.recorder import SpanRecorder
from ..sim.rng import RngFactory
from ..sim.scheduler import Scheduler
from ..sim.tracing import Trace
from .delay import DelayModel

#: Handler signature: handler(src, msg).
MessageHandler = Callable[[int, object], None]

#: Filter signature: filter(src, dst, msg, size) -> deliver?  Filters are
#: consulted in registration order; any False drops the message.
MessageFilter = Callable[[int, int, object, int], bool]

#: Delay-policy signature: policy(src, dst, msg, size, model_delay) -> delay.
#: The configured delay model is sampled first (so installing a policy never
#: perturbs the RNG draws other components see); the policy may return the
#: model's delay unchanged, substitute its own, or None to drop the message.
#: Policies compose as an ordered chain: each receives the delay produced by
#: the previous one, and the first None drops the message.  This is the
#: layering point for adversarial schedulers (repro.check) and gray-failure
#: behaviors (repro.faults).
DelayPolicy = Callable[[int, int, object, int, float], Optional[float]]

#: Delay-observer signature: observer(src, msg, size, latency).  Called at
#: delivery time on the *receiving* node's behalf, with the one-way latency
#: the message actually experienced (egress queueing plus network delay).
#: This is the synchrony guard's measurement tap (repro.guard).
DelayObserver = Callable[[int, object, int, float], None]

#: Delay a node's loopback messages experience (scheduling, not network).
LOOPBACK_DELAY = 1e-6


class SimNetwork:
    """Message fabric for one simulated cluster."""

    def __init__(
        self,
        scheduler: Scheduler,
        delay_model: DelayModel,
        rng_factory: RngFactory,
        trace: Optional[Trace] = None,
        egress_bandwidth: Optional[float] = None,
        priority_threshold: int = 0,
        obs: Optional[SpanRecorder] = None,
    ) -> None:
        self.scheduler = scheduler
        self.delay_model = delay_model
        self.trace = trace if trace is not None else Trace()
        #: The trace's wire accountant (repro.obs.wire): the one counter of
        #: what this network carries, tapped once per offer.
        self.wire = self.trace.wire
        #: Observability sink for per-message delay samples; ``None``
        #: (the default) keeps the send path free of any obs work.
        self.obs = obs
        self.egress_bandwidth = egress_bandwidth
        #: Messages at or below this size bypass egress queueing — the
        #: priority lane that justifies the hybrid model's small-message
        #: bound even while the NIC streams a payload.
        self.priority_threshold = priority_threshold
        self._rng = rng_factory.stream("network")
        self._handlers: Dict[int, MessageHandler] = {}
        #: A broadcast's destinations, built at ``attach``: every attached
        #: node, and per sender everyone but itself (``include_self=False``;
        #: a sender that is not attached has no self to leave out).
        self._everyone: Tuple[int, ...] = ()
        self._peers_of: Dict[int, Tuple[int, ...]] = {}
        self._partition: Optional[Tuple[FrozenSet[int], ...]] = None
        self._filters: List[MessageFilter] = []
        self._delay_policies: List[DelayPolicy] = []
        self._delay_observers: Dict[int, DelayObserver] = {}
        self._down: set = set()
        self._egress_free: Dict[int, float] = {}

    # -- wiring ------------------------------------------------------------

    def attach(self, node_id: int, handler: MessageHandler) -> None:
        """Register the message handler for ``node_id``."""
        if node_id in self._handlers:
            raise SimulationError(f"node {node_id} already attached")
        self._handlers[node_id] = handler
        self._everyone = tuple(sorted(self._handlers))
        self._peers_of = {
            node: tuple(peer for peer in self._everyone if peer != node)
            for node in self._everyone
        }

    def nodes(self) -> List[int]:
        return list(self._everyone)

    # -- fault controls ----------------------------------------------------

    def set_partition(self, groups: Iterable[Iterable[int]]) -> None:
        """Partition nodes; messages across groups are dropped."""
        self._partition = tuple(frozenset(g) for g in groups)

    def heal_partition(self) -> None:
        self._partition = None

    def add_filter(self, fn: MessageFilter) -> None:
        """Install a drop filter (fault injection hook)."""
        self._filters.append(fn)

    def add_delay_policy(self, fn: DelayPolicy, prepend: bool = False) -> None:
        """Append (or prepend) a delay policy to the composition chain.

        Policies run in chain order; each sees the delay the previous one
        produced.  Prepending is for policies that model the *base*
        network (adversarial schedulers), so that later-installed
        gray-failure inflations post-process their output rather than
        being overwritten.
        """
        if prepend:
            self._delay_policies.insert(0, fn)
        else:
            self._delay_policies.append(fn)

    @property
    def delay_policies(self) -> Tuple[DelayPolicy, ...]:
        """The installed delay-policy chain, in application order."""
        return tuple(self._delay_policies)

    def set_delay_observer(self, node_id: int, fn: Optional[DelayObserver]) -> None:
        """Install (or clear) a delivery-latency observer for ``node_id``.

        With no observer registered the send path schedules the exact
        same deliveries as before — the hook is observationally inert
        until someone (the synchrony guard) actually registers.
        """
        if fn is None:
            self._delay_observers.pop(node_id, None)
        else:
            self._delay_observers[node_id] = fn

    def take_down(self, node_id: int) -> None:
        """Crash a node: it neither sends nor receives from now on."""
        self._down.add(node_id)

    def bring_up(self, node_id: int) -> None:
        self._down.discard(node_id)

    # -- sending -----------------------------------------------------------

    # An *offer* is one message handed to the network for a tuple of
    # destinations: ``send`` offers to one, ``broadcast`` to every
    # attached node.  What depends only on (sender, message) is done once
    # per offer — sizing, the wire tap, the sender's side of a partition,
    # binding the scheduler, delay model, filters, policies and egress
    # settings.  What is left per copy is what each copy can decide
    # or consume differently: the partition and filter verdicts, the RNG
    # draw, the policy chain, its slot in the sender's egress queue, the
    # obs sample and the heap push — in that order, so a seeded run draws
    # and schedules exactly what a copy-at-a-time send path would.

    def send(self, src: int, dst: Union[int, Tuple[int, ...]], msg: object) -> None:
        """Offer one message to one node or to a tuple of distinct nodes;
        wire size is the real encoded size.

        Routed through :func:`~repro.codec.encoded_size`, so the size is
        the encoder's and is memoized on the message object — a header
        relayed many times is sized once.
        """
        self._offer(src, dst if type(dst) is tuple else (dst,), msg)

    def broadcast(self, src: int, msg: object, include_self: bool = True) -> None:
        """Send ``msg`` to every attached node (sizing and accounting once)."""
        everyone = self._everyone
        self._offer(src, everyone if include_self else self._peers_of.get(src, everyone), msg)

    def _offer(self, src: int, dsts: Tuple[int, ...], msg: object) -> None:
        if src in self._down or not dsts:
            return
        size = encoded_size(msg)
        # Offered copies are counted even when a fault drops them below;
        # a down sender's are not.
        wire = self.wire
        wire.account(src, dsts, msg, size)
        scheduler = self.scheduler
        now = scheduler.now
        post_at = scheduler.post_at
        deliver, deliver_observed = self._deliver, self._deliver_observed
        reachable: Optional[FrozenSet[int]] = None
        if self._partition is not None:
            # The sender's group; in no group it is isolated.
            reachable = next((g for g in self._partition if src in g), frozenset())
        filters = self._filters
        sample = self.delay_model.sample
        rng = self._rng
        policies = self._delay_policies
        # NIC egress serialization: copies of a broadcast queue behind one
        # another at the sender, unless small enough for the priority lane.
        bandwidth = self.egress_bandwidth if size > self.priority_threshold else None
        egress_free = self._egress_free
        obs = self.obs
        observers = self._delay_observers
        for dst in dsts:
            if dst == src:
                post_at(now + LOOPBACK_DELAY, deliver, src, dst, msg)
                continue
            if reachable is not None and dst not in reachable:
                self.trace.emit("msg_partitioned")
                continue
            if filters and not all(fn(src, dst, msg, size) for fn in filters):
                self.trace.emit("msg_filtered")
                continue
            # A partitioned or filtered copy draws nothing; one a policy
            # drops has already drawn.
            delay = sample(rng, src, dst, size)
            for policy in policies:
                if delay is None:
                    break
                delay = policy(src, dst, msg, size, delay)
            if delay is None:
                self.trace.emit("msg_dropped")
                continue
            departure = now
            if bandwidth:
                start = max(now, egress_free.get(src, 0.0))
                # Backpressure sample: how long this copy waited behind
                # earlier egress before its serialization even started.
                wire.sample_queue(now, src, start - now, size)
                departure = start + size / bandwidth
                egress_free[src] = departure
            arrival = departure + delay
            if obs is not None:
                # Latency as the receiver experiences it: egress queueing at
                # the sender plus the sampled network delay — summed, not
                # ``arrival - now``, whose rounding would put a delay capped
                # at the small-message bound just above it.
                obs.message(now, src, dst, type(msg).__name__, size, departure - now + delay)
            if dst in observers:
                post_at(arrival, deliver_observed, src, dst, msg, size, arrival - now)
            else:
                post_at(arrival, deliver, src, dst, msg)

    def _deliver(self, src: int, dst: int, msg: object) -> None:
        if dst in self._down:
            return
        handler = self._handlers.get(dst)
        if handler is None:
            raise SimulationError(f"message for unattached node {dst}")
        handler(src, msg)

    def _deliver_observed(
        self, src: int, dst: int, msg: object, size: int, latency: float
    ) -> None:
        if dst in self._down:
            return
        observer = self._delay_observers.get(dst)
        if observer is not None:
            # Measurement first: the sample must land even if the handler
            # raises (a Byzantine message still demonstrates link delay).
            observer(src, msg, size, latency)
        self._deliver(src, dst, msg)
