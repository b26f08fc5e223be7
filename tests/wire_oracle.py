"""Reference wire accountant.  ``OracleAccountant`` is the per-copy
``WireAccountant`` that ``repro.obs.wire`` shipped before the per-offer
tally, kept verbatim as a test oracle: nineteen counter increments and a
histogram observation for every (sender, receiver) copy of every message.

``OracleNetwork`` is the send path ``repro.net.simnet`` shipped with it: a
``SimNetwork`` whose ``send``/``broadcast`` go through the copy-at-a-time
``_send_sized``, with the message counter and the accountant tapped once
per copy.  The message counter is :class:`ParentCounts`: the counters
``Trace`` kept beside the accountant before the accountant became the
only one, and the fingerprint it hashed them into, kept here verbatim.
:func:`count_offers` puts the same counter beside a shipped network.

``tests/test_wire.py`` pins the relation between the pairs: fed the
copies of the same offers one by one, every public axis, ``snapshot()``
and ``leader_egress_share()`` of ``OracleAccountant`` equal those the
shipped accountant derives from its tally; for the same seed and the
same faults installed, ``OracleNetwork`` leaves the same event counts
and the same scheduler entries as the shipped network's one loop; and
the trace's fingerprint, read from the accountant, equals the one
``ParentCounts`` hashes from its own counters.
"""

from __future__ import annotations

import hashlib
from collections import Counter as TallyCounter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.codec import encoded_size
from repro.net.simnet import LOOPBACK_DELAY, SimNetwork
from repro.obs.metrics import Histogram
from repro.obs.wire import (
    SIZE_HISTOGRAM_BOUNDS,
    UNATTRIBUTED,
    WIRE_SCHEMA,
    QueueSample,
    _build_ref_extractor,
    classify_phase,
)


class OracleAccountant:
    """Multi-axis wire-byte accounting for one cluster run.

    Purely additive: :meth:`account` mutates private tallies only, so an
    attached accountant never perturbs simulation behavior (inertness).
    """

    def __init__(self, small_threshold: int) -> None:
        if small_threshold <= 0:
            raise ValueError("small_threshold must be positive")
        self.small_threshold = small_threshold
        self.bytes_total = 0
        self.msgs_total = 0
        self.loopback_bytes = 0
        self.loopback_msgs = 0
        self.link_bytes: TallyCounter = TallyCounter()
        self.link_msgs: TallyCounter = TallyCounter()
        self.class_bytes: TallyCounter = TallyCounter()
        self.class_msgs: TallyCounter = TallyCounter()
        #: (class, size_class) → bytes: the small/large split per class.
        self.class_size_bytes: TallyCounter = TallyCounter()
        self.sender_bytes: TallyCounter = TallyCounter()
        self.sender_msgs: TallyCounter = TallyCounter()
        self.receiver_bytes: TallyCounter = TallyCounter()
        self.size_class_bytes: TallyCounter = TallyCounter()
        self.size_class_msgs: TallyCounter = TallyCounter()
        self.phase_bytes: TallyCounter = TallyCounter()
        self.phase_msgs: TallyCounter = TallyCounter()
        self.height_bytes: TallyCounter = TallyCounter()
        self.epoch_bytes: TallyCounter = TallyCounter()
        self.size_hist: Dict[str, Histogram] = {}
        self.queue_samples: List[QueueSample] = []
        # Per-class (phase, ref-extractor) memo: resolved on first sight.
        self._class_info: Dict[type, Tuple[str, str, Callable[[Any], Tuple[int, int]]]] = {}

    # -- the hot-path tap ---------------------------------------------------

    def account(self, src: int, dst: int, msg: object, size: int) -> None:
        """Attribute one message's wire bytes along every axis.

        Called at the same site (and with the same semantics) as
        ``ParentCounts.count_message`` — every *offered* send, loopback and
        fault-dropped messages included — so the wire total cross-checks
        byte-exactly against its ``bytes`` counter.
        """
        info = self._class_info.get(type(msg))
        if info is None:
            name = type(msg).__name__
            info = (name, classify_phase(name), _build_ref_extractor(msg))
            self._class_info[type(msg)] = info
        cls, phase, extract = info
        try:
            epoch, height = extract(msg)
        except AttributeError:  # Optional sub-field absent on this instance
            epoch = height = UNATTRIBUTED
        size_class = "small" if size <= self.small_threshold else "large"

        self.bytes_total += size
        self.msgs_total += 1
        if src == dst:
            self.loopback_bytes += size
            self.loopback_msgs += 1
        self.link_bytes[(src, dst)] += size
        self.link_msgs[(src, dst)] += 1
        self.class_bytes[cls] += size
        self.class_msgs[cls] += 1
        self.class_size_bytes[(cls, size_class)] += size
        self.sender_bytes[src] += size
        self.sender_msgs[src] += 1
        self.receiver_bytes[dst] += size
        self.size_class_bytes[size_class] += size
        self.size_class_msgs[size_class] += 1
        self.phase_bytes[phase] += size
        self.phase_msgs[phase] += 1
        self.height_bytes[height] += size
        self.epoch_bytes[epoch] += size
        hist = self.size_hist.get(cls)
        if hist is None:
            hist = self.size_hist[cls] = Histogram(SIZE_HISTOGRAM_BOUNDS)
        hist.observe(float(size))

    def sample_queue(self, time: float, node: int, backlog: float, queued_bytes: int) -> None:
        """Record one egress-serialization wait at ``node``."""
        self.queue_samples.append(QueueSample(time, node, backlog, queued_bytes))

    # -- derived ------------------------------------------------------------

    def leader_egress_share(self) -> float:
        """Busiest sender's share of all wire bytes (1/n ⇒ perfectly even).

        In a leader-based protocol the busiest sender is the (dominant)
        leader — this is the paper's leader-fan-out bottleneck as a
        single ratio, and the metric ROADMAP's dissemination work must
        move.
        """
        if self.bytes_total == 0:
            return 0.0
        return max(self.sender_bytes.values()) / self.bytes_total

    # -- exposure -----------------------------------------------------------

    def snapshot(self, meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """The full accounting as one JSON-serializable document."""
        queues_by_node: Dict[int, List[QueueSample]] = {}
        for sample in self.queue_samples:
            queues_by_node.setdefault(sample.node, []).append(sample)
        return {
            "schema": WIRE_SCHEMA,
            "small_threshold": self.small_threshold,
            "meta": dict(meta or {}),
            "totals": {
                "bytes": self.bytes_total,
                "msgs": self.msgs_total,
                "loopback_bytes": self.loopback_bytes,
                "loopback_msgs": self.loopback_msgs,
            },
            "leader_egress_share": self.leader_egress_share(),
            "links": [
                {
                    "src": src,
                    "dst": dst,
                    "bytes": self.link_bytes[(src, dst)],
                    "msgs": self.link_msgs[(src, dst)],
                }
                for src, dst in sorted(self.link_bytes)
            ],
            "classes": [
                {
                    "class": cls,
                    "phase": classify_phase(cls),
                    "bytes": self.class_bytes[cls],
                    "msgs": self.class_msgs[cls],
                    "small_bytes": self.class_size_bytes.get((cls, "small"), 0),
                    "large_bytes": self.class_size_bytes.get((cls, "large"), 0),
                    "hist": self.size_hist[cls].to_dict(),
                }
                for cls in sorted(self.class_bytes)
            ],
            "phases": [
                {
                    "phase": phase,
                    "bytes": self.phase_bytes[phase],
                    "msgs": self.phase_msgs[phase],
                }
                for phase in sorted(self.phase_bytes)
            ],
            "size_classes": [
                {
                    "size_class": size_class,
                    "bytes": self.size_class_bytes[size_class],
                    "msgs": self.size_class_msgs[size_class],
                }
                for size_class in sorted(self.size_class_bytes)
            ],
            "senders": [
                {
                    "node": node,
                    "bytes": self.sender_bytes[node],
                    "msgs": self.sender_msgs[node],
                }
                for node in sorted(self.sender_bytes)
            ],
            "receivers": [
                {"node": node, "bytes": self.receiver_bytes[node]}
                for node in sorted(self.receiver_bytes)
            ],
            "heights": [
                {"height": height, "bytes": self.height_bytes[height]}
                for height in sorted(self.height_bytes)
            ],
            "epochs": [
                {"epoch": epoch, "bytes": self.epoch_bytes[epoch]}
                for epoch in sorted(self.epoch_bytes)
            ],
            "queues": [
                {
                    "node": node,
                    "samples": len(samples),
                    "max_backlog_s": max(s.backlog for s in samples),
                    "mean_backlog_s": sum(s.backlog for s in samples) / len(samples),
                    "max_queued_bytes": max(s.queued_bytes for s in samples),
                    "queued_bytes": sum(s.queued_bytes for s in samples),
                }
                for node, samples in sorted(queues_by_node.items())
            ],
        }


class ParentCounts:
    """``Trace``'s message counters, and its fingerprint over them."""

    def __init__(self) -> None:
        self.counters: TallyCounter = TallyCounter()
        self.bytes_sent_by_node: TallyCounter = TallyCounter()
        self.messages_by_type: TallyCounter = TallyCounter()

    def count_message(self, sender: int, type_name: str, size: int, copies: int = 1) -> None:
        """Account one wire message offered to ``copies`` (≥ 1) destinations."""
        wire_bytes = size * copies
        counters = self.counters
        counters["messages"] += copies
        counters["bytes"] += wire_bytes
        self.bytes_sent_by_node[sender] += wire_bytes
        self.messages_by_type[type_name] += copies

    def fingerprint(self, kinds: TallyCounter, extra: Optional[bytes] = None) -> str:
        """The digest ``Trace.fingerprint`` made when ``counters`` held the
        event ``kinds`` and the message counters side by side."""
        counters = TallyCounter(kinds)
        counters.update(self.counters)
        hasher = hashlib.sha256()
        for counter in (counters, self.bytes_sent_by_node, self.messages_by_type):
            for key in sorted(counter, key=repr):
                hasher.update(f"{key!r}={counter[key]};".encode("utf-8"))
        if extra:
            hasher.update(extra)
        return hasher.hexdigest()


def count_offers(network: SimNetwork) -> ParentCounts:
    """Count every offer ``network`` makes from now on, the way its send
    path called ``Trace.count_message`` beside the accountant."""
    counts = ParentCounts()
    offer = network._offer

    def counted(src: int, dsts: Tuple[int, ...], msg: object) -> None:
        if src not in network._down and dsts:
            counts.count_message(src, type(msg).__name__, encoded_size(msg), len(dsts))
        offer(src, dsts, msg)

    network._offer = counted  # type: ignore[method-assign]
    return counts


class OracleNetwork(SimNetwork):
    """``SimNetwork`` with the per-copy send path it had before the one loop."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.counts = ParentCounts()

    def send(self, src: int, dst: Any, msg: object) -> None:
        """Send one message to one node or to each of a tuple of nodes;
        wire size is the real encoded size.

        Routed through :func:`~repro.codec.encoded_size`, so the size is
        computed without materializing bytes and is memoized on the
        message object — a header relayed many times is sized once.
        """
        size = encoded_size(msg)
        for each in dst if type(dst) is tuple else (dst,):
            self._send_sized(src, each, msg, size)

    def broadcast(self, src: int, msg: object, include_self: bool = True) -> None:
        """Send ``msg`` to every attached node (sizing once per object)."""
        size = encoded_size(msg)
        for dst in self.nodes():
            if dst == src and not include_self:
                continue
            self._send_sized(src, dst, msg, size)

    def _send_sized(self, src: int, dst: int, msg: object, size: int) -> None:
        if src in self._down:
            return
        self.counts.count_message(src, type(msg).__name__, size)
        self.wire.account(src, dst, msg, size)
        scheduler = self.scheduler
        if src == dst:
            scheduler.post_at(scheduler.now + LOOPBACK_DELAY, self._deliver, src, dst, msg)
            return
        if self._partition is not None and self._crosses_partition(src, dst):
            self.trace.emit("msg_partitioned")
            return
        if self._filters:
            for fn in self._filters:
                if not fn(src, dst, msg, size):
                    self.trace.emit("msg_filtered")
                    return
        delay = self.delay_model.sample(self._rng, src, dst, size)
        if delay is None:
            self.trace.emit("msg_dropped")
            return
        for policy in self._delay_policies:
            delay = policy(src, dst, msg, size, delay)
            if delay is None:
                self.trace.emit("msg_dropped")
                return
        departure = scheduler.now
        if self.egress_bandwidth and size > self.priority_threshold:
            # NIC egress serialization: copies of a broadcast queue behind
            # one another at the sender.
            start = max(departure, self._egress_free.get(src, 0.0))
            # Backpressure sample: how long this copy waited behind
            # earlier egress before its serialization even started.
            self.wire.sample_queue(scheduler.now, src, start - scheduler.now, size)
            departure = start + size / self.egress_bandwidth
            self._egress_free[src] = departure
        if self.obs is not None:
            # Latency as the receiver experiences it: egress queueing at
            # the sender plus the sampled network delay.
            self.obs.message(
                scheduler.now,
                src,
                dst,
                type(msg).__name__,
                size,
                departure + delay - scheduler.now,
            )
        if dst in self._delay_observers:
            scheduler.post_at(
                departure + delay,
                self._deliver_observed,
                src,
                dst,
                msg,
                size,
                departure + delay - scheduler.now,
            )
            return
        scheduler.post_at(departure + delay, self._deliver, src, dst, msg)

    def _crosses_partition(self, src: int, dst: int) -> bool:
        if self._partition is None:
            return False
        for group in self._partition:
            if src in group:
                return dst not in group
        return True  # src in no group: isolated
