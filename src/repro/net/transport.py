"""Real asyncio TCP transport.

Runs the *same replica code* that the simulator drives, as actual
networked processes: length-prefixed frames of the wire codec over TCP,
timers on the event loop, wall-clock time.  Used by the examples and the
integration tests to demonstrate that the protocol implementations are
transport-agnostic, and usable as the starting point of a real
deployment (add TLS and persistent storage).

Frame format: ``4-byte big-endian length || codec bytes``.  The first
frame on every connection is a hello carrying the dialer's id, another
peer's or -1 for a client; deployments that need authenticated channels
should wrap the socket in TLS with per-replica certificates.

Frames are parsed where the socket read lands.  Each inbound connection
is an :class:`InboundConnection` (an ``asyncio.Protocol``): its
``data_received`` cuts the read into frames with the one
:class:`FrameSplitter` and decodes each.  A client connection (hello -1)
carries nothing but transactions, so each of its frames is decoded as
:data:`CLIENT_TX` (anything else on it is a bad frame) and added to the
mempool right there, inside the read.  Every other frame of the read goes
to ``replica.handle`` on the loop's next turn, through one ``call_soon``:
the turn a reader task woken by that read would have run it in, so
consensus handlers run in the order they always did.  What changes is
that every transaction read in a turn is in the pool before any handler
of the next builds a proposal from it.  With a reader task per
connection, the vote that completed a leader's certificate could be
handled ahead of a transaction read in the same turn, and the proposal it
triggered left that transaction for the next block.  On
``tcp_schnorr_small`` (real Schnorr: one turn can hold several 12–14 ms
signature operations) this rule cut the median queue wait (submission to
the proposal that carries a transaction) from 318 to 204 ms and the
commit p50 from 500 to 379 ms, at the same block rate and block fill.
Handling the peer frames inside the read as well is the variant to
avoid: it lets followers' work run ahead of the leader's certificate
(DESIGN.md, Performance item 6).

A node keeps the cyclic collector off its committed history from
:meth:`AsyncReplicaNode.start` to :meth:`AsyncReplicaNode.stop`: each
commit freezes the heap and ``stop()`` thaws it, first thing, so a node
that stopped leaves nothing frozen
(:func:`~repro.consensus.ledger.freeze_history`).  The one cyclic
garbage a node makes is a closed connection: CPython's socket transport
keeps a bound method of itself.  A frozen heap would hold each one until
``stop()``, so every :data:`CLOSED_PER_RECLAIM` connections that end,
inbound or dialed, the heap is thawed and collected once
(:func:`~repro.consensus.ledger.reclaim`).
"""

from __future__ import annotations

import asyncio
import random
import struct
from collections import deque
from typing import Callable, Deque, Dict, Iterator, List, Optional, Set, Tuple, Union

from ..codec import decode, encode_cached
from ..consensus.ledger import freeze_history, reclaim
from ..consensus.replica import BaseReplica
from ..errors import CodecError, MempoolError, TransportError
from ..obs.metrics import MetricsRegistry
from ..obs.wire import WireAccountant
from ..types.transaction import Transaction

#: Maximum accepted frame size (defensive bound, 64 MiB).
MAX_FRAME = 64 * 1024 * 1024

#: Most a :class:`FrameReader` asks its stream for at once.
READ_CHUNK = 64 * 1024

#: The one frame a client sends: a transaction for the mempool.  Also the
#: shape every frame on a client connection is decoded as.
CLIENT_TX = ("client-tx", Transaction)

_frame_length = struct.Struct(">I").unpack_from

#: First dial retry delay; doubles per attempt up to the cap.
DIAL_BACKOFF_BASE = 0.05
DIAL_BACKOFF_CAP = 2.0

#: Connections ended per full collection of a frozen heap: bounds what
#: short-lived client connections or a flapping peer leave behind (~0.6 KB
#: each) to ~0.6 MB, at one full pass per thousand connections.
CLOSED_PER_RECLAIM = 1024

#: Frames buffered per disconnected peer before drop-oldest kicks in.
#: Sized for a few epochs of consensus traffic — enough to bridge a
#: restart, small enough that a long-dead peer cannot exhaust memory.
OUTBOUND_QUEUE_LIMIT = 512


def backoff_delay(
    attempt: int,
    base: float = DIAL_BACKOFF_BASE,
    cap: float = DIAL_BACKOFF_CAP,
    rng: Optional[random.Random] = None,
) -> float:
    """Capped exponential backoff with equal jitter.

    Returns a delay drawn uniformly from ``[ceiling/2, ceiling]`` where
    ``ceiling = min(cap, base * 2**attempt)`` — the jitter de-synchronizes
    a cluster of replicas all redialing the same restarted peer.  Pure
    given an ``rng``; falls back to the module-level generator otherwise.
    """
    if attempt < 0:
        raise ValueError(f"attempt must be non-negative: {attempt}")
    # Cap the exponent too: 2**attempt overflows float range fast.
    ceiling = cap if attempt >= 64 else min(cap, base * (2 ** attempt))
    draw = rng.random() if rng is not None else random.random()
    return ceiling * (0.5 + 0.5 * draw)


def encode_frame(msg: object) -> bytes:
    # encode_cached memoizes the codec bytes on the message object, so a
    # broadcast encodes once rather than once per peer connection.
    payload = encode_cached(msg)
    if len(payload) > MAX_FRAME:
        raise TransportError(f"frame of {len(payload)} bytes exceeds limit")
    return struct.pack(">I", len(payload)) + payload


class FrameSplitter:
    """The one framing rule: a connection's bytes, in whatever reads they
    come, cut into frames.

    :meth:`feed` takes one read and yields each frame it completes, without
    its length prefix, in order.  A frame is sliced out of its read (one
    copy, frame-sized) so that nothing decoded from it keeps the whole read
    alive; one that spans reads is gathered as the reads themselves and
    joined once, when its last byte comes.  A length above
    :data:`MAX_FRAME` raises ``TransportError`` at its 4-byte prefix,
    before any of the body is held, and after every frame ahead of it.
    """

    __slots__ = ("_tail", "_parts", "need")

    def __init__(self) -> None:
        #: The start of a length prefix the last read cut off.
        self._tail = b""
        #: The body so far of the frame that overran the last read.
        self._parts: List[bytes] = []
        #: Bytes still to come of that frame; 0 between frames.
        self.need = 0

    def feed(self, data: bytes) -> Iterator[bytes]:
        """The frames ``data`` completes.  Lazy: the cut advances as the
        frames are taken, so take them all (or stop on the exception)."""
        pos = 0
        need = self.need
        if need:
            if len(data) < need:
                self._parts.append(data)
                self.need = need - len(data)
                return
            parts, self._parts, self.need = self._parts, [], 0
            parts.append(data[:need])
            pos = need
            yield b"".join(parts)
        elif self._tail:
            data, self._tail = self._tail + data, b""
        end = len(data)
        while end - pos >= 4:
            (length,) = _frame_length(data, pos)
            if length > MAX_FRAME:
                raise TransportError(f"incoming frame of {length} bytes exceeds limit")
            start = pos + 4
            pos = start + length
            if pos > end:
                self._parts = [data[start:]]
                self.need = pos - end
                return
            yield data[start:pos]
        self._tail = data[pos:]


class FrameReader:
    """The frames of an ``asyncio.StreamReader``, cut by :class:`FrameSplitter`.

    For code that reads a stream itself, as a stand-in peer or a tool does;
    a node's own connections feed the same splitter from
    :class:`InboundConnection`.  Asks the stream for whatever has arrived,
    up to :data:`READ_CHUNK`, and for the rest of a frame that overran it
    in one ``readexactly``, so the next read starts on a frame boundary.
    """

    __slots__ = ("_stream", "_splitter", "_cut")

    def __init__(self, stream: asyncio.StreamReader) -> None:
        self._stream = stream
        self._splitter = FrameSplitter()
        self._cut: Iterator[bytes] = iter(())

    def buffered_frame(self) -> Optional[bytes]:
        """The next frame the reads so far complete, or ``None``."""
        return next(self._cut, None)

    async def next_frame(self) -> bytes:
        """The next frame, reading the stream if the reads so far do not
        complete one; ``asyncio.IncompleteReadError`` when it ends first."""
        while True:
            frame = next(self._cut, None)
            if frame is not None:
                return frame
            need = self._splitter.need
            if need:
                chunk = await self._stream.readexactly(need)
            else:
                chunk = await self._stream.read(READ_CHUNK)
                if not chunk:
                    raise asyncio.IncompleteReadError(b"", None)
            self._cut = self._splitter.feed(chunk)


async def read_frame(frames: FrameReader, shape: Optional[tuple] = None) -> object:
    """The next frame of ``frames``, decoded (as ``shape``, if given: see
    :func:`repro.codec.decode`).  A frame already buffered is taken without
    awaiting anything."""
    frame = frames.buffered_frame()
    if frame is None:
        frame = await frames.next_frame()
    return decode(frame, shape)


class InboundConnection(asyncio.Protocol):
    """One connection dialed into a node: its frames handled where each
    socket read lands.

    The first frame is the dialer's hello.  Then each read is cut into
    frames (:class:`FrameSplitter`) and every frame is decoded right away,
    as :data:`CLIENT_TX` on a client's link.  A transaction goes into the
    mempool inside the read; every other frame of the read goes to
    ``replica.handle`` on the loop's next turn, in one ``call_soon``.  A
    frame that does not decode, a bad hello or an oversized length closes
    the link (``transport/bad_frames_total``); the frames ahead of it in
    the read are still pooled or handled.
    """

    __slots__ = ("_node", "_frames", "_transport", "_src", "_shape")

    def __init__(self, node: "AsyncReplicaNode") -> None:
        self._node = node
        self._frames = FrameSplitter()
        self._transport: Optional[asyncio.BaseTransport] = None
        #: The dialer's id, -1 for a client; None until its hello.
        self._src: Optional[int] = None
        #: What its frames are decoded as: :data:`CLIENT_TX` or anything.
        self._shape: Optional[tuple] = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport
        self._node._inbound.add(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._node._inbound.discard(self)
        self._node._connection_closed()

    def close(self) -> None:
        assert self._transport is not None
        self._transport.close()

    def data_received(self, data: bytes) -> None:
        node = self._node
        if node._stopped:
            return
        replica = node.replica
        shape = self._shape
        consensus: List[object] = []
        try:
            for frame in self._frames.feed(data):
                if self._src is None:
                    self._greet(frame)
                    shape = self._shape
                    continue
                msg = decode(frame, shape)
                if shape is None:  # a peer's link: consensus, or a stray transaction
                    if not (isinstance(msg, tuple) and msg and msg[0] == "client-tx"):
                        consensus.append(msg)
                        continue
                    if len(msg) != 2 or not isinstance(msg[1], Transaction):
                        raise TransportError("malformed client-tx frame")
                try:
                    replica.mempool.add(msg[1])
                except MempoolError:
                    # Pool full: shed the transaction, keep the link — it
                    # may be a peer's and carry consensus traffic too.
                    if node.metrics is not None:
                        node.metrics.counter("transport/mempool_rejects_total").inc()
        except (CodecError, TransportError):
            # Undecodable, oversized, or not what it claims to be.  Nothing
            # behind a bad frame can be trusted to be framed at all, so the
            # connection goes; an honest peer redials, the others' links
            # are untouched.
            if node.metrics is not None:
                node.metrics.counter("transport/bad_frames_total").inc()
            self.close()
        if consensus:
            node.loop.call_soon(node._deliver, self._src, consensus)

    def _greet(self, frame: bytes) -> None:
        hello = decode(frame)
        if not (
            isinstance(hello, tuple)
            and len(hello) == 2
            and hello[0] == "hello"
            and isinstance(hello[1], int)
        ):
            raise TransportError("peer did not identify itself")
        src = hello[1]
        node = self._node
        # Our own copies never touch a socket: only a peer or a client dials.
        if src != -1 and (src == node.replica.replica_id or src not in node.peers):
            raise TransportError(f"hello from impossible id {src}")
        # A client's frames are each read as a transaction, so any other
        # frame on its link fails to decode; a peer's may be either.
        self._src = src
        self._shape = CLIENT_TX if src == -1 else None


class AsyncioContext:
    """The :class:`~repro.consensus.context.Context` over an event loop."""

    def __init__(self, node: "AsyncReplicaNode") -> None:
        self._node = node
        self.node_id = node.replica.replica_id
        self.n = node.n
        self._everyone = tuple(range(self.n))
        self._peers = tuple(dst for dst in self._everyone if dst != self.node_id)

    @property
    def now(self) -> float:
        return self._node.loop.time()

    def send(self, dst: Union[int, Tuple[int, ...]], msg: object) -> None:
        self._node.send(dst, msg)

    def broadcast(self, msg: object, include_self: bool = True) -> None:
        self._node.send(self._everyone if include_self else self._peers, msg)

    def set_timer(self, delay: float, tag: str, payload: object = None):
        return self._node.loop.call_later(
            delay, self._node.replica.on_timer, tag, payload
        )

    def trace(self, kind: str) -> None:
        # A trace kind is counted, as the simulator's Trace does, so a
        # dropped forgery or an epoch change still shows in the registry.
        metrics = self._node.metrics
        if metrics is not None:
            metrics.counter(f"trace/{kind}").inc()


class AsyncReplicaNode:
    """Hosts one replica on real sockets.

    A refused or late peer never fails startup: dialing runs in
    background tasks with capped exponential backoff (:func:`backoff_delay`),
    and frames sent to a disconnected peer are buffered in a bounded
    per-peer queue (oldest dropped on overflow — consensus messages age
    out; the protocol's timers resend what still matters) and flushed in
    order once the connection lands.

    Args:
        replica: the (already constructed) replica instance.
        peers: replica id → (host, port) for every cluster member,
            including this one (its entry is the listen address).
        outbound_limit: per-peer buffered-frame cap while disconnected.
        metrics: optional registry receiving transport health counters —
            per-peer drop-oldest queue drops (``transport/queue_drops/…``),
            dial/reconnect attempts (``transport/reconnects/…``), a
            per-peer outbound queue-depth gauge, inbound connections
            closed on a malformed frame (``transport/bad_frames_total``),
            messages dropped because no frame can carry them
            (``transport/unsendable_total``),
            client transactions shed by a full mempool
            (``transport/mempool_rejects_total``) and every event the
            replica counts (``BaseReplica.event``), by kind
            (``trace/verification_failed``, ``trace/epoch_change``, …).
            ``None`` keeps every site a single attribute test.
        wire: optional :class:`~repro.obs.wire.WireAccountant` tapping
            every :meth:`send` once, for all the peers the frame goes to
            (codec bytes, excluding the 4-byte length prefix, matching
            the simulator's sizing).
    """

    def __init__(
        self,
        replica: BaseReplica,
        peers: Dict[int, Tuple[str, int]],
        outbound_limit: int = OUTBOUND_QUEUE_LIMIT,
        metrics: Optional[MetricsRegistry] = None,
        wire: Optional[WireAccountant] = None,
    ) -> None:
        self.replica = replica
        self.peers = dict(peers)
        self.n = len(peers)
        self.metrics = metrics
        self.wire = wire
        self.loop: asyncio.AbstractEventLoop = None  # type: ignore[assignment]
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: Dict[int, asyncio.StreamWriter] = {}
        #: The inbound connections that are open right now.
        self._inbound: Set[InboundConnection] = set()
        self._dial_tasks: Dict[int, asyncio.Task] = {}
        self._outbound: Dict[int, Deque[bytes]] = {}
        self.outbound_limit = outbound_limit
        #: Per-peer count of frames discarded by drop-oldest overflow.
        self.dropped: Dict[int, int] = {}
        self._stopped = False
        #: Ends the heap freeze :meth:`start` began; None until then.
        self._thaw: Optional[Callable[[], None]] = None
        #: Connections ended so far, inbound or dialed (:meth:`_connection_closed`).
        self._closed = 0

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        """Listen, start dialing every peer, then start the protocol.

        Does not wait for peers: unreachable ones keep being redialed in
        the background while the protocol runs (their traffic queues).
        """
        self.loop = asyncio.get_running_loop()
        host, port = self.peers[self.replica.replica_id]
        self._server = await self.loop.create_server(
            lambda: InboundConnection(self), host, port
        )
        for peer_id in self.peers:
            if peer_id != self.replica.replica_id:
                self._ensure_dialing(peer_id)
        self.replica.bind(AsyncioContext(self))
        self._thaw = freeze_history([self.replica.ledger])
        self.replica.on_start()

    def _ensure_dialing(self, peer_id: int) -> None:
        """Start a dial task for ``peer_id`` unless one is already running."""
        task = self._dial_tasks.get(peer_id)
        if task is not None and not task.done():
            return
        if task is not None:
            self._connection_closed()  # the link that dial made has died
        self._dial_tasks[peer_id] = self.loop.create_task(self._dial_loop(peer_id))

    async def _dial_loop(self, peer_id: int) -> None:
        host, port = self.peers[peer_id]
        attempt = 0
        while not self._stopped:
            if self.metrics is not None:
                self.metrics.counter(f"transport/reconnects/peer_{peer_id}").inc()
                self.metrics.counter("transport/reconnects_total").inc()
            try:
                _, writer = await asyncio.open_connection(host, port)
                writer.write(encode_frame(("hello", self.replica.replica_id)))
            except OSError:
                await asyncio.sleep(backoff_delay(attempt))
                attempt += 1
                continue
            self._writers[peer_id] = writer
            self._flush_outbound(peer_id, writer)
            return

    def _flush_outbound(self, peer_id: int, writer: asyncio.StreamWriter) -> None:
        queue = self._outbound.get(peer_id)
        if not queue:
            return
        try:
            while queue:
                writer.write(queue.popleft())
        except (ConnectionResetError, RuntimeError):
            # Connection died mid-flush; what remains stays queued for
            # the next dial (the written prefix is lost, as any
            # in-flight frame would be).
            self._writers.pop(peer_id, None)
            self._ensure_dialing(peer_id)

    def _connection_closed(self) -> None:
        """Count a connection that ended: every :data:`CLOSED_PER_RECLAIM`
        of them, collect the cycles they left in the frozen heap."""
        self._closed += 1
        if self._closed % CLOSED_PER_RECLAIM == 0:
            reclaim()

    async def stop(self) -> None:
        self._stopped = True
        if self._thaw is not None:
            self._thaw()
        for connection in self._inbound:
            connection.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in self._dial_tasks.values():
            task.cancel()
        for writer in self._writers.values():
            writer.close()

    # -- receiving ------------------------------------------------------------

    def _deliver(self, src: int, msgs: List[object]) -> None:
        """Hand one read's consensus frames to the replica, in order
        (:class:`InboundConnection` calls this on the loop's next turn)."""
        if self._stopped:
            return
        handle = self.replica.handle
        for msg in msgs:
            handle(src, msg)

    # -- sending ------------------------------------------------------------

    def send(self, dst: Union[int, Tuple[int, ...]], msg: object) -> None:
        """Offer ``msg`` to one replica id or to a tuple of (distinct) ids.

        However many destinations, the message is framed once and
        accounted once, with the accountant's tap in the same shape the
        simulator gives it.  This node's own copy never touches a socket
        and is not accounted.  A message that does not encode, or whose
        frame would exceed :data:`MAX_FRAME`, is dropped, counted under
        ``transport/unsendable_total`` and not accounted: a send never
        raises into the handler that made it.
        """
        me = self.replica.replica_id
        peers = dst if type(dst) is tuple else (dst,)
        if me in peers:
            # Loopback: schedule soon, preserving handler non-reentrancy.
            self.loop.call_soon(self.replica.handle, me, msg)
            peers = tuple(peer for peer in peers if peer != me)
        if not peers:
            return
        try:
            frame = encode_frame(msg)
        except (CodecError, TransportError):
            if self.metrics is not None:
                self.metrics.counter("transport/unsendable_total").inc()
            return
        if self.wire is not None:
            # Codec bytes only (the 4-byte length prefix is framing
            # overhead) — the same sizing the simulator accounts, so
            # simulated and real byte profiles compare directly.
            self.wire.account(me, peers, msg, len(frame) - 4)
        for peer in peers:
            self._write(peer, frame)

    def _write(self, dst: int, frame: bytes) -> None:
        writer = self._writers.get(dst)
        if writer is None or writer.is_closing():
            self._enqueue(dst, frame)
            self._ensure_dialing(dst)
            return
        try:
            writer.write(frame)
        except (ConnectionResetError, RuntimeError):
            self._writers.pop(dst, None)
            self._enqueue(dst, frame)
            self._ensure_dialing(dst)

    def _enqueue(self, dst: int, frame: bytes) -> None:
        queue = self._outbound.get(dst)
        if queue is None:
            queue = self._outbound[dst] = deque(maxlen=self.outbound_limit)
        if len(queue) == queue.maxlen:
            self.dropped[dst] = self.dropped.get(dst, 0) + 1
            if self.metrics is not None:
                self.metrics.counter(f"transport/queue_drops/peer_{dst}").inc()
                self.metrics.counter("transport/queue_drops_total").inc()
        queue.append(frame)  # deque(maxlen=...) evicts the oldest
        if self.metrics is not None:
            self.metrics.gauge(f"transport/queue_depth/peer_{dst}").set(len(queue))


def local_peer_map(n: int, base_port: int = 39000, host: str = "127.0.0.1") -> Dict[int, Tuple[str, int]]:
    """Peer map for an all-localhost cluster."""
    return {i: (host, base_port + i) for i in range(n)}


async def submit_transaction(peer: Tuple[str, int], *txs: object) -> None:
    """Submit transactions over one short-lived client connection, closed
    before this returns: one connection per call, however many it carries."""
    _, writer = await asyncio.open_connection(*peer)
    writer.write(encode_frame(("hello", -1)))  # -1: a client, not a replica
    for tx in txs:
        writer.write(encode_frame(("client-tx", tx)))
    await writer.drain()
    writer.close()
    await writer.wait_closed()
