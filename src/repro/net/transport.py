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

Receiving is buffered per connection (:class:`FrameReader`): one socket
read brings in whatever has arrived, up to :data:`READ_CHUNK`, and frames
are handed out of that chunk one :func:`read_frame` call at a time, so a
burst of small frames costs one trip through the event loop, not two per
frame.  A client connection (hello -1) carries nothing but transactions,
so each of its frames is decoded as :data:`CLIENT_TX` and anything else
on it is a bad frame.

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
from typing import Callable, Deque, Dict, Optional, Set, Tuple, Union

from ..codec import decode, encode_cached
from ..consensus.ledger import freeze_history, reclaim
from ..consensus.replica import BaseReplica
from ..errors import CodecError, MempoolError, TransportError
from ..obs.metrics import MetricsRegistry
from ..obs.wire import WireAccountant
from ..types.transaction import Transaction

#: Maximum accepted frame size (defensive bound, 64 MiB).
MAX_FRAME = 64 * 1024 * 1024

#: Most a :class:`FrameReader` asks the socket for at once.
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


class FrameReader:
    """The frames of one connection, read from it a chunk at a time.

    Holds what the last socket read brought in beyond the frames already
    handed out.  A frame is sliced out of the chunk (one copy, frame-sized)
    so that nothing decoded from it keeps the whole chunk alive.
    """

    __slots__ = ("_stream", "_data", "_pos")

    def __init__(self, stream: asyncio.StreamReader) -> None:
        self._stream = stream
        self._data = b""
        self._pos = 0

    def buffered_frame(self) -> Optional[bytes]:
        """The next frame's bytes, without its length prefix, if the last
        read brought all of them in; else ``None``, consuming nothing."""
        data, pos = self._data, self._pos
        if len(data) - pos < 4:
            return None
        start = pos + 4
        stop = start + _frame_length(data, pos)[0]
        if stop < len(data):
            self._pos = stop
            return data[start:stop]
        if stop == len(data):
            self._data, self._pos = b"", 0  # this frame uses the chunk up
            return data[start:]
        return None

    async def next_frame(self) -> bytes:
        """The next frame's bytes, without its length prefix.

        Does not suspend when a whole frame is already buffered.  Raises
        ``TransportError`` for a frame announced larger than
        :data:`MAX_FRAME`, before reading any more of it, and
        ``asyncio.IncompleteReadError`` when the stream ends first.
        """
        while True:
            frame = self.buffered_frame()
            if frame is not None:
                return frame
            data, pos = self._data, self._pos
            if len(data) - pos >= 4:
                break  # a frame that overruns the chunk
            chunk = await self._stream.read(READ_CHUNK)
            if not chunk:
                raise asyncio.IncompleteReadError(data[pos:], 4)
            self._data, self._pos = data[pos:] + chunk, 0
        (length,) = _frame_length(data, pos)
        if length > MAX_FRAME:
            raise TransportError(f"incoming frame of {length} bytes exceeds limit")
        # The rest of the frame, however large, in one read; the next chunk
        # then starts on a frame boundary.
        self._data, self._pos = b"", 0
        return data[pos + 4 :] + await self._stream.readexactly(pos + 4 + length - len(data))


async def read_frame(frames: FrameReader, shape: Optional[tuple] = None) -> object:
    """The next frame of ``frames``, decoded (as ``shape``, if given: see
    :func:`repro.codec.decode`).  A frame already buffered is taken without
    awaiting anything."""
    frame = frames.buffered_frame()
    if frame is None:
        frame = await frames.next_frame()
    return decode(frame, shape)


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
        #: Tasks of the inbound connections that are open right now.
        self._reader_tasks: Set[asyncio.Task] = set()
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
        self._server = await asyncio.start_server(self._on_connection, host, port)
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
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in self._reader_tasks:
            task.cancel()
        for task in self._dial_tasks.values():
            task.cancel()
        for writer in self._writers.values():
            writer.close()

    # -- receiving ------------------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._reader_tasks.add(task)
        frames = FrameReader(reader)
        try:
            hello = await read_frame(frames)
            if not (
                isinstance(hello, tuple)
                and len(hello) == 2
                and hello[0] == "hello"
                and isinstance(hello[1], int)
            ):
                raise TransportError("peer did not identify itself")
            src = hello[1]
            # Our own copies never touch a socket: only a peer or a client dials.
            if src != -1 and (src == self.replica.replica_id or src not in self.peers):
                raise TransportError(f"hello from impossible id {src}")
            # A client's frames are each read as a transaction, so any other
            # frame on its link fails to decode; a peer's may be either.
            shape = CLIENT_TX if src == -1 else None
            while not self._stopped:
                msg = await read_frame(frames, shape)
                if shape is None:
                    if not (isinstance(msg, tuple) and msg and msg[0] == "client-tx"):
                        self.replica.handle(src, msg)
                        continue
                    if len(msg) != 2 or not isinstance(msg[1], Transaction):
                        raise TransportError("malformed client-tx frame")
                # Client traffic: feed the mempool directly.
                try:
                    self.replica.mempool.add(msg[1])
                except MempoolError:
                    # Pool full: shed the transaction, keep the link —
                    # it may be a peer's and carry consensus traffic too.
                    if self.metrics is not None:
                        self.metrics.counter("transport/mempool_rejects_total").inc()
        except (CodecError, TransportError):
            # Undecodable, oversized, or not what it claims to be.  Nothing
            # behind a bad frame can be trusted to be framed at all, so the
            # connection goes; an honest peer redials, the others' links
            # are untouched.
            if self.metrics is not None:
                self.metrics.counter("transport/bad_frames_total").inc()
        except (asyncio.IncompleteReadError, ConnectionResetError, asyncio.CancelledError):
            pass
        finally:
            self._reader_tasks.discard(task)
            writer.close()
            self._connection_closed()

    # -- sending ------------------------------------------------------------

    def send(self, dst: Union[int, Tuple[int, ...]], msg: object) -> None:
        """Offer ``msg`` to one replica id or to a tuple of (distinct) ids.

        However many destinations, the message is framed once and
        accounted once, with the accountant's tap in the same shape the
        simulator gives it.  This node's own copy never touches a socket
        and is not accounted.
        """
        me = self.replica.replica_id
        peers = dst if type(dst) is tuple else (dst,)
        if me in peers:
            # Loopback: schedule soon, preserving handler non-reentrancy.
            self.loop.call_soon(self.replica.handle, me, msg)
            peers = tuple(peer for peer in peers if peer != me)
        if not peers:
            return
        frame = encode_frame(msg)
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
