"""Real asyncio TCP transport: framing and a live localhost cluster."""

from __future__ import annotations

import asyncio
import gc
import random
import socket
from typing import Dict, Optional, Tuple

import pytest

from repro.codec import decode, encode
from repro.config import ProtocolConfig
from repro.consensus.validators import ValidatorSet
from repro.core.protocol import AlterBFTReplica
from repro.crypto.keystore import build_cluster_keys
from repro.errors import CodecError, TransportError
from repro.net.transport import (
    MAX_FRAME,
    AsyncReplicaNode,
    FrameReader,
    backoff_delay,
    encode_frame,
    read_frame,
    submit_transaction,
)
from repro.types.transaction import make_transaction
from tests.test_codec import UNTYPED_BEFORE


def free_peer_map(n: int) -> Dict[int, Tuple[str, int]]:
    """A localhost peer map on ports the kernel picks: a rerun, or another
    suite on the same host, never finds one still taken."""
    sockets = [socket.socket() for _ in range(n)]
    try:
        for sock in sockets:
            sock.bind(("127.0.0.1", 0))
        return {i: sock.getsockname() for i, sock in enumerate(sockets)}
    finally:
        for sock in sockets:
            sock.close()


def make_replica(replica_id: int, n: int = 3, f: int = 1) -> AlterBFTReplica:
    signers = build_cluster_keys("hashsig", n)
    return AlterBFTReplica(
        replica_id,
        ValidatorSet.synchronous(n, f),
        ProtocolConfig(n=n, f=f, delta=0.02, epoch_timeout=2.0),
        signers[replica_id],
    )


class TestFraming:
    def test_roundtrip(self):
        frame = encode_frame(("hello", 3))
        assert int.from_bytes(frame[:4], "big") == len(frame) - 4
        assert decode(frame[4:]) == ("hello", 3)

    def test_oversized_rejected(self):
        import repro.net.transport as transport

        original = transport.MAX_FRAME
        transport.MAX_FRAME = 10
        try:
            with pytest.raises(TransportError):
                encode_frame(b"x" * 100)
        finally:
            transport.MAX_FRAME = original

    def test_read_frame(self):
        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame({"k": 1}))
            reader.feed_eof()
            return await read_frame(FrameReader(reader))

        assert asyncio.run(run()) == {"k": 1}

    def test_read_frame_size_limit(self):
        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data((2**31).to_bytes(4, "big") + b"xx")
            with pytest.raises(TransportError):
                await read_frame(FrameReader(reader))

        asyncio.run(run())


class _ScriptedStream:
    """What ``FrameReader`` needs of a ``StreamReader``: the data arrives in
    the scripted chunks, and every ask is recorded."""

    def __init__(self, chunks):
        self._chunks = list(chunks)
        self._buffer = bytearray()
        self.reads = []  # ("read" | "readexactly", n) in call order

    def _take(self, n: int) -> bytes:
        data = bytes(self._buffer[:n])
        del self._buffer[:n]
        return data

    async def read(self, n: int) -> bytes:
        self.reads.append(("read", n))
        if not self._buffer and self._chunks:
            self._buffer += self._chunks.pop(0)
        return self._take(n)  # b"" once everything has been handed out: EOF

    async def readexactly(self, n: int) -> bytes:
        self.reads.append(("readexactly", n))
        while len(self._buffer) < n and self._chunks:
            self._buffer += self._chunks.pop(0)
        if len(self._buffer) < n:
            raise asyncio.IncompleteReadError(self._take(n), n)
        return self._take(n)


async def _drain(stream, buffered_first: bool = False) -> list:
    """Every frame of ``stream`` in order; the terminal exception last.
    ``buffered_first`` takes each frame as ``read_frame`` does: out of the
    buffer when it is there, from ``next_frame`` when it is not."""
    frames = FrameReader(stream)
    out = []
    try:
        while True:
            frame = frames.buffered_frame() if buffered_first else None
            out.append(frame if frame is not None else await frames.next_frame())
    except (asyncio.IncompleteReadError, TransportError) as exc:
        out.append(exc)
    return out


class TestFrameReader:
    @staticmethod
    def _mixed_frames(rng: random.Random) -> list:
        sizes = [5, 1, 4, 1060, 3, 70_000, 1060, 1060, 300 * 1024, 9, 65_532, 65_536, 2, 131_072]
        sizes += [rng.choice((1, 7, 40, 1060, 5000)) for _ in range(60)]
        return [rng.randbytes(size) for size in sizes]

    def test_any_chunking_yields_the_same_frames(self):
        """Cut at every offset of the first 2 KiB, then at random offsets."""
        rng = random.Random(5)
        bodies = self._mixed_frames(rng)
        stream = b"".join(len(body).to_bytes(4, "big") + body for body in bodies)

        async def run():
            for first in list(range(1, 2049)) + [len(stream)]:
                cuts = {first}
                if first % 64 == 0:  # a sample of them also gets ragged tails
                    cuts |= {rng.randrange(first, len(stream)) for _ in range(rng.randrange(1, 40))}
                edges = [0, *sorted(cuts), len(stream)]
                chunks = [stream[a:b] for a, b in zip(edges, edges[1:]) if a < b]
                *frames, end = await _drain(_ScriptedStream(chunks))
                assert frames == bodies, f"first cut at {first}"
                assert isinstance(end, asyncio.IncompleteReadError) and end.partial == b""

        asyncio.run(run())

    def test_taking_buffered_frames_first_changes_no_frame_and_no_read(self):
        """``read_frame``'s order — the buffer, then ``next_frame`` — yields
        the frames ``next_frame`` alone does, from the same socket reads."""
        rng = random.Random(6)
        bodies = self._mixed_frames(rng)
        stream = b"".join(len(body).to_bytes(4, "big") + body for body in bodies)

        async def run():
            for _ in range(40):
                cuts = sorted({rng.randrange(1, len(stream)) for _ in range(rng.randrange(1, 60))})
                edges = [0, *cuts, len(stream)]
                chunks = [stream[a:b] for a, b in zip(edges, edges[1:]) if a < b]
                plain, buffered = _ScriptedStream(chunks), _ScriptedStream(chunks)
                *frames, end = await _drain(buffered, buffered_first=True)
                assert frames == bodies and isinstance(end, asyncio.IncompleteReadError)
                *plain_frames, _ = await _drain(plain)
                assert plain_frames == frames and buffered.reads == plain.reads

        asyncio.run(run())

    def test_buffered_frames_cost_no_reads(self):
        """One socket read serves every frame it contains; only the remainder
        of a frame that overruns the chunk is read exactly."""
        small = [bytes([i]) * 100 for i in range(50)]
        big = b"B" * 200_000
        stream = b"".join(len(b).to_bytes(4, "big") + b for b in small + [big] + small)

        async def run():
            source = _ScriptedStream([stream[:70_000], stream[70_000:]])
            *frames, _ = await _drain(source)
            assert frames == small + [big] + small
            return source.reads

        reads = asyncio.run(run())
        head = 50 * 104
        assert reads[0] == ("read", 64 * 1024)
        assert reads[1] == ("readexactly", head + 4 + len(big) - 64 * 1024)
        assert all(kind == "read" for kind, _ in reads[2:]) and len(reads) <= 5

    def test_oversized_announcement_raises_before_its_body_is_read(self):
        async def run():
            source = _ScriptedStream([(MAX_FRAME + 1).to_bytes(4, "big"), b"x" * 1000])
            (end,) = await _drain(source)
            assert isinstance(end, TransportError)
            assert source.reads == [("read", 64 * 1024)]
            # Exactly at the limit is not refused (the body simply never comes).
            source = _ScriptedStream([MAX_FRAME.to_bytes(4, "big")])
            (end,) = await _drain(source)
            assert isinstance(end, asyncio.IncompleteReadError)

        asyncio.run(run())

    @pytest.mark.parametrize(
        "tail",
        [
            pytest.param(b"", id="clean"),
            pytest.param(b"\x00\x00", id="inside-length-prefix"),
            pytest.param(b"\x00\x00\x00\x09abc", id="inside-body"),
            pytest.param((100_000).to_bytes(4, "big") + b"abc", id="inside-large-body"),
        ],
    )
    def test_eof_is_an_incomplete_read(self, tail):
        good = encode_frame(("hello", 3))

        async def run():
            for chunks in ([good + tail], [good, tail], [good + tail[:1], tail[1:]]):
                *frames, end = await _drain(_ScriptedStream([c for c in chunks if c]))
                assert [decode(f) for f in frames] == [("hello", 3)]
                assert isinstance(end, asyncio.IncompleteReadError)

        asyncio.run(run())

    def test_zero_length_frame_is_a_codec_error(self):
        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data(b"\x00\x00\x00\x00" + encode_frame(1))
            frames = FrameReader(reader)
            with pytest.raises(CodecError):
                await read_frame(frames)
            assert await read_frame(frames) == 1  # the reader itself is not confused

        asyncio.run(run())


class TestBackoff:
    def test_deterministic_given_rng(self):
        assert backoff_delay(3, rng=random.Random(42)) == backoff_delay(
            3, rng=random.Random(42)
        )

    def test_doubles_then_caps_with_jitter_in_range(self):
        rng = random.Random(7)
        for attempt in range(12):
            ceiling = min(2.0, 0.05 * 2**attempt)
            delay = backoff_delay(attempt, base=0.05, cap=2.0, rng=rng)
            assert ceiling / 2 <= delay <= ceiling

    def test_huge_attempt_does_not_overflow(self):
        assert backoff_delay(10_000, cap=2.0, rng=random.Random(1)) <= 2.0

    def test_negative_attempt_rejected(self):
        with pytest.raises(ValueError):
            backoff_delay(-1)


class TestOutboundQueue:
    def test_drop_oldest_on_overflow(self):
        peers = free_peer_map(2)
        node = AsyncReplicaNode(make_replica(0), peers, outbound_limit=2)
        for i in range(5):
            node._enqueue(1, bytes([i]))
        assert list(node._outbound[1]) == [bytes([3]), bytes([4])]
        assert node.dropped[1] == 3

    def test_drop_and_depth_metrics(self):
        """Drop-oldest overflow and queue depth surface in the metrics
        registry, not just the legacy ``dropped`` dict."""
        from repro.obs.metrics import MetricsRegistry

        peers = free_peer_map(2)
        registry = MetricsRegistry()
        node = AsyncReplicaNode(
            make_replica(0), peers, outbound_limit=2, metrics=registry
        )
        for i in range(5):
            node._enqueue(1, bytes([i]))
        assert registry.counter("transport/queue_drops/peer_1").value == 3
        assert registry.counter("transport/queue_drops_total").value == 3
        assert registry.gauge("transport/queue_depth/peer_1").value == 2

    def test_metrics_optional(self):
        """No registry attached: the hot path stays a single attribute
        test and only the legacy dict records drops."""
        peers = free_peer_map(2)
        node = AsyncReplicaNode(make_replica(0), peers, outbound_limit=1)
        node._enqueue(1, b"a")
        node._enqueue(1, b"b")
        assert node.metrics is None
        assert node.dropped[1] == 1

    def test_start_tolerates_unreachable_peers(self):
        """Refused peers no longer fail startup: dialing retries in the
        background while the protocol runs."""
        from repro.obs.metrics import MetricsRegistry

        async def run():
            peers = free_peer_map(3)
            registry = MetricsRegistry()
            node = AsyncReplicaNode(make_replica(0), peers, metrics=registry)
            await node.start()  # peers 1 and 2 are not listening
            assert node._writers == {}
            await asyncio.sleep(0.05)
            await node.stop()
            # Each unreachable peer was dialed at least once, and every
            # attempt is on the books.
            assert registry.counter("transport/reconnects/peer_1").value >= 1
            assert registry.counter("transport/reconnects/peer_2").value >= 1
            assert registry.counter("transport/reconnects_total").value >= 2

        asyncio.run(run())

    def test_wire_accountant_taps_codec_bytes(self):
        """The real transport accounts codec bytes (length prefix
        excluded), so real and simulated byte profiles compare directly."""
        from repro.net.transport import encode_frame
        from repro.obs.wire import WireAccountant

        async def run():
            peers = free_peer_map(2)
            wire = WireAccountant(small_threshold=4096)
            node = AsyncReplicaNode(make_replica(0), peers, wire=wire)
            node.loop = asyncio.get_running_loop()
            msg = ("queued", 42)
            node.send(1, msg)  # peer not listening: queued, still accounted
            assert wire.bytes_total == len(encode_frame(msg)) - 4
            assert wire.link_bytes[(0, 1)] == wire.bytes_total
            # Loopback delivery never hits the wire and is not accounted.
            node.send(0, msg)
            assert wire.msgs_total == 1
            await node.stop()

        asyncio.run(run())

    def test_late_peer_receives_queued_frames_in_order(self):
        """Frames sent before the peer exists queue up and flush once the
        background dialer connects."""

        async def run():
            peers = free_peer_map(2)
            node = AsyncReplicaNode(make_replica(0), peers, outbound_limit=64)
            node.loop = asyncio.get_running_loop()
            for i in range(3):
                node.send(1, ("queued", i))
            assert len(node._outbound[1]) == 3

            received = []

            async def on_connection(reader, writer):
                frames = FrameReader(reader)
                try:
                    while True:
                        received.append(await read_frame(frames))
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    pass

            server = await asyncio.start_server(on_connection, *peers[1])
            try:
                for _ in range(100):
                    await asyncio.sleep(0.05)
                    if len(received) >= 4:
                        break
            finally:
                await node.stop()
                server.close()
                await server.wait_closed()
            assert received[0] == ("hello", 0)
            assert received[1:4] == [("queued", 0), ("queued", 1), ("queued", 2)]
            assert not node._outbound[1]

        asyncio.run(run())


class TestReaderTasks:
    def test_only_open_connections_are_held(self):
        """``submit_transaction`` opens a connection per transaction: a
        replica fed by it must not keep a finished task for each."""

        async def run():
            peers = free_peer_map(3)
            replica = make_replica(2)  # not the first leader: nothing leaves the pool
            node = AsyncReplicaNode(replica, peers)
            await node.start()
            try:
                for seq in range(200):
                    await submit_transaction(peers[2], make_transaction(7, seq, 0.0, 16))
                _, open_writer = await asyncio.open_connection(*peers[2])
                open_writer.write(encode_frame(("hello", 0)))
                for _ in range(500):
                    await asyncio.sleep(0.01)
                    if len(replica.mempool) == 200 and len(node._reader_tasks) == 1:
                        break
                assert len(replica.mempool) == 200
                (live,) = node._reader_tasks
                assert not live.done()
            finally:
                await node.stop()
            await asyncio.sleep(0.05)
            assert live.done(), "stop() cancels a connection that is still open"
            assert node._reader_tasks == set()
            open_writer.close()

        asyncio.run(run())

    def test_one_call_is_one_connection(self):
        """``submit_transaction(peer, *txs)`` sends every transaction it is
        given over one connection: each call ends exactly one of the
        node's connections, whether it carries 1 transaction or 16."""

        async def run():
            peers = free_peer_map(3)
            replica = make_replica(2)  # not the first leader: nothing leaves the pool
            node = AsyncReplicaNode(replica, peers)
            await node.start()
            submitted = 0
            try:
                for count in (1, 4, 16):
                    closed = node._closed
                    txs = [make_transaction(7, submitted + i, 0.0, 16) for i in range(count)]
                    submitted += count
                    await submit_transaction(peers[2], *txs)
                    for _ in range(500):
                        if node._closed > closed and len(replica.mempool) == submitted:
                            break
                        await asyncio.sleep(0.01)
                    await asyncio.sleep(0.05)
                    assert node._closed == closed + 1
                    assert len(replica.mempool) == submitted
            finally:
                await node.stop()

        asyncio.run(run())


def _on_both_links(cases):
    """Each case as sent on a peer's link (hello 1, its id as it was) and on
    a client's (hello -1), whose frames are all read as a transaction."""
    return [pytest.param(*case.values, 1, id=case.id) for case in cases] + [
        pytest.param(*case.values, -1, id=f"client-link-{case.id}") for case in cases
    ]


class TestBadFrames:
    """One bad frame costs its sender the connection and nobody else anything."""

    @staticmethod
    def _raw(payload: bytes) -> bytes:
        return len(payload).to_bytes(4, "big") + payload

    def _drive(self, bad_frame: bytes, hello: Optional[int] = 1):
        """Send ``bad_frame`` on a link that said hello as ``hello`` (peer 1
        by default, -1 for a client, ``None`` for no hello), then a
        transaction as peer 2.

        Returns (peer 1's link was closed, bad_frames_total, mempool size,
        contexts passed to the loop's exception handler).
        """
        from repro.obs.metrics import MetricsRegistry

        async def run():
            loop = asyncio.get_running_loop()
            unhandled = []
            loop.set_exception_handler(lambda _loop, context: unhandled.append(context))
            peers = free_peer_map(3)
            registry = MetricsRegistry()
            node = AsyncReplicaNode(make_replica(0), peers, metrics=registry)
            await node.start()
            try:
                bad_reader, bad_writer = await asyncio.open_connection(*peers[0])
                _, good_writer = await asyncio.open_connection(*peers[0])
                good_writer.write(encode_frame(("hello", 2)))
                if hello is not None:
                    bad_writer.write(encode_frame(("hello", hello)))
                bad_writer.write(bad_frame)
                # The node hangs up on peer 1: EOF, not a timeout.
                closed = await asyncio.wait_for(bad_reader.read(), timeout=5.0) == b""
                tx = make_transaction(7, 0, loop.time(), 32)
                good_writer.write(encode_frame(("client-tx", tx)))
                for _ in range(100):
                    await asyncio.sleep(0.01)
                    if len(node.replica.mempool):
                        break
                bad_writer.close()
                good_writer.close()
            finally:
                await node.stop()
            # A task that died of an unretrieved exception reports it when
            # collected ("Task exception was never retrieved").
            await asyncio.sleep(0)
            gc.collect()
            await asyncio.sleep(0)
            bad_frames = registry.counter("transport/bad_frames_total").value
            return closed, bad_frames, len(node.replica.mempool), unhandled

        return asyncio.run(run())

    @pytest.mark.parametrize(
        "bad",
        UNTYPED_BEFORE
        + [
            pytest.param(b"\x0a\x0a\x03\x00\x00\x00", id="short-struct"),
            pytest.param(b"", id="empty"),
        ],
    )
    def test_garbage_frame_from_a_peer(self, bad):
        closed, bad_frames, pooled, unhandled = self._drive(self._raw(bad))
        assert closed and bad_frames == 1
        assert pooled == 1, "the second peer's link must be unaffected"
        assert unhandled == []

    @pytest.mark.parametrize(
        "msg, hello",
        _on_both_links(
            [
                pytest.param(("client-tx", 5), id="not-a-transaction"),
                pytest.param(("client-tx",), id="no-transaction"),
                pytest.param(("client-tx", None), id="none"),
                pytest.param(
                    ("client-tx", make_transaction(1, 0, 0.0, 8), make_transaction(1, 1, 0.0, 8)),
                    id="two-transactions",
                ),
            ]
        ),
    )
    def test_malformed_client_tuple(self, msg, hello):
        closed, bad_frames, pooled, unhandled = self._drive(encode_frame(msg), hello)
        assert closed and bad_frames == 1
        assert pooled == 1, "only the well-formed transaction is pooled"
        assert unhandled == []

    @pytest.mark.parametrize(
        "fields, hello",
        _on_both_links(
            [
                pytest.param(b"\x05\x017\x03\x00\x04" + b"\x00" * 8 + b"\x05\x00", id="client_id-bytes"),
                pytest.param(b"\x03\x0e\x03\x00\x04" + b"\x00" * 8 + b"\x03\x12", id="payload-int"),
                pytest.param(b"\x03\x0e\x02\x04" + b"\x00" * 8 + b"\x05\x00", id="seq-bool"),
                pytest.param(b"\x03\x0e\x03\x00\x03\x02\x05\x00", id="submitted_at-int"),
            ]
        ),
    )
    def test_ill_typed_client_transaction(self, fields, hello):
        """Four fields, canonical, wrong types: refused by the decoder now,
        not pooled and tripped over at proposal time."""
        frame = self._raw(b"\x08\x02" + encode("client-tx") + b"\x0a\x0a\x04" + fields)
        closed, bad_frames, pooled, unhandled = self._drive(frame, hello)
        assert closed and bad_frames == 1
        assert pooled == 1, "only the second peer's transaction is pooled"
        assert unhandled == []

    @pytest.mark.parametrize(
        "garbage",
        [
            pytest.param(b"\x00\x00\x00\x03\x0a\x0a\x03", id="short-struct"),
            pytest.param(b"\x00\x00\x00\x00", id="empty-frame"),
            pytest.param((2**31).to_bytes(4, "big") + b"xx", id="oversized"),
        ],
    )
    def test_good_transaction_then_garbage_in_one_segment(self, garbage):
        """Both frames arrive in one socket read: the first is served from the
        buffer and pooled, the second costs the connection — once."""
        good = encode_frame(("client-tx", make_transaction(9, 0, 0.0, 32)))
        closed, bad_frames, pooled, unhandled = self._drive(good + garbage)
        assert closed and bad_frames == 1
        assert pooled == 2, "the transaction ahead of the garbage, and the second peer's"
        assert unhandled == []

    def test_oversized_frame_announcement(self):
        closed, bad_frames, pooled, unhandled = self._drive((2**31).to_bytes(4, "big") + b"xx")
        assert closed and bad_frames == 1 and pooled == 1 and unhandled == []

    @pytest.mark.parametrize(
        "hello",
        [
            pytest.param(("hello", "one"), id="non-integer-id"),
            pytest.param(("hullo", 1), id="wrong-greeting"),
            pytest.param(17, id="not-a-tuple"),
            # The node under test is replica 0 of {0, 1, 2}: its own copies
            # never touch a socket, and no one else can dial in honestly.
            pytest.param(("hello", 0), id="own-id"),
            pytest.param(("hello", 7), id="id-not-in-the-peer-map"),
            pytest.param(("hello", -2), id="negative-id-not-a-client"),
        ],
    )
    def test_bad_hello(self, hello):
        closed, bad_frames, pooled, unhandled = self._drive(encode_frame(hello), hello=None)
        assert closed and bad_frames == 1 and pooled == 1 and unhandled == []

    def test_a_client_connection_carries_only_client_transactions(self):
        from repro.types.certificates import Vote
        from repro.types.messages import VoteMsg

        vote = Vote.create(build_cluster_keys("hashsig", 3)[1], "alterbft", 1, 1, b"\x01" * 32)
        frames = (
            encode_frame(("hello", -1))
            + encode_frame(("client-tx", make_transaction(9, 0, 0.0, 32)))
            + encode_frame(VoteMsg(vote=vote))
        )
        closed, bad_frames, pooled, unhandled = self._drive(frames, hello=None)
        assert closed and bad_frames == 1 and unhandled == []
        assert pooled == 2, "the client's transaction ahead of the vote, and the peer's"

    def test_full_mempool_sheds_the_transaction_not_the_link(self):
        from repro.obs.metrics import MetricsRegistry

        async def run():
            peers = free_peer_map(3)
            registry = MetricsRegistry()
            replica = make_replica(2)  # not the first leader: nothing leaves the pool
            replica.mempool.capacity = 1
            node = AsyncReplicaNode(replica, peers, metrics=registry)
            await node.start()
            try:
                _, writer = await asyncio.open_connection(*peers[2])
                writer.write(encode_frame(("hello", -1)))
                for seq in range(3):
                    writer.write(encode_frame(("client-tx", make_transaction(9, seq, 0.0, 16))))
                rejects = registry.counter("transport/mempool_rejects_total")
                for _ in range(100):
                    await asyncio.sleep(0.01)
                    if rejects.value == 2:
                        break
                assert rejects.value == 2
                assert len(replica.mempool) == 1
                assert not writer.is_closing()
                assert registry.counter("transport/bad_frames_total").value == 0
                writer.close()
            finally:
                await node.stop()

        asyncio.run(run())


    @staticmethod
    def _drive_kept_link(hostile_msgs):
        """Peer 1 sends ``hostile_msgs`` and then a transaction, peer 0 a
        transaction, to replica 2 — whose link to peer 1 must stay up.

        Returns (the node's registry, (kind, message class) of every event
        the replica recorded, the replica, contexts passed to the loop's
        exception handler).
        """
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.recorder import SpanRecorder

        async def run():
            loop = asyncio.get_running_loop()
            unhandled = []
            loop.set_exception_handler(lambda _loop, context: unhandled.append(context))
            peers = free_peer_map(3)
            registry = MetricsRegistry()
            replica = make_replica(2)  # not the first leader: nothing leaves the pool
            node = AsyncReplicaNode(replica, peers, metrics=registry)
            await node.start()
            replica.obs = SpanRecorder()
            try:
                _, hostile = await asyncio.open_connection(*peers[2])
                _, good = await asyncio.open_connection(*peers[2])
                hostile.write(encode_frame(("hello", 1)))
                good.write(encode_frame(("hello", 0)))
                for msg in hostile_msgs:
                    hostile.write(encode_frame(msg))
                hostile.write(encode_frame(("client-tx", make_transaction(7, 0, 0.0, 32))))
                good.write(encode_frame(("client-tx", make_transaction(7, 1, 0.0, 32))))
                for _ in range(200):
                    await asyncio.sleep(0.01)
                    if len(replica.mempool) == 2:
                        break
                assert not hostile.is_closing()
                hostile.close()
                good.close()
            finally:
                await node.stop()
            # A task that died of an unretrieved exception reports it when
            # collected ("Task exception was never retrieved").
            await asyncio.sleep(0)
            gc.collect()
            await asyncio.sleep(0)
            traced = [(event.kind, event.attrs.get("msg")) for event in replica.obs.events]
            return registry, traced, replica, unhandled

        return asyncio.run(run())

    def test_ill_typed_certificate_costs_one_message_not_the_reader(self):
        """A well-framed, canonical message with an ``int`` where a
        certificate's pair list belongs is a ``CodecError``, the rule for
        any malformed frame: the link it came on is closed and counted once,
        the other peer's link still delivers, and no reader task dies of an
        exception nobody retrieves."""
        from repro.types.certificates import QuorumCertificate
        from repro.types.messages import BlameCertMsg, BlockRangeRequestMsg, StatusMsg

        qc = QuorumCertificate("alterbft", 0, 1, 1, b"\x01" * 32, votes=5)
        hostile = [
            StatusMsg(sender=1, new_epoch=1, high_qc=qc),
            BlameCertMsg(cert=5),
            BlockRangeRequestMsg(sender=1, from_height="x"),
        ]
        closed, bad_frames, pooled, unhandled = self._drive(
            b"".join(encode_frame(msg) for msg in hostile)
        )
        assert closed and bad_frames == 1
        assert pooled == 1, "the second peer's link must be unaffected"
        assert unhandled == []

    def test_forged_vote_is_dropped_and_counted(self):
        """A validly framed vote whose signature does not verify costs that
        one message, and over sockets — where there is no event log — the
        replica's ``verification_failed`` trace lands in the registry."""
        import dataclasses

        from repro.types.certificates import Vote
        from repro.types.messages import VoteMsg

        vote = Vote.create(build_cluster_keys("hashsig", 3)[1], "alterbft", 1, 1, b"\x01" * 32)
        forged = dataclasses.replace(vote, signature=bytes(len(vote.signature)))
        registry, traced, replica, unhandled = self._drive_kept_link([VoteMsg(vote=forged)])
        assert traced == [("verification_failed", "VoteMsg")]
        assert registry.counter("trace/verification_failed").value == 1
        assert replica.votes.pending == {}, "the forged vote was not recorded"
        assert len(replica.mempool) == 2, "both links, the hostile peer's included, still deliver"
        assert registry.counter("transport/bad_frames_total").value == 0 and unhandled == []

    def test_trace_without_a_registry_is_a_no_op(self):
        from repro.net.transport import AsyncioContext

        node = AsyncReplicaNode(make_replica(2), free_peer_map(3))
        AsyncioContext(node).trace("epoch_change")


class TestLiveCluster:
    def test_three_replica_tcp_cluster_commits(self):
        """The full protocol over real sockets commits a transaction on
        every replica."""

        async def run():
            n, f = 3, 1
            pconf = ProtocolConfig(n=n, f=f, delta=0.02, epoch_timeout=2.0)
            signers = build_cluster_keys("hashsig", n)
            validators = ValidatorSet.synchronous(n, f)
            peers = free_peer_map(n)
            nodes = [
                AsyncReplicaNode(
                    AlterBFTReplica(i, validators, pconf, signers[i]), peers
                )
                for i in range(n)
            ]
            await asyncio.gather(*(node.start() for node in nodes))
            try:
                loop = asyncio.get_running_loop()
                tx = make_transaction(1, 0, loop.time(), 64)
                for peer in peers.values():
                    await submit_transaction(peer, tx)
                committed = False
                for _ in range(100):
                    await asyncio.sleep(0.05)
                    done = [
                        any(
                            t.client_id == 1 and t.seq == 0
                            for h in range(1, node.replica.ledger.height + 1)
                            for t in node.replica.ledger.block_at(h).payload.transactions
                        )
                        for node in nodes
                    ]
                    if all(done):
                        committed = True
                        break
                assert committed, "transaction did not commit on all replicas"
                heights = [node.replica.ledger.height for node in nodes]
                assert min(heights) >= 1
            finally:
                await asyncio.gather(*(node.stop() for node in nodes))

        asyncio.run(run())
