"""One workload, one process: build the cluster, drive it, check it, measure it.

Runs in a child interpreter started by ``run.py``.  Everything is on one
thread: replicas, client and generator share one asyncio loop (``tcp_*``)
or one simulator scheduler (``sim_*``).  The program is driven only through
its public entry points; the only patching is the ``--trace 1`` wrappers of
``layers.install``.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import random
import resource
import socket
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

import layers
from catalog import DELTA, LAYERS, PER_LAYER, TCP_WARMUP, WORKLOADS, median, percentile

TxKey = Tuple[int, int]

#: Logical clients stamping TCP transactions (the simulator's generator
#: uses its own ``WorkloadConfig.num_clients`` default, also 16).
NUM_CLIENTS = 16

#: Simulated seconds of load before, and of drain after, the measured window.
SIM_WARMUP = 1.0
SIM_DRAIN = 1.0


_P = 2**256 - 2**32 - 977
_X = 0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296
_BLOCK = bytes(range(256)) * 4
_TABLE = {i: (i, i * 7) for i in range(256)}

#: Least wall time between two speed probes, seconds.
PROBE_EVERY_S = 0.25

#: What the probe takes on the reference box when nobody else is on the
#: host, seconds.  Times of CPU-bound work are reported scaled to it.
PROBE_REF_S = 0.00255

#: Open-loop TCP windows are cut into slices this long; latency percentiles
#: are the median over slices of the per-slice percentile.
SLICE_S = 2.0


def speed_probe() -> float:
    """Seconds a fixed piece of pure-Python work takes right now.

    The mix the program runs on: 256-bit modular multiplies (signatures),
    SHA-256 over 1 KiB (hashing), dict and tuple traffic (codec, mempool).
    No container is allocated, so the probe cannot trigger the collector.
    """
    start = time.perf_counter()
    acc = 1
    for _ in range(4500):
        acc = acc * _X % _P
    digest = b"\0" * 32
    for _ in range(120):
        digest = hashlib.sha256(_BLOCK + digest).digest()
    total = 0
    for i in range(4500):
        total += _TABLE[i & 255][1]
    return time.perf_counter() - start


class Sample(NamedTuple):
    """Cumulative counters at one instant of the cluster's clock."""

    at: float
    txs: int  # confirmed so far
    wire_bytes: int
    wire_msgs: int
    cpu: float  # process CPU seconds


def payload_digest(payload: bytes) -> bytes:
    return hashlib.blake2b(payload, digest_size=8).digest()


class Recorder:
    """What the harness observes from outside: submissions and commits.

    A transaction is *confirmed* at the instant the ``quorum``-th (f+1)
    replica's ledger commits its block.  Every block confirmation appends a
    counter sample, so rates can be taken between two confirmations instead
    of between two arbitrary instants (no partial block at either edge).
    """

    def __init__(self) -> None:
        self.quorum = 0
        self.wire = None
        self.clock: Callable[[], float] = time.monotonic
        self.due: Dict[TxKey, float] = {}
        self.digest: Dict[TxKey, bytes] = {}
        self.confirmed: Dict[TxKey, Tuple[float, bytes]] = {}
        #: block hash → [(replica id, commit time)] in commit order
        self.commits: Dict[bytes, List[Tuple[int, float]]] = {}
        self.proposed_at: Dict[bytes, float] = {}
        #: one per block confirmation
        self.samples: List[Sample] = []
        self.on_confirmed: Optional[Callable[[int], None]] = None
        #: (cluster clock, seconds the speed probe took), one per block
        #: confirmation but at most one per PROBE_EVERY_S of wall time
        self.probes: List[Tuple[float, float]] = []
        self._next_probe = 0.0

    def attach(self, quorum: int, wire, clock: Callable[[], float]) -> None:
        """Bind to a cluster: f+1, its wire accountant, its clock."""
        self.quorum, self.wire, self.clock = quorum, wire, clock

    def speed_scale(self, window: Tuple[float, float]) -> float:
        """Reference probe time ÷ median probe time inside ``window``.

        Multiplying a duration of CPU-bound work by this gives what it
        would have taken at the reference machine speed.  The sandbox's
        speed moves by tens of percent over minutes — and by 2–3× when a
        neighbour is busy — and takes every CPU-bound figure with it;
        the probe runs in the same process, in the same seconds.
        """
        inside = [took for at, took in self.probes if window[0] <= at <= window[1]]
        return PROBE_REF_S / median(inside) if inside else math.nan

    def wire_counts(self) -> Tuple[int, int]:
        """Replica-to-replica codec bytes and messages so far (no loopback)."""
        wire = self.wire
        return wire.bytes_total - wire.loopback_bytes, wire.msgs_total - wire.loopback_msgs

    def sample(self, now: float) -> Sample:
        return Sample(now, len(self.confirmed), *self.wire_counts(), time.process_time())

    def on_propose(self, block_hash: bytes) -> None:
        self.proposed_at.setdefault(block_hash, self.clock())

    def listener(self, replica_id: int) -> Callable[[object, float], None]:
        """The ledger listener for one replica."""

        def on_commit(block, now: float) -> None:
            commits = self.commits.setdefault(block.block_hash, [])
            commits.append((replica_id, now))
            if len(commits) == self.quorum:
                self._confirm(block, now)

        return on_commit

    def _confirm(self, block, now: float) -> None:
        block_hash = block.block_hash
        confirmed = self.confirmed
        for tx in block.payload.transactions:
            confirmed.setdefault((tx.client_id, tx.seq), (now, block_hash))
        self.samples.append(self.sample(now))
        if time.perf_counter() >= self._next_probe:
            self.probes.append((now, speed_probe()))
            self._next_probe = time.perf_counter() + PROBE_EVERY_S
        if self.on_confirmed is not None:
            self.on_confirmed(len(block.payload.transactions))


# ---------------------------------------------------------------------------
# loopback TCP driver
# ---------------------------------------------------------------------------


def free_ports(count: int) -> List[int]:
    """Ports the kernel just handed out (bind to 0, read back, release)."""
    socks = []
    try:
        for _ in range(count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.bind(("127.0.0.1", 0))
            socks.append(sock)
        return [sock.getsockname()[1] for sock in socks]
    finally:
        for sock in socks:
            sock.close()


class TcpCluster:
    """n replicas on loopback sockets plus one persistent client connection each."""

    def __init__(self, spec: dict, recorder: Recorder, tracer: Optional[layers.Tracer]) -> None:
        from repro.config import SMALL_MESSAGE_THRESHOLD, ProtocolConfig
        from repro.consensus.validators import ValidatorSet
        from repro.core.protocol import AlterBFTReplica
        from repro.crypto.keystore import build_cluster_keys
        from repro.net.transport import AsyncReplicaNode
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.wire import WireAccountant

        n, f = 3, 1
        pconf = ProtocolConfig(
            n=n,
            f=f,
            delta=DELTA,
            epoch_timeout=5.0,
            signature_scheme=spec["scheme"],
            **spec["flags"],
        )
        pconf.validate("2f+1")
        validators = ValidatorSet.synchronous(n, f)
        self.peers = {i: ("127.0.0.1", port) for i, port in enumerate(free_ports(n))}
        wire = WireAccountant(small_threshold=SMALL_MESSAGE_THRESHOLD)
        recorder.attach(f + 1, wire, time.monotonic)
        self.nodes = []
        for replica_id in range(n):
            # One key set per replica: separate processes would not share
            # the hashsig verify LRU or the aggregate-secret cache.
            signer = build_cluster_keys(pconf.signature_scheme, n)[replica_id]
            replica = AlterBFTReplica(replica_id, validators, pconf, signer)
            replica.ledger.add_listener(traced_listener(recorder, replica_id, tracer))
            self.nodes.append(
                AsyncReplicaNode(replica, self.peers, metrics=MetricsRegistry(), wire=wire)
            )
        self.replicas = [node.replica for node in self.nodes]
        self.writers: List[asyncio.StreamWriter] = []

    async def start(self) -> None:
        from repro.net.transport import encode_frame

        await asyncio.gather(*(node.start() for node in self.nodes))
        for host, port in self.peers.values():
            _, writer = await asyncio.open_connection(host, port)
            writer.write(encode_frame(("hello", -1)))
            self.writers.append(writer)

    def submit(self, data: bytes) -> None:
        """Clients submit to every replica, so whoever leads can propose."""
        for writer in self.writers:
            writer.write(data)

    async def stop(self) -> None:
        for replica in self.replicas:
            replica.crashed = True  # silences timers that fire during teardown
        for writer in self.writers:
            writer.close()
        try:
            await asyncio.wait_for(
                asyncio.gather(*(node.stop() for node in self.nodes)), timeout=5.0
            )
        except asyncio.TimeoutError:
            pass
        pending = [t for t in asyncio.all_tasks() if t is not asyncio.current_task()]
        for task in pending:
            task.cancel()
        await asyncio.gather(*pending, return_exceptions=True)


def traced_listener(recorder: Recorder, replica_id: int, tracer: Optional[layers.Tracer]):
    """The recorder's listener, as a harness span when tracing."""
    listener = recorder.listener(replica_id)
    return listener if tracer is None else tracer.wrap("bench", "listener", listener)


class TxFactory:
    """Seeded transactions, pre-framed for the client connections."""

    def __init__(self, seed: int, tx_size: int, recorder: Recorder) -> None:
        self.rng = random.Random(seed)
        self.tx_size = tx_size
        self.recorder = recorder
        self.next_seq = [0] * NUM_CLIENTS

    def frame(self, offset: float) -> Tuple[TxKey, bytes]:
        from repro.net.transport import encode_frame
        from repro.types.transaction import Transaction

        client = self.rng.randrange(NUM_CLIENTS)
        seq = self.next_seq[client]
        self.next_seq[client] = seq + 1
        payload = self.rng.randbytes(self.tx_size)
        tx = Transaction(client_id=client, seq=seq, submitted_at=offset, payload=payload)
        self.recorder.digest[(client, seq)] = payload_digest(payload)
        return (client, seq), encode_frame(("client-tx", tx))


async def drive_open_loop(
    recorder: Recorder, spec: dict, seed: int, seconds: float, submit, mark
) -> dict:
    """Evenly spaced schedule; latency runs from the due instant."""
    factory = TxFactory(seed, spec["tx_size"], recorder)
    rate = spec["rate"]
    count = int(round((TCP_WARMUP + seconds) * rate))
    plan = [(i / rate, *factory.frame(i / rate)) for i in range(count)]
    mark("ready")
    loop = asyncio.get_running_loop()
    start = loop.time()
    window = (start + TCP_WARMUP, start + TCP_WARMUP + seconds)
    lags: List[float] = []
    for offset, key, frame in plan:
        due = start + offset
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        if due >= window[0]:
            if not lags:
                mark("window_start")
            lags.append(loop.time() - due)
        recorder.due[key] = due
        submit(frame)
    # Hold the load-free tail until everything is confirmed or the last
    # transaction has run out of its latency limit.
    deadline = window[1] + spec["limit"]
    while loop.time() < deadline and len(recorder.confirmed) < count:
        await asyncio.sleep(0.01)
    mark("window_end")
    return {"window": window, "lags": lags, "waves": None}


async def drive_closed_loop(
    recorder: Recorder, spec: dict, seed: int, seconds: float, submit, mark
) -> dict:
    """One client: submit a wave, wait until all of it is confirmed, repeat."""
    factory = TxFactory(seed, spec["tx_size"], recorder)
    loop = asyncio.get_running_loop()
    wave_size = spec["wave"]
    outstanding = 0
    done = asyncio.Event()

    def on_confirmed(count: int) -> None:
        nonlocal outstanding
        outstanding -= count
        if outstanding <= 0:
            done.set()

    recorder.on_confirmed = on_confirmed

    def make_wave() -> Tuple[List[TxKey], bytes]:
        framed = [factory.frame(0.0) for _ in range(wave_size)]
        return [key for key, _ in framed], b"".join(frame for _, frame in framed)

    # Fixed work, not fixed time: peak RSS and CPU per transaction are then
    # those of the same number of transactions on every run.
    measured_waves = max(1, round(seconds * spec["waves_per_second"]))
    waves: List[Tuple[tuple, tuple]] = []
    keys, data = make_wave()
    mark("ready")
    window_start = window_end = None
    warm = False  # wave 0 warms caches, sockets and the mempool
    while True:
        if warm and window_start is None:
            window_start = loop.time()
            mark("window_start")
        outstanding = wave_size
        done.clear()
        begin = recorder.sample(loop.time())
        for key in keys:
            recorder.due[key] = begin.at
        submit(data)
        try:
            await asyncio.wait_for(done.wait(), timeout=spec["limit"])
        except asyncio.TimeoutError:
            window_end = loop.time()
            break  # what is left of this wave counts as failed
        window_end = loop.time()
        if warm:
            waves.append((begin, recorder.sample(window_end)))
            if len(waves) >= measured_waves:
                break
        warm = True
        keys, data = make_wave()  # between waves: in no wave's time
    mark("window_end")
    if window_start is None:
        mark("window_start")
        window_start = window_end
    # window_end is after the last due instant, so the half-open test holds.
    return {"window": (window_start, window_end + 1e-9), "lags": [0.0], "waves": waves}


async def run_tcp(
    spec: dict, recorder: Recorder, seed: int, seconds: float, tracer, marks: dict, setup_only: bool
):
    cluster = TcpCluster(spec, recorder, tracer)
    await cluster.start()

    def mark(name: str) -> None:
        marks[name] = snapshot(tracer, probe=name == "ready")

    try:
        if setup_only:
            mark("ready")
            return cluster, None
        submit = cluster.submit
        if tracer is not None:
            submit = tracer.wrap("bench", "generator", submit)
        drive = drive_open_loop if spec["loop"] == "open" else drive_closed_loop
        return cluster, await drive(recorder, spec, seed, seconds, submit, mark)
    finally:
        await cluster.stop()


# ---------------------------------------------------------------------------
# simulator driver
# ---------------------------------------------------------------------------


def run_sim(
    spec: dict, recorder: Recorder, seed: int, seconds: float, tracer, marks: dict, setup_only: bool
):
    from repro.bench.common import make_config
    from repro.runner.cluster import build_cluster

    measured = round(seconds * spec["sim_per_wall"], 3)
    config = make_config(
        "alterbft",
        f=spec["f"],
        rate=spec["rate"],
        tx_size=spec["tx_size"],
        duration=SIM_WARMUP + measured + SIM_DRAIN,
        warmup=SIM_WARMUP,
        seed=seed,
        wire_accounting=True,
        **spec["flags"],
    )
    if abs(config.protocol_config.delta - DELTA) > 1e-12:
        raise RuntimeError(f"sim Δ is {config.protocol_config.delta}, catalog says {DELTA}")
    cluster = build_cluster(config)
    scheduler = cluster.scheduler
    recorder.attach(config.protocol_config.f + 1, cluster.wire, lambda: scheduler.now)
    for replica in cluster.replicas:
        replica.ledger.add_listener(traced_listener(recorder, replica.replica_id, tracer))
    driven = {
        "window": (SIM_WARMUP, SIM_WARMUP + measured),
        "lags": [0.0],
        "waves": None,
        "crash_at": None,
        "crashed": set(),
    }
    if spec["crash"]:
        # Crashed by the harness mid-run: ``faults=`` would withhold the
        # workload from the replica from t=0.
        victim = cluster.replicas[1]  # leader of epoch 1
        # Two thirds in, not halfway: with half the transactions on either
        # side of the crash the median would sit on the edge between the
        # two populations and flip with the seed.
        driven["crash_at"] = round(SIM_WARMUP + measured * 2 / 3, 3)
        driven["crashed"] = {victim.replica_id}

        def crash() -> None:
            victim.crashed = True
            cluster.network.take_down(victim.replica_id)

        scheduler.at(driven["crash_at"], crash)
    marks["ready"] = snapshot(tracer, probe=True)
    if setup_only:
        return cluster, None
    cluster.start()
    cluster.run()
    marks["window_end"] = snapshot(tracer)
    for key, tx in cluster.workload.submitted.items():
        recorder.due[key] = tx.submitted_at
        recorder.digest[key] = payload_digest(tx.payload)
    driven["events"] = scheduler.events_processed
    return cluster, driven


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------


def check_ledgers(
    replicas: Sequence, alive: Set[int], recorder: Recorder, expect_everywhere: bool
) -> List[str]:
    """Every breach found, as text; empty means the run was correct."""
    from repro.runner.cluster import check_safety

    # A crashed replica is still honest: its shorter ledger must be a prefix.
    breaches: List[str] = []
    if not check_safety(replicas, {r.replica_id for r in replicas}):
        breaches.append("ledgers are not prefix-consistent")
    common = min(r.ledger.height for r in replicas)
    if len({r.ledger.state_digest(common) for r in replicas}) != 1:
        breaches.append(f"state_digest differs on the common prefix (height {common})")
    everywhere: Optional[Set[TxKey]] = None
    for replica in replicas:
        ledger = replica.ledger
        seen: Set[TxKey] = set()
        for height in range(1, ledger.height + 1):
            for tx in ledger.block_at(height).payload.transactions:
                key = (tx.client_id, tx.seq)
                if key in seen:
                    breaches.append(f"replica {replica.replica_id}: tx {key} committed twice")
                seen.add(key)
                if recorder.digest.get(key) != payload_digest(tx.payload):
                    breaches.append(f"replica {replica.replica_id}: tx {key} not as submitted")
        if replica.replica_id in alive:
            everywhere = seen if everywhere is None else everywhere & seen
    if expect_everywhere and everywhere is not None:
        missing = set(recorder.confirmed) - everywhere
        if missing:
            breaches.append(f"{len(missing)} confirmed tx missing from a surviving ledger")
    return breaches[:20]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def snapshot(tracer: Optional[layers.Tracer], probe: bool = False) -> dict:
    """Clocks and tracer aggregates now; ``probe`` adds the speed scale now.

    Set-up is CPU-bound too (imports, key generation), so it is scaled like
    the window's figures, but by probes taken at its own end.
    """
    taken = {
        "time": time.time(),
        "cpu": time.process_time(),
        "wall": time.perf_counter(),
        "rows": tracer.snapshot() if tracer is not None else {},
    }
    if probe:
        taken["scale"] = PROBE_REF_S / median([speed_probe() for _ in range(5)])
    return taken


def measured_span(recorder: Recorder, driven: dict) -> Tuple[Sample, Sample, int]:
    """Counter samples bracketing the measured work, and the blocks between.

    Closed loop: start of the first measured wave to end of the last.  Open
    loop and sim: first to last block confirmation inside the window, so no
    partial block sits at either edge.
    """
    if driven["waves"]:
        first, last = driven["waves"][0][0], driven["waves"][-1][1]
        return first, last, sum(1 for s in recorder.samples if first.at < s.at <= last.at)
    window = driven["window"]
    inside = [s for s in recorder.samples if window[0] <= s.at <= window[1]]
    if len(inside) < 2:
        nothing = Sample(0.0, 0, 0, 0, 0.0)
        return nothing, nothing, 0
    return inside[0], inside[-1], len(inside) - 1


def rate(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else math.nan


#: One confirmed transaction: (due, confirmed at, block hash).
Hit = Tuple[float, float, bytes]


def confirmed_by_segment(
    recorder: Recorder, driven: dict, limit: float, on_wall_clock: bool
) -> Tuple[int, Dict[float, List[Hit]]]:
    """Transactions due in the window: how many, and those that met the limit.

    On the wall clock (``tcp_*``) they are grouped into segments — the
    waves of the closed loop, ``SLICE_S`` slices of the open loop; on the
    simulated clock there is one segment, the window.
    """
    window = driven["window"]
    attempted = 0
    segments: Dict[float, List[Hit]] = {}
    for key, due in recorder.due.items():
        if not window[0] <= due < window[1]:
            continue
        attempted += 1
        hit = recorder.confirmed.get(key)
        if hit is None or hit[0] - due > limit:
            continue
        if driven["waves"]:
            segment = due  # one due instant per wave
        else:
            segment = (due - window[0]) // SLICE_S if on_wall_clock else 0
        segments.setdefault(segment, []).append((due, hit[0], hit[1]))
    return attempted, segments


def over_segments(
    segments: Dict[float, List[Hit]], value: Callable[[Hit], float], q: float
) -> float:
    """Median over segments of the per-segment ``q``-th percentile of ``value``.

    One stall on a shared box moves one segment, not the figure.
    """
    return median([percentile(list(map(value, hits)), q) for hits in segments.values()])


def end_to_end(
    recorder: Recorder,
    driven: dict,
    segments: Dict[float, List[Hit]],
    scale: float,
    on_wall_clock: bool,
) -> dict:
    """Latency, goodput and per-transaction costs over the measured window.

    Durations of CPU-bound work (wall-clock latency, wave time, CPU
    seconds of fixed work) are multiplied by ``scale``, which brings them to
    the reference machine speed; see ``Recorder.speed_scale``.
    Simulated-clock figures are exact and left alone.
    """
    latency_scale = scale if on_wall_clock else 1.0
    p50 = over_segments(segments, lambda hit: hit[1] - hit[0], 50) * latency_scale
    p99 = over_segments(segments, lambda hit: hit[1] - hit[0], 99) * latency_scale
    if driven["waves"]:
        spans = [
            (b.txs - a.txs, b.at - a.at, b.wire_bytes - a.wire_bytes, b.cpu - a.cpu)
            for a, b in driven["waves"]
        ]
        goodput = median([rate(txs, took) for txs, took, _, _ in spans]) / scale
        bytes_per_tx = median([rate(size, txs) for txs, _, size, _ in spans])
        cpu_per_ktx = median([rate(cpu, txs) * 1000 for txs, _, _, cpu in spans]) * scale
    else:
        first, last, _ = measured_span(recorder, driven)
        txs = last.txs - first.txs
        goodput = rate(txs, last.at - first.at)  # the offered rate: not a speed
        bytes_per_tx = rate(last.wire_bytes - first.wire_bytes, txs)
        cpu_per_ktx = rate(last.cpu - first.cpu, txs) * 1000
        if not on_wall_clock:
            cpu_per_ktx *= scale
        # else: open loop on one saturated core — CPU per tx is ~1/rate
        # whatever the machine speed, so there is nothing to scale.
    return {
        "commit_latency_p50_ms": p50 * 1000,
        "commit_latency_p99_ms": p99 * 1000,
        "goodput_tx_s": goodput,
        "cpu_s_per_ktx": cpu_per_ktx,
        "wire_bytes_per_tx": bytes_per_tx,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def service_gap_ms(recorder: Recorder, crash_at: Optional[float]) -> float:
    """Crash instant → first confirmation of a tx that was due after it."""
    if crash_at is None:
        return 0.0
    after = [hit[0] for key, hit in recorder.confirmed.items() if recorder.due[key] >= crash_at]
    return (min(after) - crash_at) * 1000 if after else math.nan


def per_layer(
    recorder: Recorder,
    driven: dict,
    replicas: Sequence,
    nodes: Sequence,
    rows: Dict[Tuple[str, str], tuple],
    cpu_s: float,
    wall_s: float,
    segments: Dict[float, List[Hit]],
    scale: float,
    on_wall_clock: bool,
) -> Dict[str, float]:
    from repro.codec import size_cache_stats

    zero = (0, 0.0, 0)

    def calls(layer: str, *ops: str) -> float:
        return sum(rows.get((layer, op), zero)[0] for op in ops)

    def self_s(layer: str, *ops: str) -> float:
        return sum(rows.get((layer, op), zero)[1] for op in ops)

    def units(layer: str, op: str) -> float:
        return rows.get((layer, op), zero)[2]

    def layer_calls(layer: str) -> float:
        return sum(row[0] for (name, _), row in rows.items() if name == layer)

    def layer_self(layer: str) -> float:
        return sum(row[1] for (name, _), row in rows.items() if name == layer)

    first, last, blocks = measured_span(recorder, driven)
    per_block = max(blocks, 1)
    txs = last.txs - first.txs
    wire = recorder.wire
    wire_bytes = last.wire_bytes - first.wire_bytes
    wire_msgs = last.wire_msgs - first.wire_msgs
    size_stats = size_cache_stats()
    size_lookups = size_stats["hits"] + size_stats["misses"]
    schemes = {id(r.signer.scheme): r.signer.scheme for r in replicas}.values()
    cache_hits = sum(getattr(s, "cache_hits", 0) for s in schemes)
    cache_lookups = cache_hits + sum(getattr(s, "cache_misses", 0) for s in schemes)
    first_dials = len(nodes) * (len(nodes) - 1)
    dials = sum(
        getattr(node.metrics.get("transport/reconnects_total"), "value", 0) for node in nodes
    )
    sig_ops = calls("crypto", "sign", "verify", "batch_verify", "aggregate", "verify_aggregate")

    # The three parts of each confirmed transaction's latency, taken over
    # the same segments, and scaled, exactly as the latency itself.
    segments = {
        segment: [hit for hit in hits if hit[2] in recorder.proposed_at]
        for segment, hits in segments.items()
    }
    phase_scale = scale * 1000 if on_wall_clock else 1000.0

    def phase(value: Callable[[Hit], float]) -> float:
        return over_segments(segments, value, 50) * phase_scale

    out = {
        "codec.encode_calls": calls("codec", "encode"),
        "codec.encode_s": self_s("codec", "encode", "encode_cached"),
        "codec.decode_calls": calls("codec", "decode"),
        "codec.decode_s": self_s("codec", "decode"),
        "codec.size_calls": calls("codec", "size"),
        "codec.size_s": self_s("codec", "size"),
        "codec.bytes_encoded": units("codec", "encode"),
        "codec.bytes_decoded": units("codec", "decode"),
        "codec.size_cache_hit_ratio": size_stats["hits"] / size_lookups if size_lookups else 0.0,
        "crypto.sign_calls": calls("crypto", "sign"),
        "crypto.sign_s": self_s("crypto", "sign"),
        "crypto.verify_calls": calls("crypto", "verify"),
        "crypto.verify_s": self_s("crypto", "verify"),
        "crypto.verify_cache_hit_ratio": cache_hits / cache_lookups if cache_lookups else 0.0,
        "crypto.batch_verify_calls": calls("crypto", "batch_verify"),
        "crypto.batch_verify_s": self_s("crypto", "batch_verify", "find_invalid"),
        "crypto.sigs_per_batch": units("crypto", "batch_verify")
        / max(calls("crypto", "batch_verify"), 1),
        "crypto.aggregate_s": self_s("crypto", "aggregate"),
        "crypto.verify_aggregate_calls": calls("crypto", "verify_aggregate"),
        "crypto.verify_aggregate_s": self_s("crypto", "verify_aggregate"),
        "crypto.erasure_s": self_s("crypto", "erasure"),
        "crypto.merkle_s": self_s("crypto", "merkle"),
        "crypto.sig_ops_per_block": sig_ops / per_block,
        "core.handle_calls": calls("core", "handle"),
        "core.handle_self_s": self_s("core", "handle"),
        "core.timer_calls": calls("core", "timer"),
        "core.timer_self_s": self_s("core", "timer"),
        "core.blocks_committed": blocks,
        "core.blocks_per_s": rate(blocks, last.at - first.at) if blocks else 0.0,
        "core.txs_per_block": txs / per_block,
        "core.epoch_changes": max(r.epoch for r in replicas) - 1,
        "core.service_gap_ms": service_gap_ms(recorder, driven.get("crash_at")),
        "consensus.ledger_commit_s": self_s("consensus", "ledger_commit"),
        "mempool.add_calls": calls("mempool", "add"),
        "mempool.add_s": self_s("mempool", "add"),
        "mempool.take_batch_calls": calls("mempool", "take_batch"),
        "mempool.take_batch_s": self_s("mempool", "take_batch"),
        "mempool.dup_ratio": units("mempool", "add") / max(calls("mempool", "add"), 1),
        "transport.send_calls": calls("transport", "send"),
        "transport.send_s": self_s("transport", "send"),
        "transport.frames_in": calls("transport", "read"),
        "transport.read_s": self_s("transport", "read"),
        "transport.queue_drops": sum(sum(node.dropped.values()) for node in nodes),
        "transport.reconnects": max(dials - first_dials, 0),
        "simnet.send_calls": calls("simnet", "send"),
        "simnet.send_s": self_s("simnet", "send"),
        "sim.events": driven.get("events", 0),
        "sim.events_per_wall_s": rate(driven.get("events", 0), wall_s),
        "sim.loop_self_s": self_s("sim", "loop"),
        "wire.bytes_total": wire_bytes,
        "wire.msgs_total": wire_msgs,
        "wire.msgs_per_block": wire_msgs / per_block,
        "wire.bytes_per_block": wire_bytes / per_block,
        "wire.leader_egress_share": wire.leader_egress_share(),
        "wire.small_msg_share": wire.size_class_msgs["small"] / max(wire.msgs_total, 1),
        "wire.account_s": self_s("wire", "account"),
        "dissem.calls": layer_calls("dissem"),
        "dissem.self_s": layer_self("dissem"),
        "dissem.pull_requests": wire.class_msgs["ChunkRequestMsg"],
        "guard.calls": layer_calls("guard"),
        "guard.self_s": layer_self("guard"),
        "recovery.calls": layer_calls("recovery"),
        "recovery.self_s": layer_self("recovery"),
        "recovery.wal_appends": calls("recovery", "wal_append"),
        "phase.queue_wait_p50_ms": phase(lambda hit: recorder.proposed_at[hit[2]] - hit[0]),
        "phase.propose_to_commit_p50_ms": phase(
            lambda hit: recorder.commits[hit[2]][0][1] - recorder.proposed_at[hit[2]]
        ),
        "phase.commit_spread_p50_ms": phase(lambda hit: hit[1] - recorder.commits[hit[2]][0][1]),
        "bench.generator_lag_p99_ms": percentile(driven["lags"], 99) * 1000,
        "bench.speed_probe_ms": PROBE_REF_S / scale * 1000,
    }
    attributed = 0.0
    for layer in LAYERS:
        out[f"{layer}.share"] = rate(layer_self(layer), cpu_s)
        attributed += out[f"{layer}.share"]
    # Traced CPU / untraced CPU needs the untraced twin of this run: the
    # parent process has it and fills this in.
    out["bench.trace_overhead_ratio"] = math.nan
    out["bench.harness_share"] = rate(layer_self("bench"), cpu_s)
    out["bench.unattributed_share"] = 1.0 - attributed - out["bench.harness_share"]
    return {name: out[name] for name, _, _ in PER_LAYER}  # catalog order, nothing missing


# ---------------------------------------------------------------------------
# entry point of the child process
# ---------------------------------------------------------------------------


def run_child(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    setup_only: bool,
    spawned_at: float,
    trace_out: Optional[str] = None,
) -> dict:
    """Run one workload in this process and return its result document."""
    spec = WORKLOADS[workload]
    recorder = Recorder()
    tracer = None
    if trace:
        tracer = layers.Tracer()
        layers.install(tracer, recorder.on_propose)
    marks: dict = {}
    if spec["kind"] == "tcp":
        cluster, driven = asyncio.run(
            run_tcp(spec, recorder, seed, seconds, tracer, marks, setup_only)
        )
        replicas, nodes = cluster.replicas, cluster.nodes
    else:
        cluster, driven = run_sim(spec, recorder, seed, seconds, tracer, marks, setup_only)
        replicas, nodes = cluster.replicas, ()
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "traced": trace,
        "setup_s": (marks["ready"]["time"] - spawned_at) * marks["ready"]["scale"],
    }
    if setup_only:
        return result

    alive = {r.replica_id for r in replicas} - driven.get("crashed", set())
    fingerprint = None
    if spec["kind"] == "sim":
        ledger_state = b"".join(
            h for r in replicas if r.replica_id in alive for h in r.ledger.all_hashes()
        )
        fingerprint = cluster.trace.fingerprint(extra=ledger_state)
    breaches = check_ledgers(replicas, alive, recorder, expect_everywhere=spec["kind"] == "sim")
    on_wall_clock = spec["kind"] == "tcp"
    scale = recorder.speed_scale(driven["window"])
    attempted, segments = confirmed_by_segment(recorder, driven, spec["limit"], on_wall_clock)
    confirmed = sum(len(hits) for hits in segments.values())
    metrics = {
        "setup_s": result["setup_s"],
        **end_to_end(recorder, driven, segments, scale, on_wall_clock),
    }
    # Layer budget: the measured window on TCP (marks are taken outside any
    # span); the whole run on sim, where one Scheduler.run span is open from
    # start to end and only closes — and books its self time — at the end.
    begin = marks["ready"] if spec["kind"] == "sim" else marks["window_start"]
    end = marks["window_end"]
    rows = layers.delta(end["rows"], begin["rows"])
    result.update(
        correct=not breaches,
        breaches=breaches,
        attempted=attempted,
        failed=attempted - confirmed,
        samples=confirmed,
        fingerprint=fingerprint,
        end_to_end=metrics,
        speed_scale=scale,
        per_layer=per_layer(
            recorder,
            driven,
            [r for r in replicas if r.replica_id in alive],
            nodes,
            rows,
            end["cpu"] - begin["cpu"],
            end["wall"] - begin["wall"],
            segments,
            scale,
            on_wall_clock,
        ),
    )
    if trace_out:
        document = {
            "workload": workload,
            "seed": seed,
            "aggregates": [
                {"layer": layer, "op": op, "calls": row[0], "self_s": row[1], "units": row[2]}
                for (layer, op), row in sorted(rows.items())
            ],
            "blocks": [
                {
                    "block": block_hash.hex(),
                    "proposed_at": recorder.proposed_at.get(block_hash),
                    "commits": commits,
                }
                for block_hash, commits in recorder.commits.items()
            ],
        }
        with open(trace_out, "w") as handle:
            json.dump(document, handle)
    return result
