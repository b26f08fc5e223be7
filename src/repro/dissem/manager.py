"""Chunked, erasure-coded, pull-based payload dissemination.

The blob path has the leader broadcast every payload whole: n-1 large
messages per block, all leaving one NIC.  PR 8's wire accounting put the
resulting leader egress share at ~0.31 on E5 (n=9) — the exact
large-message hot spot the paper's hybrid synchrony model is built
around.  This manager removes it:

* The leader encodes ``encode(payload)`` into ``n`` erasure shares
  (:mod:`repro.crypto.erasure`, any ``k = f+1`` reconstruct), builds a
  Merkle tree over the share bytes, and sends each replica exactly one
  share with its inclusion proof.  Leader payload egress drops by a
  factor of ``k``.
* Every replica then pulls its missing ``k-1`` shares from *peers* —
  the leader is deliberately last in the provider rotation — so the
  remaining ``(n-1)(k-1)`` share transfers spread evenly across the
  cluster instead of stacking on the proposer's link.
* Shares verify individually against the header-independent
  ``chunk_root``; reconstruction re-enters the normal payload path via
  ``replica._store_payload``, whose header-commitment check
  (``payload_root``/``payload_size``) is what gates voting.  A leader
  that codes garbage or equivocates on roots produces a reconstruction
  that fails that check: no vote, and the blame path changes the epoch.

Provider rotation mirrors :mod:`repro.recovery.manager`'s
Byzantine-withholding pattern: rotate (with a 2Δ beat, so direct pushes
still in flight get to land) when a provider's answer leaves us short,
and on a staleness-tokened retry timer when a provider does not answer
at all.  Providers park requests they cannot satisfy yet and serve them
as shares arrive — at payload sizes where share transfers outlive the
pull timer, dropping those early requests would funnel every retry to
the leader and resurrect the blob path's hot spot.  The pre-existing blob repair path
(``payload_fetch`` → ``PayloadRequestMsg``) stays armed underneath as a
last-resort backstop once any replica has reconstructed.

Everything here is inert unless ``ProtocolConfig.dissemination`` is on
(the replica builder only constructs and attaches the manager then);
off, no replica knows a chunk message and the blob path is
byte-identical to the golden trace fingerprint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from ..codec import decode as codec_decode
from ..codec import encode as codec_encode
from ..config import CATCHUP_RETRY
from ..crypto.erasure import decode_shares, encode_shares
from ..crypto.hashing import Digest
from ..crypto.merkle import (
    MerkleProof,
    MerkleTree,
    combine_proofs,
    expand_multiproof,
    verify_proof,
)
from ..errors import CodecError, CryptoError, VerificationError
from ..types.block import Block, BlockHeader, BlockPayload
from ..types.messages import ChunkRequestMsg, ChunkResponseMsg, ChunkShareMsg

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..consensus.replica import BaseReplica


@dataclass
class _BlockShares:
    """Per-block dissemination state (shares gathered so far, pull cursor)."""

    block_hash: Digest
    epoch: int
    height: int
    #: Adopted share-tree root (trust-on-first-use; the decisive check is
    #: the header commitment at reconstruction time).
    chunk_root: Optional[Digest] = None
    shares: Dict[int, bytes] = field(default_factory=dict)
    proofs: Dict[int, MerkleProof] = field(default_factory=dict)
    #: Parked pull requests we could not (fully) satisfy yet:
    #: requester → (its claimed ``have`` set, indexes we served since).
    #: Served incrementally as shares land; at most one entry per peer.
    pending: Dict[int, Tuple[set, set]] = field(default_factory=dict)
    #: Payload reconstructed and handed to the replica (or we built it).
    done: bool = False
    #: A pull round has been scheduled.
    pulling: bool = False
    #: Cursor into the provider rotation.
    provider_idx: int = 0
    #: Staleness token: retry timers carry the value at arm time and
    #: fire as no-ops once it moved on.
    attempt: int = 0


class DisseminationManager:
    """Disseminates payloads as chunk shares and reconstructs them.

    Attached to a replica (``replica.attach(manager)``) by the replica
    builder when ``ProtocolConfig.dissemination`` is set.
    """

    name = "dissem"
    HANDLERS = {
        ChunkShareMsg: "on_chunk_share",
        ChunkRequestMsg: "on_chunk_request",
        ChunkResponseMsg: "on_chunk_response",
    }
    TIMERS = {
        "dissem_pull": "on_pull_timer",
        "dissem_retry": "on_retry",
        "dissem_nudge": "on_nudge",
    }

    def __init__(self, replica: "BaseReplica") -> None:
        self.replica = replica
        # The proposer ships chunk shares where it would broadcast a blob.
        replica.send_payload = self.disseminate
        config = replica.config
        self.k = config.f + 1
        self.n = config.n
        #: Same back-off as catch-up: generous against gray links, and a
        #: few Δ so a response in flight is never raced by the timer.
        self.retry_timeout = max(CATCHUP_RETRY, 3 * config.delta)
        self._blocks: Dict[Digest, _BlockShares] = {}

    # -- leader side -------------------------------------------------------

    def disseminate(self, block: Block) -> None:
        """Erasure-code ``block``'s payload and push one share per replica
        (the proposer's ``send_payload``)."""
        replica = self.replica
        data = codec_encode(block.payload)
        shares = encode_shares(data, self.k, self.n)
        tree = MerkleTree(shares)
        state = self._state_for(block.block_hash, block.header.epoch, block.height)
        state.chunk_root = tree.root
        for index in range(self.n):
            state.shares[index] = shares[index]
            state.proofs[index] = tree.prove(index)
        state.done = True
        replica.event(
            "dissem_encode",
            height=block.height,
            shares=self.n,
            share_bytes=len(shares[0]),
        )
        for peer in range(self.n):
            if peer == replica.replica_id:
                continue
            replica.send(
                peer,
                ChunkShareMsg(
                    epoch=block.header.epoch,
                    height=block.height,
                    block_hash=block.block_hash,
                    chunk_root=tree.root,
                    k=self.k,
                    n=self.n,
                    index=peer,
                    share=shares[peer],
                    proof=state.proofs[peer],
                ),
            )
        # The proposer built the payload; store it directly (the blob path
        # reaches the same point via its own broadcast).
        replica._store_payload(block.block_hash, block.payload)

    # -- replica side ------------------------------------------------------

    def on_header(self, header: BlockHeader) -> None:
        """Header hook, first sight: make sure reconstruction is underway.

        Covers the replica whose own share the leader withheld entirely —
        without this hook it would never learn there is anything to pull.
        """
        if self.replica.store.has_payload(header.block_hash):
            return
        state = self._state_for(header.block_hash, header.epoch, header.height)
        # Shares may already be complete, parked on the unknown payload
        # length the header just supplied.
        self._maybe_reconstruct(state)
        if not state.done:
            self._begin_pull(state)

    def on_chunk_share(self, src: int, msg: ChunkShareMsg) -> None:
        self._check_params(msg.k, msg.n)
        if not 0 <= msg.index < self.n:
            raise VerificationError(f"chunk share index {msg.index} out of range")
        if msg.proof.index != msg.index or not verify_proof(
            msg.chunk_root, msg.share, msg.proof
        ):
            # A bit-flipped (or mis-indexed) share: note it, keep the pull
            # machinery running so the honest copy arrives from a peer.
            self.replica.event(
                "chunk_corrupt", height=msg.height, index=msg.index, src=src
            )
            state = self._state_for(msg.block_hash, msg.epoch, msg.height)
            if not state.done:
                self._begin_pull(state)
            raise VerificationError("chunk share fails Merkle verification")
        state = self._state_for(msg.block_hash, msg.epoch, msg.height)
        if state.done:
            return
        if state.chunk_root is None:
            state.chunk_root = msg.chunk_root
        elif state.chunk_root != msg.chunk_root:
            raise VerificationError("conflicting chunk root for block")
        if msg.index not in state.shares:
            state.shares[msg.index] = msg.share
            state.proofs[msg.index] = msg.proof
            self._flush_pending(state)
        self._maybe_reconstruct(state)
        if not state.done:
            self._begin_pull(state)

    def on_chunk_request(self, src: int, msg: ChunkRequestMsg) -> None:
        state = self._blocks.get(msg.block_hash)
        if state is None:
            return  # unknown hash: never materialize state for a request
        have = set(msg.have)
        sent: set = set()
        self._serve(state, src, have, sent)
        if len(have | sent) >= self.k:
            state.pending.pop(src, None)
            return
        # The requester is still short (typically because our own shares
        # are themselves in flight): park the request and keep serving as
        # shares land, instead of dropping it and forcing the requester
        # through a full retry period — at payload sizes where the share
        # push outlives the 2Δ pull timer that retry stampede lands on
        # the leader and resurrects the very hot spot chunking removes.
        state.pending[src] = (have, sent)

    def _serve(
        self,
        state: _BlockShares,
        requester: int,
        have: set,
        sent: set,
        deferred: bool = False,
    ) -> bool:
        """Send ``requester`` verified shares it lacks; record them in ``sent``.

        Ships at most ``k - |have ∪ sent|`` shares — k always suffice to
        reconstruct.  Deferred (parked-request) serving additionally skips
        the requester's *own* index: the leader's direct push of that share
        is the likeliest thing in flight, so re-serving it is predictable
        redundancy.  The skip never costs liveness — the other ``n - 1 ≥ k``
        indexes suffice, and explicit re-requests serve every index.
        """
        if state.chunk_root is None:
            return False
        need = self.k - len(have | sent)
        if need <= 0:
            return False
        missing = [i for i in sorted(state.shares) if i not in have and i not in sent]
        if deferred:
            missing = [i for i in missing if i != requester]
        if not missing:
            return False
        missing = missing[:need]
        proof = combine_proofs(self.n, {i: state.proofs[i] for i in missing})
        self.replica.send(
            requester,
            ChunkResponseMsg(
                epoch=state.epoch,
                height=state.height,
                block_hash=state.block_hash,
                chunk_root=state.chunk_root,
                k=self.k,
                n=self.n,
                indexes=tuple(missing),
                shares=tuple(state.shares[i] for i in missing),
                proof=proof,
            ),
        )
        sent.update(missing)
        return True

    def _flush_pending(self, state: _BlockShares) -> None:
        """Serve parked pull requests from any newly landed shares."""
        if not state.pending:
            return
        for requester in list(state.pending):
            have, sent = state.pending[requester]
            self._serve(state, requester, have, sent, deferred=True)
            if len(have | sent) >= self.k:
                del state.pending[requester]

    def on_chunk_response(self, src: int, msg: ChunkResponseMsg) -> None:
        self._check_params(msg.k, msg.n)
        if not msg.indexes or len(msg.indexes) != len(msg.shares):
            raise VerificationError("malformed chunk response")
        state = self._blocks.get(msg.block_hash)
        if state is None or state.done:
            return
        if state.chunk_root is None:
            state.chunk_root = msg.chunk_root
        elif state.chunk_root != msg.chunk_root:
            return  # stick with the root we adopted first
        if msg.proof.leaf_count != self.n or msg.proof.indexes != msg.indexes:
            raise VerificationError("chunk response proof shape mismatch")
        expanded = expand_multiproof(state.chunk_root, msg.shares, msg.proof)
        if expanded is None:
            self.replica.event("chunk_corrupt", height=msg.height, src=src)
            raise VerificationError("chunk response fails Merkle verification")
        stored = False
        for index, share in zip(msg.indexes, msg.shares):
            if 0 <= index < self.n and index not in state.shares:
                state.shares[index] = share
                state.proofs[index] = expanded[index]
                stored = True
        if stored:
            self._flush_pending(state)
        self._maybe_reconstruct(state)
        if state.done:
            return
        # The provider sent everything it had and we are still short:
        # rotate past it, but give the leader's direct pushes 2Δ to land
        # before re-asking — an instant re-request usually reaches the
        # leader (last in the ring) moments before our own share does,
        # re-centralizing egress for nothing.
        state.provider_idx += 1
        self._nudge(state)

    # -- pull machinery ----------------------------------------------------

    def _begin_pull(self, state: _BlockShares) -> None:
        if state.pulling or state.done:
            return
        state.pulling = True
        # Give the leader's direct pushes ~2Δ to land everywhere first;
        # pulling earlier mostly finds peers that have nothing yet.
        assert self.replica.ctx is not None
        self.replica.ctx.set_timer(
            2 * self.replica._delta(), "dissem_pull", state.block_hash
        )

    def on_pull_timer(self, block_hash: Digest) -> None:
        state = self._blocks.get(block_hash)
        if state is None or state.done:
            return
        self._send_request(state)

    def providers(self, state: _BlockShares) -> List[int]:
        """Pull rotation: peers from ``self+1`` onward, proposer last.

        Keeping the proposer out of the fault-free rotation is what holds
        its egress down; keeping it as the *last* resort preserves
        liveness when every other peer's shares were corrupted (n=3).
        """
        me = self.replica.replica_id
        leader = self.replica.validators.leader_of(state.epoch)
        ring = [(me + off) % self.n for off in range(1, self.n)]
        peers = [p for p in ring if p != leader]
        if leader != me:
            peers.append(leader)
        return peers

    def _send_request(self, state: _BlockShares) -> None:
        if state.epoch < self.replica.epoch:
            # Abandoned epoch: stop chunk pulls; if the block is still
            # needed as a committed ancestor the blob repair path
            # (payload_fetch → PayloadRequestMsg) recovers it.
            return
        providers = self.providers(state)
        provider = providers[state.provider_idx % len(providers)]
        self.replica.send(
            provider,
            ChunkRequestMsg(
                sender=self.replica.replica_id,
                epoch=state.epoch,
                height=state.height,
                block_hash=state.block_hash,
                have=tuple(sorted(state.shares)),
            ),
        )
        self._arm_retry(state)

    def _arm_retry(self, state: _BlockShares) -> None:
        state.attempt += 1
        assert self.replica.ctx is not None
        self.replica.ctx.set_timer(
            self.retry_timeout, "dissem_retry", (state.block_hash, state.attempt)
        )

    def _nudge(self, state: _BlockShares) -> None:
        """Re-request from the (rotated-to) provider after a short 2Δ beat."""
        state.attempt += 1
        assert self.replica.ctx is not None
        self.replica.ctx.set_timer(
            2 * self.replica._delta(), "dissem_nudge", (state.block_hash, state.attempt)
        )

    def on_nudge(self, payload: Tuple[Digest, int]) -> None:
        block_hash, attempt = payload
        state = self._blocks.get(block_hash)
        if state is None or state.done or attempt != state.attempt:
            return  # stale timer, or the payload landed meanwhile
        self._send_request(state)

    def on_retry(self, payload: Tuple[Digest, int]) -> None:
        block_hash, attempt = payload
        state = self._blocks.get(block_hash)
        if state is None or state.done or attempt != state.attempt:
            return  # stale timer, or the payload landed meanwhile
        # The provider never answered usefully: rotate past it.
        state.provider_idx += 1
        self.replica.event(
            "dissem_rotate", height=state.height, provider_idx=state.provider_idx
        )
        self._send_request(state)

    # -- reconstruction ----------------------------------------------------

    def _maybe_reconstruct(self, state: _BlockShares) -> None:
        if state.done or len(state.shares) < self.k:
            return
        replica = self.replica
        header = replica.store.get_header(state.block_hash)
        if header is None:
            return  # payload length unknown until the header arrives
        try:
            data = decode_shares(state.shares, self.k, header.payload_size)
            payload = codec_decode(data)
        except (CodecError, CryptoError):
            replica.event("dissem_decode_failed", height=state.height)
            state.done = True  # more shares cannot change a bad encoding
            return
        if not isinstance(payload, BlockPayload):
            replica.event("dissem_decode_failed", height=state.height)
            state.done = True
            return
        # The pool usually holds these transactions already: keep its
        # objects rather than a second, decoded copy of each.  Byte-equal
        # swaps only, so the header check below sees the same payload.
        payload = BlockPayload(transactions=replica.mempool.resolve(payload.transactions))
        state.done = True
        state.attempt += 1  # invalidate any retry timer in flight
        replica.event(
            "dissem_reconstructed", height=state.height, shares=len(state.shares)
        )
        try:
            replica._store_payload(state.block_hash, payload)
        except VerificationError:
            # Decoded bytes don't match the header commitment: the coder
            # encoded a different payload than it proposed.  Nothing more
            # to pull — liveness comes from the blame path.
            replica.event("dissem_mismatch", height=state.height)

    # -- housekeeping ------------------------------------------------------

    def drop_blocks(self, removed: Iterable[Digest]) -> None:
        """Prune hook: forget per-block share state for pruned blocks."""
        for block_hash in removed:
            self._blocks.pop(block_hash, None)

    def _state_for(self, block_hash: Digest, epoch: int, height: int) -> _BlockShares:
        state = self._blocks.get(block_hash)
        if state is None:
            state = _BlockShares(block_hash=block_hash, epoch=epoch, height=height)
            self._blocks[block_hash] = state
        return state

    def _check_params(self, k: int, n: int) -> None:
        if k != self.k or n != self.n:
            raise VerificationError(
                f"chunk coding parameters k={k}/n={n} do not match the cluster"
            )
