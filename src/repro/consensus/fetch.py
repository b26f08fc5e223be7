"""The one fetch: every "I lack this block", in every protocol, is one
request for "the certified chain above my committed height", served by one
rule and checked by one rule (DESIGN.md → "Fetching a block"; Alea-BFT's
FILL-GAP/FILLER is the model)."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..config import CATCHUP_RETRY
from ..crypto.hashing import Digest
from ..errors import VerificationError
from ..types.block import BlockHeader
from ..types.messages import BlockRangeRequestMsg, BlockRangeResponseMsg


class Fetch:
    """One replica's requester, server and receiver check.  At most one
    request is open; it goes to one provider and rotates to the next peer
    each ``retry_timeout`` without an answer that covers it."""

    HANDLERS = {BlockRangeRequestMsg: "on_request", BlockRangeResponseMsg: "on_response"}
    TIMERS = {"fetch_retry": "on_retry"}

    def __init__(self, replica) -> None:
        self.replica = replica
        self.retry_timeout = max(CATCHUP_RETRY, 3 * replica.config.delta)
        #: (height, block hash or None) the open request must reach.
        self.wanted: Optional[Tuple[int, Optional[Digest]]] = None
        #: Requests re-sent to another provider after a timeout.
        self.retries = 0
        self._providers: List[int] = []
        self._asked = 0
        # The live timer's fire time; one armed before a restart never matches.
        self._deadline: Optional[float] = None

    def want(
        self,
        height: int,
        block_hash: Optional[Digest] = None,
        providers: Sequence[int] = (),
        wait: bool = False,
    ) -> None:
        """Ask for the chain through ``height`` (``block_hash`` if known),
        ``providers`` first; with ``wait``, once the gap outlives a retry."""
        already = self.wanted is not None
        if not already or height > self.wanted[0]:
            self.wanted = (height, block_hash)
        if already and (self._asked or wait):
            return
        n, me = self.replica.validators.n, self.replica.replica_id
        peers = [(me + k) % n for k in range(1, n)]
        self._providers = [*providers, *(p for p in peers if p not in providers)]
        self._asked = 0
        if wait:
            self._arm()
        else:
            self._ask()

    def _ask(self) -> None:
        replica = self.replica
        provider = self._providers[self._asked % len(self._providers)]
        self._asked += 1
        msg = BlockRangeRequestMsg(sender=replica.replica_id, from_height=replica.ledger.height)
        replica.send(provider, msg)
        self._arm()

    def _arm(self) -> None:
        self._deadline = self.replica.now + self.retry_timeout
        self.replica.ctx.set_timer(self.retry_timeout, "fetch_retry", self._deadline)

    def on_retry(self, deadline: float) -> None:
        if self.wanted is None or deadline != self._deadline:
            return
        if self._filled():
            self.wanted = None
            return
        if self._asked:
            self.retries += 1
        self._ask()

    def _filled(self) -> bool:
        height, block_hash = self.wanted
        store, ledger = self.replica.store, self.replica.ledger
        return ledger.height >= height or (
            block_hash is not None and store.extends(block_hash, ledger.head.block_hash)
        )

    def on_request(self, src: int, msg: BlockRangeRequestMsg) -> None:
        """The one serving rule: the chain from the tip certificate down to
        ``from_height + 1`` — store blocks where the payload is held, bare
        headers where not, ledger blocks below the store's floor — or silence."""
        replica = self.replica
        tip, store, ledger = replica.fetch_tip(), replica.store, replica.ledger
        if tip is None or not 0 <= msg.from_height < tip.height:
            return
        chain: List[BlockHeader] = []
        for header in store.walk_ancestors(tip.block_hash):
            if header.height <= msg.from_height:
                break
            chain.append(header)
        chain.reverse()
        lowest = chain[0].height if chain else tip.height + 1
        if lowest - 1 > ledger.height:
            return
        blocks = tuple(ledger.blocks_in_range(msg.from_height, lowest - 1)) + tuple(
            store.block(h.block_hash) for h in chain if store.has_payload(h.block_hash)
        )
        bare = tuple(h for h in chain if not store.has_payload(h.block_hash))
        replica.send(src, BlockRangeResponseMsg(justify=tip, blocks=blocks, headers=bare))

    def on_response(self, src: int, msg: BlockRangeResponseMsg) -> None:
        """The one receiver check: ``justify`` certifies at ``TIP_PHASE``,
        the headers above the ledger head link hash by hash from the head to
        ``justify``'s block, and each payload matches its header.  Then
        install and take the protocol's step.  An answer with nothing above
        the head is stale and dropped silently."""
        replica = self.replica
        justify, head = msg.justify, replica.ledger.head
        if not replica.verify_qc(justify) or justify.phase != replica.TIP_PHASE:
            raise VerificationError("fetched chain is not under a tip certificate")
        if justify.height <= head.height:
            return
        headers = (*(b.header for b in msg.blocks), *msg.headers)
        chain = sorted((h for h in headers if h.height > head.height), key=lambda h: h.height)
        prev = head
        for header in chain:
            if header.height != prev.height + 1 or header.parent != prev.block_hash:
                raise VerificationError("fetched chain does not link to the ledger head")
            prev = header
        if prev.block_hash != justify.block_hash:
            raise VerificationError("fetched chain does not end at its certificate")
        fresh = [b for b in msg.blocks if b.height > head.height]
        if not all(block.validate_payload() for block in fresh):
            raise VerificationError("fetched payload does not match its header")
        for header in chain:
            replica.store.add_header(header)
        for block in fresh:
            replica.store.add_payload(block.block_hash, block.payload)
        if self.wanted is not None and (justify.height >= self.wanted[0] or self._filled()):
            self.wanted = None
        replica._fetched(justify, chain)
        replica._fire("on_fetched", justify, msg.blocks)
