"""Sync HotStuff baseline (Abraham et al., S&P 2020 — steady state).

The state-of-the-art *classically synchronous* BFT protocol the paper
compares against.  Structurally it is AlterBFT without the key insight:
the proposal ships **header and payload in one large message**, replicas
relay the *full proposal*, and therefore the synchrony bound Δ — which
drives the 2Δ commit wait, the quit wait, and every other timer — must
conservatively bound the delivery of the **largest** message the protocol
ever sends.  Configure ``ProtocolConfig.delta`` accordingly (the
experiment harness uses
:meth:`repro.net.delay.DelayModel.worst_case_bound`); using a small Δ
here violates the protocol's model and can lose safety.

Implementation note: the subclass reuses the AlterBFT state machine,
which degenerates to Sync HotStuff exactly when every proposal carries
its payload (``vote_requires_payload`` is trivially satisfied on arrival)
and relays are full blocks.
"""

from __future__ import annotations

from ..core.protocol import AlterBFTReplica
from ..types.block import Block, make_block
from ..errors import ConfigError, VerificationError
from ..types.messages import (
    BlameCertMsg,
    BlameMsg,
    EquivocationProofMsg,
    PayloadRequestMsg,
    PayloadResponseMsg,
    ProposalHeaderMsg,
    SHProposalMsg,
    StatusMsg,
    VoteMsg,
)


class SyncHotStuffReplica(AlterBFTReplica):
    """One Sync HotStuff replica (see module docstring)."""

    protocol_name = "sync-hotstuff"

    #: No ``PayloadMsg`` and so no "payload" wire phase: Sync HotStuff
    #: ships the full block inside its proposal, which is the size
    #: asymmetry the paper's comparison turns on.
    HANDLERS = {
        SHProposalMsg: "on_sh_proposal",
        VoteMsg: "on_vote",
        BlameMsg: "on_blame",
        BlameCertMsg: "on_blame_cert",
        EquivocationProofMsg: "on_equivocation_proof",
        StatusMsg: "on_status",
        PayloadRequestMsg: "on_payload_request",
        PayloadResponseMsg: "on_payload_response",
    }

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self.config.pipeline_depth > 1:
            # Only AlterBFT implements the chained leader; failing loudly
            # beats silently running the baseline unpipelined.
            raise ConfigError(
                "pipeline_depth > 1 is only supported by alterbft "
                f"(got {self.config.pipeline_depth} for {self.protocol_name})"
            )

    # -- proposing ------------------------------------------------------------

    def _emit_proposal(self) -> None:
        """Same block construction as AlterBFT, one combined message.

        ``pipeline_depth`` is pinned to 1 above, so the in-flight window
        is empty whenever this runs and the tip is always ``high_qc``.
        """
        justify = self.high_qc
        batch = self.mempool.take_batch(self.config.max_batch, self.config.max_payload_bytes)
        block = make_block(
            epoch=self.epoch,
            height=justify.height + 1,
            parent=justify.block_hash,
            transactions=batch,
            proposer=self.replica_id,
        )
        msg = SHProposalMsg(
            block=block, signature=self.sign_proposal(block.block_hash), justify=justify
        )
        self._inflight.append((block.height, block.block_hash))
        self._proposed_in_epoch = True
        self.event(
            "propose", block.block_hash, epoch=self.epoch, height=block.height, txs=len(batch)
        )
        self.broadcast(msg)

    # -- receiving ------------------------------------------------------------

    def on_sh_proposal(self, src: int, msg: SHProposalMsg) -> None:
        if type(msg.block) is not Block or not msg.block.well_formed():
            raise VerificationError("ill-typed proposal block")
        header_msg = ProposalHeaderMsg(
            header=msg.block.header, signature=msg.signature, justify=msg.justify
        )
        self._verify_header_msg(header_msg)
        if not msg.block.validate_payload():
            raise VerificationError("proposal payload does not match header")
        block_hash = msg.block.block_hash
        # Payload first so voting can proceed as soon as the header lands
        # (and so the relay can rebuild the proposal from the store).
        if self.store.add_payload(block_hash, msg.block.payload):
            self.mark("payload_deliver", block_hash)
        if msg.block.epoch > self.epoch:
            self._future_headers.append((msg.block.epoch, header_msg))
            return
        self._accept_header(header_msg)

    def _relay_form(self, msg: ProposalHeaderMsg) -> SHProposalMsg:
        """Sync HotStuff relays the entire proposal — a *large* message.

        This relay is precisely why the classical model must bound large
        messages: equivocation detection rides on it.
        """
        block = self.store.block(msg.header.block_hash)
        return SHProposalMsg(block=block, signature=msg.signature, justify=msg.justify)
