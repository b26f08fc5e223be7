"""The per-replica synchrony monitor (see package docstring).

The monitor drives its replica through a deliberately narrow surface —
``broadcast``/``send``, timers, the ledger's at-risk flags, the blame
path for forcing an epoch boundary, and the one value it pushes, the
replica's ``delta_scale`` — and never imports the protocol module,
keeping the import graph acyclic (same discipline as
:mod:`repro.recovery`).

Δ ladder.  Replicas cannot vote on a raw float Δ: each one's local tail
estimate differs, and f+1 *matching* small messages are required to move
the bound.  The monitor therefore quantizes to a discrete ladder,
``delta * 2**rung``, and proposes the smallest rung that covers its
margin-inflated tail estimate.  An adjustment is identified by
``(seq, rung)`` where ``seq`` counts the adjustments already installed —
replay protection, and the reason all correct replicas agree on which
switch a certificate authorizes.

Atomic install.  A certified rung takes effect at the next epoch
boundary, which the blame machinery synchronizes within Δ across honest
replicas.  On certifying (or receiving a certificate) the monitor blames
the current epoch; f+1 honest monitors do the same, the blame certificate
forms, and every replica installs the pending rung in its epoch-entry
hook — where the monitor writes the new multiplier onto the replica, so
every timer the new epoch arms already runs on it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from ..errors import VerificationError
from ..measure.calibration import recommend_delta
from ..measure.stats import RollingTail
from ..types.certificates import DELTA_ADJUST, Certificate, DeltaAdjust, signing_bytes
from ..types.messages import (
    DeltaAdjustCertMsg,
    DeltaAdjustMsg,
    GuardProbeEchoMsg,
    GuardProbeMsg,
)

#: Signing domain for probes: each signs ``(protocol, sender, seq)``.
GUARD_PROBE_DOMAIN = "guard-probe"

#: How far back a freshly raised suspicion retroactively flags commits.
#: A commit finalized at time t relied on small messages in flight during
#: [t - 2Δ, t] (the commit window) — those are exactly the messages a
#: violation starting inside that span could have delayed invisibly.  The
#: extra 2Δ covers detection lag (a late message demonstrates itself only
#: on arrival).
RETRO_FLAG_WINDOW_DELTAS = 4.0

#: Violations kept for sustained-violation accounting.
VIOLATION_LOG = 256

# The estimator's tuning.  Constants, not ``ProtocolConfig`` fields:
# every run, test and benchmark has used exactly these values.

#: Recent small-message delay samples kept in the rolling tail estimator.
WINDOW = 64
#: Violations within the recent window before a suspicion counts as
#: *sustained* and an upward ``DeltaAdjust`` is proposed.
VIOLATION_THRESHOLD = 3
#: Tail percentile of the rolling window used when recommending a
#: re-calibrated Δ (mirrors ``measure.calibration``).
QUANTILE = 99.0
#: Safety margin multiplied onto the tail estimate (>= 1).
MARGIN = 1.25
#: Cap on the Δ ladder: effective Δ is ``delta * 2**rung``,
#: ``0 <= rung <= MAX_RUNG``.
MAX_RUNG = 4
#: Seconds without a single violation before the suspicion clears and a
#: *shrink* back down the ladder may be proposed.
STABLE_WINDOW = 1.0


@dataclass(frozen=True)
class DeltaViolation:
    """One observed small-message delay exceeding the bound in force."""

    time: float
    src: int
    latency: float
    bound: float
    msg_type: str


@dataclass
class CommitRecord:
    """One commit as the guard saw it: when, what, and whether flagged."""

    time: float
    height: int
    flagged: bool = field(default=False)


class SynchronyMonitor:
    """Runtime Δ-violation detection and adaptive re-calibration for one
    replica (``replica.attach(monitor)``; see module docstring)."""

    name = "guard"
    #: Every class in ``HANDLERS`` is accounted to this wire phase
    #: (:mod:`repro.obs.wire`), so a new guard message cannot silently
    #: land in "other".
    WIRE_PHASE = "guard"
    HANDLERS = {
        GuardProbeMsg: "on_guard_probe",
        GuardProbeEchoMsg: "on_guard_probe_echo",
        DeltaAdjustMsg: "on_delta_adjust",
        DeltaAdjustCertMsg: "on_delta_adjust_cert",
    }
    TIMERS = {"guard_probe": "on_probe_timer"}

    def __init__(self, replica, small_threshold: int) -> None:
        self.replica = replica
        config = replica.config
        self.small_threshold = small_threshold
        self.base_delta: float = config.delta
        self.probe_interval: float = config.guard_probe_interval
        self.violation_threshold: int = VIOLATION_THRESHOLD
        self.quantile: float = QUANTILE
        self.margin: float = MARGIN
        self.max_rung: int = MAX_RUNG
        self.stable_window: float = STABLE_WINDOW

        #: Current position on the Δ ladder; effective Δ = base * 2**rung.
        self.rung = 0
        #: Number of installed adjustments — the ``seq`` of the next one.
        self.installs = 0
        #: (install time, effective Δ) pairs, starting with the base bound.
        self.delta_history: List[Tuple[float, float]] = [(0.0, self.base_delta)]
        #: Rolling tail estimate over observed small-message delays.
        self.tail = RollingTail(WINDOW, QUANTILE)
        self.violations: Deque[DeltaViolation] = deque(maxlen=VIOLATION_LOG)
        self.violation_count = 0
        self.samples_seen = 0
        self.suspected_since: Optional[float] = None
        self.last_violation_at: Optional[float] = None
        #: Commits in guard order, with their at-risk flags.
        self.commit_records: List[CommitRecord] = []
        self.at_risk_total = 0
        self.probe_seq = 0
        self.echoes_seen = 0
        # Adjustment aggregation: (seq, rung) → {proposer → DeltaAdjust}.
        self._adjusts: Dict[Tuple[int, int], Dict[int, DeltaAdjust]] = {}
        # Own proposals, one per (seq, rung).
        self._proposed: Dict[Tuple[int, int], DeltaAdjust] = {}
        # Certificates by seq (formed locally or received).
        self._certs: Dict[int, Certificate] = {}
        #: Certificate awaiting its epoch-boundary install.
        self.pending_cert: Optional[Certificate] = None

    # -- derived state -----------------------------------------------------

    @property
    def effective_delta(self) -> float:
        """The synchrony bound currently in force on this replica."""
        return self.base_delta * (2.0**self.rung)

    @property
    def suspected(self) -> bool:
        """True while a Δ violation is suspected and unremedied."""
        return self.suspected_since is not None

    def ladder(self, rung: int) -> float:
        return self.base_delta * (2.0**rung)

    def delta_at(self, time: float) -> float:
        """The Δ that was in force at simulated ``time``."""
        current = self.delta_history[0][1]
        for installed_at, delta in self.delta_history:
            if installed_at > time:
                break
            current = delta
        return current

    # -- lifecycle ---------------------------------------------------------

    def on_start(self) -> None:
        """Start hook: arm the probe timer."""
        assert self.replica.ctx is not None
        self.replica.ctx.set_timer(self.probe_interval, "guard_probe", None)

    def on_probe_timer(self, payload: object = None) -> None:
        """Periodic heartbeat: probe all links, run suspicion maintenance."""
        replica = self.replica
        now = replica.now
        self.probe_seq += 1
        signature = replica.signer.digest_and_sign(
            GUARD_PROBE_DOMAIN,
            signing_bytes(replica.protocol_name, replica.replica_id, self.probe_seq),
        )
        replica.broadcast(
            GuardProbeMsg(
                sender=replica.replica_id,
                seq=self.probe_seq,
                sent_at=now,
                signature=signature,
            ),
            include_self=False,
        )
        self._maintain(now)
        assert replica.ctx is not None
        replica.ctx.set_timer(self.probe_interval, "guard_probe", None)

    def _maintain(self, now: float) -> None:
        """Clear stale suspicion; consider shrinking back down the ladder."""
        if (
            self.suspected_since is not None
            and self.last_violation_at is not None
            and now - self.last_violation_at >= self.stable_window
        ):
            self.suspected_since = None
            self.replica.event("guard_stabilized", rung=self.rung, delta=self.effective_delta)
        if (
            not self.suspected
            and self.rung > 0
            and self.pending_cert is None
            and self.tail.full
            and (
                self.last_violation_at is None
                or now - self.last_violation_at >= self.stable_window
            )
        ):
            recommended = recommend_delta(self.tail.samples, self.quantile, self.margin)
            target = self.rung
            while target > 0 and recommended <= self.ladder(target - 1):
                target -= 1
            if target < self.rung:
                self._propose(target)

    # -- delay observation (the simnet tap) --------------------------------

    def on_network_delay(self, src: int, msg: object, size: int, latency: float) -> None:
        """One delivered message's one-way latency, from the network layer."""
        if size > self.small_threshold:
            return
        self.samples_seen += 1
        self.tail.add(latency)
        bound = self.effective_delta
        if latency <= bound:
            return
        now = self.replica.now
        violation = DeltaViolation(
            time=now, src=src, latency=latency, bound=bound, msg_type=type(msg).__name__
        )
        self.violations.append(violation)
        self.violation_count += 1
        self.last_violation_at = now
        self.replica.event(
            "delta_violation", src=src, latency=latency, bound=bound, msg_type=violation.msg_type
        )
        if not self.suspected:
            self._enter_suspicion(now, reason="observed")
        recent = sum(1 for v in self.violations if v.time > now - self.stable_window)
        if recent >= self.violation_threshold:
            self._propose_upward()

    def _enter_suspicion(self, now: float, reason: str) -> None:
        self.suspected_since = now
        # Start (or restart) the stabilization clock even when suspicion
        # arrives second-hand (a peer's adjust or a certificate) rather
        # than from a locally observed violation — otherwise a replica
        # that never sees the slow link itself would stay suspicious, and
        # flag its commits, forever.
        if self.last_violation_at is None or self.last_violation_at < now:
            self.last_violation_at = now
        self.replica.event("guard_suspected", reason=reason, delta=self.effective_delta)
        # Retroactive honesty: commits finalized just before detection
        # relied on messages the violation may already have been delaying.
        horizon = now - RETRO_FLAG_WINDOW_DELTAS * self.effective_delta
        for record in reversed(self.commit_records):
            if record.time < horizon:
                break
            if not record.flagged:
                record.flagged = True
                self._flag(record.height, retro=True)

    # -- adaptive re-calibration -------------------------------------------

    def _propose_upward(self) -> None:
        target = self.rung + 1
        if len(self.tail):
            recommended = recommend_delta(self.tail.samples, self.quantile, self.margin)
            while target < self.max_rung and self.ladder(target) < recommended:
                target += 1
        target = min(target, self.max_rung)
        if target <= self.rung:
            return  # already at the top of the ladder
        self._propose(target)

    def _propose(self, rung: int) -> None:
        replica = self.replica
        key = (self.installs, rung)
        if key in self._proposed:
            return
        adjust = DeltaAdjust.create(
            replica.signer, replica.protocol_name, self.installs, rung
        )
        self._proposed[key] = adjust
        replica.event(
            "delta_adjust_proposed", seq=self.installs, rung=rung, delta=self.ladder(rung)
        )
        # include_self: our own adjustment joins the tally via loopback,
        # so aggregation lives in exactly one code path.
        replica.broadcast(DeltaAdjustMsg(adjust=adjust))

    def on_delta_adjust(self, src: int, msg: DeltaAdjustMsg) -> None:
        adjust = msg.adjust
        replica = self.replica
        if not DELTA_ADJUST.is_signed(adjust):
            raise VerificationError("not a well-formed delta adjustment")
        if adjust.protocol != replica.protocol_name:
            raise VerificationError("delta adjustment for a different protocol")
        if not replica.validators.is_valid_replica(adjust.proposer):
            raise VerificationError(f"delta adjustment from unknown replica {adjust.proposer}")
        if not adjust.verify(replica.signer):
            raise VerificationError(f"bad delta-adjustment signature from {adjust.proposer}")
        if adjust.seq != self.installs or not 0 <= adjust.rung <= self.max_rung:
            return  # stale/future seq or off-ladder: ignore
        if adjust.rung > self.rung and not self.suspected:
            # A peer's signed claim of violation is itself grounds for
            # degradation: a Byzantine replica abusing this only buys
            # spurious at-risk labels, never a safety loss.
            self._enter_suspicion(replica.now, reason=f"peer-{adjust.proposer}")
        bucket = self._adjusts.setdefault((adjust.seq, adjust.rung), {})
        if adjust.proposer in bucket:
            return
        bucket[adjust.proposer] = adjust
        if len(bucket) == replica.validators.quorum and adjust.seq not in self._certs:
            cert = Certificate.assemble(bucket.values(), replica.signer)
            self._certs[adjust.seq] = cert
            self._certify(cert)

    def on_delta_adjust_cert(self, src: int, msg: DeltaAdjustCertMsg) -> None:
        cert = msg.cert
        replica = self.replica
        if not DELTA_ADJUST.is_certificate(cert):
            raise VerificationError("not a well-formed delta-adjust certificate")
        if cert.protocol != replica.protocol_name:
            raise VerificationError("delta-adjust certificate for a different protocol")
        if not cert.verify(replica.signer, replica.validators):
            raise VerificationError("invalid delta-adjust certificate")
        if cert.seq != self.installs or not 0 <= cert.rung <= self.max_rung:
            return
        if self.pending_cert is not None and self.pending_cert.seq == cert.seq:
            return
        self._certs.setdefault(cert.seq, cert)
        if cert.rung > self.rung and not self.suspected:
            self._enter_suspicion(replica.now, reason="certificate")
        self._certify(cert)

    def _certify(self, cert: Certificate) -> None:
        """A certificate is in hand: schedule install, spread the word."""
        replica = self.replica
        self.pending_cert = cert
        replica.event(
            "delta_adjust_certified", seq=cert.seq, rung=cert.rung, delta=self.ladder(cert.rung)
        )
        replica.broadcast(DeltaAdjustCertMsg(cert=cert), include_self=False)
        # Force the install point: blame the current epoch.  f+1 honest
        # monitors hold the certificate within Δ and do the same, so the
        # blame certificate forms and every replica's epoch-entry handler
        # installs the pending rung.
        replica._send_blame(replica.epoch)

    def on_epoch_enter(self, new_epoch: int) -> None:
        """Epoch-entry hook: install the pending certified rung, if any."""
        cert = self.pending_cert
        if cert is None:
            return
        self.pending_cert = None
        if cert.seq != self.installs:
            return
        previous = self.effective_delta
        self.rung = cert.rung
        # The replica's timers (2Δ windows, quit wait, pacemaker) read
        # this multiplier, never the monitor.
        self.replica.delta_scale = 2.0**self.rung
        self.installs += 1
        now = self.replica.now
        self.delta_history.append((now, self.effective_delta))
        self.replica.event(
            "delta_installed",
            epoch=new_epoch,
            rung=self.rung,
            seq=cert.seq,
            delta=self.effective_delta,
            previous=previous,
        )

    # -- probes ------------------------------------------------------------

    def on_guard_probe(self, src: int, msg: GuardProbeMsg) -> None:
        replica = self.replica
        if msg.sender != src or not replica.validators.is_valid_replica(msg.sender):
            raise VerificationError("guard probe with mismatched sender")
        if not replica.signer.verify_digest(
            msg.sender,
            GUARD_PROBE_DOMAIN,
            signing_bytes(replica.protocol_name, msg.sender, msg.seq),
            msg.signature,
        ):
            raise VerificationError(f"bad guard-probe signature from {msg.sender}")
        signature = replica.signer.digest_and_sign(
            GUARD_PROBE_DOMAIN,
            signing_bytes(replica.protocol_name, replica.replica_id, msg.seq),
        )
        replica.send(
            src,
            GuardProbeEchoMsg(
                sender=replica.replica_id,
                seq=msg.seq,
                probe_sender=msg.sender,
                probe_sent_at=msg.sent_at,
                signature=signature,
            ),
        )

    def on_guard_probe_echo(self, src: int, msg: GuardProbeEchoMsg) -> None:
        replica = self.replica
        if msg.sender != src or not replica.validators.is_valid_replica(msg.sender):
            raise VerificationError("guard echo with mismatched sender")
        if not replica.signer.verify_digest(
            msg.sender,
            GUARD_PROBE_DOMAIN,
            signing_bytes(replica.protocol_name, msg.sender, msg.seq),
            msg.signature,
        ):
            raise VerificationError(f"bad guard-echo signature from {msg.sender}")
        # The latency measurement itself happened at the network tap; the
        # echo's job was generating reverse-path small-message traffic.
        self.echoes_seen += 1

    # -- graceful degradation ----------------------------------------------

    def on_committed(self, blocks) -> None:
        """Commit hook: record commits; flag them at-risk while suspicion is live."""
        now = self.replica.now
        flagged = self.suspected
        for block in blocks:
            if block.height == 0:
                continue
            self.commit_records.append(
                CommitRecord(time=now, height=block.height, flagged=flagged)
            )
            if flagged:
                self._flag(block.height, retro=False)

    def _flag(self, height: int, retro: bool) -> None:
        self.replica.ledger.flag_at_risk(height)
        self.at_risk_total += 1
        self.replica.event("commit_at_risk", height=height, retro=retro)
