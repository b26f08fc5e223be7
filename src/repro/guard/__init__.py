"""Synchrony guard: runtime Δ-violation detection, adaptive
re-calibration, and graceful degradation.

AlterBFT's safety rests on small messages arriving within a *known* Δ —
but clouds drift, and the bound an operator provisions is not the bound
they get.  This package turns the provisioned Δ from an unquestioned
constant into a monitored, re-certifiable quantity:

* :class:`SynchronyMonitor` measures observed small-message one-way
  delays (from existing consensus traffic plus lightweight signed probe
  echoes), maintains a rolling tail estimate, and raises a
  :class:`DeltaViolation` when the bound in force is breached.
* On sustained violations it proposes a signed
  :class:`~repro.types.certificates.DeltaAdjust`; f+1 matching
  adjustments form a certificate that installs the new Δ at the next
  epoch boundary, atomically across correct replicas.  Δ also shrinks
  back down the ladder once the network stabilizes.
* While a violation is suspected and no adequate Δ is certified, commits
  are flagged *at-risk* in the ledger — a partial-synchrony-style honesty
  label on the safety argument — and surfaced through obs/report.

Everything is inert unless the replica builder attaches a monitor
(``ProtocolConfig.guard_enabled``): without one no replica knows a guard
message, timer or hook and seeded traces are byte-identical.
"""

from .monitor import CommitRecord, DeltaViolation, SynchronyMonitor

__all__ = ["CommitRecord", "DeltaViolation", "SynchronyMonitor"]
