"""Exception hierarchy for the repro library.

Every error raised by library code derives from :class:`ReproError`, so
applications embedding the library can catch one base class.  Protocol
implementations additionally distinguish *verification* failures (evidence
of a faulty or malicious peer — never fatal to the local replica) from
*internal* errors (bugs or misconfiguration — always fatal).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """A configuration object is inconsistent or out of range."""


class CodecError(ReproError):
    """A wire message could not be encoded or decoded."""


class CryptoError(ReproError):
    """A cryptographic operation failed (bad key, malformed signature)."""


class VerificationError(ReproError):
    """A received message failed validation.

    Raising this from a message handler means the message is evidence of a
    faulty peer; the replica drops the message and keeps running.
    """


class SafetyViolation(ReproError):
    """Two honest replicas committed conflicting blocks.

    This is never raised during correct operation; it exists so tests and
    ablation benchmarks can detect when a deliberately weakened protocol
    variant loses safety.
    """


class SimulationError(ReproError):
    """The discrete-event simulator was driven into an invalid state."""


class TransportError(ReproError):
    """A real-network transport operation failed."""


class LedgerError(ReproError):
    """The committed ledger was driven into an inconsistent state."""


class BlockStoreError(ReproError):
    """A block-tree operation referenced unknown or conflicting blocks."""


class MempoolError(ReproError):
    """A mempool operation was invalid (duplicate or oversized payload)."""
