"""Crash recovery and state transfer: WAL, checkpoints, catchup.

See DESIGN.md → "Recovery & state transfer".  The subsystem is entirely
opt-in: with ``checkpoint_interval == 0`` and no ``crash-recover``
fault, no replica carries a manager (or the WAL inside it) and seeded
runs are byte-identical to runs built before this package existed.
"""

from .manager import RecoveryManager
from .wal import FileWal, MemoryWal, WalEpochRecord

__all__ = ["FileWal", "MemoryWal", "RecoveryManager", "WalEpochRecord"]
