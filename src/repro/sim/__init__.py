"""Deterministic discrete-event simulation substrate."""

from .rng import RngFactory, derive_seed
from .scheduler import EventHandle, Scheduler
from .tracing import Trace

__all__ = ["RngFactory", "derive_seed", "EventHandle", "Scheduler", "Trace"]
