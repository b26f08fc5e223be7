"""Fault injection: crash and Byzantine behaviors for experiments."""

from .behaviors import BEHAVIORS, apply_behavior, parse_behavior, resolve_behavior

__all__ = ["BEHAVIORS", "apply_behavior", "parse_behavior", "resolve_behavior"]
