"""Chunked, erasure-coded, pull-based payload dissemination."""

from .manager import DisseminationManager

__all__ = ["DisseminationManager"]
