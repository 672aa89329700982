"""Session bookkeeping shared by checker and executor implementations.

The checker assembles the one observed trace, as :class:`TraceEntry`
records (:class:`repro.checker.runner.TraceAccumulator`).  An executor
keeps only a :class:`TraceRecorder`: the version arithmetic of Figure
10.  Every state reported bumps the trace length, and an ``Act``
carrying a version smaller than the current length is *stale* -- the
checker decided before seeing the newest states -- and must be ignored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..specstrom.state import StateSnapshot

__all__ = ["TraceEntry", "TraceRecorder"]


@dataclass(frozen=True)
class TraceEntry:
    """One observed state along with how it came about."""

    kind: str  # "event" | "acted" | "timeout"
    happened: Tuple[str, ...]
    state: StateSnapshot


@dataclass
class TraceRecorder:
    """Counts reported states (the version) and stale rejections."""

    length: int = 0
    stale_rejections: int = 0

    def append(self) -> int:
        """Count one reported state; returns the new trace length."""
        self.length += 1
        return self.length

    def is_stale(self, version: int) -> bool:
        """Is a request carrying ``version`` out of date (Figure 10)?"""
        return version < self.length

    def note_stale_rejection(self) -> None:
        self.stale_rejections += 1
