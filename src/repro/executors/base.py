"""The abstract executor interface.

The paper stresses that nothing about the checker is WebDriver-specific
(Section 3.4): paired with a different executor, the same checker can
test any reactive system.  This interface is that seam.  Two executors
ship with the reproduction: the simulated-browser executor
(:mod:`repro.executors.domexec`) and the CCS process-calculus executor
(:mod:`repro.executors.ccsexec`).

Message flow and time: gestures themselves are instantaneous; virtual
time advances only through :meth:`Executor.pass_time` (which the runner
calls to model decision/settle latency) and :meth:`Executor.await_events`
(event waits and ``timeout`` handling).  Asynchronous application
activity during those advances produces ``Event`` messages, which is how
the staleness scenario of Figure 10 arises.

The protocol is synchronous: a session holds its worker (the caller's
thread, a pool thread or process, a remote worker slot) from ``start``
to ``stop``, and parallelism comes from running more workers.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List

from ..protocol.messages import Act, Narrow, Reset, Start

__all__ = ["ActionFailed", "Executor"]


class ActionFailed(RuntimeError):
    """A resolved action could not be performed (e.g. target vanished
    between selection and execution).

    Raised by every executor backend -- the checker catches it during
    replay without knowing which backend is in use.
    """


class Executor(ABC):
    """One test session against a system under test."""

    @abstractmethod
    def start(self, start: Start) -> None:
        """Load the system and begin observing.  Must enqueue the initial
        ``loaded?`` Event."""

    @abstractmethod
    def drain(self) -> List[object]:
        """Return (and clear) the pending executor->checker messages."""

    @abstractmethod
    def act(self, act: Act) -> bool:
        """Perform the action unless the request is stale (Figure 10).

        Returns True when the action was performed (an ``Acted`` message
        is enqueued), False when the request was ignored as stale.
        """

    @abstractmethod
    def pass_time(self, delta_ms: float) -> None:
        """Advance virtual time; asynchronous application activity may
        enqueue ``Event`` messages."""

    @abstractmethod
    def await_events(self, timeout_ms: float) -> None:
        """Advance time until an event batch occurs or ``timeout_ms``
        elapses; enqueues ``Event``s or a single ``Timeout``."""

    @property
    @abstractmethod
    def version(self) -> int:
        """Current trace length (number of states reported)."""

    @property
    @abstractmethod
    def now_ms(self) -> float:
        """Current virtual time, for running-time accounting."""

    def stop(self) -> None:
        """Tear the session down (default: nothing to do)."""

    def narrow(self, narrow: Narrow) -> bool:
        """Restrict subsequent snapshots to ``narrow.dependencies``
        (intersected with the session's ``Start`` set).

        Returns True when the restriction is in effect; the default
        declines, so backends that never heard of narrowing keep
        capturing the full dependency set -- the checker treats a
        decline as "full snapshots continue" and never asks again for
        this session.  ``start``/``reset`` always restore full capture.
        """
        return False

    def reset(self, reset: Reset) -> bool:
        """Begin a fresh session on this warm executor, if the backend
        can restore its initial state *exactly* (same initial state,
        virtual time back at zero, empty trace).

        Returns True when the reset happened (the initial ``loaded?``
        event is enqueued, as after :meth:`start`); False when the
        backend cannot reset -- the caller (an
        :class:`~repro.api.lease.ExecutorLease`) then falls back to
        :meth:`stop` plus a freshly constructed executor, so warm reuse
        is always an optimisation, never a semantics change.
        """
        return False
