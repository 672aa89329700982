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
"""

from __future__ import annotations

import asyncio
import functools
import random
from abc import ABC, abstractmethod
from typing import List, Optional

from ..protocol.messages import Act, Narrow, Reset, Start

__all__ = [
    "ActionFailed",
    "AsyncExecutor",
    "BlockingExecutor",
    "Executor",
    "LatencyExecutor",
    "SyncExecutorAdapter",
    "ensure_async_executor",
    "ensure_sync_executor",
]


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


# ----------------------------------------------------------------------
# The async protocol
# ----------------------------------------------------------------------


class AsyncExecutor(ABC):
    """One test session driven from an event loop.

    The awaitable mirror of :class:`Executor`: same messages, same
    contracts, but every protocol call is a coroutine, so a single
    worker can keep hundreds of I/O-bound sessions in flight -- the
    shape real WebDriver (or network-service) backends need, where each
    round-trip is wire latency rather than CPU.  Virtual time remains
    the *session's* clock: wall-clock waits introduced by a backend
    (see :class:`LatencyExecutor`) never advance ``now_ms``, so async
    verdicts are byte-identical to synchronous ones.

    ``version`` / ``now_ms`` stay plain properties -- they read local
    bookkeeping, never the wire.
    """

    @abstractmethod
    async def start(self, start: Start) -> None:
        """Load the system and begin observing (see
        :meth:`Executor.start`)."""

    @abstractmethod
    async def drain(self) -> List[object]:
        """Return (and clear) the pending executor->checker messages."""

    @abstractmethod
    async def act(self, act: Act) -> bool:
        """Perform the action unless the request is stale (Figure 10)."""

    @abstractmethod
    async def pass_time(self, delta_ms: float) -> None:
        """Advance *virtual* time (see :meth:`Executor.pass_time`)."""

    @abstractmethod
    async def await_events(self, timeout_ms: float) -> None:
        """Advance time until an event batch occurs or ``timeout_ms``
        (virtual) elapses."""

    @property
    @abstractmethod
    def version(self) -> int:
        """Current trace length (number of states reported)."""

    @property
    @abstractmethod
    def now_ms(self) -> float:
        """Current virtual time, for running-time accounting."""

    async def stop(self) -> None:
        """Tear the session down (default: nothing to do)."""

    def stop_nowait(self) -> None:
        """Best-effort synchronous teardown, for contexts that cannot
        await (an :class:`~repro.api.lease.ExecutorCache` retiring a
        mismatched-loop entry).  Wrappers around synchronous executors
        stop the inner executor directly; purely-async backends should
        override with whatever non-blocking release they can manage."""

    async def narrow(self, narrow: Narrow) -> bool:
        """Restrict subsequent snapshots (see :meth:`Executor.narrow`);
        the default declines."""
        return False

    async def reset(self, reset: Reset) -> bool:
        """Begin a fresh session on this warm executor (see
        :meth:`Executor.reset`); the default declines."""
        return False


class SyncExecutorAdapter(AsyncExecutor):
    """Runs a synchronous executor's protocol calls on the event loop's
    default thread pool.

    This is how the simulated Dom/CCS backends (and any other
    :class:`Executor`) join an async session engine: each protocol call
    becomes ``loop.run_in_executor``, so while one session blocks in a
    (real or injected) wait, the loop keeps every other session moving.
    Per-call semantics are untouched -- one call in flight per session
    at a time, exactly the order the driver issues them -- so verdicts,
    traces and event streams are byte-identical to the sync runner.
    """

    __slots__ = ("inner",)

    def __init__(self, inner: Executor) -> None:
        self.inner = inner

    async def _call(self, fn, *args):
        loop = asyncio.get_running_loop()
        if args:
            fn = functools.partial(fn, *args)
        return await loop.run_in_executor(None, fn)

    async def start(self, start: Start) -> None:
        await self._call(self.inner.start, start)

    async def drain(self) -> List[object]:
        return await self._call(self.inner.drain)

    async def act(self, act: Act) -> bool:
        return await self._call(self.inner.act, act)

    async def pass_time(self, delta_ms: float) -> None:
        await self._call(self.inner.pass_time, delta_ms)

    async def await_events(self, timeout_ms: float) -> None:
        await self._call(self.inner.await_events, timeout_ms)

    async def stop(self) -> None:
        await self._call(self.inner.stop)

    def stop_nowait(self) -> None:
        self.inner.stop()

    async def narrow(self, narrow: Narrow) -> bool:
        fn = getattr(self.inner, "narrow", None)
        if fn is None:
            return False
        return await self._call(fn, narrow)

    async def reset(self, reset: Reset) -> bool:
        fn = getattr(self.inner, "reset", None)
        if fn is None:
            return False
        return await self._call(fn, reset)

    @property
    def version(self) -> int:
        return self.inner.version

    @property
    def now_ms(self) -> float:
        return self.inner.now_ms

    @property
    def recorder(self):
        """The inner executor's recorder, if any (stale-rejection
        accounting reads it through the adapter)."""
        return getattr(self.inner, "recorder", None)


class LatencyExecutor(AsyncExecutor):
    """Deterministic wall-clock latency injection around an executor.

    Models WebDriver round-trips for the simulated backends: every
    *wire* call (``start``/``drain``/``act``/``await_events``/
    ``narrow``/``reset``) first sleeps a pseudo-random real-time delay
    drawn from a private seeded RNG -- uniform in ``latency_ms * [1 -
    jitter, 1 + jitter]``.  The delay is **wall-clock only**: virtual
    time (``now_ms``), the trace, and the test's own RNG are never
    touched, so latency-injected verdicts are identical to plain runs
    by construction -- which is what lets benchmarks hard-assert
    verdict identity before timing the concurrency curve.

    ``inner`` may be a synchronous :class:`Executor` (called inline
    after the sleep -- simulated backends are CPU-cheap) or another
    :class:`AsyncExecutor` (awaited).  ``latency_ms=0`` disables the
    sleeps entirely, leaving a pass-through used by differential legs
    that only want the async code path exercised.
    """

    __slots__ = ("inner", "latency_ms", "jitter", "_rng", "_async")

    def __init__(
        self,
        inner,
        latency_ms: float = 5.0,
        jitter: float = 0.5,
        seed: object = 0,
    ) -> None:
        if latency_ms < 0:
            raise ValueError(f"latency_ms must be >= 0, got {latency_ms}")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError(f"jitter must be within [0, 1], got {jitter}")
        self.inner = inner
        self.latency_ms = latency_ms
        self.jitter = jitter
        self._rng = random.Random(f"latency/{seed}")
        self._async = isinstance(inner, AsyncExecutor)

    def next_delay_ms(self) -> float:
        """The next injected delay (milliseconds); 0 when disabled.
        Drawing advances the private RNG, exactly as a wire call
        would."""
        if self.latency_ms <= 0:
            return 0.0
        spread = self.latency_ms * self.jitter
        return self._rng.uniform(
            self.latency_ms - spread, self.latency_ms + spread
        )

    async def _round_trip(self, name: str, *args):
        delay_ms = self.next_delay_ms()
        if delay_ms > 0:
            await asyncio.sleep(delay_ms / 1000.0)
        fn = getattr(self.inner, name)
        result = fn(*args)
        if self._async:
            result = await result
        return result

    async def start(self, start: Start) -> None:
        await self._round_trip("start", start)

    async def drain(self) -> List[object]:
        return await self._round_trip("drain")

    async def act(self, act: Act) -> bool:
        return await self._round_trip("act", act)

    async def pass_time(self, delta_ms: float) -> None:
        # Virtual-time bookkeeping, not a wire call: no injected delay.
        result = self.inner.pass_time(delta_ms)
        if self._async:
            await result

    async def await_events(self, timeout_ms: float) -> None:
        await self._round_trip("await_events", timeout_ms)

    async def stop(self) -> None:
        result = self.inner.stop()
        if self._async:
            await result

    def stop_nowait(self) -> None:
        if self._async:
            self.inner.stop_nowait()
        else:
            self.inner.stop()

    async def narrow(self, narrow: Narrow) -> bool:
        fn = getattr(self.inner, "narrow", None)
        if fn is None:
            return False
        return await self._round_trip("narrow", narrow)

    async def reset(self, reset: Reset) -> bool:
        fn = getattr(self.inner, "reset", None)
        if fn is None:
            return False
        return await self._round_trip("reset", reset)

    @property
    def version(self) -> int:
        return self.inner.version

    @property
    def now_ms(self) -> float:
        return self.inner.now_ms

    @property
    def recorder(self):
        return getattr(self.inner, "recorder", None)


def ensure_async_executor(executor) -> AsyncExecutor:
    """Adapt ``executor`` for the async driver: :class:`AsyncExecutor`
    instances pass through, synchronous executors are wrapped in a
    :class:`SyncExecutorAdapter`."""
    if isinstance(executor, AsyncExecutor):
        return executor
    return SyncExecutorAdapter(executor)


class BlockingExecutor(Executor):
    """An :class:`AsyncExecutor` driven from synchronous code.

    The synchronous test driver (a width-1 batch, shrinking's replays)
    cannot await, so an async session reaching it runs each protocol
    call to completion on a private event loop, created with the
    session and closed by :meth:`stop`.  Call order and results are the
    async session's own, so verdicts are unchanged.
    """

    __slots__ = ("inner", "_loop")

    def __init__(self, inner: AsyncExecutor) -> None:
        self.inner = inner
        self._loop = asyncio.new_event_loop()

    def _run(self, coro):
        return self._loop.run_until_complete(coro)

    def start(self, start: Start) -> None:
        self._run(self.inner.start(start))

    def drain(self) -> List[object]:
        return self._run(self.inner.drain())

    def act(self, act: Act) -> bool:
        return self._run(self.inner.act(act))

    def pass_time(self, delta_ms: float) -> None:
        self._run(self.inner.pass_time(delta_ms))

    def await_events(self, timeout_ms: float) -> None:
        self._run(self.inner.await_events(timeout_ms))

    def narrow(self, narrow: Narrow) -> bool:
        return self._run(self.inner.narrow(narrow))

    def reset(self, reset: Reset) -> bool:
        return self._run(self.inner.reset(reset))

    def stop(self) -> None:
        try:
            self._run(self.inner.stop())
        finally:
            self._run(self._loop.shutdown_default_executor())
            self._loop.close()

    @property
    def version(self) -> int:
        return self.inner.version

    @property
    def now_ms(self) -> float:
        return self.inner.now_ms

    @property
    def recorder(self):
        return getattr(self.inner, "recorder", None)


def ensure_sync_executor(executor) -> Executor:
    """Adapt ``executor`` for the synchronous driver: async executors
    are wrapped in a :class:`BlockingExecutor`, everything else passes
    through."""
    if isinstance(executor, AsyncExecutor):
        return BlockingExecutor(executor)
    return executor
