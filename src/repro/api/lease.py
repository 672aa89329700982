"""Executor lifecycle management: warm reuse across tests and campaigns.

Every generated test used to pay full executor construction plus a
``Start`` warm-up -- the per-session overhead that dominates parallel
PBT runtimes once campaigns get small (QuickerCheck's observation, and
exactly the shape of the paper's 43-implementation audit and of
``check_all``'s many-properties x one-app batches).  This module
amortises it:

* :class:`ExecutorCache` holds at most one *warm* executor per target
  identity.  One cache is created (empty) per batch, **before** the
  worker pool forks: each forked worker then owns a private
  copy-on-write instance, so warm executors never cross process
  boundaries, while the thread fallback and the serial loop share a
  single locked instance.  Remote ``repro worker`` processes (the TCP
  transport) are not forked from the coordinator at all -- each builds
  its *own* per-process cache from the task's remote descriptor and
  reports warm-hit/cold-start deltas back inside result frames, so the
  batch metrics still add up.
* :class:`ExecutorLease` is one test's claim on an executor.
  ``checkout`` prefers a warm executor from the cache and asks it to
  :meth:`~repro.executors.base.Executor.reset` (the new ``Reset``
  protocol message); a backend that declines -- or a cache miss -- falls
  back to the classic construct + ``Start`` path, so reuse is always an
  optimisation, never a semantics change.  ``checkin`` parks the
  executor for the next test instead of stopping it.

Determinism is non-negotiable: ``reset`` contracts an observationally
identical session (same initial state, virtual time origin and trace
versioning), so warm-reuse verdicts, counterexamples and reporter event
streams are bit-for-bit equal to cold-start runs for the same seeds
(asserted in ``tests/api/test_warm_reuse.py``).

Warm hits and cold starts are counted through shared counters (a
``multiprocessing.Value`` when a fork pool is involved) and surface in
:class:`~repro.api.pool.PoolMetrics`.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from ..executors.base import (
    AsyncExecutor,
    ensure_async_executor,
    ensure_sync_executor,
)
from ..protocol.messages import Reset, Start
from .transport.base import ThreadCounter

__all__ = ["AsyncExecutorLease", "ExecutorCache", "ExecutorLease"]


def _bump(counter) -> None:
    with counter.get_lock():
        counter.value += 1


def _retire(executor) -> None:
    """Stop an executor from a context that cannot await: async
    executors offer ``stop_nowait`` for exactly this, synchronous ones
    just stop."""
    stop_nowait = getattr(executor, "stop_nowait", None)
    if stop_nowait is not None:
        stop_nowait()
    else:
        executor.stop()


async def _stop_parked(executor) -> None:
    """Stop a parked executor from async code, whichever protocol it
    speaks; a dead session refusing to stop must not fail the test."""
    try:
        if isinstance(executor, AsyncExecutor):
            await executor.stop()
        else:
            executor.stop()
    except Exception:
        pass


class ExecutorCache:
    """A per-worker pool of warm executors, keyed by target identity.

    The default key is the executor *factory object* itself: every test
    of a campaign shares its runner's factory, and ``check_all`` /
    session-app ``check_many`` batches share one factory across
    campaigns, so warm reuse spans exactly the tasks that test the same
    application.  Distinct targets have distinct factories and can never
    receive each other's executors.

    ``enabled=False`` turns the cache into a pass-through (every
    checkout is a cold start, every checkin a stop) -- the cold baseline
    the warm path is benchmarked and equivalence-tested against.

    ``warm_hits`` / ``cold_starts`` may be shared counters created with
    :meth:`~repro.api.transport.PoolTransport.make_counter` so forked
    workers aggregate into one number; they default to in-process
    counters.

    ``max_entries`` bounds how many warm executors the cache may hold
    at once (across all keys); checking in past the bound stops and
    evicts the least-recently-used entry.  The scheduler sets it
    so a forked worker that serves many targets over a long audit never
    accumulates one live session per target ever seen.

    ``depth`` bounds how many warm executors one *key* may hold.  The
    default (1) is right for strictly sequential reuse; a shared cache
    serving concurrent leases of the same target (the thread-fallback
    pool, or a worker interleaving two targets' tasks under dynamic
    dispatch) wants ``depth >= jobs`` -- with depth 1, two overlapping
    leases of one key evict each other's executor at every checkin and
    warm reuse silently degrades to cold starts.
    """

    def __init__(
        self,
        enabled: bool = True,
        warm_hits=None,
        cold_starts=None,
        max_entries: Optional[int] = None,
        depth: int = 1,
    ) -> None:
        if depth < 1:
            raise ValueError(f"depth must be at least 1, got {depth}")
        self.enabled = enabled
        self.max_entries = max_entries
        self.depth = depth
        self.warm_hits = (
            warm_hits if warm_hits is not None else ThreadCounter(0)
        )
        self.cold_starts = (
            cold_starts if cold_starts is not None else ThreadCounter(0)
        )
        #: key -> (loop-tag, executor) pairs, oldest first; key order is
        #: recency.  The tag is the asyncio loop the executor was parked
        #: from, or None for synchronous parks: an executor never crosses
        #: from one loop to another (or between sync and async use) --
        #: its adapter's in-flight machinery belongs to one loop.
        self._entries: Dict[Hashable, List[Tuple[object, object]]] = {}
        self._lock = threading.Lock()

    def lease(
        self, factory: Callable[[], object], key: Optional[Hashable] = None
    ) -> "ExecutorLease":
        """A lease for one test against ``factory``'s target (``key``
        overrides the identity when factories are built per-call)."""
        return ExecutorLease(self, factory, factory if key is None else key)

    def async_lease(
        self, factory: Callable[[], object], key: Optional[Hashable] = None
    ) -> "AsyncExecutorLease":
        """The awaitable counterpart of :meth:`lease`: checkout/checkin
        are coroutines and the parked executors are loop-tagged so
        concurrent sessions on one loop share warmth safely."""
        return AsyncExecutorLease(self, factory, factory if key is None else key)

    def checkout(self, key: Hashable) -> Optional[object]:
        """Claim a warm executor for ``key``, or None on a miss.  The
        entry is *removed*: an executor is only ever owned by one task.
        The most recently parked executor is claimed first (LIFO), so
        sequential reuse keeps touching the same warm session."""
        return self._checkout_tagged(key, None)

    def _checkout_tagged(self, key: Hashable, loop) -> Optional[object]:
        """Claim the most recent warm executor parked under the same
        loop tag.  Entries with a *different* tag are retired on sight:
        their loop is gone (or they belong to the other driving mode)
        and a cross-loop checkout would hand a task an executor whose
        coroutines can never run."""
        mismatched = []
        found = None
        with self._lock:
            stack = self._entries.get(key)
            if stack:
                while stack:
                    tag, executor = stack.pop()
                    if tag is loop:
                        found = executor
                        break
                    mismatched.append(executor)
                if not stack:
                    del self._entries[key]
        for stale in mismatched:
            _retire(stale)
        return found

    def checkin(self, key: Hashable, executor: object) -> None:
        """Park a still-warm executor for the next test of ``key``."""
        for stale in self._checkin_collect(key, executor, None):
            _retire(stale)

    def _checkin_collect(
        self, key: Hashable, executor: object, loop
    ) -> List[object]:
        """Park ``executor`` under its loop tag; returns the executors
        evicted by the depth/size bounds for the caller to stop in its
        own idiom (sync call or await)."""
        evicted: List[object] = []
        with self._lock:
            stack = self._entries.pop(key, None)
            if stack is None:
                stack = []
            if any(parked is executor for _, parked in stack):
                # Cannot happen under the checkout-removes discipline,
                # but a double checkin must not double-park a session.
                self._entries[key] = stack
                return evicted
            stack.append((loop, executor))
            while len(stack) > self.depth:
                evicted.append(stack.pop(0)[1])
            # Key insertion order doubles as recency: checkout/checkin
            # re-append, so the front key is least recently used.
            self._entries[key] = stack
            while (
                self.max_entries is not None
                and sum(len(s) for s in self._entries.values())
                > self.max_entries
            ):
                oldest_key = next(iter(self._entries))
                oldest = self._entries[oldest_key]
                evicted.append(oldest.pop(0)[1])
                if not oldest:
                    del self._entries[oldest_key]
        return evicted

    def release(self, key: Hashable) -> None:
        """Stop and drop every warm executor for ``key``.

        The scheduler calls this when a target's *last* campaign
        finishes, so a long batch holds at most the executors of targets
        still in play instead of one per target ever seen (dozens of
        concurrent browser sessions, for a real WebDriver backend).
        Forked workers instead close their whole private cache on worker
        exit (the transport's ``worker_exit`` hook), bounding held
        executors by the worker's lifetime."""
        with self._lock:
            stack = self._entries.pop(key, [])
        for _, executor in stack:
            _retire(executor)

    def close(self) -> None:
        """Stop and drop every warm executor (end of batch)."""
        with self._lock:
            entries = [
                executor
                for stack in self._entries.values()
                for _, executor in stack
            ]
            self._entries.clear()
        for executor in entries:
            _retire(executor)

    def __len__(self) -> int:
        """Number of parked warm executors (across all keys)."""
        with self._lock:
            return sum(len(stack) for stack in self._entries.values())


class ExecutorLease:
    """One test's claim on a (possibly warm) executor.

    The runner calls :meth:`checkout` with its ``Start`` message in
    place of ``factory() + start()``, and :meth:`checkin` in place of
    ``stop()``; everything between is unchanged.  ``warm`` records
    which path the checkout took (benchmarks and tests read it).
    """

    __slots__ = ("cache", "factory", "key", "warm")

    def __init__(
        self, cache: ExecutorCache, factory: Callable[[], object], key: Hashable
    ) -> None:
        self.cache = cache
        self.factory = factory
        self.key = key
        self.warm = False

    def checkout(self, start: Start) -> object:
        """A started executor for one test: warm-reset when possible,
        freshly constructed otherwise (an async factory's product is
        driven on a private event loop, see
        :func:`~repro.executors.base.ensure_sync_executor`)."""
        executor = self.cache.checkout(self.key) if self.cache.enabled else None
        if executor is not None:
            reset = getattr(executor, "reset", None)
            try:
                was_reset = reset is not None and reset(
                    Reset(start.dependencies, start.events)
                )
            except Exception:
                # A reset blowing up (e.g. the warm session died) must
                # not fail the test: reuse is an optimisation, never a
                # semantics change.  Retire the executor and go cold.
                was_reset = False
            if was_reset:
                self.warm = True
                _bump(self.cache.warm_hits)
                return executor
            # The backend cannot reset: retire it and start cold.
            try:
                executor.stop()
            except Exception:
                pass  # a dead session may refuse even to stop
        self.warm = False
        _bump(self.cache.cold_starts)
        executor = ensure_sync_executor(self.factory())
        executor.start(start)
        return executor

    def checkin(self, executor: object) -> None:
        """Return the executor after the test: parked warm for the next
        lease of the same target, or stopped when reuse is disabled."""
        if self.cache.enabled:
            self.cache.checkin(self.key, executor)
        else:
            executor.stop()


class AsyncExecutorLease:
    """One async session's claim on a (possibly warm) executor.

    The awaitable mirror of :class:`ExecutorLease`, used by
    :meth:`Runner.run_single_test_async
    <repro.checker.runner.Runner.run_single_test_async>`: checkout and
    checkin await the ``Reset``/``stop`` round-trips, and parked
    executors carry the running loop as their tag so a cache shared by
    several loops (or by sync and async callers) never hands a session
    across the boundary.  The factory's product is adapted through
    :func:`~repro.executors.base.ensure_async_executor`, so plain
    synchronous factories work unchanged.
    """

    __slots__ = ("cache", "factory", "key", "warm")

    def __init__(
        self, cache: ExecutorCache, factory: Callable[[], object], key: Hashable
    ) -> None:
        self.cache = cache
        self.factory = factory
        self.key = key
        self.warm = False

    async def checkout(self, start: Start) -> AsyncExecutor:
        """A started async executor for one session: warm-reset when
        possible, freshly constructed (and adapted) otherwise."""
        cache = self.cache
        executor = None
        if cache.enabled:
            executor = cache._checkout_tagged(
                self.key, asyncio.get_running_loop()
            )
        if executor is not None:
            try:
                was_reset = await executor.reset(
                    Reset(start.dependencies, start.events)
                )
            except Exception:
                # Same contract as the sync lease: a warm session dying
                # mid-reset costs a cold start, never a failed test.
                was_reset = False
            if was_reset:
                self.warm = True
                _bump(cache.warm_hits)
                return executor
            await _stop_parked(executor)
        self.warm = False
        _bump(cache.cold_starts)
        executor = ensure_async_executor(self.factory())
        await executor.start(start)
        return executor

    async def checkin(self, executor: AsyncExecutor) -> None:
        """Park the executor under this loop's tag (stopping whatever
        the bounds evict), or stop it when reuse is disabled."""
        if self.cache.enabled:
            evicted = self.cache._checkin_collect(
                self.key, executor, asyncio.get_running_loop()
            )
            for stale in evicted:
                await _stop_parked(stale)
        else:
            await executor.stop()
