"""Executor lifecycle management: warm reuse across tests and campaigns.

Every generated test used to pay full executor construction plus a
``Start`` warm-up -- the per-session overhead that dominates parallel
PBT runtimes once campaigns get small (QuickerCheck's observation, and
exactly the shape of the paper's 43-implementation audit and of
``check_all``'s many-properties x one-app batches).  This module
amortises it:

* :class:`ExecutorCache` holds one *warm* executor per target
  identity.  One cache is created (empty) per batch, **before** the
  worker pool forks: each forked worker then owns a private
  copy-on-write instance, so warm executors never cross process
  boundaries, while an inline batch uses the instance itself.  Remote
  ``repro worker`` processes (the TCP transport) are not forked from
  the coordinator at all -- each builds its *own* per-process cache
  from the task's remote descriptor and reports each lease's warm flag
  back inside result frames, so the batch metrics still add up.  Every
  worker runs one test at a time, so no two leases of one cache
  overlap, and one parked executor per target is all reuse needs.
* :class:`ExecutorLease` is one test's claim on an executor.
  ``Runner.run_single_test`` calls ``checkout`` in place of construct +
  ``Start`` and ``checkin`` in place of ``stop``.  ``checkout`` prefers
  a warm executor from the cache and asks it to
  :meth:`~repro.executors.base.Executor.reset` (the ``Reset`` protocol
  message); a backend that declines -- or a cache miss -- falls back to
  the classic construct + ``Start`` path, so reuse is always an
  optimisation, never a semantics change.  ``checkin`` parks the
  executor for the next test instead of stopping it.

A parked executor that refuses to stop (its session died) never fails a
test or a batch: eviction, :meth:`ExecutorCache.release` and
:meth:`ExecutorCache.close` all stop through one error-swallowing
helper, so one dead session cannot leak the executors parked after it.

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

import threading
from typing import Callable, Dict, Hashable, List, Optional

from ..protocol.messages import Reset, Start
from .transport.base import ThreadCounter

__all__ = ["ExecutorCache", "ExecutorLease"]


def _bump(counter) -> None:
    with counter.get_lock():
        counter.value += 1


def _stop_parked(executor) -> None:
    """Stop a parked executor; a dead session refusing to stop must
    not fail the test or the batch."""
    try:
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
    at once (one per key); checking in past the bound stops and evicts
    the least-recently-used entry.  The scheduler sets it so a forked
    worker that serves many targets over a long audit never accumulates
    one live session per target ever seen.  A checkin onto a key that
    already holds an executor parks the newer one and stops the older.
    """

    def __init__(
        self,
        enabled: bool = True,
        warm_hits=None,
        cold_starts=None,
        max_entries: Optional[int] = None,
    ) -> None:
        self.enabled = enabled
        self.max_entries = max_entries
        self.warm_hits = (
            warm_hits if warm_hits is not None else ThreadCounter(0)
        )
        self.cold_starts = (
            cold_starts if cold_starts is not None else ThreadCounter(0)
        )
        #: key -> parked executor; key order is recency.
        self._entries: Dict[Hashable, object] = {}
        self._lock = threading.Lock()

    def lease(
        self, factory: Callable[[], object], key: Optional[Hashable] = None
    ) -> "ExecutorLease":
        """A lease for one test against ``factory``'s target (``key``
        overrides the identity when factories are built per-call)."""
        return ExecutorLease(self, factory, factory if key is None else key)

    def _checkout(self, key: Hashable) -> Optional[object]:
        """Claim the warm executor for ``key``, or None on a miss.  The
        entry is *removed*: an executor is only ever owned by one
        test."""
        with self._lock:
            return self._entries.pop(key, None)

    def _checkin_collect(self, key: Hashable, executor: object) -> List[object]:
        """Park ``executor``; returns the executors it displaced (an
        older one of the same key, and any the size bound evicts) for
        the caller to stop."""
        evicted: List[object] = []
        with self._lock:
            parked = self._entries.pop(key, None)
            if parked is not None and parked is not executor:
                evicted.append(parked)
            # Key insertion order doubles as recency: checkout/checkin
            # re-append, so the front key is least recently used.
            self._entries[key] = executor
            while (
                self.max_entries is not None
                and len(self._entries) > self.max_entries
            ):
                evicted.append(self._entries.pop(next(iter(self._entries))))
        return evicted

    def release(self, key: Hashable) -> None:
        """Stop and drop the warm executor for ``key``.

        The scheduler calls this when a target's *last* campaign
        finishes, so a long batch holds at most the executors of targets
        still in play instead of one per target ever seen (dozens of
        concurrent browser sessions, for a real WebDriver backend).
        Forked workers instead close their whole private cache on worker
        exit (the transport's ``worker_exit`` hook), bounding held
        executors by the worker's lifetime."""
        with self._lock:
            executor = self._entries.pop(key, None)
        if executor is not None:
            _stop_parked(executor)

    def close(self) -> None:
        """Stop and drop every warm executor (end of batch)."""
        with self._lock:
            entries = list(self._entries.values())
            self._entries.clear()
        for executor in entries:
            _stop_parked(executor)

    def __len__(self) -> int:
        """Number of parked warm executors."""
        with self._lock:
            return len(self._entries)


class ExecutorLease:
    """One test's claim on a (possibly warm) executor.

    The runner calls :meth:`checkout` with its ``Start`` message in
    place of ``factory() + start()``, and :meth:`checkin` in place of
    ``stop()``; everything between is unchanged.  ``warm`` records which
    path the checkout took (benchmarks, tests and remote workers' result
    frames read it).
    """

    __slots__ = ("cache", "factory", "key", "warm")

    def __init__(
        self, cache: ExecutorCache, factory: Callable[[], object], key: Hashable
    ) -> None:
        self.cache = cache
        self.factory = factory
        self.key = key
        self.warm = False

    def checkout(self, start: Start):
        """A started executor for one test: warm-reset when possible,
        freshly constructed otherwise."""
        cache = self.cache
        executor = cache._checkout(self.key) if cache.enabled else None
        if executor is not None:
            # Backends without a reset method (duck-typed executors from
            # before the Reset protocol) always fall back cold.
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
                _bump(cache.warm_hits)
                return executor
            # The backend cannot reset: retire it and start cold.
            _stop_parked(executor)
        self.warm = False
        _bump(cache.cold_starts)
        executor = self.factory()
        executor.start(start)
        return executor

    def checkin(self, executor) -> None:
        """Park the executor for the next lease of the same target
        (stopping whatever the bounds evict), or stop it when reuse is
        disabled."""
        if self.cache.enabled:
            for stale in self.cache._checkin_collect(self.key, executor):
                _stop_parked(stale)
        else:
            executor.stop()
