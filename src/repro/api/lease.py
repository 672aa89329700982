"""Executor lifecycle management: warm reuse between consecutive tests.

Every generated test used to pay full executor construction plus a
``Start`` warm-up -- the per-session overhead that dominates parallel
PBT runtimes once campaigns get small (QuickerCheck's observation, and
exactly the shape of the paper's 43-implementation audit and of
``check_all``'s many-properties x one-app batches).  This module
amortises it:

* :class:`ExecutorCache` holds one worker's *parked* executor: the one
  its last test used, kept warm for the next.  Every worker runs one
  test at a time and takes tasks in campaign order, so a target's tests
  reach it one after another and one slot is all reuse needs (a batch
  that returns to a factory after another target's campaign, such as a
  ``check_many`` interleaving session-app and own-app targets, starts
  that return cold).  One cache is created (empty) per
  batch, **before** the worker pool forks: each forked worker then owns
  a private copy-on-write instance, so warm executors never cross
  process boundaries, while an inline batch uses the instance itself.
  Remote ``repro worker`` processes (the TCP transport) are not forked
  from the coordinator at all -- each builds its *own* per-process
  cache and reports each lease's warm flag back inside result frames,
  so the batch metrics still add up.
* :class:`ExecutorLease` is one test's claim on an executor.
  ``Runner.run_single_test`` calls ``checkout`` in place of construct +
  ``Start`` and ``checkin`` in place of ``stop``.  ``checkout`` takes
  the parked executor when it tests the same target and asks it to
  :meth:`~repro.executors.base.Executor.reset` (the ``Reset`` protocol
  message); a backend that declines -- or a parked executor of another
  target, or none -- falls back to the classic construct + ``Start``
  path, so reuse is always an optimisation, never a semantics change.
  ``checkin`` parks the executor for the next test instead of stopping
  it.

Whatever leaves the slot unused is stopped at once: another target's
executor before a checkout constructs its own, the one a checkin
displaces, and the last one at :meth:`ExecutorCache.close`.  So a
worker holds at most one live session between tests, however many
targets it serves.  A parked executor that refuses to stop (its session
died) never fails a test or a batch: every stop goes through one
error-swallowing helper.

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
from typing import Callable, Optional, Tuple

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
    """One worker's parked executor, with the factory that built it.

    The target's identity is the executor *factory object*: every test
    of a campaign shares its runner's factory, and ``check_all`` /
    session-app ``check_many`` batches share one factory across
    campaigns, so warm reuse spans exactly the consecutive tasks that
    test the same application.  Distinct targets have distinct factories
    and can never receive each other's executors.

    ``enabled=False`` turns the cache into a pass-through (every
    checkout is a cold start, every checkin a stop) -- the cold baseline
    the warm path is benchmarked and equivalence-tested against.

    ``warm_hits`` / ``cold_starts`` may be shared counters created with
    :meth:`~repro.api.transport.PoolTransport.make_counter` so forked
    workers aggregate into one number; they default to in-process
    counters.
    """

    def __init__(self, enabled: bool = True, warm_hits=None,
                 cold_starts=None) -> None:
        self.enabled = enabled
        self.warm_hits = (
            warm_hits if warm_hits is not None else ThreadCounter(0)
        )
        self.cold_starts = (
            cold_starts if cold_starts is not None else ThreadCounter(0)
        )
        #: ``(factory, executor)`` parked by the last checkin, or None.
        self._parked: Optional[Tuple[Callable[[], object], object]] = None
        self._lock = threading.Lock()

    def lease(self, factory: Callable[[], object]) -> "ExecutorLease":
        """A lease for one test against ``factory``'s target."""
        return ExecutorLease(self, factory)

    def _take(self) -> Optional[Tuple[Callable[[], object], object]]:
        """Empty the slot: an executor is only ever owned by one test."""
        with self._lock:
            parked, self._parked = self._parked, None
        return parked

    def _park(self, factory: Callable[[], object], executor: object) -> None:
        """Park ``executor``, stopping whatever it displaces."""
        with self._lock:
            displaced, self._parked = self._parked, (factory, executor)
        if displaced is not None and displaced[1] is not executor:
            _stop_parked(displaced[1])

    def close(self) -> None:
        """Stop and drop the parked executor (end of batch or worker)."""
        parked = self._take()
        if parked is not None:
            _stop_parked(parked[1])

    def __len__(self) -> int:
        """Number of parked warm executors (0 or 1)."""
        return int(self._parked is not None)


class ExecutorLease:
    """One test's claim on a (possibly warm) executor.

    The runner calls :meth:`checkout` with its ``Start`` message in
    place of ``factory() + start()``, and :meth:`checkin` in place of
    ``stop()``; everything between is unchanged.  ``warm`` records which
    path the checkout took (benchmarks, tests and remote workers' result
    frames read it).
    """

    __slots__ = ("cache", "factory", "warm")

    def __init__(
        self, cache: ExecutorCache, factory: Callable[[], object]
    ) -> None:
        self.cache = cache
        self.factory = factory
        self.warm = False

    def checkout(self, start: Start):
        """A started executor for one test: warm-reset when possible,
        freshly constructed otherwise."""
        cache = self.cache
        parked = cache._take() if cache.enabled else None
        if parked is not None:
            factory, executor = parked
            # Another target's executor is never reset, and backends
            # without a reset method (duck-typed executors from before
            # the Reset protocol) always fall back cold.
            reset = (getattr(executor, "reset", None)
                     if factory == self.factory else None)
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
            # Retire it before constructing a new one, so a worker
            # never holds two live sessions.
            _stop_parked(executor)
        self.warm = False
        _bump(cache.cold_starts)
        executor = self.factory()
        executor.start(start)
        return executor

    def checkin(self, executor) -> None:
        """Park the executor for the next test (stopping the one it
        displaces), or stop it when reuse is disabled."""
        if self.cache.enabled:
            self.cache._park(self.factory, executor)
        else:
            executor.stop()
