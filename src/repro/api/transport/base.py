"""The transport seam: tasks, outcomes, and the ``PoolTransport`` ABC.

Everything a scheduler needs to know about *how* its tasks run lives
behind :class:`PoolTransport`:

* **submit** -- :meth:`PoolTransport.run` takes the batch's
  :class:`PoolTask` list and the requested width;
* **collect** -- outcomes stream back as ``(worker_id, elapsed,
  outcome)`` tuples (folded into the caller's ``PoolMetrics`` and
  ``on_result`` callback in completion order; the *merge* order is the
  caller's business);
* **announce** -- every transport knows which task each worker is
  holding, so a dead worker is reported (or requeued) with the exact
  ``(campaign, index)`` it was running;
* **lifecycle** -- :meth:`PoolTransport.close` tears down whatever the
  transport owns (forked children die with the batch; remote workers
  are told to shut down);
* **capacity** -- :meth:`PoolTransport.capacity` reports how much
  useful parallelism the transport can offer (the local CPU count, or
  the summed slots of connected remote workers), which is what the
  adaptive ``--jobs auto`` heuristic clamps against.

The task vocabulary (:class:`PoolTask`, :data:`SKIPPED`,
:class:`TaskFailure`, :class:`WorkerCrashed`) is shared by every
transport, so the one campaign loop
(:class:`~repro.api.scheduler.PooledScheduler`) speaks to all of them
alike.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from typing import Callable, Dict, Hashable, List, Optional, Sequence

__all__ = [
    "SKIPPED",
    "PoolTask",
    "PoolTransport",
    "TaskFailure",
    "ThreadCounter",
    "WorkerCrashed",
    "fork_context",
    "resolve_transport",
    "run_task",
]


class _SkippedType:
    """The type of :data:`SKIPPED`.  Equality is by type, not identity:
    the sentinel crosses the process boundary by pickling, so consumers
    must compare with ``==``, never ``is`` -- and no task return value
    (strings included) can collide with it."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "SKIPPED"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _SkippedType)

    def __hash__(self) -> int:
        return hash(_SkippedType)


#: Outcome sentinel for a task whose ``skip`` predicate fired (in the
#: worker for local transports; on the coordinator for remote ones).
SKIPPED = _SkippedType()


class ThreadCounter:
    """In-process stand-in for ``multiprocessing.Value('i', ...)``."""

    __slots__ = ("value", "_lock")

    def __init__(self, initial: int) -> None:
        import threading

        self.value = initial
        self._lock = threading.Lock()

    def get_lock(self):
        return self._lock


class PoolTask:
    """One unit of work: an id, a thunk, and optional remote/skip hooks.

    ``skip`` is evaluated immediately before the task runs -- in the
    worker for local transports, on the coordinator at dispatch time
    for remote ones; when it returns true the task's outcome is
    :data:`SKIPPED`.  Skip predicates typically read a shared counter
    made with :meth:`PoolTransport.make_counter` (a stop-on-failure
    horizon).

    ``payload`` is a JSON-able description of the work for transports
    whose workers cannot run the closure (remote hosts re-create the
    runner from it; see :mod:`repro.api.transport.worker`).  ``record``
    is the coordinator-side half of the thunk's shared-state updates: a
    remote worker cannot touch the coordinator's counters, so the
    transport calls ``record(result)`` as each remote result arrives
    (local transports never call it -- their thunks already ran it).
    """

    __slots__ = ("id", "thunk", "skip", "payload", "record")

    def __init__(
        self,
        id: Hashable,
        thunk: Callable[[], object],
        skip: Optional[Callable[[], bool]] = None,
        payload: Optional[dict] = None,
        record: Optional[Callable[[object], None]] = None,
    ) -> None:
        self.id = id
        self.thunk = thunk
        self.skip = skip
        self.payload = payload
        self.record = record


class TaskFailure:
    """Wraps an exception raised inside a task for transport."""

    __slots__ = ("error",)

    def __init__(self, error: BaseException) -> None:
        self.error = error


class WorkerCrashed(RuntimeError):
    """A worker exited abnormally.

    ``in_flight`` names the task ids the dead worker(s) had announced
    but not finished -- the precise work that died.  ``unreported`` is
    the (possibly larger) set of submitted ids with no outcome.
    """

    def __init__(
        self,
        message: str,
        in_flight: Sequence[Hashable] = (),
        unreported: Sequence[Hashable] = (),
    ) -> None:
        super().__init__(message)
        self.in_flight = list(in_flight)
        self.unreported = list(unreported)


def run_task(task: PoolTask) -> object:
    """Task body shared by the local transports (and the remote worker's
    moral equivalent).

    ``Exception`` is transported; ``KeyboardInterrupt``/``SystemExit``
    are not caught -- they must take the worker down (the parent then
    reports which task died).
    """
    if task.skip is not None and task.skip():
        return SKIPPED
    try:
        return task.thunk()
    except Exception as err:
        return TaskFailure(err)


class PoolTransport(ABC):
    """Strategy for moving a task batch to workers and outcomes back.

    Implementations must key outcomes by ``task.id``, report per-task
    ``(worker_id, elapsed)`` through ``metrics.record_task``, call
    ``on_result`` in completion order, and raise :class:`WorkerCrashed`
    -- naming the in-flight task ids -- when work is lost for good.
    """

    #: Short name surfaced in ``PoolMetrics.transport`` and ``--format
    #: json`` output ("fork" | "thread" | "tcp").
    name: str = "?"

    #: True when workers live outside this process (task closures
    #: cannot reach them; schedulers must attach ``payload``s, and the
    #: transport outlives individual ``run`` calls).
    remote: bool = False

    #: Worker handles of the most recent run (processes, threads, or
    #: remote-connection records); kept for post-mortem asserts.
    last_workers: List[object] = []

    @abstractmethod
    def run(
        self,
        tasks: Sequence[PoolTask],
        jobs: int,
        on_result: Optional[Callable[[Hashable, object], None]] = None,
        metrics=None,
        worker_exit: Optional[Callable[[], None]] = None,
    ) -> Dict[Hashable, object]:
        """Run every task, returning ``{task_id: outcome}``."""

    def capacity(self) -> int:
        """Maximum useful parallel width this transport can serve."""
        import os

        return os.cpu_count() or 1

    def make_counter(self, initial: int):
        """A shared integer (``.value`` + ``.get_lock()``) visible to
        this transport's *local* task hooks.  Fork transports return
        shared memory; everything else an in-process counter (remote
        workers never touch coordinator counters -- that is what
        :attr:`PoolTask.record` exists for)."""
        return ThreadCounter(initial)

    def close(self) -> None:
        """Release whatever the transport owns (sockets, processes).
        Local transports tear down per-``run`` and need nothing here."""

    # ------------------------------------------------------------------
    # Shared collect-loop helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _heartbeat_wait() -> float:
        """Collector poll period: doubles as the queue-depth sampling
        heartbeat while the result stream is quiet."""
        return 0.2

    @staticmethod
    def _now() -> float:
        return time.monotonic()


def fork_context():
    """The ``fork`` multiprocessing context, or None where the platform
    has none (the seam tests monkeypatch to simulate such platforms)."""
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None


def resolve_transport(transport) -> PoolTransport:
    """Turn a ``transport=`` knob into a :class:`PoolTransport`.

    ``None`` picks the platform default (fork where available, threads
    otherwise); ``"fork"`` and ``"thread"`` force a local mode; a
    :class:`PoolTransport` instance is used as-is.
    """
    from .local import ForkTransport, ThreadTransport

    if transport is None:
        ctx = fork_context()
        return ForkTransport(ctx) if ctx is not None else ThreadTransport()
    if isinstance(transport, PoolTransport):
        return transport
    if transport == "fork":
        ctx = fork_context()
        if ctx is None:
            raise ValueError("transport='fork' is unavailable on this platform")
        return ForkTransport(ctx)
    if transport == "thread":
        return ThreadTransport()
    raise ValueError(
        f"unknown transport {transport!r}; pass 'fork', 'thread' or a "
        "PoolTransport instance (e.g. TcpTransport for remote workers)"
    )
