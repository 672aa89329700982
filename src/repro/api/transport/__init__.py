"""Pool transports: how a batch of tasks reaches its workers.

The campaign loop (:class:`~repro.api.scheduler.PooledScheduler`) is
transport-agnostic: it builds
:class:`~repro.api.transport.base.PoolTask` batches, hands them to a
:class:`~repro.api.transport.base.PoolTransport`, and merges the
collected ``(worker_id, elapsed, outcome)`` stream in deterministic
campaign/index order.  Every worker behind it is a plain pull loop
that runs one test at a time, start to finish; parallelism comes from
more workers.  This package provides the seam and its four
implementations:

* :class:`~repro.api.transport.local.InlineTransport` -- the caller's
  thread: the serial loop,
* :class:`~repro.api.transport.local.ForkTransport` -- the classic
  fork-once worker pool (POSIX; ships closures for free via CoW),
* :class:`~repro.api.transport.local.ThreadTransport` -- identical
  semantics on platforms without ``fork`` (less parallelism under the
  GIL),
* :class:`~repro.api.transport.tcp.TcpTransport` -- a coordinator-side
  work queue serving remote ``repro worker --connect HOST:PORT``
  processes over a length-prefixed JSON protocol, sharding a batch
  across hosts while the coordinator's ordered merge keeps distributed
  verdicts identical to serial ones.

:mod:`~repro.api.transport.worker` (imported lazily -- it pulls in the
spec front end) is the remote worker's half of the TCP protocol.
"""

from .base import (
    SKIPPED,
    PoolTask,
    PoolTransport,
    TaskFailure,
    ThreadCounter,
    WorkerCrashed,
    fork_context,
    resolve_transport,
)
from .local import ForkTransport, InlineTransport, ThreadTransport
from .tcp import TcpTransport

__all__ = [
    "SKIPPED",
    "PoolTask",
    "PoolTransport",
    "TaskFailure",
    "ThreadCounter",
    "WorkerCrashed",
    "fork_context",
    "resolve_transport",
    "ForkTransport",
    "InlineTransport",
    "ThreadTransport",
    "TcpTransport",
]
