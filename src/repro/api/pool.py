"""Batch metrics and pool-width policy for the campaign loop.

:class:`PoolMetrics` is what one
:class:`~repro.api.scheduler.PooledScheduler` batch reports, whichever
:class:`~repro.api.transport.PoolTransport` ran it:

* :class:`~repro.api.transport.InlineTransport` -- the caller's thread
  (every width-1 local batch);
* :class:`~repro.api.transport.ForkTransport` -- forked processes (the
  default on POSIX; closures ship by copy-on-write);
* :class:`~repro.api.transport.ThreadTransport` -- identical semantics
  where ``fork`` is unavailable;
* :class:`~repro.api.transport.TcpTransport` -- remote ``repro worker``
  processes pulling task descriptors over TCP.

:func:`resolve_jobs` validates and defaults a ``jobs=`` width, and
:func:`suggest_jobs` is the adaptive ``--jobs auto`` heuristic that
reads a finished batch's metrics.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["PoolMetrics", "resolve_jobs", "suggest_jobs"]

#: Queue-depth sampling stops growing past this many points; enough to
#: plot any realistic batch without unbounded memory on huge ones.
_MAX_QUEUE_SAMPLES = 4096


@dataclass
class PoolMetrics:
    """Observability for one scheduled batch (pool-level backpressure).

    Filled by the transport (per-task numbers) and by the scheduler
    (campaign wall-clock, warm/cold executor counts from the
    :class:`~repro.api.lease.ExecutorCache`), then handed to
    reporters through ``on_session_end`` and surfaced by
    ``JsonlReporter`` / ``--format json``.  The queue-depth and
    utilisation numbers are what guide ``--jobs`` on big machines: a
    queue that never drains wants more workers, workers far below 100%
    busy want fewer.

    * ``queue_depth_samples`` -- submitted-but-unfinished task counts,
      sampled every time the collector loop polls (so roughly every
      completion, plus a 5 Hz heartbeat while the queue is quiet);
    * ``worker_tasks`` / ``worker_busy_s`` -- per-worker task counts and
      cumulative task runtime, keyed by worker id;
    * ``worker_hosts`` -- where each worker lives: ``"local"`` for
      fork/thread workers, ``"pid@host"`` for remote ones, so crash
      reports and utilisation tables attribute work to machines;
    * ``warm_hits`` / ``cold_starts`` -- executor checkouts served by a
      warm reset vs full construction (zero/zero when no lease layer is
      in play);
    * ``campaign_wall_s`` -- per-campaign wall-clock, label-keyed, from
      first merged result to campaign completion (campaigns overlap
      under pooling, so these may sum to more than ``wall_s``);
    * ``intern_hits`` / ``intern_misses`` -- each test's hash-cons
      lookups (:func:`repro.quickltl.push_intern_counter`), summed: a
      high hit ratio means the compiled engine reused existing nodes
      instead of allocating (a reused step constructs none);
    * ``steps_reused`` -- steps the step table served (``to_dict`` adds
      the observed states, ``states_observed``, and their share); like
      the intern counts it varies with the transport, so JUnit and text
      reports leave both out;
    * ``max_formula_size`` -- the largest progressed-formula size any
      test's checker recorded;
    * ``query_width_sum`` / ``query_width_states`` -- total captured
      query entries over total observed states
      (:attr:`mean_query_width`); under residual-driven narrowing the
      mean drops below the spec's full dependency-set width.
    """

    jobs: int = 1
    transport: str = "serial"  # "serial" | "fork" | "thread" | "tcp"
    wall_s: float = 0.0
    tasks_total: int = 0
    tasks_completed: int = 0
    tasks_skipped: int = 0
    warm_hits: int = 0
    cold_starts: int = 0
    intern_hits: int = 0
    intern_misses: int = 0
    max_formula_size: int = 0
    query_width_sum: int = 0
    query_width_states: int = 0
    steps_reused: int = 0
    queue_depth_samples: List[int] = field(default_factory=list)
    worker_tasks: Dict[int, int] = field(default_factory=dict)
    worker_busy_s: Dict[int, float] = field(default_factory=dict)
    worker_hosts: Dict[int, str] = field(default_factory=dict)
    campaign_wall_s: Dict[str, float] = field(default_factory=dict)

    # -- recording (hot path: keep cheap) ------------------------------

    def record_task(
        self,
        worker_id: int,
        elapsed_s: float,
        skipped: bool,
        host: Optional[str] = None,
    ) -> None:
        self.tasks_completed += 1
        if skipped:
            self.tasks_skipped += 1
        self.worker_tasks[worker_id] = self.worker_tasks.get(worker_id, 0) + 1
        self.worker_busy_s[worker_id] = (
            self.worker_busy_s.get(worker_id, 0.0) + elapsed_s
        )
        if host is not None:
            self.worker_hosts[worker_id] = host

    def record_engine(self, result) -> None:
        """Fold one :class:`~repro.checker.result.TestResult`'s compiled-
        engine statistics (intern counts, reused steps, peak formula
        size, captured query widths) into the batch totals."""
        self.intern_hits += getattr(result, "intern_hits", 0)
        self.intern_misses += getattr(result, "intern_misses", 0)
        self.steps_reused += getattr(result, "steps_reused", 0)
        self.max_formula_size = max(
            self.max_formula_size, getattr(result, "max_formula_size", 0)
        )
        self.query_width_sum += getattr(result, "query_width_sum", 0)
        self.query_width_states += getattr(result, "states_observed", 0)

    def sample_queue_depth(self, depth: int) -> None:
        if len(self.queue_depth_samples) < _MAX_QUEUE_SAMPLES:
            self.queue_depth_samples.append(depth)

    # -- derived views -------------------------------------------------

    @property
    def max_queue_depth(self) -> int:
        return max(self.queue_depth_samples, default=0)

    @property
    def warm_hit_ratio(self) -> float:
        checkouts = self.warm_hits + self.cold_starts
        return self.warm_hits / checkouts if checkouts else 0.0

    @property
    def intern_hit_ratio(self) -> float:
        """Fraction of formula constructions served by the hash-cons
        table (existing node returned, nothing allocated)."""
        constructions = self.intern_hits + self.intern_misses
        return self.intern_hits / constructions if constructions else 0.0

    @property
    def mean_query_width(self) -> float:
        """Mean captured queries per observed state across the batch."""
        if not self.query_width_states:
            return 0.0
        return self.query_width_sum / self.query_width_states

    def mean_utilisation(self) -> float:
        """Mean per-worker busy fraction (0.0 with no recorded work)."""
        fractions = self.utilisation()
        if not fractions:
            return 0.0
        return sum(fractions.values()) / len(fractions)

    def utilisation(self) -> Dict[int, float]:
        """Per-worker busy fraction of the batch's wall-clock."""
        if self.wall_s <= 0:
            return {worker: 0.0 for worker in self.worker_tasks}
        return {
            worker: busy / self.wall_s
            for worker, busy in sorted(self.worker_busy_s.items())
        }

    def host_tasks(self) -> Dict[str, int]:
        """Task counts aggregated per host label -- the distributed
        batch's sharding picture at a glance."""
        totals: Dict[str, int] = {}
        for worker, count in self.worker_tasks.items():
            host = self.worker_hosts.get(worker, "local")
            totals[host] = totals.get(host, 0) + count
        return totals

    def to_dict(self) -> dict:
        """JSON-ready summary (what ``--format json`` emits)."""
        return {
            "jobs": self.jobs,
            "transport": self.transport,
            "wall_s": round(self.wall_s, 4),
            "tasks_total": self.tasks_total,
            "tasks_completed": self.tasks_completed,
            "tasks_skipped": self.tasks_skipped,
            "warm_hits": self.warm_hits,
            "cold_starts": self.cold_starts,
            "warm_hit_ratio": round(self.warm_hit_ratio, 4),
            "intern_hits": self.intern_hits,
            "intern_misses": self.intern_misses,
            "intern_hit_ratio": round(self.intern_hit_ratio, 4),
            "states_observed": self.query_width_states,
            "steps_reused": self.steps_reused,
            "step_reuse_ratio": round(self.steps_reused / max(self.query_width_states, 1), 4),
            "max_formula_size": self.max_formula_size,
            "mean_query_width": round(self.mean_query_width, 4),
            "max_queue_depth": self.max_queue_depth,
            "worker_tasks": {
                str(worker): count
                for worker, count in sorted(self.worker_tasks.items())
            },
            "worker_utilisation": {
                str(worker): round(fraction, 4)
                for worker, fraction in self.utilisation().items()
            },
            "worker_hosts": {
                str(worker): host
                for worker, host in sorted(self.worker_hosts.items())
            },
            "host_tasks": dict(sorted(self.host_tasks().items())),
            "campaign_wall_s": {
                label: round(seconds, 4)
                for label, seconds in self.campaign_wall_s.items()
            },
        }


def resolve_jobs(jobs: Optional[int]) -> int:
    """Validate and default a worker count (shared by every layer that
    takes a ``jobs=`` knob, so the default lives in one place)."""
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    return jobs if jobs is not None else (os.cpu_count() or 1)


def suggest_jobs(
    metrics: Optional["PoolMetrics"],
    cpu: Optional[int] = None,
    capacity: Optional[int] = None,
) -> int:
    """Pool width for the next batch, from a finished batch's metrics.

    The adaptive ``--jobs auto`` heuristic (pinned by
    ``tests/api/test_adaptive_jobs.py``), driven by the two signals
    :class:`PoolMetrics` records for exactly this purpose:

    * **scale up** (double, capped at the transport capacity) when the
      task queue stayed deep (max depth over twice the pool width) *and*
      the workers were genuinely busy (mean utilisation >= 75%) -- more
      hands would have drained the backlog;
    * **scale down** (halve, floor 1) when workers sat idle (mean
      utilisation < 40%) -- the batch couldn't feed them;
    * otherwise **keep** the recorded width (clamped to the capacity).

    ``capacity`` is the active transport's
    :meth:`~repro.api.transport.PoolTransport.capacity` report: the
    local CPU count for fork/thread pools, but the *summed remote
    slots* for a TCP fabric -- a coordinator driving 4 hosts x 8 cores
    must be allowed to suggest 32 even though its own ``os.cpu_count()``
    is small.  When ``capacity`` is omitted the local CPU count (or the
    explicit ``cpu`` override) is the clamp, as before.

    With no history (``None``, or a batch that recorded no per-worker
    work) it falls back to the clamp itself, like :func:`resolve_jobs`.
    """
    cpu = cpu if cpu is not None else (os.cpu_count() or 1)
    limit = max(capacity if capacity is not None else cpu, 1)
    if metrics is None or metrics.jobs < 1 or not metrics.worker_busy_s:
        return limit
    width = metrics.jobs
    busy = metrics.mean_utilisation()
    if metrics.max_queue_depth > 2 * width and busy >= 0.75:
        return min(limit, width * 2)
    if busy < 0.40 and width > 1:
        return max(1, width // 2)
    return max(1, min(width, limit))
