"""The local transports: the caller's thread and forked processes.

* :class:`InlineTransport` -- no workers at all: tasks run in the
  caller's thread, one at a time.  Every width-1 batch runs here, and
  so does a batch of any width on a platform without ``fork``.
* :class:`ForkTransport` -- workers are created with the ``fork`` start
  method.  Task bodies are closures over executor factories, which
  ``spawn`` cannot pickle; fork ships them for free.  All tasks must
  therefore be known when :meth:`ForkTransport.run` forks -- the pool
  amortises fork cost by being forked once *per batch* (one batch = one
  multi-campaign audit), not once per campaign.

Dispatch is dynamic in the fork transport: task ids flow through a
queue and every worker is the same plain pull loop -- take the next id,
run its task to completion, report, repeat until a sentinel -- so a
slow campaign cannot strand the pool the way static round-robin can.
Determinism is unaffected -- outcomes are keyed by task id and merged
in submission order by the caller.

``KeyboardInterrupt``/``SystemExit`` inside a task are deliberately not
caught: inline they propagate to the caller, as in a plain loop; in a
forked worker they kill it promptly.  The parent's collect loop tears
the pool down (terminate + join) on any error, including an interrupt
delivered to the parent itself, so a Ctrl-C never leaks worker
processes.
"""

from __future__ import annotations

import queue as queue_module
import time
from typing import Dict, Hashable

from .base import SKIPPED, PoolTransport, WorkerCrashed, run_task

__all__ = ["ForkTransport", "InlineTransport"]

#: Host label for local workers in ``PoolMetrics.worker_hosts``.
LOCAL_HOST = "local"


class InlineTransport(PoolTransport):
    """Runs the batch in the caller's thread.

    Each task's thunk runs in submission order, so every width-1 local
    batch -- and every batch where ``fork`` is unavailable -- starts its
    tests through ``Runner.run_single_test`` in the caller's thread
    exactly as in a plain loop.  ``jobs`` and ``worker_exit`` do not
    apply: there are no workers.
    """

    name = "serial"

    def run(
        self, tasks, jobs, on_result=None, metrics=None, worker_exit=None
    ) -> Dict[Hashable, object]:
        outcomes: Dict[Hashable, object] = {}
        for position, task in enumerate(tasks):
            if metrics is not None:
                metrics.sample_queue_depth(len(tasks) - position)
            started = time.perf_counter()
            outcome = run_task(task)
            elapsed = time.perf_counter() - started
            outcomes[task.id] = outcome
            if metrics is not None:
                metrics.record_task(0, elapsed, outcome == SKIPPED)
            if on_result is not None:
                on_result(task.id, outcome, elapsed)
        return outcomes


class ForkTransport(PoolTransport):
    """A bounded set of forked workers fed from a task queue.

    Each forked worker pulls positions from the queue and runs each
    task start to finish on its own thread.
    """

    name = "fork"

    def __init__(self, ctx) -> None:
        if ctx is None:
            raise ValueError("ForkTransport needs a fork multiprocessing context")
        self._ctx = ctx
        self.last_workers = []

    def make_counter(self, initial: int):
        """Shared memory: must be created *before* ``run`` forks."""
        return self._ctx.Value("i", initial)

    def run(
        self, tasks, jobs, on_result=None, metrics=None, worker_exit=None
    ) -> Dict[Hashable, object]:
        ctx = self._ctx
        workers = min(jobs, len(tasks))
        by_position = {position: task for position, task in enumerate(tasks)}
        task_queue = ctx.Queue()
        result_queue = ctx.Queue()
        # Per-worker announcement slots, written through shared memory
        # *synchronously* before a task runs.  A queue message could be
        # lost when ``os._exit`` kills the feeder thread mid-flush; the
        # shared write cannot, so crash attribution survives even the
        # rudest deaths.
        announce = ctx.Array("i", [-1] * workers, lock=False)
        for position in range(len(tasks)):
            task_queue.put(position)
        # One sentinel per worker: every worker pulls until it eats one.
        for _ in range(workers):
            task_queue.put(-1)

        def work(worker_id: int) -> None:
            try:
                while True:
                    position = task_queue.get()
                    if position < 0:
                        break
                    announce[worker_id] = position
                    started = time.perf_counter()
                    outcome = run_task(by_position[position])
                    elapsed = time.perf_counter() - started
                    result_queue.put((position, outcome, worker_id, elapsed))
            finally:
                # Clean worker shutdown: release per-worker state (the
                # parked executor) that only exists in this forked child.
                if worker_exit is not None:
                    worker_exit()

        processes = [
            ctx.Process(target=work, args=(w,), daemon=True)
            for w in range(workers)
        ]
        self.last_workers = processes
        for process in processes:
            process.start()

        outcomes: Dict[Hashable, object] = {}
        completed = False
        try:
            while len(outcomes) < len(tasks):
                if metrics is not None:
                    metrics.sample_queue_depth(len(tasks) - len(outcomes))
                try:
                    position, outcome, worker_id, elapsed = result_queue.get(
                        timeout=self._heartbeat_wait()
                    )
                except queue_module.Empty:
                    self._check_for_crash(
                        processes, result_queue, announce, outcomes, tasks,
                        on_result, metrics,
                    )
                    continue
                task_id = by_position[position].id
                outcomes[task_id] = outcome
                if metrics is not None:
                    metrics.record_task(worker_id, elapsed, outcome == SKIPPED,
                                        host=LOCAL_HOST)
                if on_result is not None:
                    on_result(task_id, outcome, elapsed)
            completed = True
        finally:
            if completed:
                # Normal completion: the last result can arrive before
                # its worker loops back for the sentinel, so grant a
                # grace period for workers to drain sentinels and run
                # their worker_exit cleanup before any terminate().
                deadline = time.monotonic() + 5.0
                for process in processes:
                    process.join(max(0.0, deadline - time.monotonic()))
            # Error paths (worker crash, reporter exception, Ctrl-C in
            # this very loop) -- and grace-period stragglers: make sure
            # nothing survives.
            for process in processes:
                if process.is_alive():
                    process.terminate()
            for process in processes:
                process.join()
            task_queue.close()
            result_queue.close()
        return outcomes

    def _check_for_crash(
        self, processes, result_queue, announce, outcomes, tasks, on_result,
        metrics=None,
    ) -> None:
        """Called when the result queue goes quiet: if a worker died
        abnormally, drain the stragglers and raise naming its task."""
        # Any stopped worker counts: even an exit code of 0 is a crash
        # if the task it announced never reported back (os._exit(0) in
        # an executor, say).  Cleanly-finished workers are filtered out
        # below because their last outcome is (or is about to be) in
        # ``outcomes``.
        dead = [
            (worker_id, process)
            for worker_id, process in enumerate(processes)
            if not process.is_alive()
        ]
        if not dead:
            return
        # Flush results the feeder threads managed to push out so the
        # crash report only names genuinely lost work.
        while True:
            try:
                position, outcome, worker_id, elapsed = result_queue.get(
                    timeout=0.2
                )
            except queue_module.Empty:
                break
            task_id = tasks[position].id
            outcomes[task_id] = outcome
            if metrics is not None:
                metrics.record_task(worker_id, elapsed, outcome == SKIPPED,
                                    host=LOCAL_HOST)
            if on_result is not None:
                on_result(task_id, outcome, elapsed)
        lost = []
        for worker_id, process in dead:
            position = announce[worker_id]
            if position >= 0 and tasks[position].id not in outcomes:
                lost.append((worker_id, process, tasks[position].id))
        if not lost:
            # The worker died between tasks; its queued work is still
            # reachable by surviving workers, unless none remain.
            if any(process.is_alive() for process in processes):
                return
            unreported = [t.id for t in tasks if t.id not in outcomes]
            if not unreported:
                return
            raise WorkerCrashed(
                "every pool worker died; "
                f"task(s) {unreported} never reported",
                unreported=unreported,
            )
        descriptions = ", ".join(
            f"worker {worker_id} (pid {process.pid}, "
            f"exit code {process.exitcode}) died while running "
            f"task {task_id!r}"
            for worker_id, process, task_id in lost
        )
        unreported = [t.id for t in tasks if t.id not in outcomes]
        raise WorkerCrashed(
            descriptions,
            in_flight=[task_id for _, _, task_id in lost],
            unreported=unreported,
        )
