"""The local transports: the caller's thread, forked processes, threads.

* :class:`InlineTransport` -- no workers at all: tasks run in the
  caller's thread, one at a time (the serial loop every width-1 local
  batch uses) or ``concurrency`` sessions multiplexed on one event loop.
* :class:`ForkTransport` -- workers are created with the ``fork`` start
  method.  Task bodies are closures over executor factories, which
  ``spawn`` cannot pickle; fork ships them for free.  All tasks must
  therefore be known when :meth:`ForkTransport.run` forks -- the pool
  amortises fork cost by being forked once *per batch* (one batch = one
  multi-campaign audit), not once per campaign.
* :class:`ThreadTransport` -- identical semantics on platforms without
  ``fork`` (less parallelism under the GIL).  A thread cannot die the
  way a process can, so task-level ``BaseException``\\ s are modelled as
  worker crashes for behavioural parity.

Dispatch is dynamic in the fork and thread transports: task ids flow
through a queue and workers pull the next id when free, so a slow
campaign cannot strand the pool the way static round-robin can.
Determinism is unaffected -- outcomes are keyed by task id and merged
in submission order by the caller.

``KeyboardInterrupt``/``SystemExit`` inside a task are deliberately not
caught in the worker: they must kill it promptly.  The parent's collect
loop tears the pool down (terminate + join) on any error, including an
interrupt delivered to the parent itself, so a Ctrl-C never leaks
worker processes.
"""

from __future__ import annotations

import asyncio
import queue as queue_module
import time
from typing import Dict, Hashable

from .base import (
    SKIPPED,
    PoolTransport,
    ThreadCounter,
    WorkerCrashed,
    run_task,
    run_task_async,
)

__all__ = ["ForkTransport", "InlineTransport", "ThreadTransport"]

#: Host label for local workers in ``PoolMetrics.worker_hosts``.
LOCAL_HOST = "local"


def _check_concurrency(concurrency: int) -> int:
    if concurrency < 1:
        raise ValueError(f"concurrency must be at least 1, got {concurrency}")
    return concurrency


async def _serve_lanes(task_queue, concurrency, lane_body) -> None:
    """Body of a multiplexed worker slot: ``concurrency`` interchangeable
    lanes pull positions from ``task_queue`` until each eats a sentinel.

    Lanes block in ``queue.get`` on the loop's executor threads, and the
    sessions themselves (``SyncExecutorAdapter``) need executor threads
    for their protocol calls, so the default pool is resized to hold
    both populations -- otherwise lanes parked in ``get`` could starve
    the very calls that would let them finish.
    """
    from concurrent.futures import ThreadPoolExecutor

    loop = asyncio.get_running_loop()
    loop.set_default_executor(
        ThreadPoolExecutor(max_workers=2 * concurrency + 4)
    )

    async def lane(lane_id: int) -> None:
        while True:
            position = await loop.run_in_executor(None, task_queue.get)
            if position < 0:
                return
            await lane_body(lane_id, position)

    await asyncio.gather(*(lane(lane_id) for lane_id in range(concurrency)))


class InlineTransport(PoolTransport):
    """Runs the batch in the caller's thread.

    ``concurrency`` is the number of sessions in flight.  At 1 (what
    every width-1 local batch uses) each task's synchronous thunk runs
    in submission order, so a test starts through
    ``Runner.run_single_test`` in the caller's thread exactly as in a
    plain loop.  Above 1, that many lanes drive the tasks' awaitable
    faces through :func:`_serve_lanes` on one ``asyncio.run`` loop:
    while one session awaits a wire round-trip (a
    :class:`~repro.executors.LatencyExecutor`, a remote browser) the
    loop drives the others, and ``metrics`` receives the in-flight
    gauges that show how far they overlapped.  Outcomes are handed to
    ``on_result`` once the loop has finished, so merging -- shrinking
    included -- never runs inside it.

    ``jobs`` and ``worker_exit`` do not apply: there are no workers.
    """

    def __init__(self, concurrency: int = 1) -> None:
        self.concurrency = _check_concurrency(concurrency)
        self.name = "serial" if concurrency == 1 else "async"

    def capacity(self) -> int:
        return self.concurrency

    def run(
        self, tasks, jobs, on_result=None, metrics=None, worker_exit=None
    ) -> Dict[Hashable, object]:
        outcomes: Dict[Hashable, object] = {}

        def finish(task, outcome, elapsed: float) -> None:
            outcomes[task.id] = outcome
            if metrics is not None:
                metrics.record_task(0, elapsed, outcome == SKIPPED)
            if on_result is not None:
                on_result(task.id, outcome)

        if self.concurrency == 1:
            for position, task in enumerate(tasks):
                if metrics is not None:
                    metrics.sample_queue_depth(len(tasks) - position)
                started = time.perf_counter()
                outcome = run_task(task)
                finish(task, outcome, time.perf_counter() - started)
            return outcomes
        done = []
        asyncio.run(self._multiplex(tasks, done, metrics))
        for task, outcome, elapsed in done:
            finish(task, outcome, elapsed)
        return outcomes

    async def _multiplex(self, tasks, done, metrics) -> None:
        task_queue: queue_module.Queue = queue_module.Queue()
        for position in range(len(tasks)):
            task_queue.put(position)
        for _ in range(self.concurrency):
            task_queue.put(-1)
        inflight = 0

        def sample() -> None:
            if metrics is not None:
                metrics.sample_inflight(inflight)

        async def lane_body(lane_id: int, position: int) -> None:
            nonlocal inflight
            task = tasks[position]
            started = time.perf_counter()
            inflight += 1
            sample()
            try:
                outcome = await run_task_async(task)
            finally:
                inflight -= 1
                sample()
            done.append((task, outcome, time.perf_counter() - started))

        active0 = time.perf_counter()
        cpu0 = time.process_time()
        await _serve_lanes(task_queue, self.concurrency, lane_body)
        if metrics is not None:
            metrics.session_active_s += time.perf_counter() - active0
            metrics.session_cpu_s += time.process_time() - cpu0


class ForkTransport(PoolTransport):
    """A bounded set of forked workers fed from a task queue.

    ``concurrency`` multiplexes that many concurrent sessions on an
    event loop inside *each* forked worker: positions are pulled by
    interchangeable lanes and run through
    :func:`~repro.api.transport.base.run_task_async`, so a worker slot
    pinned on I/O-bound sessions keeps its CPU busy.  ``capacity()``
    reports cores x concurrency accordingly.  With the default
    (``concurrency=1``) the classic synchronous worker body runs,
    byte-for-byte.
    """

    name = "fork"

    def __init__(self, ctx, concurrency: int = 1) -> None:
        if ctx is None:
            raise ValueError("ForkTransport needs a fork multiprocessing context")
        self._ctx = ctx
        self.concurrency = _check_concurrency(concurrency)
        self.last_workers = []

    def capacity(self) -> int:
        import os

        return (os.cpu_count() or 1) * self.concurrency

    def make_counter(self, initial: int):
        """Shared memory: must be created *before* ``run`` forks."""
        return self._ctx.Value("i", initial)

    def run(
        self, tasks, jobs, on_result=None, metrics=None, worker_exit=None
    ) -> Dict[Hashable, object]:
        ctx = self._ctx
        concurrency = self.concurrency
        workers = min(jobs, len(tasks))
        by_position = {position: task for position, task in enumerate(tasks)}
        task_queue = ctx.Queue()
        result_queue = ctx.Queue()
        # Per-lane announcement slots (one per worker when concurrency
        # is 1), written through shared memory *synchronously* before a
        # task runs.  A queue message could be lost when ``os._exit``
        # kills the feeder thread mid-flush; the shared write cannot, so
        # crash attribution survives even the rudest deaths.
        announce = ctx.Array("i", [-1] * (workers * concurrency), lock=False)
        for position in range(len(tasks)):
            task_queue.put(position)
        # One sentinel per lane: every lane pulls until it eats one.
        for _ in range(workers * concurrency):
            task_queue.put(-1)

        def work(worker_id: int) -> None:
            try:
                if concurrency == 1:
                    while True:
                        position = task_queue.get()
                        if position < 0:
                            break
                        announce[worker_id] = position
                        started = time.perf_counter()
                        outcome = run_task(by_position[position])
                        elapsed = time.perf_counter() - started
                        result_queue.put((position, outcome, worker_id, elapsed))
                    return

                async def lane_body(lane_id: int, position: int) -> None:
                    announce[worker_id * concurrency + lane_id] = position
                    started = time.perf_counter()
                    outcome = await run_task_async(by_position[position])
                    elapsed = time.perf_counter() - started
                    result_queue.put((position, outcome, worker_id, elapsed))

                asyncio.run(_serve_lanes(task_queue, concurrency, lane_body))
            finally:
                # Clean worker shutdown: release per-worker state (warm
                # executors) that only exists in this forked child.
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
                    on_result(task_id, outcome)
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
                on_result(task_id, outcome)
        lost = []
        for worker_id, process in dead:
            for lane in range(self.concurrency):
                position = announce[worker_id * self.concurrency + lane]
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


class ThreadTransport(PoolTransport):
    """The thread fallback: same dispatch, same crash semantics.

    ``concurrency`` mirrors :class:`ForkTransport`: each worker thread
    runs an event loop multiplexing that many session lanes.
    """

    name = "thread"

    def __init__(self, concurrency: int = 1) -> None:
        self.concurrency = _check_concurrency(concurrency)
        self.last_workers = []

    def capacity(self) -> int:
        import os

        return (os.cpu_count() or 1) * self.concurrency

    def make_counter(self, initial: int):
        return ThreadCounter(initial)

    def run(
        self, tasks, jobs, on_result=None, metrics=None, worker_exit=None
    ) -> Dict[Hashable, object]:
        # ``worker_exit`` is ignored: thread workers share the caller's
        # state, which the caller cleans up itself.
        import threading

        concurrency = self.concurrency
        workers = min(jobs, len(tasks))
        # Positions in the queue, like fork mode: user task ids never
        # travel in-band, so no id can collide with a control signal.
        task_queue: queue_module.Queue = queue_module.Queue()
        result_queue: queue_module.Queue = queue_module.Queue()
        for position in range(len(tasks)):
            task_queue.put(position)
        for _ in range(workers * concurrency):
            task_queue.put(-1)

        def work(worker_id: int) -> None:
            if concurrency == 1:
                while True:
                    position = task_queue.get()
                    if position < 0:
                        break
                    started = time.perf_counter()
                    try:
                        outcome = run_task(tasks[position])
                    except BaseException as err:  # noqa: BLE001 - crash parity
                        # A thread cannot die like a process; model the
                        # fork-mode crash so callers see one behaviour.
                        result_queue.put(("crash", worker_id, position, err, 0.0))
                        break
                    elapsed = time.perf_counter() - started
                    result_queue.put(("done", worker_id, position, outcome, elapsed))
                return

            async def lane_body(lane_id: int, position: int) -> None:
                started = time.perf_counter()
                try:
                    outcome = await run_task_async(tasks[position])
                except BaseException as err:  # noqa: BLE001 - crash parity
                    result_queue.put(("crash", worker_id, position, err, 0.0))
                    raise
                elapsed = time.perf_counter() - started
                result_queue.put(("done", worker_id, position, outcome, elapsed))

            try:
                asyncio.run(_serve_lanes(task_queue, concurrency, lane_body))
            except BaseException:  # noqa: BLE001 - already reported above
                # The crash frame is on the result queue; the collector
                # aborts the batch and re-feeds sentinels so sibling
                # lanes blocked in ``get`` unwind.
                pass

        threads = [
            threading.Thread(target=work, args=(w,), daemon=True)
            for w in range(workers)
        ]
        self.last_workers = threads
        for thread in threads:
            thread.start()
        outcomes: Dict[Hashable, object] = {}
        try:
            while len(outcomes) < len(tasks):
                if metrics is not None:
                    metrics.sample_queue_depth(len(tasks) - len(outcomes))
                try:
                    # Poll like the fork loop: the timeout doubles as
                    # the queue-depth sampling heartbeat while quiet.
                    kind, worker_id, position, payload, elapsed = (
                        result_queue.get(timeout=self._heartbeat_wait())
                    )
                except queue_module.Empty:
                    continue
                task_id = tasks[position].id
                if kind == "crash":
                    # The announced task is lost; waiting for it would
                    # deadlock, so abort the batch like fork mode does.
                    unreported = [t.id for t in tasks if t.id not in outcomes]
                    raise WorkerCrashed(
                        f"worker {worker_id} died while running task "
                        f"{task_id!r}: {payload!r}",
                        in_flight=[task_id],
                        unreported=unreported,
                    ) from payload
                outcomes[task_id] = payload
                if metrics is not None:
                    metrics.record_task(worker_id, elapsed, payload == SKIPPED,
                                        host=LOCAL_HOST)
                if on_result is not None:
                    on_result(task_id, payload)
        finally:
            # On abort, starve the surviving threads so they exit at the
            # next queue read instead of working through dead campaigns.
            try:
                while True:
                    task_queue.get_nowait()
            except queue_module.Empty:
                pass
            for _ in range(len(threads) * concurrency):
                task_queue.put(-1)
            for thread in threads:
                thread.join(timeout=1.0)
        return outcomes
