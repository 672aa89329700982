"""The local pool transports, as the scheduler gets them.

``PooledScheduler`` hands every batch wider than one to
``resolve_transport(...)`` -- a fork pool where the platform has one, the
thread fallback otherwise -- and calls its ``run`` directly.  These
tests pin down, on exactly those transports, worker reuse across
campaigns (the fork-amortisation the scheduler exists for),
exception/skip transport, precise crash attribution, metrics, and that
no worker ever survives an aborted batch (KeyboardInterrupt included).
"""

import os
import time

import pytest

from repro.api.pool import PoolMetrics, resolve_jobs
from repro.api.transport import (
    SKIPPED,
    InlineTransport,
    PoolTask,
    TaskFailure,
    WorkerCrashed,
    resolve_transport,
)
from repro.api.transport import base as transport_base


def _no_fork(monkeypatch):
    monkeypatch.setattr(transport_base, "fork_context", lambda: None)


def _no_alive_workers(pool):
    return not any(w.is_alive() for w in pool.last_workers)


class TestBasics:
    def test_runs_every_task_and_keys_by_id(self):
        pool = resolve_transport(None)
        tasks = [PoolTask(i, (lambda i=i: i * i)) for i in range(7)]
        outcomes = pool.run(tasks, 2)
        assert outcomes == {i: i * i for i in range(7)}

    def test_empty_batch(self):
        assert resolve_transport(None).run([], 2) == {}

    def test_rejects_non_positive_jobs(self):
        with pytest.raises(ValueError):
            resolve_jobs(0)

    def test_exceptions_are_transported_not_raised(self):
        def boom():
            raise RuntimeError("inside the worker")

        outcomes = resolve_transport(None).run(
            [PoolTask("ok", lambda: 1), PoolTask("bad", boom)], 2
        )
        assert outcomes["ok"] == 1
        assert isinstance(outcomes["bad"], TaskFailure)
        assert "inside the worker" in str(outcomes["bad"].error)

    def test_skip_predicate_short_circuits(self):
        outcomes = resolve_transport(None).run(
            [
                PoolTask("run", lambda: "ran"),
                PoolTask("skip", lambda: "ran", skip=lambda: True),
            ],
            2,
        )
        assert outcomes["run"] == "ran"
        assert outcomes["skip"] == SKIPPED

    def test_on_result_sees_every_completion(self):
        seen = {}
        resolve_transport(None).run(
            [PoolTask(i, (lambda i=i: -i)) for i in range(5)], 2,
            on_result=lambda task_id, outcome: seen.__setitem__(task_id, outcome),
        )
        assert seen == {i: -i for i in range(5)}


class TestWorkerReuse:
    def test_workers_are_reused_across_campaigns(self):
        """Three "campaigns" of tasks on a two-worker pool: every task
        runs in one of at most two forked children (not the parent), and
        by pigeonhole some child serves more than one campaign -- the
        fork-amortisation that one-pool-per-campaign cannot give."""
        pool = resolve_transport(None)
        if pool.name != "fork":
            pytest.skip("fork transport unavailable on this platform")
        campaigns = ["alpha", "beta", "gamma"]
        tasks = [
            PoolTask((campaign, index), os.getpid)
            for campaign in campaigns
            for index in range(3)
        ]
        outcomes = pool.run(tasks, 2)
        pids = set(outcomes.values())
        assert len(pids) <= 2
        assert os.getpid() not in pids
        campaigns_by_pid = {}
        for (campaign, _), pid in outcomes.items():
            campaigns_by_pid.setdefault(pid, set()).add(campaign)
        assert any(len(served) >= 2 for served in campaigns_by_pid.values())

    def test_shared_counter_is_visible_to_workers(self):
        pool = resolve_transport(None)
        counter = pool.make_counter(100)

        def bump():
            with counter.get_lock():
                counter.value -= 1
            return counter.value

        pool.run([PoolTask(i, bump) for i in range(4)], 2)
        assert counter.value == 96


class TestCrashAttribution:
    """The satellite fix: a dead worker names exactly what it was
    running, instead of losing the index."""

    def test_worker_death_names_the_in_flight_task(self):
        pool = resolve_transport(None)
        if pool.name != "fork":
            pytest.skip("fork transport unavailable on this platform")

        def die():
            os._exit(3)

        tasks = [
            PoolTask(("todomvc:polymer", 0), lambda: "fine"),
            PoolTask(("todomvc:angular", 1), die),
        ]
        with pytest.raises(WorkerCrashed) as excinfo:
            pool.run(tasks, 2)
        assert "('todomvc:angular', 1)" in str(excinfo.value)
        assert ("todomvc:angular", 1) in excinfo.value.in_flight
        assert _no_alive_workers(pool)

    def test_keyboard_interrupt_in_worker_kills_it_and_is_attributed(self):
        pool = resolve_transport(None)

        def interrupted():
            raise KeyboardInterrupt()

        with pytest.raises(WorkerCrashed) as excinfo:
            pool.run(
                [PoolTask("calm", lambda: 1), PoolTask("ctrl-c", interrupted)],
                2,
            )
        assert "ctrl-c" in str(excinfo.value)
        assert _no_alive_workers(pool)

    def test_thread_fallback_attributes_crashes_too(self, monkeypatch):
        _no_fork(monkeypatch)
        pool = resolve_transport(None)
        assert pool.name != "fork"

        def explode():
            raise SystemExit(2)

        with pytest.raises(WorkerCrashed, match="boom-task"):
            pool.run([PoolTask("boom-task", explode)], 2)
        assert _no_alive_workers(pool)


class TestCleanShutdown:
    def test_parent_side_interrupt_tears_the_pool_down(self):
        """A Ctrl-C landing in the parent's collect loop (modelled by a
        reporter callback raising KeyboardInterrupt) must terminate and
        join every worker before propagating."""
        pool = resolve_transport(None)

        def slow(value):
            time.sleep(0.05)
            return value

        tasks = [PoolTask(i, (lambda i=i: slow(i))) for i in range(8)]

        def interrupt_on_first(task_id, outcome):
            raise KeyboardInterrupt()

        with pytest.raises(KeyboardInterrupt):
            pool.run(tasks, 2, on_result=interrupt_on_first)
        assert _no_alive_workers(pool)

    def test_normal_completion_leaves_no_workers(self):
        pool = resolve_transport(None)
        pool.run([PoolTask(i, (lambda i=i: i)) for i in range(6)], 3)
        assert _no_alive_workers(pool)

    def test_thread_fallback_matches_fork_outcomes(self, monkeypatch):
        _no_fork(monkeypatch)
        pool = resolve_transport(None)
        outcomes = pool.run(
            [PoolTask(i, (lambda i=i: i + 10)) for i in range(5)]
            + [PoolTask("skipped", lambda: 0, skip=lambda: True)],
            3,
        )
        assert outcomes == {**{i: i + 10 for i in range(5)}, "skipped": SKIPPED}
        assert _no_alive_workers(pool)


class TestThreadFallbackCrashReporting:
    """The `"crash"` branch of _run_threaded, in detail: attribution,
    unreported accounting, and that completed work is not misreported."""

    def _thread_pool(self, monkeypatch):
        _no_fork(monkeypatch)
        pool = resolve_transport(None)
        assert pool.name != "fork"
        return pool

    def test_crash_lists_in_flight_and_unreported(self, monkeypatch):
        pool = self._thread_pool(monkeypatch)

        def boom():
            raise KeyboardInterrupt()

        tasks = [
            PoolTask("done-first", lambda: "ok"),
            PoolTask("boom", boom),
            PoolTask("never-ran", lambda: "unreachable"),
        ]
        with pytest.raises(WorkerCrashed) as excinfo:
            pool.run(tasks, 1)
        crash = excinfo.value
        # One worker runs the queue in order: the finished task is not
        # reported lost, the crashing one is in-flight, and everything
        # without an outcome (crasher included) is unreported.
        assert crash.in_flight == ["boom"]
        assert crash.unreported == ["boom", "never-ran"]
        assert "boom" in str(crash)
        assert _no_alive_workers(pool)

    def test_crash_chains_the_original_error(self, monkeypatch):
        pool = self._thread_pool(monkeypatch)

        def explode():
            raise SystemExit(3)

        with pytest.raises(WorkerCrashed) as excinfo:
            pool.run([PoolTask("t", explode)], 1)
        assert isinstance(excinfo.value.__cause__, SystemExit)

    def test_surviving_threads_are_starved_after_crash(self, monkeypatch):
        """Other workers exit at their next queue read instead of
        draining the doomed batch."""
        pool = self._thread_pool(monkeypatch)

        def boom():
            raise KeyboardInterrupt()

        tasks = [PoolTask("boom", boom)] + [
            PoolTask(i, time.monotonic) for i in range(20)
        ]
        with pytest.raises(WorkerCrashed):
            pool.run(tasks, 2)
        assert _no_alive_workers(pool)


class TestPoolMetrics:
    def _metrics(self):
        return PoolMetrics()

    def test_fork_mode_fills_transport_and_worker_stats(self):
        pool = resolve_transport(None)
        metrics = self._metrics()
        outcomes = pool.run(
            [PoolTask(i, (lambda i=i: i)) for i in range(6)], 2, metrics=metrics
        )
        assert len(outcomes) == 6
        assert pool.name == (
            "fork" if transport_base.fork_context() is not None else "thread"
        )
        assert metrics.tasks_completed == 6
        assert metrics.tasks_skipped == 0
        assert sum(metrics.worker_tasks.values()) == 6
        assert set(metrics.worker_tasks) <= {0, 1}
        assert all(busy >= 0 for busy in metrics.worker_busy_s.values())
        assert metrics.queue_depth_samples
        assert 1 <= metrics.max_queue_depth <= 6

    def test_skipped_tasks_are_counted(self):
        metrics = self._metrics()
        resolve_transport(None).run(
            [
                PoolTask("run", lambda: 1),
                PoolTask("skip", lambda: 1, skip=lambda: True),
            ],
            2,
            metrics=metrics,
        )
        assert metrics.tasks_skipped == 1
        assert metrics.tasks_completed == 2

    def test_thread_mode_fills_the_same_fields(self, monkeypatch):
        _no_fork(monkeypatch)
        metrics = self._metrics()
        pool = resolve_transport(None)
        pool.run(
            [PoolTask(i, (lambda i=i: i)) for i in range(5)], 2, metrics=metrics
        )
        assert pool.name == "thread"
        assert metrics.tasks_completed == 5
        assert sum(metrics.worker_tasks.values()) == 5
        assert metrics.queue_depth_samples

    def test_to_dict_is_json_ready(self):
        import json

        metrics = self._metrics()
        resolve_transport(None).run(
            [PoolTask(i, (lambda i=i: i)) for i in range(3)], 2, metrics=metrics
        )
        metrics.wall_s = 0.5
        payload = metrics.to_dict()
        json.dumps(payload)  # must not raise
        for key in ("jobs", "transport", "wall_s", "tasks_total",
                    "warm_hits", "cold_starts", "warm_hit_ratio",
                    "max_queue_depth", "worker_tasks",
                    "worker_utilisation", "campaign_wall_s",
                    "states_observed", "steps_reused"):
            assert key in payload

    def test_utilisation_is_busy_over_wall(self):
        metrics = PoolMetrics(jobs=2, transport="fork")
        metrics.record_task(0, 0.25, False)
        metrics.record_task(1, 0.75, False)
        metrics.wall_s = 1.0
        assert metrics.utilisation() == {0: 0.25, 1: 0.75}
        assert metrics.warm_hit_ratio == 0.0


class TestWorkerExit:
    def test_worker_exit_runs_in_every_forked_worker(self):
        pool = resolve_transport(None)
        if pool.name != "fork":
            pytest.skip("fork transport unavailable on this platform")
        ran = pool.make_counter(0)

        def cleanup():
            with ran.get_lock():
                ran.value += 1

        pool.run(
            [PoolTask(i, (lambda i=i: i)) for i in range(6)], 2,
            worker_exit=cleanup,
        )
        assert ran.value == 2  # once per worker, in the children

    def test_worker_exit_is_optional(self):
        outcomes = resolve_transport(None).run([PoolTask(0, lambda: 1)], 2)
        assert outcomes == {0: 1}


class TestWorkerThreads:
    def test_thread_workers_keep_each_session_on_their_thread(
        self, monkeypatch
    ):
        """Every protocol call of a session runs on the worker thread
        that pulled its test."""
        import threading

        from repro.api import CheckSession, SessionConfig, ThreadTransport
        from repro.apps.eggtimer import egg_timer_app
        from repro.checker import RunnerConfig
        from repro.executors import DomExecutor
        from repro.specs import load_eggtimer_spec

        calls = []
        act = DomExecutor.act

        def spy(self, message):
            # Holding the executor keeps its id unique for the test.
            calls.append((self, threading.get_ident()))
            return act(self, message)

        monkeypatch.setattr(DomExecutor, "act", spy)
        transport = ThreadTransport()
        # Cold executors, one per test: a session is one executor.
        CheckSession(egg_timer_app()).check(
            load_eggtimer_spec().check_named("safety"),
            config=RunnerConfig(tests=6, scheduled_actions=8,
                                demand_allowance=5, seed=3, shrink=False),
            session=SessionConfig(jobs=2, transport=transport,
                                  reuse_executors=False),
        )
        workers = {thread.ident for thread in transport.last_workers}
        threads_by_session = {}
        for executor, thread in calls:
            threads_by_session.setdefault(id(executor), set()).add(thread)
        assert len(threads_by_session) == 6
        for threads in threads_by_session.values():
            assert len(threads) == 1
            assert threads <= workers


class TestInlineTransport:
    """The transport every width-1 local batch runs on."""

    def test_runs_thunks_in_order_in_the_callers_thread(self):
        import threading

        seen = []
        tasks = [
            PoolTask(i, (lambda i=i: seen.append((i, threading.get_ident()))))
            for i in range(4)
        ]
        order = []
        InlineTransport().run(
            tasks, 1, on_result=lambda task_id, _: order.append(task_id)
        )
        assert seen == [(i, threading.get_ident()) for i in range(4)]
        assert order == [0, 1, 2, 3]

    def test_outcome_vocabulary_matches_the_pools(self):
        def boom():
            raise RuntimeError("inside the task")

        outcomes = InlineTransport().run(
            [PoolTask("ok", lambda: 1), PoolTask("bad", boom),
             PoolTask("skip", lambda: 1, skip=lambda: True)],
            1,
        )
        assert outcomes["ok"] == 1
        assert isinstance(outcomes["bad"], TaskFailure)
        assert outcomes["skip"] == SKIPPED

    def test_interrupts_propagate_unwrapped(self):
        def interrupted():
            raise KeyboardInterrupt()

        with pytest.raises(KeyboardInterrupt):
            InlineTransport().run([PoolTask("ctrl-c", interrupted)], 1)

    def test_serial_metrics(self):
        metrics = PoolMetrics()
        InlineTransport().run(
            [PoolTask(i, (lambda i=i: i)) for i in range(3)]
            + [PoolTask("skip", lambda: 0, skip=lambda: True)],
            1, metrics=metrics,
        )
        assert InlineTransport().name == "serial"
        assert metrics.tasks_completed == 4
        assert metrics.tasks_skipped == 1
        assert metrics.queue_depth_samples == [4, 3, 2, 1]
        assert set(metrics.worker_tasks) == {0}
