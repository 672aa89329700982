"""The local pool transports, as the scheduler gets them.

``PooledScheduler`` hands every batch to ``resolve_transport(...)`` --
for a batch wider than one, a fork pool where the platform has one and
the inline transport otherwise -- and calls its ``run`` directly.
These tests pin down, on exactly those transports, worker reuse across
campaigns (the fork-amortisation the scheduler exists for),
exception/skip transport, precise crash attribution, metrics, and that
no worker ever survives an aborted batch (KeyboardInterrupt included).
"""

import os
import time

import pytest

from repro.api.pool import PoolMetrics, validate_jobs
from repro.api.transport import (
    SKIPPED,
    InlineTransport,
    PoolTask,
    TaskFailure,
    WorkerCrashed,
    resolve_transport,
)
from repro.api.transport import base as transport_base


def _no_alive_workers(pool):
    return not any(w.is_alive() for w in pool.last_workers)


class TestBasics:
    def test_runs_every_task_and_keys_by_id(self):
        pool = resolve_transport(None, 2)
        tasks = [PoolTask(i, (lambda i=i: i * i)) for i in range(7)]
        outcomes = pool.run(tasks, 2)
        assert outcomes == {i: i * i for i in range(7)}

    def test_empty_batch(self):
        assert resolve_transport(None, 2).run([], 2) == {}

    def test_rejects_non_positive_jobs(self):
        with pytest.raises(ValueError):
            validate_jobs(0)

    def test_exceptions_are_transported_not_raised(self):
        def boom():
            raise RuntimeError("inside the worker")

        outcomes = resolve_transport(None, 2).run(
            [PoolTask("ok", lambda: 1), PoolTask("bad", boom)], 2
        )
        assert outcomes["ok"] == 1
        assert isinstance(outcomes["bad"], TaskFailure)
        assert "inside the worker" in str(outcomes["bad"].error)

    def test_skip_predicate_short_circuits(self):
        outcomes = resolve_transport(None, 2).run(
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
        resolve_transport(None, 2).run(
            [PoolTask(i, (lambda i=i: -i)) for i in range(5)], 2,
            on_result=lambda task_id, outcome, _: seen.__setitem__(task_id, outcome),
        )
        assert seen == {i: -i for i in range(5)}


class TestWorkerReuse:
    def test_workers_are_reused_across_campaigns(self):
        """Three "campaigns" of tasks on a two-worker pool: every task
        runs in one of at most two forked children (not the parent), and
        by pigeonhole some child serves more than one campaign -- the
        fork-amortisation that one-pool-per-campaign cannot give."""
        pool = resolve_transport(None, 2)
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
        pool = resolve_transport(None, 2)
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
        pool = resolve_transport(None, 2)
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
        pool = resolve_transport(None, 2)
        if pool.name != "fork":
            pytest.skip("fork transport unavailable on this platform")

        def interrupted():
            raise KeyboardInterrupt()

        with pytest.raises(WorkerCrashed) as excinfo:
            pool.run(
                [PoolTask("calm", lambda: 1), PoolTask("ctrl-c", interrupted)],
                2,
            )
        assert "ctrl-c" in str(excinfo.value)
        assert _no_alive_workers(pool)


class TestCleanShutdown:
    def test_parent_side_interrupt_tears_the_pool_down(self):
        """A Ctrl-C landing in the parent's collect loop (modelled by a
        reporter callback raising KeyboardInterrupt) must terminate and
        join every worker before propagating."""
        pool = resolve_transport(None, 2)

        def slow(value):
            time.sleep(0.05)
            return value

        tasks = [PoolTask(i, (lambda i=i: slow(i))) for i in range(8)]

        def interrupt_on_first(task_id, outcome, elapsed):
            raise KeyboardInterrupt()

        with pytest.raises(KeyboardInterrupt):
            pool.run(tasks, 2, on_result=interrupt_on_first)
        assert _no_alive_workers(pool)

    def test_normal_completion_leaves_no_workers(self):
        pool = resolve_transport(None, 2)
        pool.run([PoolTask(i, (lambda i=i: i)) for i in range(6)], 3)
        assert _no_alive_workers(pool)


class TestForkFreeFallback:
    """Without ``fork``, a batch of any width runs inline: the serial
    loop's outcomes, metrics and interrupt semantics."""

    def _pool(self, monkeypatch):
        monkeypatch.setattr(transport_base, "fork_context", lambda: None)
        pool = resolve_transport(None, 4)
        assert isinstance(pool, InlineTransport)
        return pool

    def test_matches_fork_outcomes(self, monkeypatch):
        pool = self._pool(monkeypatch)
        outcomes = pool.run(
            [PoolTask(i, (lambda i=i: i + 10)) for i in range(5)]
            + [PoolTask("skipped", lambda: 0, skip=lambda: True)],
            3,
        )
        assert outcomes == {**{i: i + 10 for i in range(5)}, "skipped": SKIPPED}

    def test_fills_the_same_metrics(self, monkeypatch):
        pool = self._pool(monkeypatch)
        metrics = PoolMetrics()
        pool.run(
            [PoolTask(i, (lambda i=i: i)) for i in range(5)], 2, metrics=metrics
        )
        assert pool.name == "serial"
        assert metrics.tasks_completed == 5
        assert sum(metrics.worker_tasks.values()) == 5
        assert metrics.queue_depth_samples

    @pytest.mark.parametrize("interrupt", [KeyboardInterrupt, SystemExit])
    def test_task_interrupts_propagate(self, monkeypatch, interrupt):
        pool = self._pool(monkeypatch)
        ran, reported = [], []

        def stop():
            raise interrupt()

        tasks = [
            PoolTask("done-first", lambda: ran.append("done-first")),
            PoolTask("stop", stop),
            PoolTask("never-ran", lambda: ran.append("never-ran")),
        ]
        with pytest.raises(interrupt):
            pool.run(tasks, 2, on_result=lambda task_id, *_: reported.append(task_id))
        assert ran == ["done-first"]
        assert reported == ["done-first"]


class TestPoolMetrics:
    def _metrics(self):
        return PoolMetrics()

    def test_fork_mode_fills_transport_and_worker_stats(self):
        pool = resolve_transport(None, 2)
        metrics = self._metrics()
        outcomes = pool.run(
            [PoolTask(i, (lambda i=i: i)) for i in range(6)], 2, metrics=metrics
        )
        assert len(outcomes) == 6
        assert pool.name == (
            "fork" if transport_base.fork_context() is not None else "serial"
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
        resolve_transport(None, 2).run(
            [
                PoolTask("run", lambda: 1),
                PoolTask("skip", lambda: 1, skip=lambda: True),
            ],
            2,
            metrics=metrics,
        )
        assert metrics.tasks_skipped == 1
        assert metrics.tasks_completed == 2

    def test_to_dict_is_json_ready(self):
        import json

        metrics = self._metrics()
        resolve_transport(None, 2).run(
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


class TestSerialBacklogSignal:
    def test_serial_batches_record_queue_depth(self):
        """A width-1 batch records its backlog too: a queue that never
        drains is the sign that a wider ``--jobs`` would help."""
        from repro.api import CheckSession, SessionConfig
        from repro.checker import RunnerConfig
        from repro.executors import CCSExecutor, parse_definitions
        from repro.specstrom import load_module

        defs, initial = parse_definitions(
            "Idle = coin.Choose\nChoose = tea.Idle\nIdle"
        )

        def factory():
            return CCSExecutor(initial, defs, tau_period_ms=0)

        spec = load_module(
            """
            action coin! = ccs!("coin") when present(`coin`);
            action tea!  = ccs!("tea")  when present(`tea`);
            check always{4} (present(`coin`) || present(`tea`));
            """
        ).checks[0]
        config = RunnerConfig(tests=3, scheduled_actions=4,
                              demand_allowance=4, seed=0, shrink=False)
        batch = CheckSession().check_many(
            [("a", factory), ("b", factory)],
            spec=spec, config=config, session=SessionConfig(jobs=1),
        )
        assert batch.metrics.transport == "serial"
        # 2 campaigns x 3 tests: the first sample sees the whole batch.
        assert batch.metrics.max_queue_depth == 6


class TestWorkerExit:
    def test_worker_exit_runs_in_every_forked_worker(self):
        pool = resolve_transport(None, 2)
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
        outcomes = resolve_transport(None, 2).run([PoolTask(0, lambda: 1)], 2)
        assert outcomes == {0: 1}


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
            tasks, 1, on_result=lambda task_id, *_: order.append(task_id)
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
