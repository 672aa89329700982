"""Warm executor reuse: the determinism guard.

The whole point of the lease layer is that it is *only* an
optimisation: for the same seeds, warm-reuse campaigns must produce
bit-for-bit the verdicts, counterexamples and reporter event streams of
cold-start campaigns.  These tests pin that equivalence at every layer:
executor reset vs fresh start, single campaigns, multi-target batches
(serial and pooled), and the many-properties x one-app ``check_all``
path.
"""

import random

import pytest

from repro.api import CheckSession, CheckTarget, ExecutorCache, SessionConfig
from repro.api.lease import ExecutorLease
from repro.apps.eggtimer import egg_timer_app
from repro.checker import Runner, RunnerConfig
from repro.executors import CCSExecutor, DomExecutor, parse_definitions
from repro.protocol.messages import Reset, Start
from repro.specs import load_eggtimer_spec

from .test_scheduler import (
    RecordingReporter,
    assert_batches_identical,
    three_targets,
)

QUICK = RunnerConfig(tests=3, scheduled_actions=10, demand_allowance=5,
                     seed=3, shrink=False)


class TestExecutorResetEquivalence:
    """A reset session must be observationally identical to a fresh one."""

    DEPS = frozenset({"#toggle", "#remaining"})

    def _drive(self, executor):
        """A fixed little session: initial load, time passing, a click."""
        stream = list(executor.drain())
        executor.pass_time(1500.0)
        stream.extend(executor.drain())
        from repro.protocol.messages import Act
        from repro.specstrom.actions import ResolvedAction

        executor.act(Act(ResolvedAction("click", "#toggle", 0),
                         "start!", executor.version))
        stream.extend(executor.drain())
        executor.await_events(1200.0)
        stream.extend(executor.drain())
        return stream

    def test_dom_executor_reset_matches_fresh_start(self):
        start = Start(self.DEPS, ())
        warm = DomExecutor(egg_timer_app())
        warm.start(start)
        self._drive(warm)  # dirty the session: clock advanced, app ran
        assert warm.now_ms > 0
        assert warm.reset(Reset(self.DEPS, ())) is True
        assert warm.now_ms == 0.0
        assert warm.version == 1  # just the fresh loaded? state

        fresh = DomExecutor(egg_timer_app())
        fresh.start(start)
        assert self._drive(warm) == self._drive(fresh)

    def test_dom_executor_reset_wipes_storage(self):
        start = Start(self.DEPS, ())
        executor = DomExecutor(egg_timer_app())
        executor.start(start)
        executor.browser.storage.set_item("todos", "[1,2,3]")
        executor.reset(Reset(self.DEPS, ()))
        assert executor.browser.storage.get_item("todos") is None

    def test_dom_executor_unstarted_cannot_reset(self):
        executor = DomExecutor(egg_timer_app())
        assert executor.reset(Reset(self.DEPS, ())) is False

    def test_ccs_executor_reset_matches_fresh_start(self):
        source = "Machine = coin.(tea.Machine + coffee.Machine)\nMachine"
        defs, initial = parse_definitions(source)

        def fresh():
            executor = CCSExecutor(initial, defs, tau_period_ms=250.0,
                                   tau_seed=9)
            executor.start(Start(frozenset({"coin", "tea"}), ()))
            return executor

        def drive(executor):
            stream = list(executor.drain())
            executor.pass_time(600.0)
            stream.extend(executor.drain())
            return stream

        reference = drive(fresh())
        warm = fresh()
        drive(warm)
        assert warm.reset(Reset(frozenset({"coin", "tea"}), ())) is True
        assert drive(warm) == reference
        assert warm.now_ms == 600.0  # the post-reset drive, from zero


class TestRunnerLevelEquivalence:
    def _runner(self):
        spec = load_eggtimer_spec().check_named("safety")
        return Runner(spec, lambda: DomExecutor(egg_timer_app()), QUICK)

    def test_leased_tests_match_cold_tests(self):
        runner = self._runner()
        cold = [runner.run_single_test(random.Random(f"3/{i}"))
                for i in range(3)]
        cache = ExecutorCache()
        leases = []
        warm = []
        for i in range(3):
            lease = cache.lease(runner.executor_factory)
            leases.append(lease)
            warm.append(
                runner.run_single_test(random.Random(f"3/{i}"), lease=lease)
            )
        assert not leases[0].warm and leases[1].warm and leases[2].warm
        for a, b in zip(cold, warm):
            assert a.verdict == b.verdict
            assert a.actions == b.actions
            assert a.states_observed == b.states_observed
            assert a.elapsed_virtual_ms == b.elapsed_virtual_ms
            assert a.trace == b.trace


class TestBatchEquivalence:
    """check_many: warm == cold at every pool width."""

    def _run(self, reuse, jobs):
        reporter = RecordingReporter()
        batch = CheckSession(reporters=[reporter]).check_many(
            three_targets(),
            session=SessionConfig(jobs=jobs, reuse_executors=reuse),
        )
        return batch, reporter

    def test_serial_warm_equals_serial_cold(self):
        warm, warm_events = self._run(reuse=True, jobs=1)
        cold, cold_events = self._run(reuse=False, jobs=1)
        assert_batches_identical(cold.outcomes, warm.outcomes)
        assert warm_events.events == cold_events.events

    def test_pooled_warm_equals_serial_cold(self):
        warm, warm_events = self._run(reuse=True, jobs=3)
        cold, cold_events = self._run(reuse=False, jobs=1)
        assert_batches_identical(cold.outcomes, warm.outcomes)
        assert warm_events.events == cold_events.events

    def test_serial_reuse_counts_warm_hits(self):
        warm, _ = self._run(reuse=True, jobs=1)
        metrics = warm.metrics
        total_tests = sum(o.result.tests_run for o in warm.outcomes)
        # One cold start per target, then every further test is warm.
        assert metrics.cold_starts == len(warm.outcomes)
        assert metrics.warm_hits == total_tests - len(warm.outcomes)
        assert metrics.warm_hits > 0

    def test_cold_baseline_reports_no_warm_hits(self):
        cold, _ = self._run(reuse=False, jobs=1)
        assert cold.metrics.warm_hits == 0
        assert cold.metrics.cold_starts > 0

    def test_pooled_reuse_still_counts_executor_checkouts(self):
        warm, _ = self._run(reuse=True, jobs=2)
        metrics = warm.metrics
        completed = metrics.tasks_completed - metrics.tasks_skipped
        assert metrics.warm_hits + metrics.cold_starts == completed
        assert metrics.transport in ("fork", "serial")


class TestWorkerWarmCounts:
    @pytest.mark.parametrize("transport", ["fork"])
    def test_each_worker_starts_each_target_at_most_once(self, transport):
        """3 targets x 6 tests on two workers: each worker keeps one
        warm executor per target, so it starts each target at most
        once."""
        spec = load_eggtimer_spec().check_named("safety")
        config = RunnerConfig(tests=6, scheduled_actions=8,
                              demand_allowance=5, seed=3, shrink=False)
        targets = [
            CheckTarget(f"egg-{i}", egg_timer_app(), spec=spec, config=config)
            for i in range(3)
        ]
        metrics = CheckSession().check_many(
            targets, session=SessionConfig(jobs=2)
        ).metrics
        assert metrics.transport == transport
        assert metrics.warm_hits + metrics.cold_starts == 18
        assert metrics.cold_starts <= 6


class TestManyPropertiesOneApp:
    """check_all rides the scheduler; warm reuse crosses properties."""

    def test_check_all_warm_equals_cold(self):
        module = load_eggtimer_spec()
        warm = CheckSession(egg_timer_app()).check_all(
            module, config=QUICK,
            session=SessionConfig(reuse_executors=True),
        )
        cold = CheckSession(egg_timer_app()).check_all(
            module, config=QUICK,
            session=SessionConfig(reuse_executors=False),
        )
        assert [r.property_name for r in warm] == [
            r.property_name for r in cold
        ]
        for a, b in zip(warm, cold):
            assert a.passed == b.passed
            assert [t.verdict for t in a.results] == [
                t.verdict for t in b.results
            ]
            assert [t.actions for t in a.results] == [
                t.actions for t in b.results
            ]

    def test_check_all_pooled_equals_serial(self):
        module = load_eggtimer_spec()
        serial = CheckSession(egg_timer_app()).check_all(
            module, config=QUICK, session=SessionConfig(jobs=1)
        )
        pooled = CheckSession(egg_timer_app()).check_all(
            module, config=QUICK, session=SessionConfig(jobs=3)
        )
        for a, b in zip(serial, pooled):
            assert a.passed == b.passed
            assert [t.verdict for t in a.results] == [
                t.verdict for t in b.results
            ]

    def test_one_warm_up_spans_all_properties(self):
        """The session's single app factory is the cache key, so only
        the very first test of the whole batch starts cold (serially)."""
        session = CheckSession(egg_timer_app())
        checks = load_eggtimer_spec().checks
        batch = session.check_many(
            [CheckTarget(check.name, spec=check) for check in checks],
            config=QUICK, session=SessionConfig(jobs=1),
        )
        total_tests = sum(o.result.tests_run for o in batch.outcomes)
        assert batch.metrics.cold_starts == 1
        assert batch.metrics.warm_hits == total_tests - 1

    def test_check_all_without_app_rejected(self):
        import pytest

        with pytest.raises(ValueError, match="without an application"):
            CheckSession().check_all(load_eggtimer_spec(), config=QUICK)


class TestLeaseTypeExport:
    def test_lease_objects_are_the_documented_type(self):
        cache = ExecutorCache()
        lease = cache.lease(lambda: None)
        assert isinstance(lease, ExecutorLease)
