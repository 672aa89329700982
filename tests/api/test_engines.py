"""Campaign equivalence: a pooled campaign is observationally serial.

One campaign through ``check`` on a worker pool must agree *bit for
bit* with the same campaign on the width-1 inline loop for the same
seed: identical verdicts, identical counterexample action sequences,
identical per-test results, identical ``tests_run`` -- the first
failing index wins stop_on_failure and shrinking, not the first failure
to arrive.
"""

import pytest

from repro.api import CheckSession, ForkTransport, PooledScheduler, SessionConfig
from repro.api.transport import base as transport_base
from repro.apps.eggtimer import egg_timer_app
from repro.apps.todomvc import implementation_named
from repro.checker import RunnerConfig
from repro.specs import load_eggtimer_spec, load_todomvc_spec


def run_campaign(app, spec, config, **session):
    """``check`` of one campaign with the given SessionConfig knobs
    (``jobs=1`` -- the inline serial loop -- by default)."""
    session.setdefault("jobs", 1)
    return CheckSession(app).check(
        spec, config=config, session=SessionConfig(**session)
    )


def assert_campaigns_identical(serial, parallel):
    assert serial.passed == parallel.passed
    assert serial.tests_run == parallel.tests_run
    assert [r.verdict for r in serial.results] == [
        r.verdict for r in parallel.results
    ]
    assert [r.actions for r in serial.results] == [
        r.actions for r in parallel.results
    ]
    assert [r.actions_taken for r in serial.results] == [
        r.actions_taken for r in parallel.results
    ]
    assert [r.states_observed for r in serial.results] == [
        r.states_observed for r in parallel.results
    ]
    assert [r.forced for r in serial.results] == [r.forced for r in parallel.results]
    if serial.counterexample is None:
        assert parallel.counterexample is None
    else:
        assert serial.counterexample.actions == parallel.counterexample.actions
        assert serial.counterexample.verdict is parallel.counterexample.verdict
    if serial.shrunk_counterexample is None:
        assert parallel.shrunk_counterexample is None
    else:
        assert (
            serial.shrunk_counterexample.actions
            == parallel.shrunk_counterexample.actions
        )


class TestEggTimerEquivalence:
    @pytest.mark.parametrize("seed", [0, 7, 99])
    def test_passing_campaign(self, seed):
        spec = load_eggtimer_spec().check_named("safety")
        config = RunnerConfig(tests=4, scheduled_actions=15,
                              demand_allowance=10, seed=seed, shrink=False)
        serial = run_campaign(egg_timer_app(), spec, config)
        parallel = run_campaign(egg_timer_app(), spec, config, jobs=4)
        assert_campaigns_identical(serial, parallel)
        assert serial.tests_run == 4

    def test_failing_campaign_with_shrinking(self):
        spec = load_eggtimer_spec().check_named("safety")
        config = RunnerConfig(tests=5, scheduled_actions=20,
                              demand_allowance=10, seed=7, shrink=True)
        app = egg_timer_app(decrement=2)
        serial = run_campaign(app, spec, config)
        parallel = run_campaign(app, spec, config, jobs=4)
        assert not serial.passed
        assert_campaigns_identical(serial, parallel)
        assert [n for n, _ in parallel.shrunk_counterexample.actions] == [
            "start!", "wait!",
        ]


class TestTodoMvcEquivalence:
    def test_failing_implementation(self):
        spec = load_todomvc_spec(default_subscript=60).check_named("safety")
        impl = implementation_named("polymer")
        config = RunnerConfig(tests=12, scheduled_actions=60,
                              demand_allowance=20, seed=2, shrink=True)
        serial = run_campaign(impl.app_factory(), spec, config)
        parallel = run_campaign(impl.app_factory(), spec, config, jobs=4)
        assert not serial.passed
        assert_campaigns_identical(serial, parallel)

    def test_continue_after_failure_keeps_all_results(self):
        """stop_on_failure=False: every index runs; the merged order is
        the index order, not completion order."""
        spec = load_todomvc_spec(default_subscript=40).check_named("safety")
        impl = implementation_named("polymer")
        config = RunnerConfig(tests=6, scheduled_actions=40,
                              demand_allowance=20, seed=2, shrink=False,
                              stop_on_failure=False)
        serial = run_campaign(impl.app_factory(), spec, config)
        parallel = run_campaign(impl.app_factory(), spec, config, jobs=4)
        assert serial.tests_run == 6
        assert_campaigns_identical(serial, parallel)


class TestEngineConfiguration:
    def test_single_job_falls_back_to_serial_semantics(self):
        """A width-1 batch on a pool transport still runs inline."""
        ctx = transport_base.fork_context()
        if ctx is None:
            pytest.skip("fork transport unavailable on this platform")
        spec = load_eggtimer_spec().check_named("safety")
        config = RunnerConfig(tests=2, scheduled_actions=10,
                              demand_allowance=5, seed=1, shrink=False)
        session = CheckSession(egg_timer_app())
        one_job = session.check(
            spec, config=config,
            session=SessionConfig(jobs=1, transport=ForkTransport(ctx)),
        )
        assert session.last_metrics.transport == "serial"
        serial = run_campaign(egg_timer_app(), spec, config)
        assert_campaigns_identical(serial, one_job)

    def test_more_jobs_than_tests(self):
        spec = load_eggtimer_spec().check_named("safety")
        config = RunnerConfig(tests=2, scheduled_actions=10,
                              demand_allowance=5, seed=1, shrink=False)
        serial = run_campaign(egg_timer_app(), spec, config)
        wide = run_campaign(egg_timer_app(), spec, config, jobs=16)
        assert_campaigns_identical(serial, wide)

    def test_rejects_non_positive_jobs(self):
        with pytest.raises(ValueError):
            PooledScheduler(jobs=0)

    def test_default_jobs_is_one(self):
        assert PooledScheduler().jobs == 1

    def test_fork_free_path_runs_inline_and_matches_serial(self, monkeypatch):
        """Without ``fork``, a wide batch runs in the caller's thread:
        the serial loop's campaigns and reporter events."""
        from tests.api.test_scheduler import RecordingReporter

        spec = load_eggtimer_spec().check_named("safety")
        config = RunnerConfig(tests=4, scheduled_actions=12,
                              demand_allowance=5, seed=3, shrink=False)

        def run(jobs):
            reporter = RecordingReporter()
            session = CheckSession(egg_timer_app(), reporters=[reporter])
            result = session.check(
                spec, config=config, session=SessionConfig(jobs=jobs)
            )
            return result, reporter.events, session.last_metrics

        serial, serial_events, _ = run(1)
        monkeypatch.setattr(transport_base, "fork_context", lambda: None)
        wide, wide_events, metrics = run(4)
        assert metrics.transport == "serial"
        assert metrics.jobs == 4
        assert_campaigns_identical(serial, wide)
        assert wide_events == serial_events

    def test_worker_exception_propagates(self):
        class ExplodingExecutor:
            def start(self, _start):
                raise RuntimeError("executor exploded")

            def stop(self):
                pass

        spec = load_eggtimer_spec().check_named("safety")
        with pytest.raises(RuntimeError, match="executor exploded"):
            run_campaign(ExplodingExecutor, spec,
                         RunnerConfig(tests=4, seed=0), jobs=2)
