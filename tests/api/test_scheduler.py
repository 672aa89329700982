"""Cross-campaign orchestration: check_many on one shared pool.

The acceptance bar mirrors the single-campaign suite one level up:
a pooled multi-campaign audit must be *observationally identical* to
running each campaign serially with the same seed -- same verdicts,
same per-test results, same counterexamples, same deterministic
reporter event stream.
"""

import pytest

from repro.api import (
    CampaignSet,
    CampaignSetResult,
    CheckSession,
    CheckTarget,
    PooledScheduler,
    Reporter,
    SessionConfig,
    WorkerCrashed,
)
from repro.apps.eggtimer import egg_timer_app
from repro.apps.todomvc import implementation_named
from repro.checker import Runner, RunnerConfig
from repro.executors import DomExecutor
from repro.specs import load_eggtimer_spec, load_todomvc_spec


def eggtimer_config(**overrides):
    defaults = dict(tests=4, scheduled_actions=15, demand_allowance=10,
                    seed=7, shrink=False)
    defaults.update(overrides)
    return RunnerConfig(**defaults)


def three_targets():
    """The audit shape: a passing, a failing-fast and a failing-slow
    campaign, on two different applications."""
    return [
        CheckTarget("eggtimer-ok", egg_timer_app(),
                    spec=load_eggtimer_spec().check_named("safety"),
                    config=eggtimer_config()),
        CheckTarget("eggtimer-faulty", egg_timer_app(decrement=2),
                    spec=load_eggtimer_spec().check_named("safety"),
                    config=eggtimer_config(tests=5, scheduled_actions=20,
                                           shrink=True)),
        CheckTarget("todomvc-polymer",
                    implementation_named("polymer").app_factory(),
                    spec=load_todomvc_spec(
                        default_subscript=40).check_named("safety"),
                    config=RunnerConfig(tests=6, scheduled_actions=40,
                                        demand_allowance=20, seed=2,
                                        shrink=False)),
    ]


def assert_batches_identical(serial, pooled):
    assert len(serial) == len(pooled)
    for left, right in zip(serial, pooled):
        assert left.target == right.target
        a, b = left.result, right.result
        assert a.passed == b.passed, left.target
        assert a.tests_run == b.tests_run, left.target
        assert [r.verdict for r in a.results] == [
            r.verdict for r in b.results
        ], left.target
        assert [r.actions for r in a.results] == [
            r.actions for r in b.results
        ], left.target
        if a.counterexample is None:
            assert b.counterexample is None
        else:
            assert a.counterexample.actions == b.counterexample.actions
        if a.shrunk_counterexample is None:
            assert b.shrunk_counterexample is None
        else:
            assert (
                a.shrunk_counterexample.actions
                == b.shrunk_counterexample.actions
            )


class RecordingReporter(Reporter):
    def __init__(self):
        self.events = []

    def on_session_start(self, campaigns):
        self.events.append(("session_start", campaigns))

    def on_campaign_start(self, property_name, tests, target=None):
        self.events.append(("campaign_start", property_name, tests, target))

    def on_test_start(self, property_name, index, seed):
        self.events.append(("test_start", index, seed))

    def on_test_end(self, property_name, index, result):
        self.events.append(("test_end", index, result.passed))

    def on_counterexample(self, property_name, counterexample, shrunk):
        self.events.append(("counterexample", len(counterexample.actions)))

    def on_campaign_end(self, result):
        self.events.append(("campaign_end", result.property_name,
                            result.tests_run))

    def on_session_end(self, outcomes, metrics=None):
        self.events.append(
            ("session_end", [(target, r.passed) for target, r in outcomes])
        )


class TestPooledEqualsSerial:
    """The acceptance criterion: >= 3 campaigns on a shared pool yield
    verdicts identical to sequential runs with the same seed."""

    def test_three_campaigns_identical_verdicts(self):
        targets = three_targets()
        serial = CheckSession().check_many(targets, session=SessionConfig(jobs=1))
        pooled = CheckSession().check_many(targets, session=SessionConfig(jobs=3))
        assert_batches_identical(serial, pooled)
        assert [outcome.passed for outcome in pooled] == [True, False, False]

    def test_check_many_agrees_with_individual_check_calls(self):
        targets = three_targets()
        pooled = CheckSession().check_many(targets, session=SessionConfig(jobs=2))
        for target, outcome in zip(targets, pooled):
            single = CheckSession(target.app).check(
                target.spec, config=target.config
            )
            assert single.passed == outcome.result.passed
            assert single.tests_run == outcome.result.tests_run
            assert [r.verdict for r in single.results] == [
                r.verdict for r in outcome.result.results
            ]

    def test_reporter_event_stream_is_deterministic(self):
        targets = three_targets()
        serial, pooled = RecordingReporter(), RecordingReporter()
        CheckSession(reporters=[serial]).check_many(targets, session=SessionConfig(jobs=1))
        CheckSession(reporters=[pooled]).check_many(targets, session=SessionConfig(jobs=3))
        assert serial.events == pooled.events
        kinds = [event[0] for event in pooled.events]
        assert kinds[0] == "session_start"
        assert kinds[-1] == "session_end"
        starts = [e for e in pooled.events if e[0] == "campaign_start"]
        assert [target for _, _, _, target in starts] == [
            "eggtimer-ok", "eggtimer-faulty", "todomvc-polymer",
        ]


class TestTargetCoercion:
    def test_tuple_and_callable_targets(self):
        spec = load_eggtimer_spec().check_named("safety")
        batch = CheckSession().check_many(
            [("timer-a", egg_timer_app()), egg_timer_app()],
            spec=spec, config=eggtimer_config(tests=2),
            session=SessionConfig(jobs=1),
        )
        assert [outcome.target for outcome in batch][0] == "timer-a"
        assert batch.passed

    def test_session_app_is_the_default_target_app(self):
        spec = load_eggtimer_spec()
        batch = CheckSession(egg_timer_app()).check_many(
            [CheckTarget("safety-run", property="safety"),
             CheckTarget("liveness-run", property="liveness")],
            spec=spec, config=eggtimer_config(tests=2),
            session=SessionConfig(jobs=1),
        )
        assert [o.result.property_name for o in batch] == [
            "safety", "liveness",
        ]

    def test_target_without_app_or_session_app_rejected(self):
        with pytest.raises(ValueError, match="has no app"):
            CheckSession().check_many(
                [CheckTarget("nameless")],
                spec=load_eggtimer_spec().check_named("safety"),
            )

    def test_target_without_any_spec_rejected(self):
        with pytest.raises(ValueError, match="no spec"):
            CheckSession().check_many([CheckTarget("x", egg_timer_app())])

    def test_bogus_target_rejected(self):
        with pytest.raises(TypeError, match="targets must be"):
            CheckSession().check_many(
                [42], spec=load_eggtimer_spec().check_named("safety")
            )

    def test_appless_session_check_rejected(self):
        with pytest.raises(ValueError, match="without an application"):
            CheckSession().check(load_eggtimer_spec().check_named("safety"))


class TestCampaignSet:
    def test_duplicate_labels_deduplicated(self):
        spec = load_eggtimer_spec().check_named("safety")
        runner = Runner(spec, lambda: DomExecutor(egg_timer_app()),
                        eggtimer_config(tests=1))
        campaigns = CampaignSet()
        assert campaigns.add("timer", runner) == "timer"
        assert campaigns.add("timer", runner) == "timer#2"
        assert len(campaigns) == 2

    def test_dedup_survives_explicit_collisions(self):
        spec = load_eggtimer_spec().check_named("safety")
        runner = Runner(spec, lambda: DomExecutor(egg_timer_app()),
                        eggtimer_config(tests=1))
        campaigns = CampaignSet()
        assert campaigns.add("x", runner) == "x"
        assert campaigns.add("x#2", runner) == "x#2"
        # The dedup of a repeated "x" must skip the taken "x#2".
        assert campaigns.add("x", runner) == "x#3"
        labels = [label for label, _ in campaigns]
        assert len(set(labels)) == 3

    def test_set_result_helpers(self):
        batch = CheckSession().check_many(
            three_targets()[:2], session=SessionConfig(jobs=1)
        )
        assert isinstance(batch, CampaignSetResult)
        assert len(batch) == 2
        assert not batch.passed
        assert [o.target for o in batch.failures] == ["eggtimer-faulty"]
        assert "1 passed, 1 failed" in batch.summary()
        assert batch[0].result is batch.results[0]


class TestSchedulerConfiguration:
    def test_rejects_non_positive_jobs(self):
        with pytest.raises(ValueError):
            PooledScheduler(jobs=0)
        with pytest.raises(ValueError, match="at least 1"):
            CheckSession().check_many(
                three_targets()[:1], session=SessionConfig(jobs=0)
            )

    def test_session_jobs_is_the_default_pool_width(self, monkeypatch):
        observed = {}
        original = PooledScheduler.__init__

        def spy(self, jobs=1, transport=None):
            observed["jobs"] = jobs
            original(self, jobs, transport=transport)

        monkeypatch.setattr(PooledScheduler, "__init__", spy)
        CheckSession().check_many(three_targets()[:1],
                                  session=SessionConfig(jobs=3))
        assert observed["jobs"] == 3
        CheckSession().check_many(three_targets()[:1])
        assert observed["jobs"] == 1


class TestCrashAttribution:
    def test_dead_campaign_is_named_with_its_index(self):
        """An executor that kills its worker mid-test is reported with
        the campaign label and test index it took down."""
        import os

        class KillerExecutor:
            def start(self, _start):
                os._exit(9)

        targets = three_targets()[:1] + [
            CheckTarget("killer", lambda: KillerExecutor(),
                        spec=load_eggtimer_spec().check_named("safety"),
                        config=eggtimer_config(tests=2)),
        ]
        with pytest.raises(WorkerCrashed) as excinfo:
            CheckSession().check_many(targets, session=SessionConfig(jobs=2))
        assert "killer" in str(excinfo.value)
        assert any(
            task_id[0] == "killer" for task_id in excinfo.value.in_flight
        )


class TestInlineWidthOne:
    """What profilers hook: a width-1 batch starts every test it reaches
    through ``Runner.run_single_test`` in the caller's thread, looks
    shrinking up at call time, and lets an executor error escape
    ``check_many`` as itself."""

    def test_each_reached_test_starts_through_run_single_test(
        self, monkeypatch
    ):
        import threading

        calls = []
        original = Runner.run_single_test

        def spy(runner, rng, lease=None):
            calls.append(threading.get_ident())
            return original(runner, rng, lease)

        monkeypatch.setattr(Runner, "run_single_test", spy)
        batch = CheckSession().check_many(
            three_targets(), session=SessionConfig(jobs=1)
        )
        assert len(calls) == sum(o.result.tests_run for o in batch)
        assert set(calls) == {threading.get_ident()}

    def test_shrinking_is_looked_up_at_call_time(self, monkeypatch):
        import repro.checker.shrink as shrink_module

        shrunk_for = []
        original = shrink_module.shrink_counterexample

        def spy(runner, counterexample):
            shrunk_for.append(runner.spec.name)
            return original(runner, counterexample)

        monkeypatch.setattr(shrink_module, "shrink_counterexample", spy)
        CheckSession().check_many(
            three_targets()[1:2], session=SessionConfig(jobs=1)
        )
        assert shrunk_for == ["safety"]

    def test_first_executor_start_error_propagates(self, monkeypatch):
        class Dispatched(Exception):
            pass

        def first_start(executor, message):
            raise Dispatched

        monkeypatch.setattr(DomExecutor, "start", first_start)
        with pytest.raises(Dispatched):
            CheckSession().check_many(
                three_targets()[:1], session=SessionConfig(jobs=1)
            )


class TestCampaignWallClock:
    """A campaign's wall clock opens when its first test starts, so a
    campaign that stopped after one failing test reports at least that
    test's run time, never 0.0."""

    @pytest.mark.parametrize("jobs, transport", [(1, "serial"), (2, "fork")])
    def test_one_failing_test_counts_its_own_run_time(self, jobs, transport):
        from repro.api.transport import fork_context

        if transport == "fork" and fork_context() is None:
            pytest.skip("fork transport unavailable on this platform")
        target = CheckTarget(
            "faulty", egg_timer_app(decrement=2),
            spec=load_eggtimer_spec().check_named("safety"),
            config=eggtimer_config(tests=1, scheduled_actions=20),
        )
        batch = CheckSession().check_many(
            [target], session=SessionConfig(jobs=jobs)
        )
        metrics = batch.metrics
        assert metrics.transport == transport
        assert not batch.passed
        busy = sum(metrics.worker_busy_s.values())
        assert metrics.campaign_wall_s["faulty"] >= busy > 0
        assert metrics.to_dict()["campaign_wall_s"]["faulty"] > 0


class TestEngineMetrics:
    """Compiled-engine statistics flow from TestResults into PoolMetrics."""

    def _one_target(self):
        return [
            CheckTarget("eggtimer", egg_timer_app(),
                        spec=load_eggtimer_spec().check_named("safety"),
                        config=eggtimer_config(tests=2)),
        ]

    def _assert_engine_stats(self, metrics):
        assert metrics.intern_misses > 0
        assert metrics.intern_hits > 0
        assert 0.0 < metrics.intern_hit_ratio < 1.0
        assert metrics.max_formula_size > 0
        assert metrics.query_width_states > 0
        assert metrics.mean_query_width > 0.0

    def test_serial_batch_records_engine_stats(self):
        batch = CheckSession().check_many(self._one_target(), session=SessionConfig(jobs=1))
        self._assert_engine_stats(batch.metrics)

    def test_pooled_batch_records_engine_stats(self):
        batch = CheckSession().check_many(self._one_target(), session=SessionConfig(jobs=2))
        self._assert_engine_stats(batch.metrics)

    def test_engine_stats_are_in_the_json_payload(self):
        batch = CheckSession().check_many(self._one_target(), session=SessionConfig(jobs=1))
        payload = batch.metrics.to_dict()
        for key in ("intern_hits", "intern_misses", "intern_hit_ratio",
                    "max_formula_size", "mean_query_width"):
            assert key in payload

    def test_reused_steps_are_summed_into_the_payload(self):
        batch = CheckSession().check_many(self._one_target(), session=SessionConfig(jobs=1))
        results = batch.results[0].results
        reused = sum(r.steps_reused for r in results)
        states = sum(r.states_observed for r in results)
        payload = batch.metrics.to_dict()
        assert payload["steps_reused"] == reused > 0
        assert payload["step_reuse_ratio"] == round(reused / states, 4)
