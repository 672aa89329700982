"""The CheckSession facade: spec resolution, executor coercion, widths."""

import pytest

from repro.api import CheckSession
from repro.apps.eggtimer import egg_timer_app
from repro.checker import RunnerConfig, Runner
from repro.executors import CCSExecutor, DomExecutor, parse_definitions
from repro.specs import load_eggtimer_spec, spec_path
from repro.specstrom import load_module

QUICK = RunnerConfig(tests=2, scheduled_actions=8, demand_allowance=5,
                     seed=3, shrink=False)


class TestSpecResolution:
    def test_check_spec_passthrough(self):
        spec = load_eggtimer_spec().check_named("safety")
        result = CheckSession(egg_timer_app()).check(spec, config=QUICK)
        assert result.property_name == "safety"
        assert result.passed

    def test_module_with_property(self):
        module = load_eggtimer_spec()
        result = CheckSession(egg_timer_app()).check(
            module, property="safety", config=QUICK
        )
        assert result.property_name == "safety"

    def test_path_with_property(self):
        result = CheckSession(egg_timer_app()).check(
            spec_path("eggtimer.strom"), property="safety", config=QUICK
        )
        assert result.property_name == "safety"
        assert result.passed

    def test_single_check_module_needs_no_property(self):
        module = load_module(
            """
            let ~thereIsAToggle = count(`#toggle`) >= 0;
            action poke! = click!(`#toggle`);
            let ~prop = always{3} thereIsAToggle;
            check prop;
            """
        )
        result = CheckSession(egg_timer_app()).check(module, config=QUICK)
        assert result.property_name == "prop"

    def test_ambiguous_module_rejected(self):
        module = load_eggtimer_spec()  # three properties
        with pytest.raises(ValueError, match="pass property="):
            CheckSession(egg_timer_app()).check(module, config=QUICK)

    def test_unknown_property_rejected(self):
        with pytest.raises(KeyError):
            CheckSession(egg_timer_app()).check(
                load_eggtimer_spec(), property="bogus", config=QUICK
            )

    def test_mismatched_property_on_check_spec_rejected(self):
        spec = load_eggtimer_spec().check_named("safety")
        with pytest.raises(ValueError, match="does not match"):
            CheckSession(egg_timer_app()).check(
                spec, property="liveness", config=QUICK
            )

    def test_non_spec_rejected(self):
        with pytest.raises(TypeError):
            CheckSession(egg_timer_app()).check(42, config=QUICK)

    def test_check_all_runs_every_property(self):
        results = CheckSession(egg_timer_app()).check_all(
            load_eggtimer_spec(), config=QUICK
        )
        assert [r.property_name for r in results] == [
            "safety", "liveness", "timeUp",
        ]


class TestExecutorCoercion:
    def test_app_factory_wrapped_in_dom_executor(self):
        session = CheckSession(egg_timer_app())
        executor = session.executor_factory()
        assert isinstance(executor, DomExecutor)

    def test_zero_arg_callable_is_executor_factory(self):
        defs, initial = parse_definitions("Idle = coin.Idle\nIdle")
        session = CheckSession(lambda: CCSExecutor(initial, defs))
        executor = session.executor_factory()
        assert isinstance(executor, CCSExecutor)

    def test_non_callable_rejected(self):
        with pytest.raises(TypeError):
            CheckSession("not a factory")


class TestEngineSelection:
    """``check`` runs on the scheduler at the session's width."""

    def _width(self, session):
        session.check(load_eggtimer_spec().check_named("safety"),
                      config=QUICK)
        metrics = session.last_metrics
        return metrics.jobs, metrics.transport

    def test_default_engine_is_serial(self):
        assert self._width(CheckSession(egg_timer_app())) == (1, "serial")

    def test_jobs_selects_parallel(self):
        jobs, transport = self._width(CheckSession(egg_timer_app(), jobs=4))
        assert jobs == 4
        assert transport in ("fork", "thread")

    def test_jobs_one_stays_serial(self):
        session = CheckSession(egg_timer_app(), jobs=1)
        assert self._width(session) == (1, "serial")

    def test_engine_and_jobs_conflict(self):
        """``engine=`` is gone: jobs and transports are the only knobs,
        so passing an engine (with or without jobs) is a TypeError."""
        with pytest.raises(TypeError):
            CheckSession(egg_timer_app(), engine=object(), jobs=2)
        with pytest.raises(TypeError):
            CheckSession(egg_timer_app(), engine=object())


class TestCheckIsAOneTargetBatch:
    """``check`` rides ``check_many``: it honours the session's
    ``reuse_executors``, records ``last_metrics`` and brackets the
    campaign with session events."""

    def test_check_reuses_warm_executors_and_records_metrics(self):
        from repro.api import SessionConfig

        spec = load_eggtimer_spec().check_named("safety")
        config = RunnerConfig(tests=5, scheduled_actions=10, seed=1,
                              shrink=False)
        session = CheckSession(egg_timer_app())
        assert session.last_metrics is None
        result = session.check(
            spec, config=config,
            session=SessionConfig(reuse_executors=True),
        )
        assert result.tests_run == 5
        metrics = session.last_metrics
        assert metrics is not None
        assert (metrics.cold_starts, metrics.warm_hits) == (1, 4)

    def test_check_emits_the_batch_shaped_stream(self):
        from repro.fuzz.oracles import RecordingReporter

        recorder = RecordingReporter()
        CheckSession(egg_timer_app(), reporters=[recorder]).check(
            load_eggtimer_spec(), property="safety", config=QUICK
        )
        kinds = [event[0] for event in recorder.events]
        assert kinds[0] == "session_start"
        assert kinds[-1] == "session_end"
        assert recorder.events[1] == ("campaign_start", "safety",
                                      QUICK.tests, "safety")


class TestRunnerAccess:
    def test_runner_exposes_single_test_engine(self):
        session = CheckSession(egg_timer_app())
        runner = session.runner(load_eggtimer_spec(), property="safety",
                                config=QUICK)
        assert isinstance(runner, Runner)
        assert runner.spec.name == "safety"


class TestSpecModuleMemoization:
    """The session's ``SpecResolver`` runs the front end once per spec
    *content*: batches share one parse across property overrides, and
    repeated check() calls on an unchanged file are memo hits."""

    def _counting_front_end(self, monkeypatch):
        import repro.artifact.resolver as resolver_module

        calls = []
        original = resolver_module.compile_source

        def counting(source, **kwargs):
            calls.append(kwargs.get("source_path"))
            return original(source, **kwargs)

        monkeypatch.setattr(resolver_module, "compile_source", counting)
        return calls

    def test_property_overrides_share_one_parse(self, monkeypatch):
        from repro.api import CheckTarget, SessionConfig

        calls = self._counting_front_end(monkeypatch)
        batch = CheckSession(egg_timer_app()).check_many(
            [
                CheckTarget("safety-a", property="safety"),
                CheckTarget("liveness-b", property="liveness"),
                CheckTarget("safety-c", property="safety"),
            ],
            spec=spec_path("eggtimer.strom"),
            config=QUICK,
            session=SessionConfig(jobs=1),
        )
        assert len(batch) == 3
        assert len(calls) == 1

    def test_mixed_batch_shares_one_parse_too(self, monkeypatch):
        from repro.api import CheckTarget, SessionConfig

        calls = self._counting_front_end(monkeypatch)
        CheckSession(egg_timer_app()).check_many(
            [
                CheckTarget("plain"),  # batch spec + batch property
                CheckTarget("override", property="liveness"),
            ],
            spec=spec_path("eggtimer.strom"),
            property="safety",
            config=QUICK,
            session=SessionConfig(jobs=1),
        )
        assert len(calls) == 1

    def test_unchanged_file_is_a_memo_hit_but_edits_recompile(
        self, monkeypatch, tmp_path
    ):
        """The memo keys on content, not call boundaries: re-checking
        an unchanged file skips the front end, while an edit under the
        same path recompiles (never a stale serve)."""
        calls = self._counting_front_end(monkeypatch)
        spec_file = tmp_path / "egg.strom"
        source = open(spec_path("eggtimer.strom")).read()
        spec_file.write_text(source)
        session = CheckSession(egg_timer_app())
        session.check(str(spec_file), property="safety", config=QUICK)
        session.check(str(spec_file), property="safety", config=QUICK)
        assert len(calls) == 1  # memo hit on identical bytes
        spec_file.write_text(source + "\n// touched\n")
        session.check(str(spec_file), property="safety", config=QUICK)
        assert len(calls) == 2  # edited content recompiles


class TestOneCompiledPropertyPerBatch:
    """Whatever the spec form, a batch's campaigns of one property share
    one compiled property, and so one step table: a second campaign
    replaying the first's states takes every step from it."""

    def reused(self, spec, **target):
        from repro.api import CheckTarget, SessionConfig

        batch = CheckSession(egg_timer_app()).check_many(
            [CheckTarget("first", **target), CheckTarget("again", **target)],
            spec=spec, config=QUICK, session=SessionConfig(jobs=1),
        )
        first, again = batch.results
        assert first.results[0].steps_reused < first.results[0].states_observed
        return [(r.steps_reused, r.states_observed) for r in again.results]

    @pytest.mark.parametrize("form", ["check", "module", "path"])
    def test_the_second_campaign_reuses_every_step(self, form):
        module = load_eggtimer_spec()
        spec = {"check": module.check_named("safety"), "module": module,
                "path": spec_path("eggtimer.strom")}[form]
        target = {} if form == "check" else {"property": "safety"}
        for reused, states in self.reused(spec, **target):
            assert reused == states > 0

    def test_targets_with_their_own_check_spec_share_it_too(self):
        from repro.api import CheckTarget, SessionConfig

        check = load_eggtimer_spec().check_named("safety")
        batch = CheckSession(egg_timer_app()).check_many(
            [CheckTarget("first", spec=check), CheckTarget("again", spec=check)],
            config=QUICK, session=SessionConfig(jobs=1),
        )
        again = batch.results[1].results
        assert [r.steps_reused for r in again] == [
            r.states_observed for r in again]


class TestSessionConfig:
    """The consolidated knob bundle and its deprecation shims."""

    def _spec(self):
        return load_eggtimer_spec().check_named("safety")

    def test_defaults(self):
        from repro.api import SessionConfig

        cfg = SessionConfig()
        assert cfg.jobs is None
        assert cfg.transport is None
        assert cfg.reuse_executors is True
        assert cfg.reporters is None
        assert (cfg.stop_on_failure, cfg.narrow_queries, cfg.shrink) == \
               (None, None, None)

    def test_runner_config_overlay(self):
        from repro.api import SessionConfig

        base = RunnerConfig(tests=5, shrink=True)
        # No overrides: the base comes back untouched (same object).
        assert SessionConfig().runner_config(base) is base
        overlaid = SessionConfig(shrink=False,
                                 stop_on_failure=False).runner_config(base)
        assert overlaid.shrink is False
        assert overlaid.stop_on_failure is False
        assert overlaid.tests == 5          # untouched fields survive
        assert base.shrink is True          # the base is not mutated
        # A None base overlays onto the default RunnerConfig.
        from_none = SessionConfig(narrow_queries=False).runner_config(None)
        assert from_none.narrow_queries is False

    def test_merged_returns_an_updated_copy(self):
        from repro.api import SessionConfig

        cfg = SessionConfig(jobs=2)
        updated = cfg.merged(jobs=4, reuse_executors=False)
        assert (updated.jobs, updated.reuse_executors) == (4, False)
        assert cfg.jobs == 2  # original untouched

    def test_session_kwarg_does_not_warn(self, recwarn):
        import warnings

        from repro.api import SessionConfig

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            batch = CheckSession(egg_timer_app()).check_many(
                [("egg", egg_timer_app())], spec=self._spec(), config=QUICK,
                session=SessionConfig(jobs=1, reuse_executors=False),
            )
        assert batch.passed

    def test_legacy_bare_kwargs_are_gone(self):
        """The one-release ``DeprecationWarning`` shims for bare
        ``jobs=`` / ``reuse_executors=`` / ``reporters=`` on the check
        methods were removed; ``session=SessionConfig(...)`` is the
        only spelling now."""
        session = CheckSession(egg_timer_app())
        for kwargs in ({"jobs": 1}, {"reuse_executors": False},
                       {"reporters": []}):
            with pytest.raises(TypeError):
                session.check_many(
                    [("egg", egg_timer_app())], spec=self._spec(),
                    config=QUICK, **kwargs,
                )
        with pytest.raises(TypeError):
            session.check_all(load_eggtimer_spec(), config=QUICK, jobs=1)

    def test_session_config_is_the_only_spelling(self):
        from repro.api import Reporter, SessionConfig

        seen = []

        class Probe(Reporter):
            def on_session_end(self, outcomes, metrics=None):
                seen.append(len(outcomes))

        batch = CheckSession(egg_timer_app()).check_many(
            [("egg", egg_timer_app())], spec=self._spec(), config=QUICK,
            session=SessionConfig(jobs=1, reuse_executors=False,
                                  reporters=[Probe()]),
        )
        assert batch.passed
        assert batch.metrics.jobs == 1
        assert batch.metrics.warm_hits == 0  # reuse really was off
        assert seen == [1]

    def test_config_runner_overrides_reach_the_campaign(self):
        from repro.api import SessionConfig

        spec = self._spec()
        cfg = RunnerConfig(tests=2, scheduled_actions=8, demand_allowance=5,
                           seed=3, shrink=True)
        batch = CheckSession(egg_timer_app(decrement=2)).check_many(
            [("faulty", egg_timer_app(decrement=2))], spec=spec, config=cfg,
            session=SessionConfig(jobs=1, shrink=False),
        )
        result = batch[0].result
        assert not result.passed
        # shrink=False overlay: a counterexample, but no shrunk one.
        assert result.counterexample is not None
        assert result.shrunk_counterexample is None

    def test_check_accepts_a_session_config(self):
        from repro.api import SessionConfig

        result = CheckSession(egg_timer_app()).check(
            self._spec(), config=QUICK,
            session=SessionConfig(jobs=2, transport="thread"),
        )
        assert result.passed
        assert result.tests_run == QUICK.tests
