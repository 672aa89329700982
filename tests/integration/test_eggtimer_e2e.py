"""End-to-end: the Figure 8 egg-timer specification against live apps."""

import pytest

from repro.api import CheckSession
from repro.apps.eggtimer import egg_timer_app
from repro.checker import RunnerConfig
from repro.executors import DomExecutor
from repro.quickltl import Verdict
from repro.specs import load_eggtimer_spec


@pytest.fixture(scope="module")
def module():
    return load_eggtimer_spec()


def campaign(check, app_factory, **kwargs):
    defaults = dict(tests=3, scheduled_actions=25, demand_allowance=10,
                    seed=7, shrink=True)
    defaults.update(kwargs)
    return CheckSession(lambda: DomExecutor(app_factory)).check(
        check, config=RunnerConfig(**defaults)
    )


class TestSafety:
    def test_correct_timer_passes(self, module):
        result = campaign(module.check_named("safety"), egg_timer_app())
        assert result.passed

    def test_reset_on_stop_variant_also_passes(self, module):
        """The paper: the spec 'intentionally applies both to timers that
        reset when stopped and to timers that pause when stopped'."""
        result = campaign(
            module.check_named("safety"), egg_timer_app(pause_on_stop=False)
        )
        assert result.passed

    def test_double_decrement_caught(self, module):
        result = campaign(
            module.check_named("safety"), egg_timer_app(decrement=2),
            tests=5, scheduled_actions=20,
        )
        assert not result.passed
        assert result.counterexample.verdict is Verdict.DEFINITELY_FALSE
        assert [n for n, _ in result.shrunk_counterexample.actions] == [
            "start!", "wait!",
        ]

    def test_frozen_display_caught(self, module):
        result = campaign(
            module.check_named("safety"), egg_timer_app(stuck_at=178),
            tests=5, scheduled_actions=20,
        )
        assert not result.passed


class TestLiveness:
    def test_timer_eventually_stops(self, module):
        result = campaign(
            module.check_named("liveness"), egg_timer_app(initial_seconds=8),
            tests=2, scheduled_actions=15, demand_allowance=40,
        )
        assert result.passed

    def test_time_up_with_restricted_actions(self, module):
        """check timeUp with start! wait! tick? -- excluding stop! is the
        paper's trick to make the strong liveness property checkable."""
        time_up = module.check_named("timeUp")
        assert sorted(a.name for a in time_up.actions) == ["start!", "wait!"]
        result = campaign(
            time_up, egg_timer_app(initial_seconds=8),
            tests=2, scheduled_actions=12, demand_allowance=40,
        )
        assert result.passed

    def test_time_up_fails_on_timer_that_cannot_finish(self, module):
        """A frozen-at-5 display never shows zero: the eventually
        obligation is never fulfilled and the forced verdict is
        presumptively false."""
        result = campaign(
            module.check_named("timeUp"),
            egg_timer_app(initial_seconds=8, stuck_at=5),
            tests=1, scheduled_actions=12, demand_allowance=40,
        )
        assert not result.passed
        assert result.results[-1].verdict is Verdict.PROBABLY_FALSE


class TestTraceShape:
    def test_tick_events_appear_in_traces(self, module):
        result = campaign(module.check_named("safety"), egg_timer_app(),
                          tests=1, shrink=False)
        trace = result.results[0].trace
        assert any("tick?" in entry.happened for entry in trace)
        assert any("wait!" in entry.happened for entry in trace)
        assert trace[0].happened == ("loaded?",)
