"""Counterexample shrinking by replay."""

import pytest

from repro.api import CheckSession
from repro.apps.eggtimer import egg_timer_app
from repro.checker import Runner, RunnerConfig
from repro.executors import DomExecutor
from repro.specs import load_eggtimer_spec


@pytest.fixture(scope="module")
def safety():
    return load_eggtimer_spec().check_named("safety")


def failing_campaign(safety, **app_kwargs):
    factory = lambda: DomExecutor(egg_timer_app(**app_kwargs))
    config = RunnerConfig(tests=5, scheduled_actions=20, demand_allowance=10,
                          seed=3, shrink=True)
    return CheckSession(factory).check(safety, config=config)


class TestShrinking:
    def test_shrunk_is_no_longer_than_original(self, safety):
        result = failing_campaign(safety, decrement=2)
        assert not result.passed
        assert result.shrunk_counterexample is not None
        assert len(result.shrunk_counterexample.actions) <= len(
            result.counterexample.actions
        )

    def test_double_decrement_shrinks_to_start_then_wait(self, safety):
        result = failing_campaign(safety, decrement=2)
        names = [n for n, _ in result.shrunk_counterexample.actions]
        assert names == ["start!", "wait!"]

    def test_shrunk_counterexample_still_fails_on_replay(self, safety):
        result = failing_campaign(safety, decrement=2)
        runner = Runner(
            safety,
            lambda: DomExecutor(egg_timer_app(decrement=2)),
            RunnerConfig(seed=0),
        )
        replayed = runner.replay(result.shrunk_counterexample.actions)
        assert replayed is not None
        assert replayed.failed

    def test_shrinking_respects_guards(self, safety):
        """Every action in the shrunk sequence must be legal where it
        fires (a wait! while stopped would itself violate the spec and
        manufacture a bogus 'counterexample')."""
        result = failing_campaign(safety, decrement=2)
        runner = Runner(
            safety,
            lambda: DomExecutor(egg_timer_app(decrement=2)),
            RunnerConfig(seed=0),
        )
        # wait! alone (without start!) is guarded off; the replay must
        # refuse it rather than produce a fake failure.
        wait_only = [a for a in result.counterexample.actions if a[0] == "wait!"][:1]
        assert runner.replay(wait_only) is None

    def test_correct_app_replay_of_failing_trace_passes(self, safety):
        """The same action sequence on the *correct* timer passes: the
        failure lives in the app, not in the trace."""
        result = failing_campaign(safety, decrement=2)
        runner = Runner(
            safety, lambda: DomExecutor(egg_timer_app()), RunnerConfig(seed=0)
        )
        replayed = runner.replay(result.shrunk_counterexample.actions)
        assert replayed is not None
        assert not replayed.failed


class TestReplayBudget:
    """Exhausting _MAX_REPLAYS mid-improvement must keep the best
    candidate found so far, never fall back to the original."""

    @staticmethod
    def _result(actions, verdict):
        from repro.checker.result import TestResult

        return TestResult(
            verdict=verdict,
            forced=False,
            states_observed=len(actions) + 1,
            actions_taken=len(actions),
            stale_rejections=0,
            elapsed_virtual_ms=0.0,
            trace=[],
            actions=list(actions),
        )

    def _scripted_runner(self):
        """Replay 'fails' iff the candidate still contains action "a"
        (so the true minimum is ["a"] alone)."""
        from repro.quickltl import Verdict

        result = self._result

        class ScriptedRunner:
            replays = 0

            def replay(self, candidate):
                self.replays += 1
                if any(name == "a" for name, _ in candidate):
                    return result(candidate, Verdict.DEFINITELY_FALSE)
                return result(candidate, Verdict.DEFINITELY_TRUE)

        return ScriptedRunner()

    def test_budget_exhaustion_keeps_best_so_far(self, monkeypatch):
        from repro.checker import shrink as shrink_module
        from repro.checker.result import Counterexample
        from repro.quickltl import Verdict

        original = [("a", None), ("b", None), ("c", None), ("d", None)]
        counterexample = Counterexample(
            actions=list(original), trace=[], verdict=Verdict.DEFINITELY_FALSE
        )
        # Budget of exactly 2 replays: the first candidate ([c, d])
        # passes, the second ([a, b]) fails -- an improvement -- and the
        # budget is then spent before ddmin can reach the minimum [a].
        monkeypatch.setattr(shrink_module, "_MAX_REPLAYS", 2)
        runner = self._scripted_runner()
        shrunk = shrink_module.shrink_counterexample(runner, counterexample)
        assert runner.replays == 2
        assert [name for name, _ in shrunk.actions] == ["a", "b"]
        # Strictly better than the original, strictly worse than the
        # unreachable minimum -- exactly "best so far".
        assert len(shrunk.actions) < len(original)

    def test_unshrinkable_budget_returns_original(self, monkeypatch):
        from repro.checker import shrink as shrink_module
        from repro.checker.result import Counterexample
        from repro.quickltl import Verdict

        class NeverImproves:
            def replay(self, candidate):
                return None  # no candidate replays successfully

        original = [("a", None), ("b", None)]
        counterexample = Counterexample(
            actions=list(original), trace=[], verdict=Verdict.DEFINITELY_FALSE
        )
        monkeypatch.setattr(shrink_module, "_MAX_REPLAYS", 3)
        shrunk = shrink_module.shrink_counterexample(
            NeverImproves(), counterexample
        )
        assert shrunk is counterexample
