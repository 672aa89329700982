"""End-to-end: the formal TodoMVC specification on sample implementations."""

import pytest

from repro.api import CheckSession
from repro.apps.todomvc import implementation_named
from repro.checker import RunnerConfig
from repro.executors import DomExecutor
from repro.specs import load_todomvc_spec


@pytest.fixture(scope="module")
def safety():
    return load_todomvc_spec(default_subscript=60).check_named("safety")


def audit(safety, name, tests=12, seed=2):
    impl = implementation_named(name)
    config = RunnerConfig(tests=tests, scheduled_actions=60,
                          demand_allowance=20, seed=seed, shrink=True)
    return impl, CheckSession(lambda: DomExecutor(impl.app_factory())).check(
        safety, config=config
    )


class TestPassingImplementations:
    @pytest.mark.parametrize("name", ["vue", "react", "binding-scala"])
    def test_passes(self, safety, name):
        impl, result = audit(safety, name, tests=4)
        assert result.passed
        assert not impl.should_fail


class TestFailingImplementations:
    @pytest.mark.parametrize(
        "name",
        [
            "angular2_es2015",  # P1
            "dijon",            # P2
            "duel",             # P4
            "polymer",          # P6
            "angularjs",        # P7
            "vanillajs",        # P8
            "dojo",             # P9
            "jquery",           # P10
            "ractive",          # P12
            "canjs",            # P13
            "angular-dart",     # P14
        ],
    )
    def test_fails_with_counterexample(self, safety, name):
        impl, result = audit(safety, name)
        assert not result.passed
        assert impl.should_fail
        assert result.shrunk_counterexample is not None
        assert len(result.shrunk_counterexample.actions) <= len(
            result.counterexample.actions
        )

    def test_vanilla_es6_dual_fault(self, safety):
        impl, result = audit(safety, "vanilla-es6")
        assert not result.passed
        assert impl.fault_numbers == (8, 3)


class TestCounterexampleQuality:
    def test_pluralisation_shrinks_small(self, safety):
        """P6 needs exactly one item; the shrunk trace should be short."""
        _, result = audit(safety, "polymer")
        assert len(result.shrunk_counterexample.actions) <= 4

    def test_transient_empty_counterexample_mentions_add(self, safety):
        _, result = audit(safety, "angular-dart")
        names = [n for n, _ in result.shrunk_counterexample.actions]
        assert "addNew!" in names
