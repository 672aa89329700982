"""Fault injection: every Table 2 problem class is caught by the spec.

These are the reproduction's most important integration tests: for each
of the fourteen problem classes, the corresponding faulty application
must be *caught* (negative verdict) by the formal TodoMVC specification,
while the reference application passes.
"""

import pytest

from repro.api import CheckSession
from repro.apps.todomvc import (
    FAULT_DESCRIPTIONS,
    Faults,
    all_implementations,
    failing_implementations,
    fault_by_number,
    implementation_named,
    passing_implementations,
    todomvc_app,
)
from repro.checker import Runner, RunnerConfig
from repro.executors import DomExecutor
from repro.specs import load_todomvc_spec
from repro.specstrom.actions import ResolvedAction


@pytest.fixture(scope="module")
def safety():
    return load_todomvc_spec(default_subscript=50).check_named("safety")


@pytest.fixture(scope="module")
def persistence():
    return load_todomvc_spec(default_subscript=50).check_named("persistence")


def campaign(check, faults, tests=25, actions=50, seed=0):
    factory = lambda: DomExecutor(todomvc_app(faults))
    config = RunnerConfig(
        tests=tests, scheduled_actions=actions, demand_allowance=20,
        seed=seed, shrink=False,
    )
    return CheckSession(factory).check(check, config=config)


class TestReferencePasses:
    def test_reference_implementation_passes(self, safety):
        result = campaign(safety, None, tests=6)
        assert result.passed, result.counterexample and result.counterexample.describe()

    def test_reference_persistence_passes(self, persistence):
        result = campaign(persistence, None, tests=4)
        assert result.passed


class TestShallowFaultsCaught:
    """Problems the paper says are easily found (1-10, 12-14)."""

    @pytest.mark.parametrize("number", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 14])
    def test_fault_caught(self, safety, number):
        result = campaign(safety, fault_by_number(number))
        description = FAULT_DESCRIPTIONS[number][1]
        assert not result.passed, f"problem {number} not caught: {description}"


class TestDeepFaultEleven:
    """Problem 11 'is particularly involved to uncover' (paper 4.2): the
    scripted minimal scenario must fail definitively, and random search
    at the paper's default subscript must find it."""

    SEQUENCE = [
        ("enterText!", ResolvedAction("input", ".new-todo", 0, ("alpha",))),
        ("addNew!", ResolvedAction("pressKey", ".new-todo", 0, ("Enter",))),
        ("enterText!", ResolvedAction("input", ".new-todo", 0, ("beta",))),
        ("addNew!", ResolvedAction("pressKey", ".new-todo", 0, ("Enter",))),
        ("enterEditMode!", ResolvedAction("dblclick", ".todo-list li label", 0, ())),
        ("clearEdit!", ResolvedAction("clear", ".todo-list li.editing .edit", 0, ())),
        ("commitEdit!", ResolvedAction("pressKey", ".todo-list li.editing .edit", 0, ("Enter",))),
        ("toggleAll!", ResolvedAction("click", ".toggle-all", 0, ())),
    ]

    def test_scripted_zombie_resurrection_fails(self, safety):
        factory = lambda: DomExecutor(todomvc_app(fault_by_number(11)))
        runner = Runner(safety, factory, RunnerConfig(seed=0))
        result = runner.replay(self.SEQUENCE)
        assert result is not None
        assert result.verdict.is_negative

    def test_zombie_invisible_at_commit_time(self, safety):
        """Stopping right after the empty commit shows nothing wrong --
        that is what makes the bug deep."""
        factory = lambda: DomExecutor(todomvc_app(fault_by_number(11)))
        runner = Runner(safety, factory, RunnerConfig(seed=0))
        result = runner.replay(self.SEQUENCE[:-1])
        assert result is not None
        assert not result.verdict.is_negative

    def test_found_by_random_search_at_default_subscript(self):
        spec = load_todomvc_spec(default_subscript=100).check_named("safety")
        result = campaign_with(spec, fault_by_number(11), tests=12,
                               actions=100, seed=4)
        assert not result.passed


def campaign_with(check, faults, tests, actions, seed):
    factory = lambda: DomExecutor(todomvc_app(faults))
    config = RunnerConfig(
        tests=tests, scheduled_actions=actions, demand_allowance=20,
        seed=seed, shrink=False,
    )
    return CheckSession(factory).check(check, config=config)


class TestPersistenceExtension:
    def test_broken_persistence_caught(self, persistence):
        result = campaign(persistence, Faults(broken_persistence=True), tests=10)
        assert not result.passed

    def test_broken_persistence_invisible_to_safety(self, safety):
        """Without the reload action, storage bugs cannot be observed."""
        result = campaign(safety, Faults(broken_persistence=True), tests=4)
        assert result.passed


class TestImplementationRegistry:
    def test_population_matches_table1(self):
        impls = all_implementations()
        assert len(impls) == 43
        passing = passing_implementations()
        failing = failing_implementations()
        assert len(passing) == 23
        assert len(failing) == 20
        assert sum(i.beta for i in passing) == 9
        assert sum(i.beta for i in failing) == 8

    def test_fault_counts_match_table2(self):
        from collections import Counter

        counts = Counter(
            n for impl in failing_implementations() for n in impl.fault_numbers
        )
        assert counts[7] == 4  # prose: the most common fault
        assert counts[8] == 2
        assert counts[11] == 1
        assert sum(counts.values()) == 21
        assert set(counts) == set(range(1, 15))

    def test_vanilla_es6_has_two_faults(self):
        assert implementation_named("vanilla-es6").fault_numbers == (8, 3)

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            implementation_named("flutter")

    def test_factories_are_runnable(self):
        from repro.browser import Browser

        impl = implementation_named("vanillajs")
        browser = Browser(impl.app_factory())
        browser.load()
        assert browser.document.query_one(".new-todo") is not None
