"""Residual-driven query narrowing: the runner/executor contract.

A query the progressed formula can no longer read stops being captured
(the ``Narrow`` protocol message), with the invariant that narrowing is
*invisible*: verdicts, counterexamples and everything the run actually
reads are identical to full capture -- a narrowed state is exactly the
full state restricted to its capture set.
"""

import random

import pytest

from repro.api import CheckSession
from repro.checker import CompiledProperty, Runner, RunnerConfig
from repro.dom import Element
from repro.executors import DomExecutor
from repro.fuzz.oracles import narrowing_mismatch
from repro.quickltl import atom
from repro.specstrom import load_module
from repro.specstrom.analysis import live_queries


def two_phase_app(page):
    """A banner only the first state reads, plus a counter."""
    doc = page.document
    banner = Element("span", {"id": "banner"}, text="ready")
    label = Element("span", {"id": "value"}, text="0")
    button = Element("button", {"id": "inc"}, text="+")
    for element in (banner, label, button):
        doc.root.append_child(element)
    state = {"n": 0}

    def on_click(_event):
        state["n"] += 1
        label.text = str(state["n"])

    doc.add_event_listener(button, "click", on_click)
    return state


#: The first conjunct reads `#banner` once (resolved at the first
#: state); the always-residual only ever reads `#value` (plus the
#: action's `#inc`), so `#banner` goes dead from state 2 on.
TWO_PHASE_SPEC = """
let ~value = parseInt(`#value`.text);
action inc! = click!(`#inc`);
check (`#banner`.text == "ready" && always{10} (value >= 0));
"""


@pytest.fixture(scope="module")
def two_phase_check():
    return load_module(TWO_PHASE_SPEC).checks[0]


def run_one(check, narrow, seed="t/0", **overrides):
    defaults = dict(tests=1, scheduled_actions=6, demand_allowance=6,
                    seed=0, shrink=False, narrow_queries=narrow)
    defaults.update(overrides)
    runner = Runner(check, lambda: DomExecutor(two_phase_app),
                    RunnerConfig(**defaults))
    return runner.run_single_test(random.Random(seed))


class TestNarrowedCapture:
    def test_dead_query_stops_being_captured(self, two_phase_check):
        result = run_one(two_phase_check, narrow=True)
        assert result.passed
        first, *rest = result.trace
        assert "#banner" in first.state.queries
        assert rest, "the test should observe more than the loaded state"
        for entry in rest:
            assert "#banner" not in entry.state.queries
            assert "#value" in entry.state.queries
            assert "#inc" in entry.state.queries  # action deps always stay

    def test_full_capture_without_narrowing(self, two_phase_check):
        result = run_one(two_phase_check, narrow=False)
        for entry in result.trace:
            assert set(entry.state.queries) == set(
                two_phase_check.dependencies
            )

    def test_narrowed_equals_full_restricted(self, two_phase_check):
        full = run_one(two_phase_check, narrow=False)
        narrowed = run_one(two_phase_check, narrow=True)
        assert narrowed.verdict is full.verdict
        assert narrowed.actions == full.actions
        assert narrowing_mismatch(full, narrowed) is None

    def test_width_metrics_reflect_the_narrowing(self, two_phase_check):
        full = run_one(two_phase_check, narrow=False)
        narrowed = run_one(two_phase_check, narrow=True)
        assert narrowed.states_observed == full.states_observed
        assert narrowed.query_width_sum < full.query_width_sum
        assert 0 < narrowed.mean_query_width < full.mean_query_width

    def test_replay_narrows_identically(self, two_phase_check):
        live = run_one(two_phase_check, narrow=True)
        runner = Runner(
            two_phase_check, lambda: DomExecutor(two_phase_app),
            RunnerConfig(tests=1, scheduled_actions=6, demand_allowance=6,
                         seed=0, shrink=False),
        )
        replayed = runner.replay(list(live.actions))
        assert replayed is not None
        assert replayed.verdict is live.verdict
        for entry in replayed.trace[1:]:
            assert "#banner" not in entry.state.queries


class TestConservativeFallbacks:
    def test_declining_executor_keeps_full_capture(self, two_phase_check):
        class DecliningExecutor(DomExecutor):
            def narrow(self, narrow):
                return False

        runner = Runner(
            two_phase_check, lambda: DecliningExecutor(two_phase_app),
            RunnerConfig(tests=1, scheduled_actions=4, demand_allowance=4,
                         seed=0, shrink=False),
        )
        result = runner.run_single_test(random.Random("t/0"))
        assert result.passed
        for entry in result.trace:
            assert set(entry.state.queries) == set(
                two_phase_check.dependencies
            )

    def test_unknown_residual_means_full_capture(self, two_phase_check):
        # A hand-built atom is opaque to the liveness analysis...
        assert live_queries(atom("p")) is None
        # ...so the compiled spec reports "no narrowed set" for it.
        compiled = CompiledProperty(two_phase_check)
        assert compiled.narrowed_dependencies(atom("p")) is None

    def test_always_specs_never_narrow_below_their_reads(
        self, two_phase_check
    ):
        compiled = CompiledProperty(two_phase_check)
        assert compiled.supports_narrowing
        narrowed = compiled.narrowed_dependencies(
            two_phase_check.formula
        )
        # Before any state, the whole property is live: full set.
        assert narrowed == frozenset(two_phase_check.dependencies)


class TestCampaignEquivalence:
    def test_campaigns_agree_with_and_without_narrowing(
        self, two_phase_check
    ):
        results = {}
        for narrow in (False, True):
            results[narrow] = CheckSession(
                lambda: DomExecutor(two_phase_app)
            ).check(
                two_phase_check,
                config=RunnerConfig(tests=4, scheduled_actions=8,
                                    demand_allowance=6, seed=7, shrink=False,
                                    narrow_queries=narrow),
            )
        full, narrowed = results[False], results[True]
        assert narrowed.passed == full.passed
        assert [r.verdict for r in narrowed.results] == [
            r.verdict for r in full.results
        ]
        assert [r.actions for r in narrowed.results] == [
            r.actions for r in full.results
        ]
        for full_r, narrow_r in zip(full.results, narrowed.results):
            assert narrowing_mismatch(full_r, narrow_r) is None


class TestDeclineAfterAccept:
    """A backend that accepted earlier narrows but declines a later one
    must be widened back to full -- never left stuck on a stale subset
    the formula has outgrown."""

    class _ScriptedExecutor:
        def __init__(self, answers):
            self.answers = list(answers)
            self.requests = []

        def narrow(self, narrow):
            self.requests.append(frozenset(narrow.dependencies))
            return self.answers.pop(0)

    class _StubCompiled:
        def __init__(self, dependencies):
            class _Spec:
                pass

            self.spec = _Spec()
            self.spec.dependencies = frozenset(dependencies)
            self.supports_narrowing = True
            self.next_target = None

        def narrowed_dependencies(self, residual):
            return self.next_target

    def _narrower(self, answers):
        from repro.checker.runner import QueryNarrower
        from repro.quickltl import TOP

        compiled = self._StubCompiled({"#a", "#b"})

        class _Checker:
            residual = TOP

        executor = self._ScriptedExecutor(answers)
        return QueryNarrower(compiled, executor, _Checker()), compiled, executor

    def test_late_decline_restores_full_capture(self):
        narrower, compiled, executor = self._narrower([True, False, True])
        compiled.next_target = frozenset({"#a"})
        narrower.update()  # accepted: actively narrowed to {#a}
        assert narrower.active == frozenset({"#a"})
        compiled.next_target = frozenset({"#a", "#b"})
        narrower.update()  # widen declined: must restore full capture
        assert executor.requests[-1] == frozenset({"#a", "#b"})
        assert narrower.active == narrower.full
        assert not narrower.enabled  # and never asks again
        narrower.update()
        assert len(executor.requests) == 3  # no further requests

    def test_decline_while_still_full_just_disables(self):
        narrower, compiled, executor = self._narrower([False])
        compiled.next_target = frozenset({"#a"})
        narrower.update()
        # Never narrowed, so nothing to restore: one request, disabled.
        assert executor.requests == [frozenset({"#a"})]
        assert narrower.active == narrower.full
        assert not narrower.enabled
