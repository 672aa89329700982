"""A runtime witness for the observed-attributes analysis.

The step key and the monitor's cohort key keep only the element
attributes a property's ``observed_attributes`` names, which is exact
only if progression never reads any other attribute and never reads a
whole element while the set is not ``None``.  This test watches every
``ElementSnapshot`` while ``FormulaChecker.observe`` or
``BatchProgressor._step`` runs, over the paper's 43 TodoMVC
implementations and the egg timer, checked offline and replayed through
the monitor: each attribute read must be in the set, and ``==``,
hashing, printing or a direct read of ``attributes`` (which a quote's
capture key or a copy makes) must not happen at all.
"""

import pytest

from repro.api import CheckSession, CheckTarget, SessionConfig
from repro.apps.eggtimer import egg_timer_app
from repro.apps.todomvc import all_implementations
from repro.checker import RunnerConfig
from repro.checker.compiled import CompiledProperty
from repro.monitor.replay import monitor_verdicts
from repro.monitor.batch import BatchProgressor
from repro.quickltl import FormulaChecker
from repro.specs import load_eggtimer_spec, load_todomvc_spec
from repro.specstrom import ElementSnapshot


class Witness:
    """What progression read of elements, per property."""

    def __init__(self):
        self.depth = 0
        self.reads = set()
        self.whole = []

    def window(self, original):
        witness = self

        def wrapper(*args, **kwargs):
            witness.depth += 1
            try:
                return original(*args, **kwargs)
            finally:
                witness.depth -= 1

        return wrapper

    def install(self, patch):
        witness = self
        get = object.__getattribute__

        def attribute(element, name):
            if witness.depth:
                witness.reads.add(name)
            for key, value in get(element, "attributes"):
                if key == name:
                    return value
            return None

        def getattribute(element, name):
            if name == "attributes" and witness.depth:
                witness.whole.append("attributes")
            return get(element, name)

        def whole(operation, original):
            def wrapper(*args):
                if witness.depth:
                    witness.whole.append(operation)
                return original(*args)

            return wrapper

        patch.setattr(ElementSnapshot, "attribute", attribute)
        patch.setattr(ElementSnapshot, "__getattribute__", getattribute)
        for operation in ("__eq__", "__hash__", "__repr__"):
            patch.setattr(ElementSnapshot, operation,
                          whole(operation, getattr(ElementSnapshot, operation)))
        patch.setattr(FormulaChecker, "observe",
                      self.window(FormulaChecker.observe))
        patch.setattr(BatchProgressor, "_step",
                      self.window(BatchProgressor._step))
        # Every state is progressed, none served by the step table.
        patch.setattr(CompiledProperty, "keyed", property(lambda self: False))


def witnessed(monkeypatch, check, targets, config):
    """Check ``targets`` against ``check`` offline, replay every test's
    trace through the monitor, and return what progression read."""
    witness = Witness()
    with monkeypatch.context() as patch:
        witness.install(patch)
        batch = CheckSession().check_many(
            [CheckTarget(name, app) for name, app in targets], spec=check,
            config=config, session=SessionConfig(jobs=1),
        )
        traces = {
            f"{outcome.target}/{index}": [entry.state for entry in test.trace]
            for outcome in batch.outcomes
            for index, test in enumerate(outcome.result.results)
        }
        verdicts = monitor_verdicts(check, traces)
    for outcome in batch.outcomes:
        for index, test in enumerate(outcome.result.results):
            assert verdicts[f"{outcome.target}/{index}"].verdict == (
                test.verdict.name)
    return witness, sum(len(trace) for trace in traces.values())


class TestProgressionReadsOnlyObservedAttributes:
    def test_todomvc_audit(self, monkeypatch):
        safety = load_todomvc_spec().check_named("safety")
        assert safety.observed_attributes == frozenset()
        witness, states = witnessed(
            monkeypatch, safety,
            [(impl.name, impl.app_factory()) for impl in all_implementations()],
            RunnerConfig(tests=1, scheduled_actions=40, demand_allowance=20,
                         seed=4, shrink=False),
        )
        assert states > 43 * 20
        assert witness.reads <= safety.observed_attributes
        assert witness.whole == []

    @pytest.mark.parametrize("name", ["safety", "liveness", "timeUp"])
    def test_egg_timer(self, monkeypatch, name):
        check = load_eggtimer_spec().check_named(name)
        assert check.observed_attributes == frozenset()
        witness, states = witnessed(
            monkeypatch, check,
            [("egg", egg_timer_app()), ("egg-faulty", egg_timer_app(decrement=2))],
            RunnerConfig(tests=3, scheduled_actions=20, demand_allowance=10,
                         seed=2, shrink=False, stop_on_failure=False),
        )
        assert states > 40
        assert witness.reads <= check.observed_attributes
        assert witness.whole == []

    def test_the_witness_sees_reads_and_leaks(self, monkeypatch):
        # A property reading `data-id` through `props`, and one leaking whole
        # elements, are seen: the witness is not blind.
        from repro.specstrom import load_module

        module = load_module("""
            let ~ids = props(`.todo-list li`, "data-id") == ["x"] || true;
            let ~leak = first(elements(`.todo-list li`)) == null || true;
            action add! = pressKey!(`.new-todo`, "Enter");
            action type! = input!(`.new-todo`, randomText());
            check always{8} ids with add!, type!;
            check always{8} leak with add!, type!;
        """)
        ids, leak = module.checks
        assert ids.observed_attributes == frozenset({"data-id"})
        assert leak.observed_attributes is None
        impl = all_implementations()[0]
        config = RunnerConfig(tests=1, scheduled_actions=10, seed=1,
                              shrink=False)
        witness, _ = witnessed(monkeypatch, ids,
                               [(impl.name, impl.app_factory())], config)
        assert witness.reads == {"data-id"}
        witness, _ = witnessed(monkeypatch, leak,
                               [(impl.name, impl.app_factory())], config)
        assert witness.whole
