"""Cached snapshots equal uncached ones on every TodoMVC implementation
and on generated fuzz machines.

The DOM executor answers selectors from the document's per-generation
query cache and shares element snapshots within a generation.  Here
every state snapshot and every watch snapshot it takes is compared,
at the moment it is taken, with one rebuilt from the uncached reference:
:func:`repro.dom.selector.query_all` on the document root plus fresh
:meth:`ElementSnapshot.of_element` calls.  Each run is a seeded walk of
gestures that includes a ``reload`` and an executor ``reset``.  Since
the reference reads the same per-element and per-generation caches,
every state snapshot also checks those caches, for every element of the
document, against a raw derivation from attributes and parents.
"""

import random

import pytest

from repro.apps.todomvc import all_implementations
from repro.checker.runner import Runner
from repro.dom.selector import query_all
from repro.executors import ActionFailed, DomExecutor
from repro.fuzz.campaigns import generate_campaign
from repro.fuzz.machine import machine_app
from repro.protocol.messages import Act, Reset, Start
from repro.specs import load_todomvc_spec
from repro.specstrom.actions import ResolvedAction
from repro.specstrom.state import ElementSnapshot, StateSnapshot
from tests.dom.coherence import assert_caches_coherent

#: The spec's user actions as (kind, selector, key or text); ``"text"``
#: draws an input string.  Adding items is listed twice so lists grow.
TODOMVC_GESTURES = (
    ("input", ".new-todo", "text"),
    ("pressKey", ".new-todo", "Enter"),
    ("input", ".new-todo", "text"),
    ("pressKey", ".new-todo", "Enter"),
    ("click", ".todo-list li .toggle", None),
    ("click", ".todo-list li .destroy", None),
    ("click", ".toggle-all", None),
    ("click", ".clear-completed", None),
    ("dblclick", ".todo-list li label", None),
    ("input", ".todo-list li.editing .edit", "text"),
    ("clear", ".todo-list li.editing .edit", None),
    ("pressKey", ".todo-list li.editing .edit", "Enter"),
    ("pressKey", ".todo-list li.editing .edit", "Escape"),
    ("click", '.filters a[href="#/"]', None),
    ("click", '.filters a[href="#/active"]', None),
    ("click", '.filters a[href="#/completed"]', None),
)
TEXTS = ("milk", "eggs", " bread ", "")
STEPS = 60
MACHINE_CAMPAIGNS = 20


def reference(document, css):
    return tuple(
        ElementSnapshot.of_element(el, document)
        for el in query_all(document.root, css, document)
    )


class ReferenceCheckedExecutor(DomExecutor):
    """A :class:`DomExecutor` that checks each snapshot against the
    uncached reference taken at the same moment."""

    def __init__(self, app_factory) -> None:
        super().__init__(app_factory)
        self.checked_queries = 0
        self.checked_states = 0
        self.checked_elements = 0

    def _query(self, css):
        snapshots = super()._query(css)
        assert snapshots == reference(self.browser.document, css), css
        self.checked_queries += 1
        return snapshots

    def _snapshot(self, happened):
        state = super()._snapshot(happened)
        document = self.browser.document
        assert state == StateSnapshot(
            queries={css: reference(document, css) for css in self._active},
            happened=happened,
            version=state.version,
            timestamp_ms=state.timestamp_ms,
        )
        self.checked_states += 1
        self.checked_elements += assert_caches_coherent(document)
        return state


def drive(app_factory, check, gestures, seed):
    """A seeded walk of ``gestures`` with one reload and one reset."""
    rng = random.Random(seed)
    start = Start(check.dependencies, Runner(check, None).watched_events())
    executor = ReferenceCheckedExecutor(app_factory)
    executor.start(start)
    for step in range(STEPS):
        if step == STEPS // 3:
            reload = ResolvedAction("reload", None, 0, ())
            assert executor.act(Act(reload, "reload!", executor.version))
        elif step == 2 * STEPS // 3:
            assert executor.reset(Reset(start.dependencies, start.events))
        else:
            document = executor.browser.document
            targets = {
                css: [el for el in query_all(document.root, css, document) if el.visible]
                for _, css, _ in gestures
            }
            kind, css, arg = rng.choice([g for g in gestures if targets[g[1]]])
            if arg == "text":
                arg = rng.choice(TEXTS)
            args = () if arg is None else (arg,)
            resolved = ResolvedAction(kind, css, rng.randrange(len(targets[css])), args)
            try:
                executor.act(Act(resolved, f"{kind}!", executor.version))
            except ActionFailed:
                pass  # e.g. a disabled target; no state was reported
        executor.pass_time(rng.choice((0, 10, 250, 1000)))
        if rng.random() < 0.3:
            executor.await_events(rng.choice((50, 500)))
        executor.drain()
    assert executor.checked_states > STEPS
    assert executor.checked_elements > executor.checked_states
    assert executor.checked_queries >= executor.checked_states * len(start.dependencies)


@pytest.fixture(scope="module")
def todomvc_check():
    return load_todomvc_spec().checks[0]


@pytest.mark.parametrize(
    "implementation", all_implementations(), ids=lambda impl: impl.name
)
def test_todomvc_snapshots_equal_reference(implementation, todomvc_check):
    assert len(all_implementations()) == 43
    drive(
        implementation.app_factory(),
        todomvc_check,
        TODOMVC_GESTURES,
        f"snapshot-conformance/{implementation.name}",
    )


@pytest.mark.parametrize("index", range(MACHINE_CAMPAIGNS))
def test_fuzz_machine_snapshots_equal_reference(index):
    campaign = generate_campaign(0, index)
    gestures = tuple(
        ("click", button.selector, None) for button in campaign.machine.buttons
    )
    check = campaign.check_property()
    for name, fault in campaign.targets():
        drive(
            machine_app(campaign.machine, fault),
            check,
            gestures,
            f"snapshot-conformance/{index}/{name}",
        )
