"""Shared hypothesis strategies and settings for the whole test suite.

This is the one home for generation machinery that more than one test
package needs (promoted from ``tests/quickltl/strategies.py``, which
remains as a thin re-export for old imports):

* **Settings**: :func:`examples` replaces the per-file
  ``@settings(max_examples=N, deadline=None)`` boilerplate.  The suite
  always disables hypothesis deadlines (simulated-time tests have
  unhelpfully noisy wall-clock behaviour under load), so the only knob a
  test should state is how many examples it wants.
* **QuickLTL**: propositional states/traces over a small fixed alphabet
  and random formulas (:func:`formulas`, :func:`classic_formulas`,
  :func:`lassos`) for oracle comparisons against the reference
  semantics.
* **Specstrom**: generators over the runtime value universe
  (:func:`spec_values`), selectors, element/state snapshots and
  primitive actions (:func:`primitive_actions`,
  :func:`resolved_actions`) -- the vocabulary of the evaluator,
  actions and executor layers.

Deterministic (``random.Random``-seeded) generation for the fuzz
subsystem lives in :mod:`repro.fuzz`; these strategies are for
hypothesis-driven unit properties.
"""

from __future__ import annotations

from hypothesis import settings as _settings
from hypothesis import strategies as st

from repro.quickltl import (
    Always,
    And,
    BOTTOM,
    Eventually,
    Not,
    NextReq,
    NextStrong,
    NextWeak,
    Or,
    Release,
    TOP,
    Until,
    atom,
)
from repro.specstrom.actions import (
    EVENT_PRIMITIVES,
    PrimitiveAction,
    PrimitiveEvent,
    ResolvedAction,
    USER_PRIMITIVES,
)
from repro.specstrom.state import ElementSnapshot, StateSnapshot
from repro.specstrom.values import SelectorValue


def examples(max_examples: int):
    """The suite's standard hypothesis profile, sized per test.

    ``@examples(200)`` == ``@settings(max_examples=200, deadline=None)``.
    """
    return _settings(max_examples=max_examples, deadline=None)


# ----------------------------------------------------------------------
# QuickLTL: propositional states and random formulas
# ----------------------------------------------------------------------

PROPOSITIONS = ("p", "q", "r")

#: Atoms are shared across a whole test run so that structural equality
#: (and therefore simplifier deduplication) can actually fire.
ATOMS = {name: atom(name) for name in PROPOSITIONS}


def states(props=PROPOSITIONS):
    """One propositional state: a dict over the fixed alphabet."""
    return st.fixed_dictionaries({name: st.booleans() for name in props})


def traces(min_size: int = 1, max_size: int = 8, props=PROPOSITIONS):
    """A finite trace of propositional states."""
    return st.lists(states(props), min_size=min_size, max_size=max_size)


def subscripts(max_n: int = 3):
    """A temporal-operator subscript, kept small so oracles stay fast."""
    return st.integers(min_value=0, max_value=max_n)


@st.composite
def formulas(draw, max_depth: int = 4, max_subscript: int = 3):
    """A random QuickLTL formula of bounded depth."""
    if max_depth <= 0:
        return draw(
            st.sampled_from([TOP, BOTTOM] + [ATOMS[name] for name in PROPOSITIONS])
        )
    sub = lambda: formulas(max_depth=max_depth - 1, max_subscript=max_subscript)
    n = draw(subscripts(max_subscript))
    choice = draw(st.integers(min_value=0, max_value=10))
    if choice == 0:
        return draw(st.sampled_from([TOP, BOTTOM] + [ATOMS[p] for p in PROPOSITIONS]))
    if choice == 1:
        return Not(draw(sub()))
    if choice == 2:
        return And(draw(sub()), draw(sub()))
    if choice == 3:
        return Or(draw(sub()), draw(sub()))
    if choice == 4:
        return NextReq(draw(sub()))
    if choice == 5:
        return NextWeak(draw(sub()))
    if choice == 6:
        return NextStrong(draw(sub()))
    if choice == 7:
        return Always(n, draw(sub()))
    if choice == 8:
        return Eventually(n, draw(sub()))
    if choice == 9:
        return Until(n, draw(sub()), draw(sub()))
    return Release(n, draw(sub()), draw(sub()))


@st.composite
def classic_formulas(draw, max_depth: int = 3):
    """Formulas without explicit next operators, for classic-LTL tests
    (all nexts coincide on infinite traces, so this loses no coverage for
    identity checking while keeping lassos cheap)."""
    if max_depth <= 0:
        return draw(
            st.sampled_from([TOP, BOTTOM] + [ATOMS[name] for name in PROPOSITIONS])
        )
    sub = lambda: classic_formulas(max_depth=max_depth - 1)
    n = draw(subscripts(2))
    choice = draw(st.integers(min_value=0, max_value=7))
    if choice == 0:
        return draw(st.sampled_from([TOP, BOTTOM] + [ATOMS[p] for p in PROPOSITIONS]))
    if choice == 1:
        return Not(draw(sub()))
    if choice == 2:
        return And(draw(sub()), draw(sub()))
    if choice == 3:
        return Or(draw(sub()), draw(sub()))
    if choice == 4:
        return Always(n, draw(sub()))
    if choice == 5:
        return Eventually(n, draw(sub()))
    if choice == 6:
        return Until(n, draw(sub()), draw(sub()))
    return Release(n, draw(sub()), draw(sub()))


@st.composite
def lassos(draw, max_prefix: int = 3, max_loop: int = 3):
    """An ultimately-periodic infinite trace (classic-LTL oracle input)."""
    from repro.quickltl.classic import Lasso

    prefix = tuple(draw(traces(min_size=0, max_size=max_prefix)))
    loop = tuple(draw(traces(min_size=1, max_size=max_loop)))
    return Lasso(prefix, loop)


# ----------------------------------------------------------------------
# Specstrom: values, selectors, snapshots, actions
# ----------------------------------------------------------------------

#: A few CSS-ish selectors, enough shape diversity for selector-keyed
#: code paths (ids, classes, descendants, attributes).
SELECTORS = (
    "#state",
    "#toggle",
    ".todo-list li",
    ".todo-list li.completed",
    "button.primary",
    "input[type=text]",
)


def selectors():
    """A selector string (see :data:`SELECTORS`)."""
    return st.sampled_from(SELECTORS)


def selector_values():
    """A Specstrom backtick-selector value."""
    return selectors().map(SelectorValue)


def scalar_values():
    """Ground scalars of the Specstrom value universe."""
    return st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-100, max_value=100),
        st.floats(allow_nan=False, allow_infinity=False,
                  min_value=-100.0, max_value=100.0),
        st.text(alphabet="abc xyz", max_size=6),
    )


def spec_values(max_depth: int = 2):
    """Plain data of the Specstrom universe: scalars plus (nested)
    lists and string-keyed objects -- everything ``is_plain_data``
    accepts short of snapshots."""
    return st.recursive(
        scalar_values(),
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.dictionaries(st.text(alphabet="abcde", min_size=1, max_size=4),
                            children, max_size=4),
        ),
        max_leaves=8,
    )


def element_snapshots(attributes: bool = False):
    """An immutable element snapshot with plausible widget state.

    ``attributes=True`` also draws attributes (sorted, as
    ``ElementSnapshot.of_element`` stores them); it is opt-in so the
    examples of tests that do not ask for it stay as they were.
    """
    extra = {}
    if attributes:
        extra["attributes"] = st.dictionaries(
            st.sampled_from(("href", "id", "data-x", "for")),
            st.text(alphabet="ab 01", max_size=4), max_size=3,
        ).map(lambda mapping: tuple(sorted(mapping.items())))
    return st.builds(
        ElementSnapshot,
        tag=st.sampled_from(("div", "span", "button", "input", "li")),
        text=st.text(alphabet="ab 01", max_size=6),
        value=st.text(alphabet="ab 01", max_size=6),
        checked=st.booleans(),
        enabled=st.booleans(),
        visible=st.booleans(),
        focused=st.booleans(),
        classes=st.lists(
            st.sampled_from(("completed", "editing", "selected")),
            max_size=2, unique=True,
        ).map(tuple),
        **extra,
    )


@st.composite
def state_snapshots(draw, selector_pool=SELECTORS, max_matches: int = 3,
                    attributes: bool = False):
    """A state snapshot over a subset of the selector pool
    (``attributes`` as for :func:`element_snapshots`)."""
    chosen = draw(
        st.lists(st.sampled_from(selector_pool), min_size=1, max_size=3,
                 unique=True)
    )
    queries = {
        css: tuple(
            draw(st.lists(element_snapshots(attributes),
                          max_size=max_matches))
        )
        for css in chosen
    }
    return StateSnapshot(
        queries=queries,
        happened=tuple(draw(st.lists(
            st.sampled_from(("loaded?", "tick?", "click!")), max_size=2))),
        version=draw(st.integers(min_value=0, max_value=50)),
        timestamp_ms=float(draw(st.integers(min_value=0, max_value=10_000))),
    )


@st.composite
def primitive_actions(draw):
    """A well-formed user primitive (selector/args arity respected)."""
    kind = draw(st.sampled_from(sorted(USER_PRIMITIVES)))
    needs_selector, extra = USER_PRIMITIVES[kind]
    selector = draw(selectors()) if needs_selector else None
    args = tuple(
        draw(st.text(alphabet="abc", min_size=1, max_size=4))
        for _ in extra
    )
    return PrimitiveAction(kind, selector, args)


@st.composite
def primitive_events(draw):
    """A well-formed event primitive."""
    kind = draw(st.sampled_from(sorted(EVENT_PRIMITIVES)))
    (needs_selector,) = EVENT_PRIMITIVES[kind]
    selector = draw(selectors()) if needs_selector else None
    return PrimitiveEvent(kind, selector)


@st.composite
def resolved_actions(draw, max_index: int = 3):
    """A concrete action as the executor receives it."""
    primitive = draw(primitive_actions())
    index = (
        draw(st.integers(min_value=0, max_value=max_index))
        if primitive.selector is not None
        else None
    )
    return ResolvedAction(
        primitive.kind, primitive.selector, index, primitive.args
    )
