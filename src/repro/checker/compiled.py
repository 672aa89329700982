"""The compiled form of a :class:`~repro.specstrom.module.CheckSpec`.

``CompiledProperty`` is the per-property evaluation bundle the compiled
pipeline hangs its shared state off:

* one :class:`~repro.quickltl.ProgressionCaches` bundle, shared by every
  :class:`~repro.quickltl.FormulaChecker` the property's campaign
  creates -- simplify/step/valuation are pure over hash-consed nodes, so
  the second test of a campaign replays the first test's progression
  work as dict hits.  The bundle is plain per-process state: the
  scheduler compiles *before* the worker pool forks, so every forked
  worker inherits a warm copy-on-write instance (fork-safe by
  construction, and each worker runs one test at a time);
* the *action footprint*: every selector the spec's action guards,
  action bodies and watched events can read.  Per-state narrowing must
  always keep these -- the runner evaluates guards against every
  state -- so the narrowed capture set is
  ``action_dependencies | live_queries(residual)``, clamped to the
  session's ``Start`` set.

Building one is cheap (one footprint walk over the action expressions);
:class:`~repro.checker.runner.Runner` memoizes it per runner, and the
ahead-of-time pipeline (:mod:`repro.artifact`) persists one per check
with its caches pre-seeded so cold processes skip even that.

The whole-module bundle that an artifact stores is
:class:`repro.artifact.build.CompiledSpec`.
"""

from __future__ import annotations

import itertools
from typing import Optional

from ..quickltl import Defer, Formula, FormulaChecker, ProgressionCaches
from ..specstrom.analysis import expr_selector_footprint, live_queries
from ..specstrom.eval import Quote
from ..specstrom.module import CheckSpec
from ..specstrom.state import ElementSnapshot, StateSnapshot

__all__ = ["CompiledProperty", "key_fields", "step_key"]

#: (selector, element field tuples) -> row id.  Ids are never reused and
#: a full table resets whole, so a reset or race only costs a miss.
_ROW_LIMIT = 1024
_ROWS: dict = {}
_row_ids = itertools.count()


def key_fields(element: object, observed: Optional[frozenset]) -> Optional[tuple]:
    """``element``'s fields with its attributes projected onto
    ``observed`` (``None``: all kept), or ``None`` unless each field read
    has exactly the type the monitor's wire format allows
    (``records._element_fields``).  With no attribute observed, the
    formula never iterates them, so they are neither checked nor kept."""
    if type(element) is not ElementSnapshot:
        return None
    tag, text, value, checked, enabled, visible, focused, classes, attributes = (
        element.tag, element.text, element.value, element.checked,
        element.enabled, element.visible, element.focused, element.classes,
        element.attributes)
    if not (type(tag) is str and type(text) is str and type(value) is str
            and type(checked) is bool and type(enabled) is bool
            and type(visible) is bool and type(focused) is bool
            and type(classes) is tuple and type(attributes) is tuple):
        return None
    for name in classes:
        if type(name) is not str:
            return None
    if observed is None or observed:
        for pair in attributes:
            if (type(pair) is not tuple or len(pair) != 2
                    or type(pair[0]) is not str or type(pair[1]) is not str):
                return None
        if observed is not None:
            attributes = tuple([pair for pair in attributes
                                if pair[0] in observed])
    else:
        attributes = ()
    return (tag, text, value, checked, enabled, visible, focused, classes,
            attributes)


def step_key(state: object, observed: Optional[frozenset] = None) -> Optional[tuple]:
    """An exact step-table key for ``state``: the row id of each selector
    (standing for the selector and its elements, their attributes
    projected onto ``observed``, the names the formula can read), in
    query order, then ``happened``, without ``version`` and
    ``timestamp_ms``, as in the monitor's cohort key.  ``observed=None``
    keeps every attribute.  A state with any value read outside the
    wire format's exact types gets ``None`` before any lookup, since
    ``True == 1`` yet ``spec_equal(1, true)`` is false."""
    if type(state) is not StateSnapshot:
        return None
    queries, happened = state.queries, state.happened
    if (type(queries) is not dict or type(happened) is not tuple
            or not all(type(name) is str for name in happened)):
        return None
    key = []
    for selector, elements in queries.items():
        if type(selector) is not str or type(elements) is not tuple:
            return None
        row = (selector, tuple([key_fields(element, observed)
                                for element in elements]))
        if None in row[1]:
            return None
        row_id = _ROWS.get(row)
        if row_id is None:
            if len(_ROWS) >= _ROW_LIMIT:
                _ROWS.clear()
            row_id = _ROWS[row] = next(_row_ids)
        key.append(row_id)
    key.append(happened)
    return tuple(key)


class CompiledProperty:
    """Shared evaluation state for one checked property (see module docs)."""

    __slots__ = ("spec", "caches", "action_dependencies")

    def __init__(
        self, spec: CheckSpec, caches: Optional[ProgressionCaches] = None
    ) -> None:
        self.spec = spec
        # Campaigns take the default unbounded-ish bundle; long-lived
        # callers (the online monitor) pass one with ``max_entries`` set.
        self.caches = caches if caches is not None else ProgressionCaches()
        self.action_dependencies = self._action_footprint()

    def _action_footprint(self) -> Optional[frozenset]:
        """Selectors the spec's actions/events can read at any state, or
        ``None`` when unknown (narrowing then stays disabled)."""
        selectors: set = set()
        for action in list(self.spec.actions) + list(self.spec.events):
            for expr in (action.body, action.guard):
                if expr is None:
                    continue
                footprint = expr_selector_footprint(expr, action.env)
                if footprint is None:
                    return None
                selectors.update(footprint)
        return frozenset(selectors)

    @property
    def keyed(self) -> bool:
        """Whether the runner keys steps by :meth:`key`: only the
        evaluator's formulas (a ``Defer`` over a ``Quote``) read nothing
        but ``queries`` and ``happened``; an atom may read anything."""
        formula = self.spec.formula
        return type(formula) is Defer and type(formula.build) is Quote

    def key(self, state: object) -> Optional[tuple]:
        """``state``'s step-table key for this property: :func:`step_key`
        projected onto the attributes its formula can read."""
        return step_key(state, self.spec.observed_attributes)

    @property
    def supports_narrowing(self) -> bool:
        """Can per-state narrowing ever apply to this spec?"""
        return self.action_dependencies is not None

    def checker(self) -> FormulaChecker:
        """A fresh progression checker sharing this spec's caches."""
        return FormulaChecker(self.spec.formula, caches=self.caches)

    def narrowed_dependencies(self, residual: Formula) -> Optional[frozenset]:
        """The capture set sufficient for ``residual`` and the spec's
        actions, clamped to the session's dependency set; ``None`` means
        "unknown -- keep capturing everything"."""
        if self.action_dependencies is None:
            return None
        live = live_queries(residual)
        if live is None:
            return None
        return frozenset(
            (self.action_dependencies | live) & self.spec.dependencies
        )

