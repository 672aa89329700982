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
  construction; the thread fallback shares one, which is safe because
  entries are deterministic functions of their keys);
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

from typing import Optional

from ..quickltl import Formula, FormulaChecker, ProgressionCaches
from ..specstrom.analysis import expr_selector_footprint, live_queries
from ..specstrom.module import CheckSpec

__all__ = ["CompiledProperty"]


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

