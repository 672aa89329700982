"""Batch progression: one step serves every same-(residual, state) session.

This is where hash-consing pays for the monitoring workload.  Residuals
are interned (structurally equal => the *same* node, its hash computed
once at construction), and a state's cohort key holds only strings and
integers -- sorted ``(selector, row id)`` pairs plus ``happened``
(:mod:`repro.monitor.records`) -- so hashing it never walks an element.
Grouping a tick's work by ``(state_key, residual)`` is therefore an O(1)
dict operation per session -- and for homogeneous traffic (many users
driving the same screens through the same spec) almost every session of
a tick lands in one cohort.  Each cohort costs exactly one
:func:`repro.quickltl.progress` call; members inherit the resulting
``(verdict, residual', size)`` by assignment.  Cohorts that share a
state but not a residual still share one unroll memo, so subterms
common to *different* residuals unroll once per state per tick.

``enabled=False`` degrades to faithful per-session stepping (one
``progress`` per record, fresh unroll memo each -- exactly what a
:class:`~repro.quickltl.FormulaChecker` per session would do).  The
bench holds batching to >= 2x over that baseline at 10k sessions, and
``tests/monitor`` assert the two modes produce identical verdicts.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..quickltl import Formula, ProgressionCaches, Verdict, progress
from ..specstrom.state import StateSnapshot
from .records import StateKey
from .table import SessionEntry

__all__ = ["StepOutcome", "BatchProgressor"]


class StepOutcome:
    """What one progression step produced for one session."""

    __slots__ = ("verdict", "residual", "size", "error")

    def __init__(
        self,
        verdict: Optional[Verdict] = None,
        residual: Optional[Formula] = None,
        size: int = 0,
        error: Optional[str] = None,
    ) -> None:
        self.verdict = verdict
        self.residual = residual
        self.size = size
        self.error = error


class BatchProgressor:
    """Progresses one round of (session, state) work through shared caches."""

    __slots__ = ("caches", "enabled", "session_steps", "cohort_steps")

    def __init__(self, caches: ProgressionCaches, enabled: bool = True) -> None:
        self.caches = caches
        self.enabled = enabled
        #: Session-states applied (one per (session, state) pair).
        self.session_steps = 0
        #: Distinct progression computations actually performed.
        self.cohort_steps = 0

    @property
    def sharing_ratio(self) -> float:
        """Fraction of session-steps served by another session's work.

        1 - cohorts/steps: 0.0 when every session needed its own
        computation, -> 1.0 when one computation served everyone.
        """
        if not self.session_steps:
            return 0.0
        return 1.0 - self.cohort_steps / self.session_steps

    def run_round(
        self,
        work: List[Tuple[SessionEntry, StateSnapshot, StateKey]],
    ) -> List[StepOutcome]:
        """Progress each ``(entry, state, state_key)`` one step.

        At most one item per session (the service's round discipline);
        returns outcomes positionally aligned with ``work``.  A failing
        progression (e.g. a state missing a selector the formula reads)
        becomes an ``error`` outcome for every member of its cohort --
        one session's bad state never poisons another cohort.
        """
        outcomes: List[Optional[StepOutcome]] = [None] * len(work)
        if not self.enabled:
            for index, (entry, state, _key) in enumerate(work):
                outcomes[index] = self._step(entry.residual, state, None)
                self.cohort_steps += 1
                self.session_steps += 1
            return outcomes  # type: ignore[return-value]
        # cohort key -> (representative state, member indices)
        cohorts: "dict[Tuple[StateKey, Formula], Tuple[StateSnapshot, List[int]]]" = {}
        order: List[Tuple[StateKey, Formula]] = []
        for index, (entry, state, key) in enumerate(work):
            cohort_key = (key, entry.residual)
            slot = cohorts.get(cohort_key)
            if slot is None:
                cohorts[cohort_key] = (state, [index])
                order.append(cohort_key)
            else:
                slot[1].append(index)
        unroll_memos: "dict[StateKey, dict]" = {}
        for cohort_key in order:
            key, residual = cohort_key
            state, members = cohorts[cohort_key]
            memo = unroll_memos.setdefault(key, {})
            outcome = self._step(residual, state, memo)
            self.cohort_steps += 1
            self.session_steps += len(members)
            for index in members:
                outcomes[index] = outcome
        return outcomes  # type: ignore[return-value]

    def _step(
        self,
        residual: Formula,
        state: StateSnapshot,
        unroll_memo: Optional[dict],
    ) -> StepOutcome:
        try:
            verdict, next_residual, size = progress(
                residual, state, self.caches, unroll_memo
            )
        except Exception as error:  # noqa: BLE001 - quarantined per cohort
            return StepOutcome(error=f"{type(error).__name__}: {error}")
        return StepOutcome(verdict=verdict, residual=next_residual, size=size)
