"""Memoized progression: one step serves every same-(state, residual) record.

This is where hash-consing pays for the monitoring workload.  Residuals
are interned (structurally equal => the *same* node, its hash computed
once at construction), and a state's key holds only strings and
integers -- sorted ``(selector, row id)`` pairs plus ``happened``
(:mod:`repro.monitor.records`), each row's attributes projected onto
those the formula reads (``Monitor._cohort_key``) -- so hashing it
never walks an element.

Each record is stepped when it arrives.  :class:`BatchProgressor` owns
one bounded memo per monitor, keyed by ``(state key, residual)``: a
miss costs exactly one :func:`repro.quickltl.progress` call, and every
later record with the same key and residual -- from any session --
inherits the resulting ``(verdict, residual', size)``.  Records that
share a state but not a residual share that state's unroll memo, so
subterms common to *different* residuals unroll once per state.  The
memo resets whole at ``_MEMO_LIMIT`` steps.  It depends only on the
order of the records this monitor was fed, never on how ingest chunked
them, so ``cohort_steps`` is a function of the input stream.

``enabled=False`` degrades to faithful per-session stepping (one
``progress`` per record, fresh unroll memo each -- exactly what a
:class:`~repro.quickltl.FormulaChecker` per session would do).  The
bench holds the memo to >= 2x over that baseline at 10k sessions, and
``tests/monitor`` assert the two modes produce identical verdicts.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..quickltl import Formula, ProgressionCaches, Verdict, intern_stats, progress
from ..specstrom.state import StateSnapshot
from .records import StateKey

__all__ = ["StepOutcome", "BatchProgressor"]

#: Steps a progressor's memo holds before it resets whole.
_MEMO_LIMIT = 1 << 14


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
    """Steps records through shared caches and one bounded memo."""

    __slots__ = ("caches", "enabled", "session_steps", "cohort_steps",
                 "intern_hits", "intern_misses", "_outcomes", "_unrolls")

    def __init__(self, caches: ProgressionCaches, enabled: bool = True) -> None:
        self.caches = caches
        self.enabled = enabled
        #: Session-states applied (one per stepped record).
        self.session_steps = 0
        #: Distinct progression computations actually performed.
        self.cohort_steps = 0
        #: Hash-cons hits and misses of those computations alone: other
        #: monitors in the process (inline shards) count their own.
        self.intern_hits = 0
        self.intern_misses = 0
        self._outcomes: Dict[Tuple[StateKey, Formula], StepOutcome] = {}
        #: State key -> the unroll memo its steps share.
        self._unrolls: Dict[StateKey, dict] = {}

    @property
    def sharing_ratio(self) -> float:
        """Fraction of session-steps served by another step's work.

        1 - cohorts/steps: 0.0 when every record needed its own
        computation, -> 1.0 when one computation served everyone.
        """
        if not self.session_steps:
            return 0.0
        return 1.0 - self.cohort_steps / self.session_steps

    def run_round(
        self, residual: Formula, state: StateSnapshot, key: StateKey
    ) -> StepOutcome:
        """Progress ``residual`` one step over ``state``, keyed ``key``.

        One record's step; ``perfbench/tracing.py`` wraps this method
        by name as the ``monitor.round`` layer.  A failing progression
        (e.g. a state missing a selector the formula reads) becomes an
        ``error`` outcome, memoized like any other: it quarantines each
        session that reaches it, never another state or residual.
        """
        self.session_steps += 1
        if not self.enabled:
            self.cohort_steps += 1
            return self._step(residual, state, None)
        outcomes = self._outcomes
        outcome = outcomes.get((key, residual))
        if outcome is None:
            if len(outcomes) >= _MEMO_LIMIT:
                outcomes.clear()
                self._unrolls.clear()
            memo = self._unrolls.get(key)
            if memo is None:
                memo = self._unrolls[key] = {}
            outcome = outcomes[key, residual] = self._step(residual, state, memo)
            self.cohort_steps += 1
        return outcome

    def _step(
        self,
        residual: Formula,
        state: StateSnapshot,
        unroll_memo: Optional[dict],
    ) -> StepOutcome:
        hits, misses = intern_stats()
        try:
            verdict, next_residual, size = progress(
                residual, state, self.caches, unroll_memo
            )
        except Exception as error:  # noqa: BLE001 - quarantined per session
            return StepOutcome(error=f"{type(error).__name__}: {error}")
        finally:
            after = intern_stats()
            self.intern_hits += after[0] - hits
            self.intern_misses += after[1] - misses
        return StepOutcome(verdict=verdict, residual=next_residual, size=size)
