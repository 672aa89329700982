"""Formula progression: the three-phase evaluation loop of Section 2.3.

:class:`FormulaChecker` consumes trace states one at a time.  For each
state it

1. unrolls the current formula against the state (Figure 6),
2. simplifies the result; a literal ``top``/``bottom`` is a definitive
   verdict and checking stops, otherwise the result is in guarded form
   and a presumptive verdict (or a demand for more states) is computed,
3. steps the guarded form forward (Figure 7), ready for the next state.

The checker records the size of the progressed formula after every state,
which the ablation bench uses to confirm that per-step simplification
keeps progression from blowing up (Rosu & Havelund's caveat).

Compiled engine
---------------

With hash-consed nodes (:mod:`repro.quickltl.syntax`) the three phases
memoize by node identity through a :class:`ProgressionCaches` bundle:
``simplify``/``step``/``presumptive_valuation`` are pure, so their
caches persist across states *and across the checkers of a whole
campaign* (``repro.checker.compiled.CompiledProperty`` shares one
bundle per spec).  The caches are ordinary per-process dicts -- forked
pool workers each inherit a copy-on-write instance, which is what makes
sharing them fork-safe without any locking.  The unroll memo holds
forces against one state, so it lives only for a single ``observe``.

A step is a pure function of the residual and the state, so the step
table (``outcomes``) maps ``(residual, key)`` to the step's result for
every test of the property, where *equal keys mean the formula cannot
tell the two states apart* (``repro.checker.compiled.step_key``); it
resets whole at ``_STEP_LIMIT`` steps and never pickles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from .simplify import simplify
from .step import presumptive_valuation, step
from .syntax import (
    Always,
    And,
    Bottom,
    Eventually,
    Formula,
    NextReq,
    NextStrong,
    NextWeak,
    Not,
    Or,
    Release,
    Top,
    Until,
)
from .unroll import unroll
from .verdict import Verdict

__all__ = [
    "FormulaChecker",
    "ProgressionCaches",
    "check_trace",
    "formula_size",
    "progress",
]

#: Entry count at which a ProgressionCaches bundle resets itself: far
#: above what any realistic spec reaches (caches grow with *distinct*
#: interned terms, which per-step simplification keeps small), but a
#: hard bound so a pathological campaign cannot grow without limit.
_CACHE_LIMIT = 100_000

#: Steps the step table holds before it resets whole.
_STEP_LIMIT = 4096


class ProgressionCaches:
    """Shared memo tables for the progression phases.

    One bundle may serve many checkers (every test of a campaign checks
    the same formula, so the tables converge after the first test).
    Four tables key hash-consed nodes; ``sizes`` additionally backs the
    DAG-aware :func:`formula_size`.  The fifth, ``outcomes``, is the
    step table of the module docs, bounded on its own.

    ``max_entries`` lowers the built-in safety bound for long-lived
    processes (the online monitor runs for days over an unbounded stream
    of residuals; a test campaign never needs this).  When the combined
    entry count crosses the bound the bundle resets wholesale -- entries
    are deterministic functions of their keys, so a reset costs only
    re-derivation, never correctness.  ``evicted_entries``/``trims``
    count what the resets dropped.
    """

    __slots__ = ("simplify", "step", "valuation", "sizes", "max_entries",
                 "evicted_entries", "trims", "outcomes")

    def __init__(self, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(
                f"max_entries must be at least 1, got {max_entries}"
            )
        self.simplify: dict = {}
        self.step: dict = {}
        self.valuation: dict = {}
        self.sizes: Dict[Formula, int] = {}
        self.max_entries = max_entries
        #: Total memo entries dropped by resets over this bundle's life.
        self.evicted_entries = 0
        #: Number of wholesale resets (trim-triggered or explicit).
        self.trims = 0
        self.outcomes: dict = {}

    def __getstate__(self):
        # The default slot state minus the process-local step table (last).
        return None, {name: getattr(self, name) for name in self.__slots__[:-1]}

    def __setstate__(self, state) -> None:
        for name, value in state[1].items():
            setattr(self, name, value)
        self.outcomes = {}

    def __len__(self) -> int:
        """Combined entry count of the four node tables."""
        return (
            len(self.simplify) + len(self.step) + len(self.valuation)
            + len(self.sizes)
        )

    def trim(self) -> None:
        """Reset everything once past the bound (see class docs)."""
        limit = self.max_entries if self.max_entries is not None else _CACHE_LIMIT
        if len(self) > limit:
            self.clear()

    def clear(self) -> Dict[str, int]:
        """Drop every memo entry; returns what was dropped, per table.

        The report (``{"simplify": n, ..., "total": n}``) lets long-running
        callers log *what* a reset cost instead of guessing; dropping
        nothing is not counted as a trim.
        """
        dropped = {
            "simplify": len(self.simplify),
            "step": len(self.step),
            "valuation": len(self.valuation),
            "sizes": len(self.sizes),
            "outcomes": len(self.outcomes),
        }
        self.simplify.clear()
        self.step.clear()
        self.valuation.clear()
        self.sizes.clear()
        self.outcomes.clear()
        total = sum(dropped.values())
        dropped["total"] = total
        if total:
            self.evicted_entries += total
            self.trims += 1
        return dropped


def formula_size(formula: Formula, sizes: Optional[dict] = None) -> int:
    """Number of AST nodes (deferred bodies count as one node).

    Counts the formula as a *tree* (matching the paper's size plots) but
    walks it as a DAG: an explicit stack instead of recursion, so
    arbitrarily deep residuals cannot hit the interpreter's recursion
    limit, and a node-keyed ``sizes`` memo so shared subterms -- which
    hash-consing makes pervasive -- are measured once.
    """
    if sizes is None:
        sizes = {}
    try:
        cached = sizes.get(formula)
    except TypeError:  # pragma: no cover - unhashable custom atoms
        return _tree_size(formula)
    if cached is not None:
        return cached
    stack = [formula]
    while stack:
        node = stack.pop()
        if node in sizes:
            continue
        kids = _size_children(node)
        pending = [child for child in kids if child not in sizes]
        if pending:
            stack.append(node)
            stack.extend(pending)
        else:
            sizes[node] = 1 + sum(sizes[child] for child in kids)
    return sizes[formula]


def _size_children(node: Formula):
    if isinstance(node, (And, Or)):
        return (node.left, node.right)
    if isinstance(node, (Until, Release)):
        return (node.left, node.right)
    if isinstance(node, (Not, NextReq, NextWeak, NextStrong)):
        return (node.operand,)
    if isinstance(node, (Always, Eventually)):
        return (node.body,)
    return ()


def progress(
    formula: Formula,
    state: object,
    caches: ProgressionCaches,
    unroll_memo: Optional[dict] = None,
) -> Tuple[Verdict, Formula, int]:
    """One full progression step outside any checker object.

    Unrolls ``formula`` against ``state``, simplifies, reads off the
    verdict and steps the guarded form forward; returns
    ``(verdict, residual, size)`` where ``size`` is the simplified
    formula's tree size.  This is the checker's per-state hot path
    exposed as a pure function, so callers that track *many* residuals
    (the online monitor holds one per live session) can progress them
    without a :class:`FormulaChecker` each -- all per-session state is
    the residual itself.

    ``unroll_memo`` is the per-state unroll memo; callers progressing
    several formulas against the *same* state (a monitor tick batching
    same-state cohorts) should share one dict across those calls, so
    subterms common to different sessions' residuals unroll once.  It
    must never be reused across distinct states.
    """
    if unroll_memo is None:
        unroll_memo = {}
    unrolled = unroll(formula, state, unroll_memo)
    reduced = simplify(unrolled, caches.simplify)
    size = formula_size(reduced, caches.sizes)
    if isinstance(reduced, Top):
        return Verdict.DEFINITELY_TRUE, reduced, size
    if isinstance(reduced, Bottom):
        return Verdict.DEFINITELY_FALSE, reduced, size
    verdict = presumptive_valuation(reduced, caches.valuation)
    residual = step(reduced, caches.step)
    caches.trim()
    return verdict, residual, size


def _tree_size(formula: Formula) -> int:
    """Unmemoized iterative fallback for unhashable nodes."""
    size = 0
    stack = [formula]
    while stack:
        node = stack.pop()
        size += 1
        stack.extend(_size_children(node))
    return size


@dataclass
class FormulaChecker:
    """Incremental QuickLTL evaluator over a growing partial trace.

    Typical use::

        checker = FormulaChecker(formula)
        for state in trace:
            verdict = checker.observe(state)
            if verdict.is_definitive:
                break
        final = checker.verdict   # may be presumptive (or DEMAND)

    ``caches`` is an optional :class:`ProgressionCaches` bundle; passing
    one shared across the checkers of a campaign (what
    ``CompiledProperty.checker()`` does) means later tests replay earlier
    tests' simplify/step work as dict hits.  Without one the checker
    builds a private bundle, so memoization is always on.
    ``steps_reused`` counts the steps served by the step table.

    ``simplify_each_step`` exists for the ablation study only; turning it
    off makes progression follow the naive expansion.
    """

    formula: Formula
    simplify_each_step: bool = True
    caches: Optional[ProgressionCaches] = None
    _current: Optional[Formula] = field(default=None, init=False, repr=False)
    _verdict: Verdict = field(default=Verdict.DEMAND, init=False)
    _states_seen: int = field(default=0, init=False)
    _sizes: List[int] = field(default_factory=list, init=False, repr=False)
    steps_reused: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self._current = self.formula
        if self.caches is None:
            self.caches = ProgressionCaches()

    @property
    def verdict(self) -> Verdict:
        """The verdict after the states observed so far.

        Before any state is observed this is ``DEMAND``: evaluating any
        formula requires at least one state.
        """
        return self._verdict

    @property
    def states_seen(self) -> int:
        return self._states_seen

    @property
    def formula_sizes(self) -> List[int]:
        """Size of the progressed formula after each observed state."""
        return list(self._sizes)

    @property
    def max_formula_size(self) -> int:
        """The largest progressed-formula size seen so far."""
        return max(self._sizes, default=0)

    @property
    def is_definitive(self) -> bool:
        return self._verdict.is_definitive

    @property
    def needs_more_states(self) -> bool:
        """True when no presumptive answer may be given yet (required-next
        obligations remain, or no state has been observed)."""
        return self._verdict is Verdict.DEMAND

    @property
    def residual(self) -> Formula:
        """The progressed formula awaiting the next state."""
        return self._current

    def force(self) -> Verdict:
        """The verdict to report when the action budget is exhausted.

        If the current verdict is already decided (or presumptive), it is
        returned as-is; a demanding verdict is resolved by the polarity
        rule of :mod:`repro.quickltl.forced` over the residual formula.
        """
        if self._verdict is not Verdict.DEMAND:
            return self._verdict
        from .forced import force_verdict

        return force_verdict(self._current)

    def observe(self, state: object, key: Optional[Hashable] = None) -> Verdict:
        """Feed the next trace state and return the updated verdict.

        Observing further states after a definitive verdict is a no-op
        (``top``/``bottom`` are fixpoints of unrolling), so callers need
        not special-case early termination.  With a ``key`` (see the module
        docs) the step comes from the step table, computed only on a miss.
        """
        caches = self.caches
        if self.simplify_each_step:
            # The production path is the pure per-state step shared with
            # the online monitor's batcher.
            outcomes = caches.outcomes
            outcome = None if key is None else outcomes.get((self._current, key))
            if outcome is not None:
                self.steps_reused += 1
            else:
                outcome = progress(self._current, state, caches)
                if key is not None:
                    if len(outcomes) >= _STEP_LIMIT:
                        outcomes.clear()
                    outcomes[self._current, key] = outcome
            verdict, residual, size = outcome
            self._states_seen += 1
            self._sizes.append(size)
            self._verdict = verdict
            self._current = residual
            return verdict
        # The ablation baseline: unroll without simplifying.
        unrolled = unroll(self._current, state, {})
        reduced = unrolled
        self._states_seen += 1
        self._sizes.append(formula_size(reduced, caches.sizes))
        if isinstance(reduced, Top):
            self._verdict = Verdict.DEFINITELY_TRUE
            self._current = reduced
            return self._verdict
        if isinstance(reduced, Bottom):
            self._verdict = Verdict.DEFINITELY_FALSE
            self._current = reduced
            return self._verdict
        if not _guardable(reduced):
            # Naive progression (the ablation's baseline): the verdict is
            # read off a simplified *copy*, but the formula that gets
            # stepped forward is the raw unrolled one, dead truth-value
            # weight and all -- this is precisely the configuration in
            # which Rosu & Havelund's exponential blow-up appears.
            cleaned = simplify(reduced, caches.simplify)
            if isinstance(cleaned, Top):
                self._verdict = Verdict.DEFINITELY_TRUE
                self._current = cleaned
                return self._verdict
            if isinstance(cleaned, Bottom):
                self._verdict = Verdict.DEFINITELY_FALSE
                self._current = cleaned
                return self._verdict
            self._verdict = presumptive_valuation(cleaned, caches.valuation)
            self._current = _lenient_step(reduced)
            caches.trim()
            return self._verdict
        # Phase 2 (cont.): guarded form; presumptive verdict or demand.
        self._verdict = presumptive_valuation(reduced, caches.valuation)
        # Phase 3: step forward for the next state.
        self._current = step(reduced, caches.step)
        caches.trim()
        return self._verdict


def _guardable(formula: Formula) -> bool:
    from .step import is_guarded_form

    return is_guarded_form(formula)


def _lenient_step(formula: Formula) -> Formula:
    """Step an *unsimplified* unrolled formula forward.

    Truth values are carried along unchanged (they are fixpoints of
    unrolling), connectives are homomorphic and next guards are
    stripped.  Semantically equivalent to simplify-then-step, but the
    dead weight accumulates -- used only by the no-simplification
    ablation baseline.
    """
    if isinstance(formula, (Top, Bottom)):
        return formula
    if isinstance(formula, Not):
        return Not(_lenient_step(formula.operand))
    if isinstance(formula, And):
        return And(_lenient_step(formula.left), _lenient_step(formula.right))
    if isinstance(formula, Or):
        return Or(_lenient_step(formula.left), _lenient_step(formula.right))
    if isinstance(formula, (NextReq, NextWeak, NextStrong)):
        return formula.operand
    raise TypeError(f"cannot step {type(formula).__name__}")


def check_trace(formula: Formula, trace, *, stop_on_definitive: bool = True) -> Verdict:
    """Run a complete finite trace through a fresh checker.

    Returns the final verdict; with ``stop_on_definitive`` (the default)
    evaluation short-circuits as soon as the verdict is definitive, like
    the real checker does.
    """
    checker = FormulaChecker(formula)
    verdict = Verdict.DEMAND
    for state in trace:
        verdict = checker.observe(state)
        if stop_on_definitive and verdict.is_definitive:
            return verdict
    return verdict
