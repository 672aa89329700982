"""QuickLTL: the paper's multi-valued LTL dialect for partial traces.

Public API:

* formula constructors (:mod:`repro.quickltl.syntax`),
* the five-valued verdict algebra (:mod:`repro.quickltl.verdict`),
* the incremental progression checker
  (:class:`repro.quickltl.progression.FormulaChecker`),
* the textual parser/pretty-printer,
* reference semantics used for validation (``direct``, ``classic``,
  ``rvltl``).
"""

from .verdict import Verdict, conj as verdict_conj, disj as verdict_disj, neg as verdict_neg
from .syntax import (
    Formula,
    Top,
    Bottom,
    TOP,
    BOTTOM,
    Atom,
    Not,
    And,
    Or,
    NextReq,
    NextWeak,
    NextStrong,
    Always,
    Eventually,
    Until,
    Release,
    Defer,
    atom,
    implies,
    iff,
    conj,
    disj,
    children,
    intern_stats,
    intern_table_size,
    intern_delta,
    InternDelta,
    DEFAULT_SUBSCRIPT,
)
from .unroll import unroll
from .simplify import simplify, negate
from .step import (
    is_guarded_form,
    demands_next,
    presumptive_valuation,
    step,
    NotGuardedError,
)
from .progression import (
    FormulaChecker,
    ProgressionCaches,
    check_trace,
    formula_size,
    progress,
)
from .direct import direct_eval
from .classic import Lasso, holds
from .rvltl import erase_subscripts, rv_eval, fltl_eval
from .parser import parse_formula, FormulaParseError
from .pretty import pretty
from .forced import force_verdict

__all__ = [
    "Verdict",
    "verdict_conj",
    "verdict_disj",
    "verdict_neg",
    "Formula",
    "Top",
    "Bottom",
    "TOP",
    "BOTTOM",
    "Atom",
    "Not",
    "And",
    "Or",
    "NextReq",
    "NextWeak",
    "NextStrong",
    "Always",
    "Eventually",
    "Until",
    "Release",
    "Defer",
    "atom",
    "implies",
    "iff",
    "conj",
    "disj",
    "children",
    "intern_stats",
    "intern_table_size",
    "intern_delta",
    "InternDelta",
    "DEFAULT_SUBSCRIPT",
    "unroll",
    "simplify",
    "negate",
    "is_guarded_form",
    "demands_next",
    "presumptive_valuation",
    "step",
    "NotGuardedError",
    "FormulaChecker",
    "ProgressionCaches",
    "check_trace",
    "formula_size",
    "progress",
    "direct_eval",
    "Lasso",
    "holds",
    "erase_subscripts",
    "rv_eval",
    "fltl_eval",
    "parse_formula",
    "FormulaParseError",
    "pretty",
    "force_verdict",
]
