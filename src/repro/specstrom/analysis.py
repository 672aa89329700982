"""Static dependency analysis (paper, Section 3.3).

Before checking a property, Quickstrom must know which parts of the
browser state are relevant, so the executor can instrument exactly those
selectors and return consistent snapshots.  Because Specstrom guarantees
termination and bans recursion, a simple abstract interpretation
suffices: we walk every expression reachable from the property (through
top-level definitions, block bindings and function calls) and collect all
CSS selector literals that occur, which covers both direct dependencies
(```#toggle`.text``) and indirect ones (a selector inspected
only inside an ``if`` condition).

This over-approximates the real tool's analysis (it does not prune dead
branches), which is sound: instrumenting extra selectors never changes
verdicts, it only widens the observed state.

Residual-driven narrowing
-------------------------

:func:`selector_dependencies` answers the *session-wide* question (what
must the executor instrument at ``Start``).  The compiled engine also
asks a *per-state* question: which of those queries can the progressed
formula still read?  :func:`live_queries` answers it by walking a
residual QuickLTL formula -- every remaining read site is a ``Defer``
node whose build is an evaluator :class:`~repro.specstrom.eval.Quote`,
and a quote knows its footprint (:func:`expr_selector_footprint` over
the body and its captured values, computed once per quote).  The
result drives the ``Narrow`` protocol message: the executor stops
capturing queries the residual can no longer mention.  ``None`` means
"unknown" (a hand-built atom or defer), and callers must fall back to
the full dependency set -- narrowing is an optimisation with a
conservative escape hatch, never a soundness obligation.
"""

from __future__ import annotations

import weakref
from typing import Dict, Iterable, List, Optional, Set

from ..quickltl.syntax import (
    Atom as LtlAtom,
    Bottom as LtlBottom,
    Defer as LtlDefer,
    Formula,
    Top as LtlTop,
    children as ltl_children,
)
from .ast_nodes import (
    ActionDef,
    Block,
    Expr,
    LetDef,
    Module,
    SelectorLit,
    Var,
    expr_children,
)
from .values import (
    ActionValue,
    Environment,
    FormulaValue,
    FunctionValue,
    SelectorValue,
    Thunk,
)

__all__ = [
    "selector_dependencies",
    "module_definition_table",
    "expr_selector_footprint",
    "live_queries",
]


def module_definition_table(module: Module) -> Dict[str, List[Expr]]:
    """Map each top-level name to the expressions it owns."""
    table: Dict[str, List[Expr]] = {}
    for definition in module.definitions:
        if isinstance(definition, LetDef):
            table[definition.name] = [definition.body]
        elif isinstance(definition, ActionDef):
            exprs = [definition.body]
            if definition.guard is not None:
                exprs.append(definition.guard)
            table[definition.name] = exprs
    return table


def selector_dependencies(
    roots: Iterable[Expr], table: Dict[str, List[Expr]]
) -> frozenset:
    """All selector literals reachable from ``roots``.

    ``table`` resolves top-level names to their defining expressions;
    visited names are memoised so shared definitions are walked once.
    """
    selectors: Set[str] = set()
    visited: Set[str] = set()

    def walk(expr: Expr, locals_: frozenset) -> None:
        if isinstance(expr, SelectorLit):
            selectors.add(expr.css)
            return
        if isinstance(expr, Var):
            name = expr.name
            if name in locals_ or name in visited:
                return
            if name in table:
                visited.add(name)
                for owned in table[name]:
                    walk(owned, frozenset())
            return
        if isinstance(expr, Block):
            inner = set(locals_)
            for binding in expr.bindings:
                walk(binding.expr, frozenset(inner))
                inner.add(binding.name)
            walk(expr.result, frozenset(inner))
            return
        for child in expr_children(expr):
            walk(child, locals_)

    for root in roots:
        walk(root, frozenset())
    return frozenset(selectors)


# ----------------------------------------------------------------------
# Per-residual liveness (the compiled engine's query narrowing)
# ----------------------------------------------------------------------

#: Unknown-footprint sentinel (kept distinct from "no selectors").
_UNKNOWN = object()

#: live_queries results per hash-consed formula node.  Residual subterms
#: persist across states (the whole point of interning), so their live
#: sets are computed once per node, not once per state; weak keys let
#: dead residuals take their cache entries with them.
_LIVE_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def expr_selector_footprint(
    expr: Expr, env: Environment
) -> Optional[frozenset]:
    """All selectors ``expr`` can possibly read, resolved through ``env``.

    This is the environment-resolving sibling of
    :func:`selector_dependencies`: free variables are chased through the
    captured environment (thunks and functions by their defining
    expressions, evaluated bindings by their value structure), so it
    works on the *deferred bodies* the Specstrom evaluator quotes into
    temporal operators -- exactly what :func:`live_queries` needs.  Like
    the session-wide analysis it does not prune dead branches, so the
    result over-approximates every state's actual reads.

    Returns ``None`` when the footprint cannot be determined (e.g. the
    expression embeds a pre-built formula whose own live set is
    unknown); callers must then fall back to the full dependency set.

    Each :class:`~repro.specstrom.eval.Quote` calls this once and keeps
    the result, and equal quotes are one interned ``Defer``, so a body
    re-quoted at every state over the same values is walked once.
    """
    selectors: Set[str] = set()
    try:
        _walk_footprint_expr(expr, env, frozenset(), selectors, set())
    except _UnknownFootprint:
        return None
    return frozenset(selectors)


class _UnknownFootprint(Exception):
    """Internal: the footprint walk hit something it cannot bound."""


def _walk_footprint_expr(
    expr: Expr,
    env: Environment,
    locals_: frozenset,
    selectors: Set[str],
    visited: Set[int],
) -> None:
    if isinstance(expr, SelectorLit):
        selectors.add(expr.css)
        return
    if isinstance(expr, Var):
        name = expr.name
        if name in locals_:
            return
        marker = id(env), name
        if marker in visited:
            return
        visited.add(marker)
        try:
            value = env.lookup(name)
        except Exception:  # noqa: BLE001 - unbound names fail at eval time
            return
        _walk_footprint_value(value, selectors, visited)
        return
    if isinstance(expr, Block):
        inner = set(locals_)
        for binding in expr.bindings:
            _walk_footprint_expr(
                binding.expr, env, frozenset(inner), selectors, visited
            )
            inner.add(binding.name)
        _walk_footprint_expr(
            expr.result, env, frozenset(inner), selectors, visited
        )
        return
    for child in expr_children(expr):
        _walk_footprint_expr(child, env, locals_, selectors, visited)


def _walk_footprint_value(
    value: object, selectors: Set[str], visited: Set[int]
) -> None:
    """Walk an already-evaluated binding for the selectors it embeds."""
    if isinstance(value, SelectorValue):
        selectors.add(value.css)
        return
    if id(value) in visited:
        return
    if isinstance(value, Thunk):
        visited.add(id(value))
        _walk_footprint_expr(
            value.expr, value.env, frozenset(), selectors, visited
        )
        return
    if isinstance(value, FunctionValue):
        visited.add(id(value))
        params = frozenset(param.name for param in value.params)
        _walk_footprint_expr(value.body, value.env, params, selectors, visited)
        return
    if isinstance(value, ActionValue):
        visited.add(id(value))
        _walk_footprint_expr(value.body, value.env, frozenset(), selectors, visited)
        if value.guard is not None:
            _walk_footprint_expr(
                value.guard, value.env, frozenset(), selectors, visited
            )
        return
    if isinstance(value, FormulaValue):
        live = live_queries(value.formula)
        if live is None:
            raise _UnknownFootprint()
        selectors.update(live)
        return
    if isinstance(value, list):
        visited.add(id(value))
        for item in value:
            _walk_footprint_value(item, selectors, visited)
        return
    if isinstance(value, dict):
        visited.add(id(value))
        for item in value.values():
            _walk_footprint_value(item, selectors, visited)
        return
    # Scalars, snapshots, builtins, the `happened` sentinel: no reads.


def live_queries(formula: Formula) -> Optional[frozenset]:
    """The queries a residual formula can still read, or ``None``.

    Walks the (hash-consed, DAG-shaped) formula iteratively: constants
    contribute nothing, ``Defer`` nodes contribute their quote's
    footprint (see :meth:`repro.quickltl.syntax.Defer.
    selector_footprint`), connectives union their children.  ``None``
    means the set cannot be bounded -- an :class:`~repro.quickltl.syntax.
    Atom` (opaque predicate), a hand-built defer, or an exotic node --
    and the caller must keep capturing the full dependency set.

    Results are cached per node, so across a trace only the subterms
    that actually changed since the last state are re-walked.
    """
    result = _live(formula)
    return None if result is _UNKNOWN else result


def _live(root: Formula):
    cached = _live_cache_get(root)
    if cached is not None:
        return cached
    # Iterative post-order over the DAG: compute children first, then
    # combine; revisits are cache hits.
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if _live_cache_get(node) is not None:
            continue
        if not expanded:
            kids = ltl_children(node) if isinstance(node, Formula) else ()
            pending = [k for k in kids if _live_cache_get(k) is None]
            if pending:
                stack.append((node, True))
                stack.extend((k, False) for k in pending)
                continue
        _live_cache_put(node, _live_combine(node))
    return _live_cache_get(root)


def _live_combine(node: Formula):
    if isinstance(node, (LtlTop, LtlBottom)):
        return frozenset()
    if isinstance(node, LtlAtom):
        return _UNKNOWN  # opaque host predicate: reads are unknowable
    if isinstance(node, LtlDefer):
        footprint = node.selector_footprint()
        return _UNKNOWN if footprint is None else frozenset(footprint)
    if not isinstance(node, Formula):  # pragma: no cover - defensive
        return _UNKNOWN
    combined: Set[str] = set()
    for child in ltl_children(node):
        part = _live_cache_get(child)
        if part is None:  # pragma: no cover - post-order guarantees
            part = _live(child)
        if part is _UNKNOWN:
            return _UNKNOWN
        combined.update(part)
    return frozenset(combined)


def _live_cache_get(node):
    try:
        return _LIVE_CACHE.get(node)
    except TypeError:  # pragma: no cover - unhashable custom atoms
        return _UNKNOWN


def _live_cache_put(node, value) -> None:
    try:
        _LIVE_CACHE[node] = value
    except TypeError:  # pragma: no cover
        pass
