"""The Specstrom evaluator.

Evaluation is *staged* (paper, Sections 3.1-3.2):

* Expressions are evaluated relative to a state snapshot (held in the
  :class:`EvalContext`).  Selector member access and ``happened`` read
  that snapshot; evaluating them with no state raises
  :class:`StateQueryOutsideStateError` -- the error a strict top-level
  ``let`` produces when it should have been marked lazy with ``~``.
* Lazy (``~``) bindings hold unevaluated expressions that are
  re-evaluated at every use, so their value tracks the current state.
* Temporal operators *quote* their bodies: they build QuickLTL formulae
  whose deferred bodies re-evaluate the expression at each state the
  operator unrolls over.  A strict ``let`` inside such a body therefore
  freezes the value the bound expression has at the unroll state --
  exactly the semantics the paper's ``evovae`` example requires.  A
  quote (:class:`Quote`) is a value -- the body plus the values of its
  free names -- so equal quotes are one interned formula node.

Boolean connectives lift pointwise: if either operand of ``&&``/``||``/
``==>``/``!`` is temporal, the result is a formula (plain booleans embed
as top/bottom).  All other operators are data-only and reject temporal
operands.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from ..quickltl import (
    Always,
    And,
    BOTTOM,
    DEFAULT_SUBSCRIPT,
    Defer,
    Eventually,
    Formula,
    Not,
    NextReq,
    NextStrong,
    NextWeak,
    Or,
    Release,
    TOP,
    Until,
)
from .ast_nodes import (
    ArrayLit,
    Binary,
    Block,
    Call,
    Expr,
    IfExpr,
    Index,
    Lit,
    Member,
    ObjectLit,
    SelectorLit,
    TemporalBinary,
    TemporalUnary,
    Unary,
    Var,
    free_names,
)
from .analysis import expr_selector_footprint
from .errors import SpecEvalError, StateQueryOutsideStateError
from .state import ElementSnapshot, StateSnapshot
from .values import (
    BuiltinFunction,
    Environment,
    FormulaValue,
    FunctionValue,
    SelectorValue,
    Thunk,
    spec_equal,
    spec_repr,
)

__all__ = [
    "EvalContext",
    "Quote",
    "evaluate",
    "make_property_formula",
    "to_formula",
    "HAPPENED",
]

#: Sentinel bound to the name ``happened`` in the global environment.
HAPPENED = object()

_MAX_DEPTH = 300


@dataclass
class EvalContext:
    """Everything evaluation needs besides the environment."""

    state: Optional[StateSnapshot] = None
    rng: Optional[random.Random] = None
    default_subscript: int = DEFAULT_SUBSCRIPT
    depth: int = field(default=0)

    def require_state(self, what: str) -> StateSnapshot:
        if self.state is None:
            raise StateQueryOutsideStateError(
                f"{what} requires a state; state-dependent definitions "
                "must be bound lazily with '~'"
            )
        return self.state

    def deeper(self) -> "EvalContext":
        if self.depth + 1 > _MAX_DEPTH:
            raise SpecEvalError(
                "evaluation depth exceeded; is there hidden recursion?"
            )
        return EvalContext(self.state, self.rng, self.default_subscript, self.depth + 1)


def evaluate(expr: Expr, env: Environment, ctx: EvalContext):
    """Evaluate ``expr`` to a Specstrom value."""
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, SelectorLit):
        return SelectorValue(expr.css)
    if isinstance(expr, Var):
        return _force(env.lookup(expr.name), ctx)
    if isinstance(expr, Member):
        return _member(evaluate(expr.obj, env, ctx), expr.name, ctx, expr)
    if isinstance(expr, Index):
        return _index(
            evaluate(expr.obj, env, ctx), evaluate(expr.index, env, ctx), expr
        )
    if isinstance(expr, Call):
        return _call(expr, env, ctx)
    if isinstance(expr, Unary):
        return _unary(expr, env, ctx)
    if isinstance(expr, Binary):
        return _binary(expr, env, ctx)
    if isinstance(expr, IfExpr):
        condition = evaluate(expr.cond, env, ctx)
        if not isinstance(condition, bool):
            raise SpecEvalError(
                f"if-condition must be a boolean, got {spec_repr(condition)}",
                expr.line,
                expr.column,
            )
        branch = expr.then if condition else expr.orelse
        return evaluate(branch, env, ctx)
    if isinstance(expr, Block):
        scope = env
        for binding in expr.bindings:
            # Each binding gets its own frame so lazy bindings can only
            # see *earlier* names: forward references would be hidden
            # recursion, which Specstrom forbids.
            frame = scope.child()
            if binding.lazy:
                frame.bind(binding.name, Thunk(binding.name, binding.expr, scope))
            else:
                frame.bind(binding.name, evaluate(binding.expr, scope, ctx))
            scope = frame
        return evaluate(expr.result, scope, ctx)
    if isinstance(expr, ArrayLit):
        items = [evaluate(item, env, ctx) for item in expr.items]
        for item in items:
            _reject_function_in_data(item, expr)
        return items
    if isinstance(expr, ObjectLit):
        result = {}
        for key, value_expr in expr.pairs:
            value = evaluate(value_expr, env, ctx)
            _reject_function_in_data(value, expr)
            result[key] = value
        return result
    if isinstance(expr, TemporalUnary):
        return _temporal_unary(expr, env, ctx)
    if isinstance(expr, TemporalBinary):
        return _temporal_binary(expr, env, ctx)
    raise SpecEvalError(f"cannot evaluate {type(expr).__name__}")


def _force(value, ctx: EvalContext):
    if isinstance(value, Thunk):
        return evaluate(value.expr, value.env, ctx.deeper())
    if value is HAPPENED:
        state = ctx.require_state("reading 'happened'")
        return list(state.happened)
    return value


# ----------------------------------------------------------------------
# Member access and indexing
# ----------------------------------------------------------------------


def _member(obj, name: str, ctx: EvalContext, expr: Expr):
    if obj is None:
        return None  # null propagation
    if isinstance(obj, SelectorValue):
        state = ctx.require_state(f"querying `{obj.css}`")
        element = state.first(obj.css)
        if element is None:
            return None
        return element.get_property(name)
    if isinstance(obj, ElementSnapshot):
        return obj.get_property(name)
    if isinstance(obj, dict):
        return obj.get(name)
    if isinstance(obj, (list, str)) and name == "length":
        return len(obj)
    raise SpecEvalError(
        f"cannot access .{name} on {spec_repr(obj)}", expr.line, expr.column
    )


def _index(obj, index, expr: Expr):
    if obj is None:
        return None
    if isinstance(obj, (list, str)):
        if not isinstance(index, int) or isinstance(index, bool):
            raise SpecEvalError(
                f"list index must be an integer, got {spec_repr(index)}",
                expr.line,
                expr.column,
            )
        if 0 <= index < len(obj):
            return obj[index]
        return None
    if isinstance(obj, dict):
        return obj.get(index)
    raise SpecEvalError(f"cannot index {spec_repr(obj)}", expr.line, expr.column)


# ----------------------------------------------------------------------
# Calls
# ----------------------------------------------------------------------


def _call(expr: Call, env: Environment, ctx: EvalContext):
    callee = evaluate(expr.callee, env, ctx)
    if isinstance(callee, FunctionValue):
        if len(expr.args) != callee.arity:
            raise SpecEvalError(
                f"{callee.name} expects {callee.arity} argument(s), "
                f"got {len(expr.args)}",
                expr.line,
                expr.column,
            )
        frame = callee.env.child()
        for param, arg_expr in zip(callee.params, expr.args):
            if param.lazy:
                frame.bind(param.name, Thunk(param.name, arg_expr, env))
            else:
                frame.bind(param.name, evaluate(arg_expr, env, ctx))
        return evaluate(callee.body, frame, ctx.deeper())
    if isinstance(callee, BuiltinFunction):
        if callee.arity is not None and len(expr.args) != callee.arity:
            raise SpecEvalError(
                f"{callee.name} expects {callee.arity} argument(s), "
                f"got {len(expr.args)}",
                expr.line,
                expr.column,
            )
        args = [evaluate(arg, env, ctx) for arg in expr.args]
        return callee.fn(ctx, *args)
    raise SpecEvalError(
        f"{spec_repr(callee)} is not callable", expr.line, expr.column
    )


# ----------------------------------------------------------------------
# Operators
# ----------------------------------------------------------------------


def _unary(expr: Unary, env: Environment, ctx: EvalContext):
    operand = evaluate(expr.operand, env, ctx)
    if expr.op == "!":
        if isinstance(operand, bool):
            return not operand
        if isinstance(operand, FormulaValue):
            return FormulaValue(Not(operand.formula))
        raise SpecEvalError(
            f"'!' needs a boolean or formula, got {spec_repr(operand)}",
            expr.line,
            expr.column,
        )
    if expr.op == "-":
        if operand is None:
            return None
        if isinstance(operand, (int, float)) and not isinstance(operand, bool):
            return -operand
        raise SpecEvalError(
            f"unary '-' needs a number, got {spec_repr(operand)}",
            expr.line,
            expr.column,
        )
    raise SpecEvalError(f"unknown unary operator {expr.op!r}")


def _binary(expr: Binary, env: Environment, ctx: EvalContext):
    op = expr.op
    if op in ("&&", "||", "==>"):
        return _logical(expr, env, ctx)
    left = evaluate(expr.left, env, ctx)
    right = evaluate(expr.right, env, ctx)
    for side in (left, right):
        if isinstance(side, FormulaValue):
            raise SpecEvalError(
                f"temporal formula used as data in {op!r}", expr.line, expr.column
            )
    if op == "==":
        return spec_equal(left, right)
    if op == "!=":
        return not spec_equal(left, right)
    if op in ("<", "<=", ">", ">="):
        return _compare(op, left, right, expr)
    if op in ("+", "-", "*", "/", "%"):
        return _arithmetic(op, left, right, expr)
    if op == "in":
        return _membership(left, right, expr)
    raise SpecEvalError(f"unknown operator {op!r}", expr.line, expr.column)


def _logical(expr: Binary, env: Environment, ctx: EvalContext):
    left = evaluate(expr.left, env, ctx)
    op = expr.op
    if isinstance(left, bool):
        # Short-circuiting on plain booleans.
        if op == "&&" and not left:
            return False
        if op == "||" and left:
            return True
        if op == "==>" and not left:
            return True
        return _logical_rhs(expr, env, ctx)
    if isinstance(left, FormulaValue):
        right = _logical_rhs(expr, env, ctx)
        right_formula = to_formula(right, expr)
        if op == "&&":
            return FormulaValue(And(left.formula, right_formula))
        if op == "||":
            return FormulaValue(Or(left.formula, right_formula))
        return FormulaValue(Or(Not(left.formula), right_formula))
    raise SpecEvalError(
        f"{op!r} needs boolean or formula operands, got {spec_repr(left)}",
        expr.line,
        expr.column,
    )


def _logical_rhs(expr: Binary, env: Environment, ctx: EvalContext):
    right = evaluate(expr.right, env, ctx)
    if not isinstance(right, (bool, FormulaValue)):
        raise SpecEvalError(
            f"{expr.op!r} needs boolean or formula operands, "
            f"got {spec_repr(right)}",
            expr.line,
            expr.column,
        )
    return right


def _compare(op: str, left, right, expr: Expr):
    if left is None or right is None:
        return False
    ok_numbers = all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in (left, right)
    )
    ok_strings = all(isinstance(v, str) for v in (left, right))
    if not (ok_numbers or ok_strings):
        raise SpecEvalError(
            f"cannot compare {spec_repr(left)} {op} {spec_repr(right)}",
            expr.line,
            expr.column,
        )
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    return left >= right


def _arithmetic(op: str, left, right, expr: Expr):
    if left is None or right is None:
        return None
    if op == "+" and isinstance(left, str) and isinstance(right, str):
        return left + right
    for side in (left, right):
        if isinstance(side, bool) or not isinstance(side, (int, float)):
            raise SpecEvalError(
                f"arithmetic needs numbers, got {spec_repr(side)}",
                expr.line,
                expr.column,
            )
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            return None
        result = left / right
        return int(result) if isinstance(result, float) and result.is_integer() else result
    if right == 0:
        return None
    return left % right


def _membership(left, right, expr: Expr):
    if isinstance(right, list):
        return any(spec_equal(left, item) for item in right)
    if isinstance(right, str):
        if not isinstance(left, str):
            raise SpecEvalError(
                "'in' on a string needs a string on the left",
                expr.line,
                expr.column,
            )
        return left in right
    if isinstance(right, dict):
        return left in right
    raise SpecEvalError(
        f"'in' needs a list, string or object, got {spec_repr(right)}",
        expr.line,
        expr.column,
    )


def _reject_function_in_data(value, expr: Expr) -> None:
    if isinstance(value, (FunctionValue, BuiltinFunction)):
        raise SpecEvalError(
            "functions may not be placed inside data structures "
            "(paper, Section 3)",
            expr.line,
            expr.column,
        )


# ----------------------------------------------------------------------
# Temporal operators
# ----------------------------------------------------------------------


def to_formula(value, expr: Optional[Expr] = None) -> Formula:
    """Embed a boolean (or formula value) into QuickLTL."""
    if isinstance(value, bool):
        return TOP if value else BOTTOM
    if isinstance(value, FormulaValue):
        return value.formula
    line = getattr(expr, "line", None)
    column = getattr(expr, "column", None)
    raise SpecEvalError(
        f"expected a boolean or temporal formula, got {spec_repr(value)}",
        line,
        column,
    )


_SCALAR_TYPES = (type(None), bool, int, float, str)

#: Footprint slot of a quote whose footprint is not computed yet.
_UNCOMPUTED = object()


def _value_key(value) -> object:
    """A hashable key, equal for two captured values only when the
    evaluator cannot tell them apart: scalars tagged by type (``true``,
    ``1`` and ``1.0`` stay apart), lists and objects by structure
    (objects in key order, which error messages show), formulas by
    interned node, selectors and element snapshots by their frozen
    fields, and everything else -- functions, thunks, actions,
    builtins, ``happened`` -- by identity, which is sound because the
    quote keeps the value, and so its id, alive."""
    kind = type(value)
    if kind in _SCALAR_TYPES:
        return kind, value
    if kind is list:
        return list, tuple([_value_key(item) for item in value])
    if kind is dict:
        return dict, tuple([(key, _value_key(item)) for key, item in value.items()])
    if kind is FormulaValue:
        return FormulaValue, value.formula
    if kind is SelectorValue or kind is ElementSnapshot:
        return value
    return id(value)


def _data_copy(value):
    """``value`` with every list and object in it copied."""
    if type(value) is list:
        return [_data_copy(item) for item in value]
    if type(value) is dict:
        return {key: _data_copy(item) for key, item in value.items()}
    return value


class Quote:
    """A temporal operator's quoted body, as a value.

    This is the ``build`` of every evaluator-built
    :class:`~repro.quickltl.Defer`: the body expression, the values its
    free names (:func:`~repro.specstrom.ast_nodes.free_names`) had where
    it was quoted, and the default subscript.  Calling it evaluates the
    body against a state, with no rng (a body is a formula, and
    formulas draw nothing).  Two quotes are equal only when the
    evaluator cannot tell them apart -- the same body object and
    captured values with equal :func:`_value_key` -- so a body
    re-quoted over the same values, at another state or in another
    test, interns to the ``Defer`` node already built and shares its
    progression-cache entries and the footprint cached here.
    """

    __slots__ = ("body", "values", "default_subscript", "_key", "_hash", "_frame",
                 "_footprint")

    def __init__(self, body: Expr, values: tuple, default_subscript: int) -> None:
        self.body = body
        self.values = values
        self.default_subscript = default_subscript
        self._key = (tuple([_value_key(v) for v in values]), default_subscript)
        self._hash = hash((id(body), self._key))
        self._frame = Environment(dict(zip(free_names(body), values)))
        self._footprint = _UNCOMPUTED

    def __call__(self, state) -> Formula:
        ctx = EvalContext(state, None, self.default_subscript)
        return to_formula(evaluate(self.body, self._frame, ctx), self.body)

    def footprint(self) -> Optional[frozenset]:
        """The selectors the body can read when forced (``None``:
        unknown), computed once per quote."""
        if self._footprint is _UNCOMPUTED:
            self._footprint = expr_selector_footprint(self.body, self._frame)
        return self._footprint

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not Quote:
            return NotImplemented
        return self.body is other.body and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Pickles as its constructor arguments, lists and objects copied:
        # one the quote shares with an environment may be only half
        # rebuilt when a pickle cycle through that environment rebuilds
        # the quote first.
        values = tuple([_data_copy(value) for value in self.values])
        return (Quote, (self.body, values, self.default_subscript))


def _captured(env: Environment, name: str):
    try:
        return env.lookup(name)
    except SpecEvalError:
        # A strict top-level let is evaluated before the definitions
        # after it are bound, yet a body it quotes may name one of them
        # (or an action): that lookup waits until the body is forced.
        return Thunk(name, Var(name), env)


def _defer(body: Expr, env: Environment, ctx: EvalContext, label: str) -> Defer:
    """Quote ``body`` as a deferred formula forced per unroll state.

    The :class:`Quote` captures the current values of the body's free
    names, so the ``next`` a transition re-quotes at every state is one
    node for as long as the values it freezes repeat.
    """
    values = tuple([_captured(env, name) for name in free_names(body)])
    return Defer(label, Quote(body, values, ctx.default_subscript))


def _temporal_unary(expr: TemporalUnary, env: Environment, ctx: EvalContext):
    body = _defer(expr.body, env, ctx, f"{expr.op}@{expr.line}:{expr.column}")
    if expr.op == "next":
        return FormulaValue(NextReq(body))
    if expr.op == "wnext":
        return FormulaValue(NextWeak(body))
    if expr.op == "snext":
        return FormulaValue(NextStrong(body))
    n = expr.subscript if expr.subscript is not None else ctx.default_subscript
    if expr.op == "always":
        return FormulaValue(Always(n, body))
    if expr.op == "eventually":
        return FormulaValue(Eventually(n, body))
    raise SpecEvalError(f"unknown temporal operator {expr.op!r}")


def _temporal_binary(expr: TemporalBinary, env: Environment, ctx: EvalContext):
    left = _defer(expr.left, env, ctx, f"{expr.op}-lhs@{expr.line}:{expr.column}")
    right = _defer(expr.right, env, ctx, f"{expr.op}-rhs@{expr.line}:{expr.column}")
    n = expr.subscript if expr.subscript is not None else ctx.default_subscript
    if expr.op == "until":
        return FormulaValue(Until(n, left, right))
    if expr.op == "release":
        return FormulaValue(Release(n, left, right))
    raise SpecEvalError(f"unknown temporal operator {expr.op!r}")


def make_property_formula(
    prop_expr: Expr, env: Environment, ctx: EvalContext, label: str
) -> Formula:
    """Build the top-level formula for a ``check`` property.

    The property expression itself is state-dependent (it is typically a
    lazy ``let``), so the whole thing is wrapped in a deferred formula
    forced against the first trace state.
    """
    return _defer(prop_expr, env, ctx, label)
