"""The tree-walking Specstrom evaluator, kept as a test-only oracle.

This is the evaluator ``repro.specstrom.eval`` used before it compiled
each expression node into a cached closure: one ``isinstance`` dispatch
per node per evaluation.  ``test_compiled_eval`` checks that both give
the same value or raise the same error, the way ``selector.query_all``
is the uncached reference for the DOM caches.  The leaf helpers (member
access, indexing, comparison, arithmetic, membership, quoting) are the
program's own, imported rather than copied, so only the walk differs.
Function bodies applied by higher-order builtins (``map``, ``filter``
...) and quoted temporal bodies run on the compiled evaluator either
way.
"""

from __future__ import annotations

from repro.quickltl import (
    Always,
    And,
    Eventually,
    Not,
    NextReq,
    NextStrong,
    NextWeak,
    Or,
    Release,
    Until,
)
from repro.specstrom.ast_nodes import (
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
)
from repro.specstrom.errors import SpecEvalError
from repro.specstrom.eval import (
    HAPPENED,
    EvalContext,
    _arithmetic,
    _compare,
    _defer,
    _index,
    _member,
    _membership,
    _reject_function_in_data,
    to_formula,
)
from repro.specstrom.values import (
    BuiltinFunction,
    Environment,
    FormulaValue,
    FunctionValue,
    SelectorValue,
    Thunk,
    spec_equal,
    spec_repr,
)

__all__ = ["evaluate"]


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

