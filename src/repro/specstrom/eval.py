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

Each expression node is compiled once, the first time it is evaluated,
into a closure ``code(env, ctx)`` cached on the node
(:func:`compile_expr`).  The dispatch on node type, operator and
argument count happens at compilation, so a body re-evaluated at every
state pays only for the work itself.  The closure is never pickled (see
``Expr.__getstate__``): a decoded artifact, spec descriptor or
checkpoint compiles its nodes again on first use.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

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
    ActionValue,
    BuiltinEvent,
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
    "compile_expr",
    "evaluate",
    "make_property_formula",
    "to_formula",
    "HAPPENED",
]

#: Sentinel bound to the name ``happened`` in the global environment.
HAPPENED = object()

_MAX_DEPTH = 300


class EvalContext:
    """Everything evaluation needs besides the environment.

    A context is never changed once built, so :meth:`deeper` hands out
    one child per context, built on first use and shared by every thunk
    force and call one level down.
    """

    __slots__ = ("state", "rng", "default_subscript", "depth", "_child")

    def __init__(
        self,
        state: Optional[StateSnapshot] = None,
        rng: Optional[random.Random] = None,
        default_subscript: int = DEFAULT_SUBSCRIPT,
        depth: int = 0,
    ) -> None:
        self.state = state
        self.rng = rng
        self.default_subscript = default_subscript
        self.depth = depth
        self._child: Optional[EvalContext] = None

    def require_state(self, what: str) -> StateSnapshot:
        if self.state is None:
            raise StateQueryOutsideStateError(
                f"{what} requires a state; state-dependent definitions "
                "must be bound lazily with '~'"
            )
        return self.state

    def deeper(self) -> "EvalContext":
        child = self._child
        if child is None:
            if self.depth + 1 > _MAX_DEPTH:
                raise SpecEvalError(
                    "evaluation depth exceeded; is there hidden recursion?"
                )
            child = self._child = EvalContext(
                self.state, self.rng, self.default_subscript, self.depth + 1
            )
        return child


#: A compiled expression: ``code(env, ctx)`` returns the node's value.
Code = Callable[[Environment, EvalContext], object]


def evaluate(expr: Expr, env: Environment, ctx: EvalContext):
    """Evaluate ``expr`` to a Specstrom value."""
    return (expr._code or compile_expr(expr))(env, ctx)


def compile_expr(expr: Expr) -> Code:
    """``expr``'s closure, compiled on first use and cached on the node.

    Children are compiled with their parent, so a closure calls its
    children's closures directly.  Two threads may compile one node at
    once; both closures behave the same, and either may stay cached.
    """
    compiler = _COMPILERS.get(type(expr))
    if compiler is None:
        message = f"cannot evaluate {type(expr).__name__}"

        def code(env, ctx):
            raise SpecEvalError(message)

    else:
        code = compiler(expr)
    expr._code = code
    return code


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
        # Object keys are strings: any other index is simply absent.
        return obj.get(index) if isinstance(index, str) else None
    raise SpecEvalError(f"cannot index {spec_repr(obj)}", expr.line, expr.column)


# ----------------------------------------------------------------------
# Operators
# ----------------------------------------------------------------------


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
        # Object keys are strings: any other left operand is absent.
        return isinstance(left, str) and left in right
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
# Compilation: one closure per node
# ----------------------------------------------------------------------


def _compile_lit(expr: Lit) -> Code:
    value = expr.value
    return lambda env, ctx: value


def _compile_selector(expr: SelectorLit) -> Code:
    # Selector values are frozen, so one per literal node serves every
    # evaluation.
    value = SelectorValue(expr.css)
    return lambda env, ctx: value


def _compile_var(expr: Var) -> Code:
    name = expr.name

    def var(env, ctx):
        # Environment.lookup, inlined: names are read more than anything.
        while name not in env.bindings:
            env = env.parent
            if env is None:
                raise SpecEvalError(f"undefined name {name!r}")
        value = env.bindings[name]
        if type(value) is Thunk:
            body = value.expr
            deeper = ctx._child or ctx.deeper()
            return (body._code or compile_expr(body))(value.env, deeper)
        if value is HAPPENED:
            return list(ctx.require_state("reading 'happened'").happened)
        return value

    return var


def _compile_member(expr: Member) -> Code:
    name = expr.name
    if type(expr.obj) is SelectorLit:
        # `css`.name: one read of the selector's first match.
        css = expr.obj.css
        what = f"querying `{css}`"

        def selector_member(env, ctx):
            element = ctx.require_state(what).first(css)
            return None if element is None else element.get_property(name)

        return selector_member
    obj = _sub(expr.obj)
    return lambda env, ctx: _member(obj(env, ctx), name, ctx, expr)


def _compile_index(expr: Index) -> Code:
    obj = _sub(expr.obj)
    index = _sub(expr.index)
    return lambda env, ctx: _index(obj(env, ctx), index(env, ctx), expr)


def _compile_call(expr: Call) -> Code:
    callee_code = _sub(expr.callee)
    arg_exprs = expr.args
    arg_codes = [_sub(arg) for arg in arg_exprs]
    count = len(arg_codes)
    #: The builtin arities this call satisfies (None: variadic).
    accepts = (None, count)

    def call_other(callee, env, ctx):
        """Call a user function, or raise: a builtin that gets here has
        another arity, and anything else is not callable."""
        if type(callee) is not FunctionValue and type(callee) is not BuiltinFunction:
            raise SpecEvalError(
                f"{spec_repr(callee)} is not callable", expr.line, expr.column
            )
        if callee.arity != count:
            raise SpecEvalError(
                f"{callee.name} expects {callee.arity} argument(s), got {count}",
                expr.line,
                expr.column,
            )
        frame = callee.env.child()
        bindings = frame.bindings
        for param, arg_expr, arg_code in zip(callee.params, arg_exprs, arg_codes):
            if param.lazy:
                bindings[param.name] = Thunk(param.name, arg_expr, env)
            else:
                bindings[param.name] = arg_code(env, ctx)
        body = callee.body
        return (body._code or compile_expr(body))(frame, ctx.deeper())

    # Builtin calls are specialized by argument count: no argument list.
    if count == 1:
        (first,) = arg_codes

        def call(env, ctx):
            callee = callee_code(env, ctx)
            if type(callee) is BuiltinFunction and callee.arity in accepts:
                return callee.fn(ctx, first(env, ctx))
            return call_other(callee, env, ctx)

    elif count == 2:
        first, second = arg_codes

        def call(env, ctx):
            callee = callee_code(env, ctx)
            if type(callee) is BuiltinFunction and callee.arity in accepts:
                return callee.fn(ctx, first(env, ctx), second(env, ctx))
            return call_other(callee, env, ctx)

    else:

        def call(env, ctx):
            callee = callee_code(env, ctx)
            if type(callee) is BuiltinFunction and callee.arity in accepts:
                return callee.fn(ctx, *[code(env, ctx) for code in arg_codes])
            return call_other(callee, env, ctx)

    return call


def _compile_unary(expr: Unary) -> Code:
    operand = _sub(expr.operand)
    op = expr.op
    if op == "!":

        def negate(env, ctx):
            value = operand(env, ctx)
            if value is True or value is False:
                return not value
            if type(value) is FormulaValue:
                return FormulaValue(Not(value.formula))
            raise SpecEvalError(
                f"'!' needs a boolean or formula, got {spec_repr(value)}",
                expr.line,
                expr.column,
            )

        return negate
    if op == "-":

        def minus(env, ctx):
            value = operand(env, ctx)
            if value is None:
                return None
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                return -value
            raise SpecEvalError(
                f"unary '-' needs a number, got {spec_repr(value)}",
                expr.line,
                expr.column,
            )

        return minus

    def unknown(env, ctx):
        operand(env, ctx)
        raise SpecEvalError(f"unknown unary operator {op!r}")

    return unknown


#: Short-circuit behaviour of each connective: the left value that
#: decides the result, the result it decides, and the formula combinator
#: used when the left operand is temporal.
_CONNECTIVES = {
    "&&": (False, False, And),
    "||": (True, True, Or),
    "==>": (False, True, lambda left, right: Or(Not(left), right)),
}

#: Data operators: ``apply(op, left, right, expr)``.
_DATA_OPERATORS = {
    "==": lambda op, left, right, expr: spec_equal(left, right),
    "!=": lambda op, left, right, expr: not spec_equal(left, right),
    "in": lambda op, left, right, expr: _membership(left, right, expr),
    **dict.fromkeys(("<", "<=", ">", ">="), _compare),
    **dict.fromkeys(("+", "-", "*", "/", "%"), _arithmetic),
}


def _compile_binary(expr: Binary) -> Code:
    op = expr.op
    left = _sub(expr.left)
    right = _sub(expr.right)
    if op in _CONNECTIVES:
        return _compile_connective(expr, left, right)
    apply = _DATA_OPERATORS.get(op)
    if apply is None:

        def apply(op, left, right, expr):
            raise SpecEvalError(f"unknown operator {op!r}", expr.line, expr.column)

    def data(env, ctx):
        left_value = left(env, ctx)
        right_value = right(env, ctx)
        if type(left_value) is FormulaValue or type(right_value) is FormulaValue:
            raise SpecEvalError(
                f"temporal formula used as data in {op!r}", expr.line, expr.column
            )
        return apply(op, left_value, right_value, expr)

    if op != "in" or type(expr.right) is not Var:
        return data
    name = expr.right.name

    def membership(env, ctx):
        # `a in happened`, for an action or event `a`: one scan of the
        # state's names, without copying them into a list.
        left_value = left(env, ctx)
        if type(left_value) in _NAMED and env.lookup(name) is HAPPENED:
            happened = ctx.require_state("reading 'happened'").happened
            return left_value.name in happened
        right_value = right(env, ctx)
        if type(left_value) is FormulaValue or type(right_value) is FormulaValue:
            raise SpecEvalError(
                f"temporal formula used as data in {op!r}", expr.line, expr.column
            )
        return _membership(left_value, right_value, expr)

    return membership


#: Values that ``==`` compares to strings by name.
_NAMED = (ActionValue, BuiltinEvent)


def _compile_connective(expr: Binary, left: Code, right: Code) -> Code:
    op = expr.op
    decider, decided, combine = _CONNECTIVES[op]
    other = not decider

    def operand_error(value) -> SpecEvalError:
        return SpecEvalError(
            f"{op!r} needs boolean or formula operands, got {spec_repr(value)}",
            expr.line,
            expr.column,
        )

    def connective(env, ctx):
        value = left(env, ctx)
        if value is decider:
            return decided
        if value is other or type(value) is FormulaValue:
            right_value = right(env, ctx)
            if not (
                right_value is True
                or right_value is False
                or type(right_value) is FormulaValue
            ):
                raise operand_error(right_value)
            if value is other:
                return right_value
            return FormulaValue(combine(value.formula, to_formula(right_value, expr)))
        raise operand_error(value)

    return connective


def _compile_if(expr: IfExpr) -> Code:
    cond = _sub(expr.cond)
    then = _sub(expr.then)
    orelse = _sub(expr.orelse)

    def if_(env, ctx):
        condition = cond(env, ctx)
        if condition is True:
            return then(env, ctx)
        if condition is False:
            return orelse(env, ctx)
        raise SpecEvalError(
            f"if-condition must be a boolean, got {spec_repr(condition)}",
            expr.line,
            expr.column,
        )

    return if_


def _compile_block(expr: Block) -> Code:
    steps = [
        (binding.name, binding.lazy, binding.expr, _sub(binding.expr))
        for binding in expr.bindings
    ]
    result = _sub(expr.result)

    def block(env, ctx):
        scope = env
        for name, lazy, bound, code in steps:
            # Each binding gets its own frame so lazy bindings can only
            # see *earlier* names: forward references would be hidden
            # recursion, which Specstrom forbids.
            frame = scope.child()
            if lazy:
                frame.bindings[name] = Thunk(name, bound, scope)
            else:
                frame.bindings[name] = code(scope, ctx)
            scope = frame
        return result(scope, ctx)

    return block


def _compile_array(expr: ArrayLit) -> Code:
    codes = [_sub(item) for item in expr.items]

    def array(env, ctx):
        items = [code(env, ctx) for code in codes]
        for item in items:
            _reject_function_in_data(item, expr)
        return items

    return array


def _compile_object(expr: ObjectLit) -> Code:
    pairs = [(key, _sub(value)) for key, value in expr.pairs]

    def object_(env, ctx):
        result = {}
        for key, code in pairs:
            value = code(env, ctx)
            _reject_function_in_data(value, expr)
            result[key] = value
        return result

    return object_


_NEXT_OPERATORS = {"next": NextReq, "wnext": NextWeak, "snext": NextStrong}
_BOUNDED_UNARY = {"always": Always, "eventually": Eventually}
_BOUNDED_BINARY = {"until": Until, "release": Release}


def _compile_temporal_unary(expr: TemporalUnary) -> Code:
    # Temporal nodes call ``_defer`` through this module's globals, so a
    # patched ``_defer`` sees every quote.
    op, body, subscript = expr.op, expr.body, expr.subscript
    label = f"{op}@{expr.line}:{expr.column}"
    if op in _NEXT_OPERATORS:
        build = _NEXT_OPERATORS[op]
        return lambda env, ctx: FormulaValue(build(_defer(body, env, ctx, label)))
    bounded = _BOUNDED_UNARY.get(op)

    def temporal(env, ctx):
        deferred = _defer(body, env, ctx, label)
        if bounded is None:
            raise SpecEvalError(f"unknown temporal operator {op!r}")
        n = subscript if subscript is not None else ctx.default_subscript
        return FormulaValue(bounded(n, deferred))

    return temporal


def _compile_temporal_binary(expr: TemporalBinary) -> Code:
    op, subscript = expr.op, expr.subscript
    left, right = expr.left, expr.right
    left_label = f"{op}-lhs@{expr.line}:{expr.column}"
    right_label = f"{op}-rhs@{expr.line}:{expr.column}"
    bounded = _BOUNDED_BINARY.get(op)

    def temporal(env, ctx):
        left_deferred = _defer(left, env, ctx, left_label)
        right_deferred = _defer(right, env, ctx, right_label)
        if bounded is None:
            raise SpecEvalError(f"unknown temporal operator {op!r}")
        n = subscript if subscript is not None else ctx.default_subscript
        return FormulaValue(bounded(n, left_deferred, right_deferred))

    return temporal


def _sub(expr: Expr) -> Code:
    return expr._code or compile_expr(expr)


_COMPILERS = {
    Lit: _compile_lit,
    SelectorLit: _compile_selector,
    Var: _compile_var,
    Member: _compile_member,
    Index: _compile_index,
    Call: _compile_call,
    Unary: _compile_unary,
    Binary: _compile_binary,
    IfExpr: _compile_if,
    Block: _compile_block,
    ArrayLit: _compile_array,
    ObjectLit: _compile_object,
    TemporalUnary: _compile_temporal_unary,
    TemporalBinary: _compile_temporal_binary,
}


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
        body = self.body
        code = body._code or compile_expr(body)
        ctx = EvalContext(state, None, self.default_subscript)
        return to_formula(code(self._frame, ctx), body)

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
    scope = env
    while name not in scope.bindings:  # Environment.lookup, inlined
        scope = scope.parent
        if scope is None:
            # A strict top-level let is evaluated before the definitions
            # after it are bound, yet a body it quotes may name one of
            # them (or an action): that lookup waits until the body is
            # forced.
            return Thunk(name, Var(name), env)
    return scope.bindings[name]


def _defer(body: Expr, env: Environment, ctx: EvalContext, label: str) -> Defer:
    """Quote ``body`` as a deferred formula forced per unroll state.

    The :class:`Quote` captures the current values of the body's free
    names, so the ``next`` a transition re-quotes at every state is one
    node for as long as the values it freezes repeat.
    """
    values = tuple([_captured(env, name) for name in free_names(body)])
    return Defer(label, Quote(body, values, ctx.default_subscript))


def make_property_formula(
    prop_expr: Expr, env: Environment, ctx: EvalContext, label: str
) -> Formula:
    """Build the top-level formula for a ``check`` property.

    The property expression itself is state-dependent (it is typically a
    lazy ``let``), so the whole thing is wrapped in a deferred formula
    forced against the first trace state.
    """
    return _defer(prop_expr, env, ctx, label)
