"""The Specstrom type system (paper, Section 3).

The system is deliberately "mostly invisible": it distinguishes only
functions from non-functions, infers everything, and exists to guarantee
termination so that specifications stay easy to analyse.  Concretely it
enforces:

* **no recursion** -- the reference graph over top-level definitions must
  be acyclic (self-references included),
* **no functions inside data** -- function values may appear only as call
  targets or call arguments, never inside arrays/objects, as operator
  operands, or as the result of conditionals,
* **arity discipline** -- calls must match the callee's parameter count,
* **kind consistency** -- a parameter used both as a function and as data
  is an error.

Together with the fact that every built-in combinator walks a finite
list, this gives the termination guarantee the paper relies on for its
static analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from .ast_nodes import (
    ActionDef,
    ArrayLit,
    Binary,
    Block,
    Call,
    Expr,
    IfExpr,
    Index,
    LetDef,
    Lit,
    Member,
    Module,
    ObjectLit,
    SelectorLit,
    TemporalBinary,
    TemporalUnary,
    Unary,
    Var,
    expr_children,
    free_names,
)
from .builtins import BUILTIN_NAMES
from .errors import SpecTypeError

__all__ = ["check_module", "Kind", "DATA", "FunKind"]


@dataclass(frozen=True)
class FunKind:
    """The kind of a function; ``arity`` None means variadic (builtins)."""

    arity: Optional[int]

    def __repr__(self) -> str:
        return f"fun/{self.arity if self.arity is not None else '*'}"


DATA = "data"
UNKNOWN = "unknown"

Kind = object  # DATA | UNKNOWN | FunKind

#: Builtins whose parameters are functions (position -> kind).
_HIGHER_ORDER_BUILTINS = {
    "map": (FunKind(1), DATA),
    "filter": (FunKind(1), DATA),
    "all": (FunKind(1), DATA),
    "any": (FunKind(1), DATA),
    "findIndex": (FunKind(1), DATA),
}


@dataclass
class _Scope:
    """Kind environment with mutable slots for inferable names."""

    kinds: Dict[str, List[Kind]] = field(default_factory=dict)
    parent: Optional["_Scope"] = None

    def slot(self, name: str) -> Optional[List[Kind]]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.kinds:
                return scope.kinds[name]
            scope = scope.parent
        return None

    def bind(self, name: str, kind: Kind) -> None:
        self.kinds[name] = [kind]

    def child(self) -> "_Scope":
        return _Scope({}, self)


def check_module(module: Module) -> Dict[str, Kind]:
    """Type-check a module; returns the inferred kind of each top-level
    definition.  Raises :class:`SpecTypeError` on violations."""
    _check_duplicates(module)
    order = _check_acyclic(module)
    return _check_kinds(module, order)


# ----------------------------------------------------------------------
# Duplicates and recursion
# ----------------------------------------------------------------------


def _check_duplicates(module: Module) -> None:
    seen: Set[str] = set()
    for definition in module.definitions:
        if definition.name in seen:
            raise SpecTypeError(
                f"duplicate definition of {definition.name!r}",
                definition.line,
                definition.column,
            )
        if definition.name in BUILTIN_NAMES:
            raise SpecTypeError(
                f"{definition.name!r} shadows a builtin",
                definition.line,
                definition.column,
            )
        seen.add(definition.name)


def _def_exprs(definition) -> List[Expr]:
    if isinstance(definition, LetDef):
        return [definition.body]
    exprs = [definition.body]
    if definition.guard is not None:
        exprs.append(definition.guard)
    if definition.timeout is not None:
        exprs.append(definition.timeout)
    return exprs


def _check_acyclic(module: Module) -> List[str]:
    """DFS cycle check over top-level references; returns a topological
    order (dependencies first)."""
    table = {d.name: d for d in module.definitions}
    graph: Dict[str, Set[str]] = {}
    for name, definition in table.items():
        locals_ = set()
        if isinstance(definition, LetDef) and definition.params:
            locals_ = {p.name for p in definition.params}
        graph[name] = {
            ref
            for expr in _def_exprs(definition)
            for ref in free_names(expr)
            if ref not in locals_ and ref in table
        }
    order: List[str] = []
    state: Dict[str, int] = {}  # 0 visiting, 1 done

    def visit(name: str, stack: List[str]) -> None:
        status = state.get(name)
        if status == 1:
            return
        if status == 0:
            cycle = stack[stack.index(name):] + [name]
            definition = table[name]
            raise SpecTypeError(
                "recursion is not allowed in Specstrom "
                f"(cycle: {' -> '.join(cycle)})",
                definition.line,
                definition.column,
            )
        state[name] = 0
        stack.append(name)
        for ref in sorted(graph[name]):
            visit(ref, stack)
        stack.pop()
        state[name] = 1
        order.append(name)

    for name in table:
        visit(name, [])
    return order


# ----------------------------------------------------------------------
# Kind inference
# ----------------------------------------------------------------------


def _check_kinds(module: Module, order: List[str]) -> Dict[str, Kind]:
    table = {d.name: d for d in module.definitions}
    toplevel = _Scope()
    for name in BUILTIN_NAMES:
        toplevel.bind(name, _builtin_kind(name))
    results: Dict[str, Kind] = {}
    for name in order:
        definition = table[name]
        if isinstance(definition, LetDef):
            kind = _check_let(definition, toplevel)
        else:
            kind = _check_action(definition, toplevel)
        toplevel.bind(name, kind)
        results[name] = kind
    for check in module.checks:
        scope = toplevel.child()
        for prop in check.properties:
            _infer(prop, scope, data_position=True)
        for action_name in check.with_actions or []:
            slot = toplevel.slot(action_name)
            if slot is None:
                raise SpecTypeError(
                    f"check references undefined action {action_name!r}",
                    check.line,
                    check.column,
                )
    return results


def _builtin_kind(name: str) -> Kind:
    if name in ("noop!", "reload!", "loaded?", "tau?", "happened"):
        return DATA
    return FunKind(None)


def _check_let(definition: LetDef, toplevel: _Scope) -> Kind:
    scope = toplevel.child()
    if definition.params is not None:
        names = set()
        for param in definition.params:
            if param.name in names:
                raise SpecTypeError(
                    f"duplicate parameter {param.name!r} in {definition.name}",
                    definition.line,
                    definition.column,
                )
            names.add(param.name)
            scope.bind(param.name, UNKNOWN)
        _infer(definition.body, scope, data_position=False)
        return FunKind(len(definition.params))
    return _infer(definition.body, scope, data_position=False)


def _check_action(definition: ActionDef, toplevel: _Scope) -> Kind:
    scope = toplevel.child()
    for expr in _def_exprs(definition):
        _infer(expr, scope, data_position=True)
    return DATA


def _infer(expr: Expr, scope: _Scope, data_position: bool) -> Kind:
    """Infer the kind of ``expr``; in a data position, function kinds are
    rejected."""
    kind = _infer_kind(expr, scope)
    if data_position and isinstance(kind, FunKind):
        raise SpecTypeError(
            "a function may not be used as data here (paper, Section 3)",
            expr.line,
            expr.column,
        )
    return kind


def _infer_kind(expr: Expr, scope: _Scope) -> Kind:
    if isinstance(expr, (Lit, SelectorLit)):
        return DATA
    if isinstance(expr, Var):
        slot = scope.slot(expr.name)
        if slot is None:
            raise SpecTypeError(
                f"undefined name {expr.name!r}", expr.line, expr.column
            )
        return slot[0]
    if isinstance(expr, Member):
        _infer(expr.obj, scope, data_position=True)
        return DATA
    if isinstance(expr, Index):
        _infer(expr.obj, scope, data_position=True)
        _infer(expr.index, scope, data_position=True)
        return DATA
    if isinstance(expr, Call):
        return _infer_call(expr, scope)
    if isinstance(expr, Unary):
        _infer(expr.operand, scope, data_position=True)
        return DATA
    if isinstance(expr, Binary):
        _infer(expr.left, scope, data_position=True)
        _infer(expr.right, scope, data_position=True)
        return DATA
    if isinstance(expr, IfExpr):
        _infer(expr.cond, scope, data_position=True)
        _infer(expr.then, scope, data_position=True)
        _infer(expr.orelse, scope, data_position=True)
        return DATA
    if isinstance(expr, ArrayLit):
        for item in expr.items:
            _infer(item, scope, data_position=True)
        return DATA
    if isinstance(expr, ObjectLit):
        for _, value in expr.pairs:
            _infer(value, scope, data_position=True)
        return DATA
    if isinstance(expr, (TemporalUnary, TemporalBinary)):
        for child in expr_children(expr):
            _infer(child, scope, data_position=True)
        return DATA
    if isinstance(expr, Block):
        inner = scope.child()
        for binding in expr.bindings:
            kind = _infer(binding.expr, inner, data_position=False)
            inner.bind(binding.name, kind)
        return _infer_kind(expr.result, inner)
    raise SpecTypeError(f"unknown expression {type(expr).__name__}")


def _infer_call(expr: Call, scope: _Scope) -> Kind:
    if isinstance(expr.callee, Var):
        slot = scope.slot(expr.callee.name)
        if slot is None:
            raise SpecTypeError(
                f"undefined name {expr.callee.name!r}",
                expr.callee.line,
                expr.callee.column,
            )
        kind = slot[0]
        if kind is UNKNOWN:
            slot[0] = FunKind(len(expr.args))
            kind = slot[0]
        if kind is DATA:
            raise SpecTypeError(
                f"{expr.callee.name!r} is not a function",
                expr.line,
                expr.column,
            )
        if kind.arity is not None and kind.arity != len(expr.args):
            raise SpecTypeError(
                f"{expr.callee.name!r} expects {kind.arity} argument(s), "
                f"got {len(expr.args)}",
                expr.line,
                expr.column,
            )
        expected = _HIGHER_ORDER_BUILTINS.get(expr.callee.name)
        for i, arg in enumerate(expr.args):
            expects_fun = expected is not None and i < len(expected) and isinstance(
                expected[i], FunKind
            )
            arg_kind = _infer(arg, scope, data_position=False)
            if expects_fun and arg_kind is DATA:
                raise SpecTypeError(
                    f"argument {i + 1} of {expr.callee.name!r} must be a function",
                    arg.line,
                    arg.column,
                )
            if expects_fun and arg_kind is UNKNOWN and isinstance(arg, Var):
                arg_slot = scope.slot(arg.name)
                if arg_slot is not None:
                    arg_slot[0] = FunKind(1)
            if not expects_fun and isinstance(arg_kind, FunKind):
                # Function arguments to user functions are fine (higher
                # order); to non-higher-order *builtins* they are data
                # misuse.
                if expected is not None or (
                    expr.callee.name in BUILTIN_NAMES
                    and expr.callee.name not in _HIGHER_ORDER_BUILTINS
                ):
                    raise SpecTypeError(
                        f"argument {i + 1} of {expr.callee.name!r} "
                        "may not be a function",
                        arg.line,
                        arg.column,
                    )
        return DATA
    # Computed callee (e.g. a parameter used as a function).
    callee_kind = _infer(expr.callee, scope, data_position=False)
    if callee_kind is DATA:
        raise SpecTypeError("calling a non-function", expr.line, expr.column)
    for arg in expr.args:
        _infer(arg, scope, data_position=False)
    return DATA
