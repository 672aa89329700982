"""Specstrom abstract syntax.

Expression nodes carry source positions for error reporting.  Top-level
definitions mirror the paper's Figure 8: (lazy) lets, optionally with
parameters; action/event definitions with ``when`` guards and
``timeout``s; and ``check`` commands with optional ``with`` action lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .errors import SpecTypeError

__all__ = [
    "Expr",
    "Lit",
    "SelectorLit",
    "Var",
    "Member",
    "Index",
    "Call",
    "Unary",
    "Binary",
    "IfExpr",
    "Binding",
    "Block",
    "ArrayLit",
    "ObjectLit",
    "TemporalUnary",
    "TemporalBinary",
    "Param",
    "LetDef",
    "ActionDef",
    "CheckDef",
    "Module",
    "expr_children",
    "free_names",
]


@dataclass
class Expr:
    """Base class for expressions.

    ``line``/``column`` are not constructor arguments: defaulted base
    fields would otherwise precede every subclass's required ones.  The
    parser sets them once the node is built.

    ``_code`` (not a field) is the node's compiled closure, cached by
    :func:`repro.specstrom.eval.compile_expr` on first evaluation.  It
    is never pickled: a decoded node compiles again when first used.
    """

    line: int = field(default=0, init=False)
    column: int = field(default=0, init=False)

    _code = None

    def __getstate__(self) -> dict:
        state = self.__dict__
        if "_code" in state:
            state = dict(state)
            del state["_code"]
        return state


@dataclass
class Lit(Expr):
    """A literal: number, string, bool or null."""

    value: object


@dataclass
class SelectorLit(Expr):
    """A backtick CSS selector literal."""

    css: str


@dataclass
class Var(Expr):
    """A variable reference (possibly an action/event name)."""

    name: str


@dataclass
class Member(Expr):
    """``obj.name`` -- property access (on selectors: a state query)."""

    obj: Expr
    name: str


@dataclass
class Index(Expr):
    """``obj[index]``."""

    obj: Expr
    index: Expr


@dataclass
class Call(Expr):
    """``callee(arg, ...)``."""

    callee: Expr
    args: List[Expr]


@dataclass
class Unary(Expr):
    """``!e`` or ``-e``."""

    op: str
    operand: Expr


@dataclass
class Binary(Expr):
    """Binary operators, including ``&&``/``||``/``==>`` (which lift to
    QuickLTL connectives when an operand is temporal) and ``in``."""

    op: str
    left: Expr
    right: Expr


@dataclass
class IfExpr(Expr):
    """``if c { a } else { b }`` -- an expression, both branches required."""

    cond: Expr
    then: Expr
    orelse: Expr


@dataclass
class Binding:
    """One ``let`` inside a block; ``lazy`` bindings re-evaluate at use."""

    name: str
    lazy: bool
    expr: Expr
    line: int = 0
    column: int = 0


@dataclass
class Block(Expr):
    """``{ let ...; ...; result }``."""

    bindings: List[Binding]
    result: Expr


@dataclass
class ArrayLit(Expr):
    items: List[Expr]


@dataclass
class ObjectLit(Expr):
    pairs: List[Tuple[str, Expr]]


@dataclass
class TemporalUnary(Expr):
    """``always{n} e``, ``eventually{n} e``, ``next/wnext/snext e``.

    ``subscript`` is None when the user omitted it (the elaborator
    substitutes the spec's default; the paper notes omitted subscripts
    "use a user-specified default value", Section 4.1).
    """

    op: str
    subscript: Optional[int]
    body: Expr


@dataclass
class TemporalBinary(Expr):
    """``a until{n} b`` / ``a release{n} b``."""

    op: str
    subscript: Optional[int]
    left: Expr
    right: Expr


@dataclass
class Param:
    """A function parameter; ``lazy`` (written ``~x``) receives the
    argument unevaluated, per Section 3.1's ``evovae`` example."""

    name: str
    lazy: bool


@dataclass
class LetDef:
    """Top-level ``let [~]name[(params)] = body;``."""

    name: str
    lazy: bool
    params: Optional[List[Param]]
    body: Expr
    line: int = 0
    column: int = 0


@dataclass
class ActionDef:
    """``action name! = body [timeout ms] [when guard];``

    Event definitions use the same node with a ``?``-suffixed name.
    """

    name: str
    body: Expr
    guard: Optional[Expr]
    timeout: Optional[Expr]
    line: int = 0
    column: int = 0

    @property
    def is_event(self) -> bool:
        return self.name.endswith("?")


@dataclass
class CheckDef:
    """``check prop1 prop2 ... [with a!, b!, c?];``"""

    properties: List[Expr]
    with_actions: Optional[List[str]]
    line: int = 0
    column: int = 0


@dataclass
class Module:
    """A parsed specification file."""

    lets: List[LetDef]
    actions: List[ActionDef]
    checks: List[CheckDef]

    @property
    def definitions(self):
        return list(self.lets) + list(self.actions)


def expr_children(expr: Expr) -> List[Expr]:
    """The immediate subexpressions of ``expr``."""
    if isinstance(expr, (Lit, SelectorLit, Var)):
        return []
    if isinstance(expr, Member):
        return [expr.obj]
    if isinstance(expr, Index):
        return [expr.obj, expr.index]
    if isinstance(expr, Call):
        return [expr.callee] + list(expr.args)
    if isinstance(expr, Unary):
        return [expr.operand]
    if isinstance(expr, Binary):
        return [expr.left, expr.right]
    if isinstance(expr, IfExpr):
        return [expr.cond, expr.then, expr.orelse]
    if isinstance(expr, ArrayLit):
        return list(expr.items)
    if isinstance(expr, ObjectLit):
        return [value for _, value in expr.pairs]
    if isinstance(expr, TemporalUnary):
        return [expr.body]
    if isinstance(expr, TemporalBinary):
        return [expr.left, expr.right]
    if isinstance(expr, Block):
        return [b.expr for b in expr.bindings] + [expr.result]
    raise SpecTypeError(f"unknown expression {type(expr).__name__}")


def free_names(expr: Expr) -> Tuple[str, ...]:
    """The names ``expr`` reads from its environment, in first-use order.

    A block binding is local to the rest of its block, not to its own
    expression.  The result is kept on the node: the evaluator asks
    again every time it re-quotes a temporal body.
    """
    names = expr.__dict__.get("_free_names")
    if names is None:
        found: Dict[str, None] = {}
        _collect_free(expr, frozenset(), found)
        names = expr._free_names = tuple(found)
    return names


def _collect_free(expr: Expr, bound: frozenset, found: Dict[str, None]) -> None:
    if isinstance(expr, Var):
        if expr.name not in bound:
            found[expr.name] = None
        return
    if isinstance(expr, Block):
        for binding in expr.bindings:
            _collect_free(binding.expr, bound, found)
            bound = bound | {binding.name}
        _collect_free(expr.result, bound, found)
        return
    for child in expr_children(expr):
        _collect_free(child, bound, found)
