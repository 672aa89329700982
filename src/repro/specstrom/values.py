"""Specstrom runtime values.

The value universe is deliberately JS-flavoured (paper, Section 3):
null, booleans, numbers, strings, lists and objects (dicts), plus the
language-specific values:

* :class:`SelectorValue` -- a backtick CSS selector; member access on it
  queries the current state,
* :class:`FunctionValue` -- a closure with per-parameter laziness,
* :class:`BuiltinFunction` -- host functions,
* :class:`Thunk` -- a lazy (``~``) binding: the expression is re-evaluated
  in its defining environment *at every use*, which is what makes lazy
  bindings state-dependent,
* :class:`ActionValue` -- a defined action or event,
* :class:`FormulaValue` -- a QuickLTL formula produced by temporal
  operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Optional

from ..quickltl import Formula
from .ast_nodes import Expr, Param
from .errors import SpecEvalError
from .state import ElementSnapshot

__all__ = [
    "SelectorValue",
    "FunctionValue",
    "BuiltinFunction",
    "Thunk",
    "ActionValue",
    "FormulaValue",
    "Environment",
    "is_plain_data",
    "spec_equal",
    "spec_repr",
]


@dataclass(frozen=True)
class SelectorValue:
    """A CSS selector literal's value."""

    css: str

    def __repr__(self) -> str:
        return f"`{self.css}`"


@dataclass
class Environment:
    """A lexically scoped environment (a chain of frames)."""

    bindings: Dict[str, object] = field(default_factory=dict)
    parent: Optional["Environment"] = None

    def lookup(self, name: str):
        env: Optional[Environment] = self
        while env is not None:
            if name in env.bindings:
                return env.bindings[name]
            env = env.parent
        raise SpecEvalError(f"undefined name {name!r}")

    def defines(self, name: str) -> bool:
        env: Optional[Environment] = self
        while env is not None:
            if name in env.bindings:
                return True
            env = env.parent
        return False

    def bind(self, name: str, value: object) -> None:
        self.bindings[name] = value

    def child(self) -> "Environment":
        return Environment({}, self)


@dataclass
class Thunk:
    """A lazy binding: re-evaluated at each use with the current state."""

    name: str
    expr: Expr
    env: Environment


@dataclass
class FunctionValue:
    """A user-defined function (top-level ``let`` with parameters)."""

    name: str
    params: List[Param]
    body: Expr
    env: Environment

    @property
    def arity(self) -> int:
        return len(self.params)

    def __repr__(self) -> str:
        return f"<function {self.name}/{self.arity}>"


@dataclass
class BuiltinFunction:
    """A host function, called as ``fn(ctx, *args)`` with the evaluated
    arguments."""

    name: str
    fn: Callable
    arity: Optional[int] = None  # None = variadic

    def __repr__(self) -> str:
        return f"<builtin {self.name}>"


@dataclass
class ActionValue:
    """A defined action (``!``) or event (``?``).

    ``body``/``guard`` are kept as unevaluated expressions in the
    definition environment: the guard is evaluated against the current
    state at selection time, the body at fire time (so that, e.g.,
    ``randomText()`` draws fresh text per fire).
    """

    name: str
    body: Expr
    guard: Optional[Expr]
    timeout_ms: Optional[float]
    env: Environment

    @property
    def is_event(self) -> bool:
        return self.name.endswith("?")

    @property
    def is_user_action(self) -> bool:
        return self.name.endswith("!")

    def __repr__(self) -> str:
        return f"<action {self.name}>"


@dataclass
class FormulaValue:
    """A QuickLTL formula embedded as a Specstrom value."""

    formula: Formula

    def __repr__(self) -> str:
        return f"<formula {self.formula}>"

    def __reduce__(self):
        # Rebuilt from its decoded formula, never as an empty shell
        # filled in later: a quote decoded inside a pickle cycle keys
        # its captured formula values as soon as it is rebuilt.
        return (FormulaValue, (self.formula,))


@dataclass(frozen=True)
class BuiltinEvent:
    """A built-in event name (``loaded?``); compares by name like actions."""

    name: str

    @property
    def is_event(self) -> bool:
        return True

    def __repr__(self) -> str:
        return f"<event {self.name}>"


_PLAIN_TYPES = (type(None), bool, int, float, str)


def is_plain_data(value: object) -> bool:
    """Is ``value`` ground data (storable in arrays/objects)?"""
    if isinstance(value, _PLAIN_TYPES):
        return True
    if isinstance(value, list):
        return all(is_plain_data(v) for v in value)
    if isinstance(value, dict):
        return all(is_plain_data(v) for v in value.values())
    return isinstance(value, (SelectorValue, ElementSnapshot))


#: Types whose Python ``==`` already is ``spec_equal`` between two
#: values of the same type: the fast path for the common comparison.
_EXACT_TYPES = frozenset((type(None), bool, int, float, str))

_ELEMENT_FIELDS = tuple(field.name for field in fields(ElementSnapshot))


def spec_equal(a: object, b: object) -> bool:
    """Structural equality (``==``), exact about types at every depth:
    ``1 == true`` is false, and so are ``[1] == [true]`` and two
    elements that differ only in ``checked: 1`` versus ``checked:
    true``, while ``1 == 1.0`` holds.  Action names compare to strings,
    so that ``start! in happened`` works."""
    kind = type(a)
    if kind is type(b):
        if kind in _EXACT_TYPES:
            return a == b
        if kind is list or kind is tuple:
            if len(a) != len(b):
                return False
            for x, y in zip(a, b):
                item = type(x)
                # The fast path above, inlined: lists of strings (item
                # texts) compare at the cost of Python's own ``==``.
                if item is type(y) and item in _EXACT_TYPES:
                    if x != y:
                        return False
                elif not spec_equal(x, y):
                    return False
            return True
        if kind is dict:
            return a.keys() == b.keys() and all(
                spec_equal(value, b[key]) for key, value in a.items()
            )
        if kind is ElementSnapshot:
            return all(
                spec_equal(getattr(a, name), getattr(b, name))
                for name in _ELEMENT_FIELDS
            )
    if isinstance(a, (ActionValue, BuiltinEvent)):
        a = a.name
    if isinstance(b, (ActionValue, BuiltinEvent)):
        b = b.name
    if isinstance(a, bool) != isinstance(b, bool):
        return False  # 1 == true is false; the type system is invisible,
        # not absent (paper, Section 3)
    return a == b


def spec_repr(value: object) -> str:
    """Render a value for error messages and counterexample dumps."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return repr(value)
    if isinstance(value, list):
        return "[" + ", ".join(spec_repr(v) for v in value) + "]"
    if isinstance(value, dict):
        inner = ", ".join(f"{k}: {spec_repr(v)}" for k, v in value.items())
        return "{" + inner + "}"
    return repr(value)
