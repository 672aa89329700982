"""Specstrom: the Quickstrom specification language (paper, Section 3)."""

from .errors import (
    SpecError,
    SpecSyntaxError,
    SpecTypeError,
    SpecEvalError,
    StateQueryOutsideStateError,
)
from .lexer import tokenize
from .parser import parse_module, parse_expression
from .ast_nodes import Module
from .state import ElementSnapshot, StateSnapshot
from .actions import PrimitiveAction, PrimitiveEvent, ResolvedAction
from .values import (
    ActionValue,
    BuiltinEvent,
    BuiltinFunction,
    Environment,
    FormulaValue,
    FunctionValue,
    SelectorValue,
    Thunk,
)
from .eval import EvalContext, evaluate, to_formula
from .builtins import global_environment, BUILTIN_NAMES
from .types import check_module
from .analysis import (
    module_definition_table,
    observed_attributes,
    selector_dependencies,
)
from .module import CheckSpec, SpecModule, load_module, load_module_file

__all__ = [
    "SpecError",
    "SpecSyntaxError",
    "SpecTypeError",
    "SpecEvalError",
    "StateQueryOutsideStateError",
    "tokenize",
    "parse_module",
    "parse_expression",
    "Module",
    "ElementSnapshot",
    "StateSnapshot",
    "PrimitiveAction",
    "PrimitiveEvent",
    "ResolvedAction",
    "ActionValue",
    "BuiltinEvent",
    "BuiltinFunction",
    "Environment",
    "FormulaValue",
    "FunctionValue",
    "SelectorValue",
    "Thunk",
    "EvalContext",
    "evaluate",
    "to_formula",
    "global_environment",
    "BUILTIN_NAMES",
    "check_module",
    "selector_dependencies",
    "observed_attributes",
    "module_definition_table",
    "CheckSpec",
    "SpecModule",
    "load_module",
    "load_module_file",
]
