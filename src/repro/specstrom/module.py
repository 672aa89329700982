"""Module loading and elaboration: from source text to checkable specs.

``load_module`` runs the whole front end -- lex, parse, type-check --
then *elaborates*: top-level lets become environment bindings (strict
ones are evaluated immediately, which is where a state query outside a
``~`` binding is caught), actions become :class:`ActionValue`s, and every
``check`` property becomes a :class:`CheckSpec` bundling

* the QuickLTL formula (deferred over the first state),
* the user actions the checker may fire and the events it may observe
  (restricted by ``with``, Section 3.2's ``timeUp`` trick),
* the statically-computed selector dependency set,
* the element attributes the formula can read (``None``: every one),
  which the step and cohort keys keep while dropping the rest, and
* the event/timeout configuration the executor needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..quickltl import DEFAULT_SUBSCRIPT, Formula
from .analysis import (
    module_definition_table,
    observed_attributes,
    selector_dependencies,
)
from .ast_nodes import Module, Var
from .builtins import global_environment
from .errors import SpecEvalError, SpecTypeError
from .eval import EvalContext, evaluate, make_property_formula
from .parser import parse_module
from .types import check_module
from .values import ActionValue, Environment, FunctionValue, Thunk

__all__ = ["CheckSpec", "SpecModule", "load_module", "load_module_file"]


@dataclass
class CheckSpec:
    """One property to check, with everything the runner needs."""

    name: str
    formula: Formula
    actions: List[ActionValue]
    events: List[ActionValue]
    dependencies: frozenset
    default_subscript: int = DEFAULT_SUBSCRIPT
    #: The element attributes the formula can read, or ``None`` for
    #: every one (:func:`~repro.specstrom.analysis.observed_attributes`).
    #: The default keeps a spec pickled before the field existed exact.
    observed_attributes: Optional[frozenset] = None

    def action_named(self, name: str) -> ActionValue:
        for action in self.actions + self.events:
            if action.name == name:
                return action
        raise KeyError(name)


@dataclass
class SpecModule:
    """An elaborated specification module."""

    ast: Module
    env: Environment
    actions: Dict[str, ActionValue]
    checks: List[CheckSpec]
    default_subscript: int

    @property
    def user_actions(self) -> List[ActionValue]:
        return [a for a in self.actions.values() if a.is_user_action]

    @property
    def events(self) -> List[ActionValue]:
        return [a for a in self.actions.values() if a.is_event]

    def check_named(self, name: str) -> CheckSpec:
        for check in self.checks:
            if check.name == name:
                return check
        raise KeyError(f"no check named {name!r}; have {[c.name for c in self.checks]}")


def load_module(
    source: str, *, default_subscript: int = DEFAULT_SUBSCRIPT
) -> SpecModule:
    """Parse, type-check and elaborate a Specstrom module."""
    ast = parse_module(source)
    check_module(ast)
    ctx = EvalContext(state=None, rng=None, default_subscript=default_subscript)
    env = global_environment().child()

    # Top-level lets, in order (the type checker guarantees acyclicity,
    # and source order respects use-before-def for strict bindings).
    for let in ast.lets:
        if let.params is not None:
            env.bind(let.name, FunctionValue(let.name, let.params, let.body, env))
        elif let.lazy:
            env.bind(let.name, Thunk(let.name, let.body, env))
        else:
            env.bind(let.name, evaluate(let.body, env, ctx))

    # Actions and events.
    actions: Dict[str, ActionValue] = {}
    for action_def in ast.actions:
        timeout_ms: Optional[float] = None
        if action_def.timeout is not None:
            timeout_value = evaluate(action_def.timeout, env, ctx)
            if isinstance(timeout_value, bool) or not isinstance(
                timeout_value, (int, float)
            ):
                raise SpecEvalError(
                    f"timeout of {action_def.name} must be a number",
                    action_def.line,
                    action_def.column,
                )
            timeout_ms = float(timeout_value)
        value = ActionValue(
            action_def.name, action_def.body, action_def.guard, timeout_ms, env
        )
        actions[action_def.name] = value
        env.bind(action_def.name, value)

    # Checks.
    table = module_definition_table(ast)
    checks: List[CheckSpec] = []
    for check_index, check_def in enumerate(ast.checks):
        selected = _select_actions(check_def.with_actions, actions, check_def)
        for prop_index, prop in enumerate(check_def.properties):
            if isinstance(prop, Var):
                name = prop.name
            else:
                name = f"check{check_index + 1}.{prop_index + 1}"
            formula = make_property_formula(prop, env, ctx, label=name)
            dep_roots = [prop]
            for action in selected:
                dep_roots.append(action.body)
                if action.guard is not None:
                    dep_roots.append(action.guard)
            dependencies = selector_dependencies(dep_roots, table)
            checks.append(
                CheckSpec(
                    name=name,
                    formula=formula,
                    actions=[a for a in selected if a.is_user_action],
                    events=[a for a in selected if a.is_event],
                    dependencies=dependencies,
                    default_subscript=default_subscript,
                    observed_attributes=observed_attributes([prop], ast),
                )
            )
    return SpecModule(ast, env, actions, checks, default_subscript)


def load_module_file(path, *, default_subscript: int = DEFAULT_SUBSCRIPT) -> SpecModule:
    with open(path, "r", encoding="utf-8") as handle:
        return load_module(handle.read(), default_subscript=default_subscript)


def _select_actions(
    with_actions: Optional[List[str]],
    actions: Dict[str, ActionValue],
    check_def,
) -> List[ActionValue]:
    if with_actions is None:
        return list(actions.values())
    selected = []
    for name in with_actions:
        if name not in actions:
            raise SpecTypeError(
                f"check references undefined action {name!r}",
                check_def.line,
                check_def.column,
            )
        selected.append(actions[name])
    return selected
