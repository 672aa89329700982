"""The compiled evaluator against the tree walker it replaced.

``repro.specstrom.eval`` compiles every expression node into a cached
closure; ``reference_eval`` is the walker it replaced, kept only here.
Both must return the same value -- same type, ``spec_equal``, and for
formulas the same interned node -- or raise the same exception (class
and message), on the bundled specs over recorded campaigns and on
generated expressions over generated states.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api import CheckSession, CheckTarget, SessionConfig
from repro.apps.eggtimer import egg_timer_app
from repro.apps.todomvc import implementation_named
from repro.checker import RunnerConfig
from repro.specs import load_eggtimer_spec, load_todomvc_spec
from repro.specstrom import EvalContext, evaluate, load_module, parse_expression
from repro.specstrom.values import FormulaValue, Thunk, spec_equal

from . import reference_eval
from tests.strategies import examples, state_snapshots


def outcome(evaluator, expr, env, state, seed: int, subscript: int):
    """``("value", v)`` or ``("error", class, message)``; each
    evaluation draws from its own rng, seeded alike for both sides."""
    ctx = EvalContext(state, random.Random(seed), subscript)
    try:
        return ("value", evaluator(expr, env, ctx))
    except Exception as exc:  # noqa: BLE001 - errors are compared too
        return ("error", type(exc), str(exc))


def assert_same(reference, compiled, where: str) -> None:
    if reference[0] == "error" or compiled[0] == "error":
        assert compiled == reference, where
        return
    expected, got = reference[1], compiled[1]
    assert type(got) is type(expected), where
    assert spec_equal(got, expected), where
    if type(expected) is FormulaValue:
        assert got.formula is expected.formula, where


# ----------------------------------------------------------------------
# (a) The bundled specs at every state of a recorded campaign
# ----------------------------------------------------------------------


def recorded(name: str):
    """The module and every observed state of a fixed-seed campaign."""
    if name == "egg":
        module = load_eggtimer_spec()
        target = CheckTarget(
            "egg", egg_timer_app(), spec=module.check_named("safety"),
            config=RunnerConfig(tests=4, scheduled_actions=15,
                                demand_allowance=10, seed=7),
        )
    else:
        module = load_todomvc_spec()
        target = CheckTarget(
            "vue", implementation_named("vue").app_factory(),
            spec=module.check_named("safety"),
            config=RunnerConfig(tests=2, scheduled_actions=20, seed=0),
        )
    batch = CheckSession().check_many([target], session=SessionConfig(jobs=1))
    states = [entry.state for test in batch.results[0].results
              for entry in test.trace]
    return module, states


@pytest.mark.parametrize("name, states_seen", [("egg", 147), ("vue", 142)])
def test_bundled_spec_bodies_agree_at_every_recorded_state(name, states_seen):
    module, states = recorded(name)
    assert len(states) == states_seen
    bodies = [(let_name, value.expr, value.env)
              for let_name, value in module.env.bindings.items()
              if type(value) is Thunk]
    for action in module.actions.values():
        if action.guard is not None:
            bodies.append((f"{action.name} guard", action.guard, action.env))
        bodies.append((f"{action.name} body", action.body, action.env))
    subscript = module.default_subscript
    for index, state in enumerate(states):
        for label, expr, env in bodies:
            assert_same(
                outcome(reference_eval.evaluate, expr, env, state, index, subscript),
                outcome(evaluate, expr, env, state, index, subscript),
                f"{name} state {index}: {label}",
            )


# ----------------------------------------------------------------------
# (b) Generated expressions over generated states
# ----------------------------------------------------------------------

#: Definitions the generated expressions may name: a state-dependent
#: lazy let, user functions with lazy parameters, an action and an
#: event (the generated states' ``happened`` holds ``tick?``,
#: ``loaded?`` and ``click!``).
PRELUDE = """
let ~label = `#state`.text;
let ~rows = texts(`.todo-list li`);
let pick(c, ~a, ~b) = if c { a } else { b };
let both(~p, ~q) = p && q;
let firstOr(xs, ~d) = if length(xs) > 0 { first(xs) } else { d };
action press! = click!(`#toggle`);
action tick? = changed?(`#state`);
"""

#: Names every expression may read.  A temporal body may read only
#: names whose value is the same object at every evaluation (so that
#: both evaluators quote it into one interned node): these, builtins
#: and strict lets -- never a lazy block binding, a fresh thunk.
GLOBALS = ("label", "rows", "press!", "tick?", "loaded?", "happened", "click!")

#: The selectors expressions query; generated states hold some of them.
QUERIED = ("#state", ".todo-list li")

BUILTINS = {
    "count": 1, "texts": 1, "present": 1, "visibleCount": 1, "length": 1,
    "trim": 1, "parseInt": 1, "toString": 1, "first": 1, "isEmpty": 1,
    "contains": 2, "nth": 2, "append": 2, "min": 2, "indexOf": 2,
    "removeAt": 2, "split": 2, "substring": 3, "setAt": 3, "randomInt": 2,
}
USER_FUNCTIONS = {"pick": 3, "both": 2, "firstOr": 2}
PROPERTIES = ("text", "value", "checked", "visible", "classes", "tag", "nope")
BLOCK_NAMES = ("x", "y", "happened")
LITERALS = ("0", "1", "-2", "2.5", '""', '"a"', '"ab "', "true", "false",
            "null", "[]", "[1, 2]", "{a: 1}", '"tick?"')
DATA_OPERATORS = ("==", "!=", "<", "+", "-", "/", "in")

#: Node kinds of any value, and of booleans or formulas (the operands
#: of connectives and conditions, so that most draws evaluate).
ANY_KINDS = ("literal", "name", "selector", "member", "index", "builtin",
             "function", "block", "if", "array", "object", "data", "unary")
BOOLEAN_KINDS = ("truth", "happened", "compare", "connective", "temporal",
                 "not", "present", "both", "block", "if")


@st.composite
def sources(draw, names=GLOBALS, stable=GLOBALS, depth=3, boolean=False):
    """Specstrom expression source over ``names`` (mostly a boolean or
    formula when ``boolean``); temporal bodies see only ``stable``."""
    if depth == 0:
        kinds = ("truth", "happened") if boolean else ("literal", "name", "selector")
    else:
        kinds = BOOLEAN_KINDS if boolean else ANY_KINDS + BOOLEAN_KINDS
    kind = draw(st.sampled_from(kinds))

    def sub(inner_names=names, inner_stable=stable, want_boolean=False):
        return draw(sources(inner_names, inner_stable, depth - 1, want_boolean))

    def test():
        return sub(want_boolean=True)

    if kind == "literal":
        return draw(st.sampled_from(LITERALS))
    if kind == "happened" and "happened" not in names:
        kind = "truth"  # `happened` is a lazy let here
    if kind == "truth":
        return draw(st.sampled_from(("true", "false")))
    if kind == "name":
        return draw(st.sampled_from(names))
    if kind == "selector":
        return f"`{draw(st.sampled_from(QUERIED))}`.{draw(st.sampled_from(PROPERTIES))}"
    if kind == "member":
        return f"({sub()}).{draw(st.sampled_from(PROPERTIES + ('length', 'a')))}"
    if kind == "index":
        return f"({sub()})[{sub()}]"
    if kind == "builtin":
        name = draw(st.sampled_from(sorted(BUILTINS)))
        if name in ("count", "texts", "present", "visibleCount"):
            return f"{name}(`{draw(st.sampled_from(QUERIED))}`)"
        arity = BUILTINS[name] + draw(st.sampled_from((0, 0, 0, 1)))
        return f"{name}({', '.join(sub() for _ in range(arity))})"
    if kind == "present":
        return f"present(`{draw(st.sampled_from(QUERIED))}`)"
    if kind == "function":
        name = draw(st.sampled_from(sorted(USER_FUNCTIONS)))
        return f"{name}({', '.join(sub() for _ in range(USER_FUNCTIONS[name]))})"
    if kind == "both":
        return f"both({test()}, {test()})"
    if kind == "block":
        inner_names, inner_stable, lets = list(names), list(stable), []
        for _ in range(draw(st.integers(1, 2))):
            name = draw(st.sampled_from(BLOCK_NAMES))
            lazy = draw(st.booleans())
            lets.append(f"let {'~' if lazy else ''}{name} = "
                        f"{sub(tuple(inner_names), tuple(inner_stable))};")
            inner_names.append(name)
            if lazy:
                inner_stable = [n for n in inner_stable if n != name]
            else:
                inner_stable.append(name)
        result = sub(tuple(inner_names), tuple(inner_stable), boolean)
        return "{ " + " ".join(lets) + f" {result} }}"
    if kind == "if":
        branches = (sub(want_boolean=boolean), sub(want_boolean=boolean))
        return f"if ({test()}) {{ {branches[0]} }} else {{ {branches[1]} }}"
    if kind == "connective":
        op = draw(st.sampled_from(("&&", "||", "==>")))
        return f"({test()}) {op} ({test()})"
    if kind == "temporal":
        op = draw(st.sampled_from(("next", "always{2}", "eventually{1}",
                                   "until{2}")))
        if op == "until{2}":
            return (f"({sub(stable, stable, True)}) until{{2}} "
                    f"({sub(stable, stable, True)})")
        return f"{op} ({sub(stable, stable, True)})"
    if kind == "happened":
        left = draw(st.sampled_from(names + ('"tick?"', "1")))
        return f"{left} in happened"
    if kind == "compare":
        return f"({sub()}) {draw(st.sampled_from(('==', '!=', '<')))} ({sub()})"
    if kind == "data":
        return f"({sub()}) {draw(st.sampled_from(DATA_OPERATORS))} ({sub()})"
    if kind == "not":
        return f"!({test()})"
    if kind == "unary":
        return f"{draw(st.sampled_from(('!', '-')))}({sub()})"
    if kind == "array":
        return f"[{sub()}, {sub()}]"
    return f"{{a: {sub()}, b: {sub()}}}"


@pytest.fixture(scope="module")
def prelude():
    return load_module(PRELUDE)


#: Mostly a state over some of the queried selectors; sometimes none.
STATES = st.integers(0, 9).flatmap(
    lambda k: st.none() if k == 0 else state_snapshots(selector_pool=QUERIED)
)


@given(source=sources(boolean=True) | sources(), state=STATES,
       seed=st.integers(0, 3))
@examples(400)
def test_generated_expressions_agree(prelude, source, state, seed):
    expr = parse_expression(source)
    assert_same(
        outcome(reference_eval.evaluate, expr, prelude.env, state, seed, 3),
        outcome(evaluate, expr, prelude.env, state, seed, 3),
        source,
    )
