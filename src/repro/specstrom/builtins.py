"""Specstrom built-in functions, primitives and the global environment.

Three groups:

* **State queries**: ``elements``, ``count``, ``present``, ``visible``,
  ``texts`` ... -- read the current snapshot through the selectors in the
  dependency set.
* **Pure helpers**: ``parseInt``, string utilities, list combinators
  (``map``/``filter``/``all``/``any`` take *function* arguments -- the
  higher-order part of the language).
* **Action/event primitives**: ``click!``, ``input!``, ``changed?``, ...
  returning :class:`PrimitiveAction`/:class:`PrimitiveEvent` values; see
  :mod:`repro.specstrom.actions`.

``randomText()`` draws from the checker's RNG at action-fire time.  Its
distribution intentionally includes empty and whitespace-padded strings,
because TodoMVC's trimming behaviour (paper, Table 2, problems 4 and 11)
can only be exercised with such inputs.
"""

from __future__ import annotations

import math
import string

from .actions import PrimitiveAction, PrimitiveEvent
from .errors import SpecEvalError
from .eval import HAPPENED, EvalContext, compile_expr
from .state import ElementSnapshot
from .values import (
    BuiltinEvent,
    BuiltinFunction,
    Environment,
    FunctionValue,
    SelectorValue,
    spec_equal,
    spec_repr,
)

__all__ = ["global_environment", "BUILTIN_NAMES"]


def _selector_arg(value, who: str) -> str:
    if not isinstance(value, SelectorValue):
        raise SpecEvalError(f"{who} needs a selector argument, got {spec_repr(value)}")
    return value.css


def _string_arg(value, who: str) -> str:
    if not isinstance(value, str):
        raise SpecEvalError(f"{who} needs a string argument, got {spec_repr(value)}")
    return value


def _list_arg(value, who: str) -> list:
    if not isinstance(value, list):
        raise SpecEvalError(f"{who} needs a list argument, got {spec_repr(value)}")
    return value


def _function_arg(value, who: str):
    if not isinstance(value, (FunctionValue, BuiltinFunction)):
        raise SpecEvalError(f"{who} needs a function argument, got {spec_repr(value)}")
    return value


def _apply(ctx: EvalContext, fn, args: list):
    """Apply a function value to already-evaluated arguments."""
    if fn.arity is not None and len(args) != fn.arity:
        raise SpecEvalError(
            f"{fn.name} expects {fn.arity} argument(s), got {len(args)}"
        )
    if isinstance(fn, BuiltinFunction):
        return fn.fn(ctx, *args)
    frame = fn.env.child()
    for param, value in zip(fn.params, args):
        frame.bind(param.name, value)
    body = fn.body
    return (body._code or compile_expr(body))(frame, ctx.deeper())


# ----------------------------------------------------------------------
# State queries
# ----------------------------------------------------------------------


def _bi_elements(ctx: EvalContext, sel):
    css = _selector_arg(sel, "elements")
    state = ctx.require_state(f"elements(`{css}`)")
    return list(state.elements(css))


def _bi_visible_elements(ctx: EvalContext, sel):
    css = _selector_arg(sel, "visibleElements")
    state = ctx.require_state(f"visibleElements(`{css}`)")
    return list(state.visible_elements(css))


def _bi_count(ctx: EvalContext, value):
    if isinstance(value, SelectorValue):
        state = ctx.require_state(f"count(`{value.css}`)")
        return len(state.elements(value.css))
    if isinstance(value, (list, str)):
        return len(value)
    raise SpecEvalError(f"count needs a selector, list or string, got {spec_repr(value)}")


def _bi_visible_count(ctx: EvalContext, sel):
    css = _selector_arg(sel, "visibleCount")
    state = ctx.require_state(f"visibleCount(`{css}`)")
    return len(state.visible_elements(css))


def _bi_present(ctx: EvalContext, sel):
    css = _selector_arg(sel, "present")
    state = ctx.require_state(f"present(`{css}`)")
    return len(state.elements(css)) > 0


def _bi_visible(ctx: EvalContext, sel):
    css = _selector_arg(sel, "visible")
    state = ctx.require_state(f"visible(`{css}`)")
    return len(state.visible_elements(css)) > 0


def _bi_texts(ctx: EvalContext, sel):
    css = _selector_arg(sel, "texts")
    state = ctx.require_state(f"texts(`{css}`)")
    return [el.text for el in state.elements(css)]


def _bi_visible_texts(ctx: EvalContext, sel):
    css = _selector_arg(sel, "visibleTexts")
    state = ctx.require_state(f"visibleTexts(`{css}`)")
    return [el.text for el in state.visible_elements(css)]


def _bi_props(ctx: EvalContext, sel, name):
    css = _selector_arg(sel, "props")
    prop = _string_arg(name, "props")
    state = ctx.require_state(f"props(`{css}`)")
    return [el.get_property(prop) for el in state.elements(css)]


def _bi_visible_props(ctx: EvalContext, sel, name):
    css = _selector_arg(sel, "visibleProps")
    prop = _string_arg(name, "visibleProps")
    state = ctx.require_state(f"visibleProps(`{css}`)")
    return [el.get_property(prop) for el in state.visible_elements(css)]


def _bi_attribute(ctx: EvalContext, element, name):
    if element is None:
        return None
    if not isinstance(element, ElementSnapshot):
        raise SpecEvalError(f"attribute needs an element, got {spec_repr(element)}")
    return element.attribute(_string_arg(name, "attribute"))


# ----------------------------------------------------------------------
# Pure helpers
# ----------------------------------------------------------------------


def _bi_parse_int(ctx: EvalContext, value):
    if value is None:
        return None
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return int(value) if math.isfinite(value) else None
    if isinstance(value, str):
        text = value.strip()
        sign = 1
        if text and text[0] in "+-":
            sign = -1 if text[0] == "-" else 1
            text = text[1:]
        digits = ""
        for char in text:
            if char.isdigit():
                digits += char
            else:
                break
        if not digits:
            return None
        return sign * int(digits)
    return None


def _bi_parse_float(ctx: EvalContext, value):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value.strip())
        except ValueError:
            return None
    return None


def _bi_length(ctx: EvalContext, value):
    if value is None:
        return None
    if isinstance(value, (list, str, dict)):
        return len(value)
    raise SpecEvalError(f"length needs a list, string or object, got {spec_repr(value)}")


def _bi_trim(ctx: EvalContext, value):
    if value is None:
        return None
    return _string_arg(value, "trim").strip()


def _bi_starts_with(ctx: EvalContext, value, prefix):
    return _string_arg(value, "startsWith").startswith(_string_arg(prefix, "startsWith"))


def _bi_ends_with(ctx: EvalContext, value, suffix):
    return _string_arg(value, "endsWith").endswith(_string_arg(suffix, "endsWith"))


def _bi_contains(ctx: EvalContext, haystack, needle):
    if isinstance(haystack, str):
        return _string_arg(needle, "contains") in haystack
    if isinstance(haystack, list):
        return any(spec_equal(needle, item) for item in haystack)
    raise SpecEvalError(f"contains needs a string or list, got {spec_repr(haystack)}")


def _bi_join(ctx: EvalContext, items, sep):
    parts = [_string_arg(i, "join item") for i in _list_arg(items, "join")]
    return _string_arg(sep, "join").join(parts)


def _bi_split(ctx: EvalContext, value, sep):
    text = _string_arg(value, "split")
    if not _string_arg(sep, "split"):
        raise SpecEvalError("split needs a non-empty separator")
    return text.split(sep)


def _bi_substring(ctx: EvalContext, value, start, end):
    text = _string_arg(value, "substring")
    return text[_integer_arg(start, "substring") : _integer_arg(end, "substring")]


def _bi_first(ctx: EvalContext, items):
    items = _list_arg(items, "first")
    return items[0] if items else None


def _bi_last(ctx: EvalContext, items):
    items = _list_arg(items, "last")
    return items[-1] if items else None


def _bi_nth(ctx: EvalContext, items, index):
    items = _list_arg(items, "nth")
    return items[index] if _is_position(index, items) else None


def _is_position(index, items: list) -> bool:
    """Is ``index`` an integer (booleans are not) position in ``items``?"""
    return (
        isinstance(index, int)
        and not isinstance(index, bool)
        and 0 <= index < len(items)
    )


def _bi_is_empty(ctx: EvalContext, items):
    if isinstance(items, (list, str, dict)):
        return len(items) == 0
    raise SpecEvalError(f"isEmpty needs a list, string or object, got {spec_repr(items)}")


def _bi_range(ctx: EvalContext, n):
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise SpecEvalError(f"range needs a non-negative integer, got {spec_repr(n)}")
    return list(range(n))


def _bi_index_of(ctx: EvalContext, items, value):
    for i, item in enumerate(_list_arg(items, "indexOf")):
        if spec_equal(item, value):
            return i
    return -1


def _bi_map(ctx: EvalContext, fn, items):
    fn = _function_arg(fn, "map")
    return [_apply(ctx, fn, [item]) for item in _list_arg(items, "map")]


def _bi_filter(ctx: EvalContext, fn, items):
    fn = _function_arg(fn, "filter")
    kept = []
    for item in _list_arg(items, "filter"):
        keep = _apply(ctx, fn, [item])
        if not isinstance(keep, bool):
            raise SpecEvalError("filter predicate must return a boolean")
        if keep:
            kept.append(item)
    return kept


def _bi_all(ctx: EvalContext, fn, items):
    fn = _function_arg(fn, "all")
    for item in _list_arg(items, "all"):
        result = _apply(ctx, fn, [item])
        if not isinstance(result, bool):
            raise SpecEvalError("all predicate must return a boolean")
        if not result:
            return False
    return True


def _bi_any(ctx: EvalContext, fn, items):
    fn = _function_arg(fn, "any")
    for item in _list_arg(items, "any"):
        result = _apply(ctx, fn, [item])
        if not isinstance(result, bool):
            raise SpecEvalError("any predicate must return a boolean")
        if result:
            return True
    return False


def _bi_zip(ctx: EvalContext, left, right):
    return [
        [a, b]
        for a, b in zip(_list_arg(left, "zip"), _list_arg(right, "zip"))
    ]


def _bi_abs(ctx: EvalContext, value):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return abs(value)
    raise SpecEvalError(f"abs needs a number, got {spec_repr(value)}")


def _bi_min(ctx: EvalContext, a, b):
    return a if _numeric(a, "min") <= _numeric(b, "min") else b


def _bi_max(ctx: EvalContext, a, b):
    return a if _numeric(a, "max") >= _numeric(b, "max") else b


def _numeric(value, who: str):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecEvalError(f"{who} needs numbers, got {spec_repr(value)}")
    return value


def _integer_arg(value, who: str) -> int:
    """A finite number, truncated to an integer."""
    number = _numeric(value, who)
    if isinstance(number, float) and not math.isfinite(number):
        raise SpecEvalError(f"{who} needs finite numbers, got {spec_repr(value)}")
    return int(number)


def _bi_to_string(ctx: EvalContext, value):
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def _bi_append(ctx: EvalContext, items, value):
    return _list_arg(items, "append") + [value]


def _bi_remove_at(ctx: EvalContext, items, index):
    items = _list_arg(items, "removeAt")
    if not _is_position(index, items):
        return list(items)
    return items[:index] + items[index + 1:]


def _bi_set_at(ctx: EvalContext, items, index, value):
    items = _list_arg(items, "setAt")
    if not _is_position(index, items):
        return list(items)
    return items[:index] + [value] + items[index + 1:]


def _bi_find_index(ctx: EvalContext, fn, items):
    fn = _function_arg(fn, "findIndex")
    for i, item in enumerate(_list_arg(items, "findIndex")):
        result = _apply(ctx, fn, [item])
        if not isinstance(result, bool):
            raise SpecEvalError("findIndex predicate must return a boolean")
        if result:
            return i
    return -1


def _bi_is_subsequence(ctx: EvalContext, needle, haystack):
    """Is ``needle`` a (not necessarily contiguous) subsequence of
    ``haystack``?  Used to specify deletions: the remaining items must be
    the old list with some entries removed, in order."""
    needle = _list_arg(needle, "isSubsequence")
    haystack = _list_arg(haystack, "isSubsequence")
    position = 0
    for wanted in needle:
        while position < len(haystack) and not spec_equal(haystack[position], wanted):
            position += 1
        if position >= len(haystack):
            return False
        position += 1
    return True


_TEXT_ALPHABET = string.ascii_lowercase + "     "


def _bi_random_text(ctx: EvalContext):
    """Random item text: occasionally empty or whitespace-only, so that
    input-trimming behaviour gets exercised."""
    if ctx.rng is None:
        raise SpecEvalError(
            "randomText() is only available while selecting actions "
            "(it needs the checker's RNG)"
        )
    roll = ctx.rng.random()
    if roll < 0.08:
        return ""
    if roll < 0.16:
        return " " * ctx.rng.randint(1, 3)
    length = ctx.rng.randint(1, 10)
    text = "".join(ctx.rng.choice(_TEXT_ALPHABET) for _ in range(length))
    if ctx.rng.random() < 0.2:
        text = " " + text + " "
    return text


def _bi_random_int(ctx: EvalContext, low, high):
    if ctx.rng is None:
        raise SpecEvalError("randomInt() is only available while selecting actions")
    low, high = _integer_arg(low, "randomInt"), _integer_arg(high, "randomInt")
    if low > high:
        raise SpecEvalError(f"randomInt needs low <= high, got {low} and {high}")
    return ctx.rng.randint(low, high)


# ----------------------------------------------------------------------
# Action and event primitives
# ----------------------------------------------------------------------


def _bi_click(ctx: EvalContext, sel):
    return PrimitiveAction("click", _selector_arg(sel, "click!"))


def _bi_dblclick(ctx: EvalContext, sel):
    return PrimitiveAction("dblclick", _selector_arg(sel, "dblclick!"))


def _bi_hover(ctx: EvalContext, sel):
    return PrimitiveAction("hover", _selector_arg(sel, "hover!"))


def _bi_focus(ctx: EvalContext, sel):
    return PrimitiveAction("focus", _selector_arg(sel, "focus!"))


def _bi_clear(ctx: EvalContext, sel):
    return PrimitiveAction("clear", _selector_arg(sel, "clear!"))


def _bi_input(ctx: EvalContext, sel, text):
    return PrimitiveAction(
        "input", _selector_arg(sel, "input!"), (_string_arg(text, "input!"),)
    )


def _bi_press_key(ctx: EvalContext, sel, key):
    return PrimitiveAction(
        "pressKey", _selector_arg(sel, "pressKey!"), (_string_arg(key, "pressKey!"),)
    )


def _bi_changed(ctx: EvalContext, sel):
    return PrimitiveEvent("changed", _selector_arg(sel, "changed?"))


def _bi_ccs(ctx: EvalContext, label):
    """A CCS model action: performs the given label (CCS executor only)."""
    if isinstance(label, SelectorValue):
        label = label.css
    return PrimitiveAction("ccs", _string_arg(label, "ccs!"))


_BUILTINS = [
    # state queries
    BuiltinFunction("elements", _bi_elements, 1),
    BuiltinFunction("visibleElements", _bi_visible_elements, 1),
    BuiltinFunction("count", _bi_count, 1),
    BuiltinFunction("visibleCount", _bi_visible_count, 1),
    BuiltinFunction("present", _bi_present, 1),
    BuiltinFunction("visible", _bi_visible, 1),
    BuiltinFunction("texts", _bi_texts, 1),
    BuiltinFunction("visibleTexts", _bi_visible_texts, 1),
    BuiltinFunction("props", _bi_props, 2),
    BuiltinFunction("visibleProps", _bi_visible_props, 2),
    BuiltinFunction("attribute", _bi_attribute, 2),
    # pure helpers
    BuiltinFunction("parseInt", _bi_parse_int, 1),
    BuiltinFunction("parseFloat", _bi_parse_float, 1),
    BuiltinFunction("length", _bi_length, 1),
    BuiltinFunction("trim", _bi_trim, 1),
    BuiltinFunction("startsWith", _bi_starts_with, 2),
    BuiltinFunction("endsWith", _bi_ends_with, 2),
    BuiltinFunction("contains", _bi_contains, 2),
    BuiltinFunction("join", _bi_join, 2),
    BuiltinFunction("split", _bi_split, 2),
    BuiltinFunction("substring", _bi_substring, 3),
    BuiltinFunction("first", _bi_first, 1),
    BuiltinFunction("last", _bi_last, 1),
    BuiltinFunction("nth", _bi_nth, 2),
    BuiltinFunction("isEmpty", _bi_is_empty, 1),
    BuiltinFunction("range", _bi_range, 1),
    BuiltinFunction("indexOf", _bi_index_of, 2),
    BuiltinFunction("map", _bi_map, 2),
    BuiltinFunction("filter", _bi_filter, 2),
    BuiltinFunction("all", _bi_all, 2),
    BuiltinFunction("any", _bi_any, 2),
    BuiltinFunction("zip", _bi_zip, 2),
    BuiltinFunction("abs", _bi_abs, 1),
    BuiltinFunction("min", _bi_min, 2),
    BuiltinFunction("max", _bi_max, 2),
    BuiltinFunction("toString", _bi_to_string, 1),
    BuiltinFunction("append", _bi_append, 2),
    BuiltinFunction("removeAt", _bi_remove_at, 2),
    BuiltinFunction("setAt", _bi_set_at, 3),
    BuiltinFunction("findIndex", _bi_find_index, 2),
    BuiltinFunction("isSubsequence", _bi_is_subsequence, 2),
    BuiltinFunction("randomText", _bi_random_text, 0),
    BuiltinFunction("randomInt", _bi_random_int, 2),
    # action primitives
    BuiltinFunction("click!", _bi_click, 1),
    BuiltinFunction("dblclick!", _bi_dblclick, 1),
    BuiltinFunction("hover!", _bi_hover, 1),
    BuiltinFunction("focus!", _bi_focus, 1),
    BuiltinFunction("clear!", _bi_clear, 1),
    BuiltinFunction("input!", _bi_input, 2),
    BuiltinFunction("pressKey!", _bi_press_key, 2),
    BuiltinFunction("changed?", _bi_changed, 1),
    BuiltinFunction("ccs!", _bi_ccs, 1),
]

BUILTIN_NAMES = frozenset(b.name for b in _BUILTINS) | {
    "noop!",
    "reload!",
    "loaded?",
    "tau?",
    "happened",
}


def global_environment() -> Environment:
    """A fresh global environment with all builtins bound."""
    env = Environment()
    for builtin in _BUILTINS:
        env.bind(builtin.name, builtin)
    env.bind("noop!", PrimitiveAction("noop"))
    env.bind("reload!", PrimitiveAction("reload"))
    env.bind("loaded?", BuiltinEvent("loaded?"))
    env.bind("tau?", BuiltinEvent("tau?"))
    env.bind("happened", HAPPENED)
    return env
