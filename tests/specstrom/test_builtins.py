"""Built-in functions: state queries, helpers, action primitives."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.specstrom import PrimitiveAction, PrimitiveEvent, SpecEvalError

from .helpers import element, run_expr, snapshot
from tests.strategies import examples


STATE = snapshot(
    {
        ".items li": [
            element(tag="li", text="alpha", classes=["completed"]),
            element(tag="li", text="beta", visible=False),
            element(tag="li", text="gamma"),
        ],
        "#missing": [],
    }
)


class TestStateQueryBuiltins:
    def test_elements_and_count(self):
        assert run_expr("count(`.items li`)", state=STATE) == 3
        assert run_expr("length(elements(`.items li`))", state=STATE) == 3

    def test_visible_variants(self):
        assert run_expr("visibleCount(`.items li`)", state=STATE) == 2
        assert run_expr("visibleTexts(`.items li`)", state=STATE) == ["alpha", "gamma"]

    def test_present_and_visible(self):
        assert run_expr("present(`.items li`)", state=STATE) is True
        assert run_expr("present(`#missing`)", state=STATE) is False
        assert run_expr("visible(`.items li`)", state=STATE) is True

    def test_texts_and_props(self):
        assert run_expr("texts(`.items li`)", state=STATE) == ["alpha", "beta", "gamma"]
        assert run_expr('props(`.items li`, "visible")', state=STATE) == [
            True, False, True,
        ]

    def test_attribute(self):
        state = snapshot({"#x": [element(attributes={"data-k": "v"})]})
        assert run_expr('attribute(first(elements(`#x`)), "data-k")', state=state) == "v"
        assert run_expr('attribute(null, "k")', state=state) is None

    def test_count_of_list_and_string(self):
        assert run_expr("count([1,2,3])") == 3
        assert run_expr('count("abcd")') == 4


class TestParsing:
    @pytest.mark.parametrize(
        "source, expected",
        [
            ('parseInt("42")', 42),
            ('parseInt(" 42 ")', 42),
            ('parseInt("-7")', -7),
            ('parseInt("42px")', 42),
            ('parseInt("x42")', None),
            ('parseInt("")', None),
            ("parseInt(null)", None),
            ("parseInt(3.9)", 3),
            ('parseFloat("2.5")', 2.5),
            ('parseFloat("nope")', None),
        ],
    )
    def test_parse_functions(self, source, expected):
        assert run_expr(source) == expected


class TestStringHelpers:
    def test_trim(self):
        assert run_expr('trim("  x ")') == "x"
        assert run_expr("trim(null)") is None

    def test_predicates(self):
        assert run_expr('startsWith("abc", "ab")') is True
        assert run_expr('endsWith("abc", "bc")') is True
        assert run_expr('contains("abc", "b")') is True

    def test_join_split_substring(self):
        assert run_expr('join(["a", "b"], "-")') == "a-b"
        assert run_expr('split("a-b", "-")') == ["a", "b"]
        assert run_expr('substring("hello", 1, 3)') == "el"

    def test_to_string(self):
        assert run_expr("toString(42)") == "42"
        assert run_expr("toString(2.0)") == "2"
        assert run_expr("toString(true)") == "true"
        assert run_expr("toString(null)") == "null"


class TestListHelpers:
    def test_access(self):
        assert run_expr("first([1,2])") == 1
        assert run_expr("last([1,2])") == 2
        assert run_expr("first([])") is None
        assert run_expr("nth([1,2,3], 1)") == 2
        assert run_expr("nth([1], 9)") is None

    def test_structure(self):
        assert run_expr("isEmpty([])") is True
        assert run_expr("range(3)") == [0, 1, 2]
        assert run_expr("indexOf([5,6], 6)") == 1
        assert run_expr("indexOf([5,6], 9)") == -1
        assert run_expr("zip([1,2],[3,4])") == [[1, 3], [2, 4]]
        assert run_expr("append([1], 2)") == [1, 2]
        assert run_expr("removeAt([1,2,3], 1)") == [1, 3]
        assert run_expr("setAt([1,2,3], 1, 9)") == [1, 9, 3]

    def test_is_subsequence(self):
        assert run_expr("isSubsequence([1,3], [1,2,3])") is True
        assert run_expr("isSubsequence([3,1], [1,2,3])") is False
        assert run_expr("isSubsequence([], [1])") is True
        assert run_expr("isSubsequence([1], [])") is False

    @given(st.lists(st.integers(0, 5), max_size=8),
           st.lists(st.booleans(), max_size=8))
    @examples(100)
    def test_subsequence_by_deletion_property(self, items, keep_flags):
        flags = (keep_flags + [True] * len(items))[: len(items)]
        kept = [x for x, keep in zip(items, flags) if keep]
        from repro.specstrom.builtins import _bi_is_subsequence
        from repro.specstrom.eval import EvalContext

        assert _bi_is_subsequence(EvalContext(), kept, items) is True


class TestHigherOrder:
    SETUP = "let isBig(x) = x > 2; let inc(x) = x + 1;"

    def run(self, expr):
        from repro.specstrom import load_module

        module = load_module(f"{self.SETUP} let result = {expr};")
        return module.env.lookup("result")

    def test_map_filter(self):
        assert self.run("map(inc, [1,2])") == [2, 3]
        assert self.run("filter(isBig, [1,3,5])") == [3, 5]

    def test_all_any(self):
        assert self.run("all(isBig, [3,4])") is True
        assert self.run("all(isBig, [1,4])") is False
        assert self.run("any(isBig, [1,4])") is True

    def test_find_index(self):
        assert self.run("findIndex(isBig, [1,2,3,4])") == 2
        assert self.run("findIndex(isBig, [1,2])") == -1


class TestNumeric:
    def test_abs_min_max(self):
        assert run_expr("abs(0 - 5)") == 5
        assert run_expr("min(2, 3)") == 2
        assert run_expr("max(2, 3)") == 3


class TestRandomness:
    def test_random_text_requires_rng(self):
        with pytest.raises(SpecEvalError, match="RNG"):
            run_expr("randomText()")

    def test_random_text_distribution(self):
        rng = random.Random(7)
        texts = [run_expr("randomText()", rng=rng) for _ in range(300)]
        assert any(t == "" for t in texts)
        assert any(t and t.strip() == "" for t in texts)  # whitespace-only
        assert any(t.strip() for t in texts)

    def test_random_int(self):
        rng = random.Random(1)
        value = run_expr("randomInt(3, 5)", rng=rng)
        assert 3 <= value <= 5


class TestActionPrimitives:
    def test_click_builds_primitive(self):
        value = run_expr("click!(`#go`)")
        assert value == PrimitiveAction("click", "#go")

    def test_input_with_text(self):
        value = run_expr('input!(`#f`, "hi")')
        assert value == PrimitiveAction("input", "#f", ("hi",))

    def test_changed_builds_event(self):
        value = run_expr("changed?(`#label`)")
        assert value == PrimitiveEvent("changed", "#label")

    def test_noop_and_reload_are_values(self):
        assert run_expr("noop!") == PrimitiveAction("noop")
        assert run_expr("reload!") == PrimitiveAction("reload")

    def test_ccs_primitive(self):
        assert run_expr('ccs!("coin")') == PrimitiveAction("ccs", "coin")

    def test_selector_argument_enforced(self):
        with pytest.raises(SpecEvalError):
            run_expr('click!("not-a-selector")')


class TestOddOperands:
    """Builtins, indexing and ``in`` answer every operand with a value
    or a :class:`SpecEvalError` naming themselves, never a bare Python
    exception; booleans are not integer indices anywhere."""

    @pytest.mark.parametrize(
        "source, message",
        [
            ('split("abc", "")', "split needs a non-empty separator"),
            ('substring("abc", null, 2)', "substring needs numbers, got null"),
            ('substring("abc", 0, null)', "substring needs numbers, got null"),
            ('substring("abc", "x", 2)', "substring needs numbers, got 'x'"),
            ("randomInt(null, 3)", "randomInt needs numbers, got null"),
            ('randomInt("a", 3)', "randomInt needs numbers, got 'a'"),
            ("randomInt(3, 1)", "randomInt needs low <= high, got 3 and 1"),
            ("map(props, [1])", r"props expects 2 argument\(s\), got 1"),
        ],
    )
    def test_raises_spec_eval_error(self, source, message):
        with pytest.raises(SpecEvalError, match=message):
            run_expr(source, rng=random.Random(0))

    @pytest.mark.parametrize(
        "source, expected",
        [
            ("[1, 2] in {a: 1}", False),
            ("1 in {a: 1}", False),
            ('"a" in {a: 1}', True),
            ("{a: 1}[[1]]", None),
            ("nth([1, 2], true)", None),
            ("removeAt([1, 2], true)", [1, 2]),
            ("setAt([1, 2], true, 9)", [1, 2]),
            ('parseInt(parseFloat("inf"))', None),
        ],
    )
    def test_answers_with_a_value(self, source, expected):
        assert run_expr(source) == expected

    def test_boolean_list_index_is_still_rejected(self):
        with pytest.raises(SpecEvalError, match="list index must be an integer"):
            run_expr("[1, 2][true]")
