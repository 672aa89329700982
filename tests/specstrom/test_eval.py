"""The Specstrom evaluator: data operations and state queries."""

import pytest

from repro.specstrom import (
    SpecEvalError,
    StateQueryOutsideStateError,
)

from .helpers import element, run_expr, snapshot


class TestLiteralsAndOperators:
    def test_arithmetic(self):
        assert run_expr("1 + 2 * 3") == 7
        assert run_expr("10 - 4") == 6
        assert run_expr("7 % 3") == 1

    def test_division_is_exact_when_possible(self):
        assert run_expr("6 / 3") == 2
        assert run_expr("7 / 2") == 3.5

    def test_division_by_zero_is_null(self):
        assert run_expr("1 / 0") is None
        assert run_expr("1 % 0") is None

    def test_string_concatenation(self):
        assert run_expr('"a" + "b"') == "ab"

    def test_mixed_string_number_addition_rejected(self):
        with pytest.raises(SpecEvalError):
            run_expr('"a" + 1')

    def test_comparisons(self):
        assert run_expr("2 < 3") is True
        assert run_expr('"a" < "b"') is True
        assert run_expr("3 >= 3") is True

    def test_comparison_with_null_is_false(self):
        assert run_expr("null < 3") is False
        assert run_expr("3 < null") is False

    def test_equality_is_structural(self):
        assert run_expr("[1, 2] == [1, 2]") is True
        assert run_expr("{a: 1} == {a: 1}") is True
        assert run_expr("1 == 1.0") is True
        assert run_expr("[1, {a: 2}] == [1.0, {a: 2.0}]") is True
        assert run_expr('["a", "b"] == ["a", "c"]') is False

    def test_bool_not_equal_number(self):
        assert run_expr("true == 1") is False

    def test_null_propagation_in_arithmetic(self):
        assert run_expr("null + 1") is None
        assert run_expr("-null") is None

    def test_logical_short_circuit(self):
        # The right side would error (undefined name) if evaluated.
        assert run_expr("false && nope") is False
        assert run_expr("true || nope") is True
        assert run_expr("false ==> nope") is True

    def test_logical_requires_booleans(self):
        with pytest.raises(SpecEvalError):
            run_expr("1 && true")
        with pytest.raises(SpecEvalError):
            run_expr("true && 1")

    def test_not(self):
        assert run_expr("!false") is True
        with pytest.raises(SpecEvalError):
            run_expr("!1")

    def test_membership(self):
        assert run_expr("2 in [1, 2, 3]") is True
        assert run_expr('"bc" in "abcd"') is True
        assert run_expr('"a" in {a: 1}') is True
        with pytest.raises(SpecEvalError):
            run_expr("1 in 2")


class TestTypeExactEquality:
    """``==`` applies its own rules at every depth: a boolean never
    equals a number, however deeply it is nested."""

    @pytest.mark.parametrize("source", [
        "[1] == [true]",
        "{a: 1} == {a: true}",
        "[[0]] == [[false]]",
        "[{a: [1]}] == [{a: [true]}]",
    ])
    def test_booleans_never_equal_numbers_at_depth(self, source):
        assert run_expr(source) is False
        assert run_expr(source.replace("==", "!=")) is True

    def test_membership_and_search_use_the_same_rules(self):
        assert run_expr("[true] in [[1]]") is False
        assert run_expr("contains([[1]], [true])") is False
        assert run_expr("indexOf([[1], [true]], [true])") == 1
        assert run_expr("isSubsequence([[true]], [[1]])") is False
        assert run_expr("isSubsequence([[1]], [[0], [1.0]])") is True

    def test_elements_compare_fields_by_type(self):
        from repro.specstrom.values import spec_equal

        ticked = element(tag="input", checked=True)
        as_int = element(tag="input", checked=1)
        assert not spec_equal(ticked, as_int)
        assert spec_equal(ticked, element(tag="input", checked=True))
        state = snapshot({"a": [ticked], "b": [as_int]})
        assert run_expr(
            "first(elements(`a`)) == first(elements(`b`))", state=state
        ) is False


class TestIfAndBlocks:
    def test_if_expression(self):
        assert run_expr("if 1 < 2 { 10 } else { 20 }") == 10

    def test_if_condition_must_be_bool(self):
        with pytest.raises(SpecEvalError):
            run_expr("if 1 { 2 } else { 3 }")

    def test_block_strict_bindings(self):
        assert run_expr("{ let x = 2; let y = x * 3; y + 1 }") == 7

    def test_block_shadowing(self):
        assert run_expr("{ let x = 1; { let x = 2; x } + x }") == 3

    def test_block_forward_reference_rejected(self):
        with pytest.raises(SpecEvalError):
            run_expr("{ let ~a = b; let b = 1; a }")


class TestIndexingAndMembers:
    def test_list_indexing(self):
        assert run_expr("[10, 20][1]") == 20

    def test_out_of_range_is_null(self):
        assert run_expr("[10][5]") is None

    def test_string_indexing(self):
        assert run_expr('"abc"[1]') == "b"

    def test_object_member(self):
        assert run_expr("{a: 5}.a") == 5
        assert run_expr("{a: 5}.b") is None

    def test_length_member(self):
        assert run_expr("[1,2,3].length") == 3
        assert run_expr('"abcd".length') == 4

    def test_member_on_null_is_null(self):
        assert run_expr("null.anything") is None

    def test_member_on_number_rejected(self):
        with pytest.raises(SpecEvalError):
            run_expr("(1).x")


class TestStateQueries:
    def state(self):
        return snapshot(
            {
                "#toggle": [element(tag="button", text="start")],
                ".item": [
                    element(tag="li", text="one", classes=["completed"]),
                    element(tag="li", text="two", visible=False),
                ],
                ".none": [],
            },
            happened=["loaded?"],
        )

    def test_selector_member_queries_first_match(self):
        assert run_expr("`#toggle`.text", state=self.state()) == "start"

    def test_selector_member_missing_is_null(self):
        assert run_expr("`.none`.text", state=self.state()) is None

    def test_selector_query_without_state_raises(self):
        with pytest.raises(StateQueryOutsideStateError):
            run_expr("`#toggle`.text")

    def test_happened(self):
        assert run_expr("happened", state=self.state()) == ["loaded?"]
        assert run_expr("loaded? in happened", state=self.state()) is True

    def test_happened_without_state_raises(self):
        with pytest.raises(StateQueryOutsideStateError):
            run_expr("happened")

    def test_element_properties(self):
        state = self.state()
        assert run_expr("first(elements(`.item`)).text", state=state) == "one"
        assert run_expr("first(elements(`.item`)).classes", state=state) == [
            "completed"
        ]
        assert run_expr("nth(elements(`.item`), 1).visible", state=state) is False

    def test_unknown_selector_not_in_dependency_set(self):
        with pytest.raises(Exception):
            run_expr("`#unknown`.text", state=self.state())


class TestFunctions:
    def test_user_function_via_module_env(self):
        from repro.specstrom import load_module

        module = load_module("let double(x) = x * 2; let y = double(21);")
        assert module.env.lookup("y") == 42

    def test_lazy_parameter_defers_evaluation(self):
        """A lazy parameter is re-evaluated at use, so passing a
        state-query works even when the call happens statelessly."""
        from repro.specstrom import load_module, EvalContext, evaluate
        from repro.specstrom.ast_nodes import Var

        module = load_module(
            "let ~t = `#x`.text; let pick(~v) = v; let ~picked = pick(t);"
        )
        state = snapshot({"#x": [element(text="hello")]})
        ctx = EvalContext(state=state)
        assert evaluate(Var("picked"), module.env, ctx) == "hello"

    def test_strict_parameter_evaluated_at_call(self):
        from repro.specstrom import load_module

        with pytest.raises(StateQueryOutsideStateError):
            # pick's strict parameter forces the state query at load time.
            load_module("let pick(v) = v; let picked = pick(`#x`.text);")
