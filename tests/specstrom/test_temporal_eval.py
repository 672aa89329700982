"""Temporal evaluation: formula building, staging, and the evovae example."""

import pytest

from repro.quickltl import FormulaChecker, Verdict
from repro.specstrom import (
    EvalContext,
    FormulaValue,
    SpecEvalError,
    evaluate,
    load_module,
    parse_expression,
    to_formula,
)
from repro.specstrom.ast_nodes import Var

from .helpers import element, run_expr, snapshot


def states(*texts):
    return [snapshot({"#x": [element(text=t)]}, version=i) for i, t in enumerate(texts)]


def check_formula(value, trace):
    checker = FormulaChecker(to_formula(value))
    verdict = Verdict.DEMAND
    for state in trace:
        verdict = checker.observe(state)
    return verdict, checker


class TestFormulaBuilding:
    def test_temporal_operator_yields_formula_value(self):
        state = states("a")[0]
        value = run_expr("always{0} (`#x`.text == \"a\")", state=state)
        assert isinstance(value, FormulaValue)

    def test_default_subscript_applied(self):
        from repro.quickltl import Always

        state = states("a")[0]
        value = run_expr("always (`#x`.text == \"a\")", state=state, default_subscript=7)
        assert isinstance(value.formula, Always)
        assert value.formula.n == 7

    def test_bool_and_formula_mix(self):
        state = states("a")[0]
        value = run_expr("true && next (`#x`.text == \"b\")", state=state)
        assert isinstance(value, FormulaValue)

    def test_formula_rejected_as_data(self):
        state = states("a")[0]
        with pytest.raises(SpecEvalError):
            run_expr("(next true) == 1", state=state)

    def test_formula_rejected_as_if_condition(self):
        state = states("a")[0]
        with pytest.raises(SpecEvalError):
            run_expr("if next true { 1 } else { 2 }", state=state)


class TestCheckingAgainstTraces:
    def test_safety_invariant(self):
        trace = states("a", "a", "a")
        value = run_expr("always{0} (`#x`.text == \"a\")", state=trace[0])
        verdict, _ = check_formula(value, trace)
        assert verdict is Verdict.PROBABLY_TRUE

    def test_safety_violation(self):
        trace = states("a", "b")
        value = run_expr("always{0} (`#x`.text == \"a\")", state=trace[0])
        verdict, _ = check_formula(value, trace)
        assert verdict is Verdict.DEFINITELY_FALSE

    def test_liveness_witness(self):
        trace = states("a", "a", "done")
        value = run_expr("eventually{0} (`#x`.text == \"done\")", state=trace[0])
        verdict, _ = check_formula(value, trace)
        assert verdict is Verdict.DEFINITELY_TRUE

    def test_next_reads_following_state(self):
        trace = states("a", "b")
        value = run_expr("next (`#x`.text == \"b\")", state=trace[0])
        verdict, _ = check_formula(value, trace)
        assert verdict is Verdict.DEFINITELY_TRUE

    def test_lazy_binding_tracks_state(self):
        module = load_module(
            'let ~current = `#x`.text; let ~prop = always{0} (current != "bad");'
        )
        formula = to_formula(
            evaluate(Var("prop"), module.env, EvalContext(state=states("a")[0]))
        )
        checker = FormulaChecker(formula)
        assert checker.observe(states("a")[0]) is Verdict.PROBABLY_TRUE
        assert checker.observe(states("bad")[0]) is Verdict.DEFINITELY_FALSE


class TestEvovae:
    """The Section 3.1 example: ``evovae(x)`` must freeze x's *initial*
    value and compare all later values against it -- which requires a lazy
    parameter plus a strict local let."""

    SOURCE = """
    let ~txt = `#x`.text;
    let evovae(~x) = { let v = x; always{0} (x == v) };
    let ~prop = evovae(txt);
    """

    def build(self, first_state):
        module = load_module(self.SOURCE)
        ctx = EvalContext(state=first_state)
        return to_formula(evaluate(Var("prop"), module.env, ctx))

    def test_holds_while_value_unchanged(self):
        trace = states("same", "same", "same")
        checker = FormulaChecker(self.build(trace[0]))
        for state in trace:
            verdict = checker.observe(state)
        assert verdict is Verdict.PROBABLY_TRUE

    def test_fails_when_value_changes(self):
        trace = states("orig", "orig", "changed")
        checker = FormulaChecker(self.build(trace[0]))
        verdicts = [checker.observe(s) for s in trace]
        assert verdicts[-1] is Verdict.DEFINITELY_FALSE

    def test_strict_parameter_is_trivially_true(self):
        """With a strict parameter, x is evaluated once at call time and
        the property degenerates to ``always (v == v)`` -- the pitfall
        the paper's ~ annotation exists to avoid."""
        module = load_module(
            """
            let ~txt = `#x`.text;
            let evovae_strict(x) = { let v = x; always{0} (x == v) };
            let ~prop = evovae_strict(txt);
            """
        )
        trace = states("orig", "changed", "other")
        ctx = EvalContext(state=trace[0])
        formula = to_formula(evaluate(Var("prop"), module.env, ctx))
        checker = FormulaChecker(formula)
        for state in trace:
            verdict = checker.observe(state)
        assert verdict is Verdict.PROBABLY_TRUE  # trivially: never fails


class TestStrictLetInsideTemporalBody:
    """A strict let inside an always-body freezes per unroll state: the
    egg timer's ``ticking`` uses this to say time decrements by one."""

    SOURCE = """
    let ~time = parseInt(`#x`.text);
    let ~decrements = always{0} { let old = time; next (time == old - 1) };
    """

    def test_decrementing_counter_satisfies(self):
        module = load_module(self.SOURCE)
        trace = states("5", "4", "3", "2")
        ctx = EvalContext(state=trace[0])
        formula = to_formula(evaluate(Var("decrements"), module.env, ctx))
        checker = FormulaChecker(formula)
        verdicts = [checker.observe(s) for s in trace]
        assert Verdict.DEFINITELY_FALSE not in verdicts

    def test_jump_is_caught(self):
        module = load_module(self.SOURCE)
        trace = states("5", "4", "1")
        ctx = EvalContext(state=trace[0])
        formula = to_formula(evaluate(Var("decrements"), module.env, ctx))
        checker = FormulaChecker(formula)
        verdicts = [checker.observe(s) for s in trace]
        assert verdicts[-1] is Verdict.DEFINITELY_FALSE


class TestQuotes:
    """A temporal body is quoted over the values of its free names, so
    re-quoting it over values the evaluator cannot tell apart yields the
    node already built, and over any other values a different node."""

    SOURCE = """
    let ~txt = `#x`.text;
    let steady(v) = next (txt == v);
    """

    def quoted(self, module, argument, state):
        call = parse_expression(f"steady({argument})")
        return to_formula(evaluate(call, module.env, EvalContext(state=state)))

    def test_equal_captured_values_share_one_node(self):
        module = load_module(self.SOURCE)
        first, second = states("a", "a")
        assert self.quoted(module, "txt", first) is self.quoted(module, "txt", second)
        assert self.quoted(module, "[1, {k: \"a\"}]", first) is self.quoted(
            module, "[1, {k: \"a\"}]", second
        )

    def test_values_the_evaluator_can_tell_apart_stay_apart(self):
        module = load_module(self.SOURCE)
        state = states("a")[0]
        arguments = ["true", "1", "1.5", "\"1\"", "[1]", "[true]", "null",
                     "{k: 1}", "{k: true}"]
        nodes = [self.quoted(module, argument, state) for argument in arguments]
        assert len({id(node) for node in nodes}) == len(arguments)
        assert self.quoted(module, "txt", state) is not self.quoted(
            module, "txt", states("b")[0]
        )

    def test_captured_elements_are_keyed_by_field_type(self):
        # ElementSnapshot(checked=1) == ElementSnapshot(checked=True) and
        # they hash alike, yet `1 == true` is false: a quote capturing
        # one must not intern to the node capturing the other.
        from repro.specstrom import ElementSnapshot, StateSnapshot

        check = load_module(
            """
            let ~el = first(elements(`input`));
            let ~prop = { let e = el; next (e.checked == true) };
            check prop;
            """
        ).checks[0]

        def box(checked):
            return StateSnapshot(
                queries={"input": (ElementSnapshot("input", checked=checked),)}
            )

        alone = FormulaChecker(check.formula)
        alone.observe(box(1))
        assert alone.observe(box(True)) is Verdict.DEFINITELY_FALSE
        ticked = FormulaChecker(check.formula)
        ticked.observe(box(True))
        as_int = FormulaChecker(check.formula)
        as_int.observe(box(1))
        assert as_int.residual is not ticked.residual
        assert as_int.observe(box(True)) is Verdict.DEFINITELY_FALSE
        assert ticked.observe(box(True)) is Verdict.DEFINITELY_TRUE

    def test_captured_element_equality_agrees_with_its_fields(self):
        # Over a checked=1 then a checked=true state, `e.checked ==
        # el.checked` is false, so `e == el` must be false too: element
        # equality compares every field by Specstrom's own rules.
        from repro.specstrom import ElementSnapshot, StateSnapshot

        module = load_module(
            """
            let ~el = first(elements(`input`));
            let ~same = { let e = el; next (e == el) };
            let ~agrees = {
              let e = el;
              next ((e == el) == (e.checked == el.checked))
            };
            check same agrees;
            """
        )

        def box(checked):
            return StateSnapshot(
                queries={"input": (ElementSnapshot("input", checked=checked),)}
            )

        expected = {"same": Verdict.DEFINITELY_FALSE,
                    "agrees": Verdict.DEFINITELY_TRUE}
        for check in module.checks:
            checker = FormulaChecker(check.formula)
            checker.observe(box(1))
            assert checker.observe(box(True)) is expected[check.name]

    def test_strict_let_may_quote_later_definitions(self):
        # The body names an action and a let bound after the strict
        # ``p`` is evaluated; both are looked up once it is forced.
        module = load_module(
            """
            let p = always{0} (go! in happened || `#x`.text == limit);
            let limit = "ok";
            action go! = click!(`#x`);
            check p;
            """
        )
        formula = module.checks[0].formula
        trace = [snapshot({"#x": [element(text="ok")]}, version=0),
                 snapshot({"#x": [element(text="no")]}, ["go!"], version=1)]
        verdict, _ = check_formula(FormulaValue(formula), trace)
        assert verdict is Verdict.PROBABLY_TRUE
        bad = trace + [snapshot({"#x": [element(text="no")]}, version=2)]
        verdict, _ = check_formula(FormulaValue(formula), bad)
        assert verdict is Verdict.DEFINITELY_FALSE
