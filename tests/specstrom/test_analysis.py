"""Static dependency analysis (paper, Section 3.3)."""

from repro.specstrom import (
    load_module,
    module_definition_table,
    parse_expression,
    parse_module,
    selector_dependencies,
)


def deps_of(source_module, *roots):
    module = parse_module(source_module)
    table = module_definition_table(module)
    exprs = [parse_expression(r) for r in roots]
    return selector_dependencies(exprs, table)


class TestDirectDependencies:
    def test_selector_member(self):
        assert deps_of("", "`#toggle`.text") == {"#toggle"}

    def test_multiple_selectors(self):
        assert deps_of("", "`#a`.text == `#b`.text") == {"#a", "#b"}

    def test_indirect_dependency_in_condition(self):
        """The paper's example: ``if `#toggle`.enabled {0} else {1}``
        depends on #toggle even though no branch queries it."""
        assert deps_of("", "if `#toggle`.enabled { 0 } else { 1 }") == {"#toggle"}

    def test_builtin_call_argument(self):
        assert deps_of("", "count(`.items li`)") == {".items li"}


class TestTransitiveDependencies:
    MODULE = """
    let ~stopped = `#toggle`.text == "start";
    let ~time = parseInt(`#remaining`.text);
    let ~both = stopped && time == 0;
    let helper(x) = x == `#aux`.text;
    """

    def test_through_lazy_lets(self):
        assert deps_of(self.MODULE, "both") == {"#toggle", "#remaining"}

    def test_through_function_bodies(self):
        assert deps_of(self.MODULE, 'helper("x")') == {"#aux"}

    def test_unreferenced_definitions_excluded(self):
        assert deps_of(self.MODULE, "stopped") == {"#toggle"}

    def test_shared_definitions_visited_once(self):
        assert deps_of(self.MODULE, "both && stopped") == {"#toggle", "#remaining"}

    def test_local_shadowing_respected(self):
        module = """
        let ~stopped = `#toggle`.text == "start";
        """
        # Local binding shadows the top-level name; its selector is the
        # one that counts.
        deps = deps_of(module, "{ let stopped = `#other`.text; stopped }")
        assert deps == {"#other"}


class TestCheckSpecDependencies:
    def test_check_gathers_property_and_action_selectors(self):
        module = load_module(
            """
            let ~ok = `#status`.text == "fine";
            action poke! = click!(`#button`) when ok;
            check always{0} ok;
            """
        )
        deps = module.checks[0].dependencies
        assert deps == frozenset({"#status", "#button"})

    def test_with_restricted_actions_narrow_dependencies(self):
        module = load_module(
            """
            let ~ok = `#status`.text == "fine";
            action a! = click!(`#a`);
            action b! = click!(`#b`);
            check always{0} ok with a!;
            """
        )
        deps = module.checks[0].dependencies
        assert "#a" in deps
        assert "#b" not in deps

    def test_guard_selectors_included(self):
        module = load_module(
            """
            let ~guardish = `#gate`.text == "open";
            action go! = click!(`#target`) when guardish;
            check always{0} true with go!;
            """
        )
        assert module.checks[0].dependencies == frozenset({"#gate", "#target"})


class TestExprSelectorFootprint:
    def _footprint(self, module_source, expr_source):
        from repro.specstrom.analysis import expr_selector_footprint
        from repro.specstrom.module import load_module

        module = load_module(module_source)
        expr = parse_expression(expr_source)
        return expr_selector_footprint(expr, module.env)

    def test_direct_selector_literals(self):
        assert self._footprint("", '`#a`.text == `#b`.text') == {"#a", "#b"}

    def test_resolves_evaluated_selector_bindings(self):
        # A strict top-level let binds an evaluated SelectorValue; the
        # footprint walk chases the *value*, not just the source text.
        module = 'let s = `#bound`;'
        assert self._footprint(module, "s.text") == {"#bound"}

    def test_resolves_lazy_bindings_and_functions(self):
        module = """
        let ~stopped = `#toggle`.text == "start";
        let helper(x) = x == `#aux`.text;
        """
        assert self._footprint(module, 'stopped && helper("v")') == {
            "#toggle", "#aux",
        }

    def test_locals_shadow_the_environment(self):
        module = 'let s = `#outer`;'
        # The block rebinds s; only the block's own selector is read.
        assert self._footprint(
            module, "{ let s = `#inner`; s.text }"
        ) == {"#inner"}

    def test_happened_reads_no_selectors(self):
        assert self._footprint("", "happened") == frozenset()


class TestLiveQueries:
    def _formula(self, module_source):
        from repro.specstrom.module import load_module

        return load_module(module_source).checks[0].formula

    def test_whole_property_is_live_before_any_state(self):
        from repro.specstrom.analysis import live_queries

        formula = self._formula(
            'check (`#a`.text == "x" && always{3} (`#b`.text == "y"));'
        )
        assert live_queries(formula) == {"#a", "#b"}

    def test_residual_drops_the_resolved_conjunct(self):
        from repro.quickltl import FormulaChecker
        from repro.specstrom.analysis import live_queries
        from repro.specstrom.state import ElementSnapshot, StateSnapshot

        formula = self._formula(
            'check (`#a`.text == "x" && always{3} (`#b`.text == "y"));'
        )
        state = StateSnapshot(
            queries={
                "#a": (ElementSnapshot(tag="span", text="x"),),
                "#b": (ElementSnapshot(tag="span", text="y"),),
            },
            happened=("loaded?",),
        )
        checker = FormulaChecker(formula)
        checker.observe(state)
        # `#a` was consumed at the first state: only the always-body
        # can still read anything.
        assert live_queries(checker.residual) == {"#b"}

    def test_hand_built_atoms_are_unknown(self):
        from repro.quickltl import And, atom
        from repro.specstrom.analysis import live_queries

        assert live_queries(atom("p")) is None
        # Unknown is absorbing through connectives.
        formula = self._formula('check always{2} (`#b`.text == "y");')
        assert live_queries(And(formula, atom("p"))) is None

    def test_untagged_defer_is_unknown(self):
        from repro.quickltl import TOP
        from repro.quickltl.syntax import Defer
        from repro.specstrom.analysis import live_queries

        assert live_queries(Defer("d", lambda state: TOP)) is None

    def test_constants_read_nothing(self):
        from repro.quickltl import BOTTOM, TOP
        from repro.specstrom.analysis import live_queries

        assert live_queries(TOP) == frozenset()
        assert live_queries(BOTTOM) == frozenset()


def observed_of(source_module, root):
    from repro.specstrom import observed_attributes

    return observed_attributes([parse_expression(root)],
                               parse_module(source_module))


class TestObservedAttributes:
    """Which element attributes a formula can read; ``None`` whenever a
    whole element, or an attribute named at run time, may be read."""

    def test_fixed_fields_read_no_attribute(self):
        fields = ("tag", "text", "value", "checked", "enabled", "disabled",
                  "visible", "focused", "classes")
        root = " && ".join(f"`#a`.{name} == null" for name in fields)
        assert observed_of("", root) == frozenset()

    def test_member_names_outside_the_fixed_fields_are_read(self):
        assert observed_of("", '`#a`.href == "x"') == {"href"}
        # An object field looks the same; over-approximating it is sound.
        assert observed_of("", "{ let o = { k: 1 }; o.k == 1 }") == {"k"}

    def test_literal_names_of_attribute_readers_are_read(self):
        assert observed_of("", 'props(`#a`, "data-x") == []') == {"data-x"}
        assert observed_of("", 'visibleProps(`#a`, "title") == []') == {"title"}
        assert observed_of("", 'attribute(null, "role") == null') == {"role"}

    def test_names_computed_at_run_time_read_every_attribute(self):
        assert observed_of("", 'props(`#a`, "da" + "ta") == []') is None
        assert observed_of('let name = "x";', "attribute(null, name) == null") is None

    def test_attribute_readers_used_as_values_read_every_attribute(self):
        assert observed_of("", 'map(attribute, []) == []') is None
        assert observed_of("", "{ let f = props; true }") is None

    def test_element_lengths_read_nothing(self):
        for reader in ("count", "length"):
            assert observed_of("", f"{reader}(elements(`li`)) == 0") == frozenset()
        assert observed_of("", "isEmpty(visibleElements(`li`))") == frozenset()

    def test_a_member_only_predicate_reads_its_member_names(self):
        module = 'let isDone(el) = el.done == "yes" && el.checked;'
        for visitor in ("findIndex", "all", "any"):
            root = f"{visitor}(isDone, elements(`li`)) == 0"
            assert observed_of(module, root) == {"done"}

    def test_a_lazy_member_only_predicate_is_allowed(self):
        module = "let isOn(~el) = el.checked;"
        assert observed_of(module, "all(isOn, elements(`li`))") == frozenset()

    def test_a_predicate_that_uses_its_element_whole_escapes(self):
        for body in ("el == null", "[el] == []", "el.text == el",
                     'attribute(el, "x") == null', "next (el.checked)",
                     "{ let e = el; e.checked }"):
            module = f"let p(el) = {body};"
            assert observed_of(module, "any(p, elements(`li`))") is None, body

    def test_a_predicate_may_rebind_its_parameter(self):
        module = "let p(el) = el.checked && { let el = 1; el == 1 };"
        assert observed_of(module, "any(p, elements(`li`))") == frozenset()

    def test_element_values_escaping_anywhere_else(self):
        module = """
        let isOn(el) = el.checked;
        let two(a, b) = a.checked;
        let size(xs) = count(xs);
        """
        for root in ("first(elements(`li`)) == null",
                     "elements(`li`) == []",
                     "map(isOn, elements(`li`)) == []",
                     "filter(isOn, elements(`li`)) == []",
                     "size(elements(`li`)) == 0",
                     "count(elements(`li`)[0]) == 0",
                     "findIndex(two, elements(`li`)) == 0",
                     "{ let xs = elements(`li`); count(xs) == 0 }",
                     "{ let ~xs = elements(`li`); count(xs) == 0 }",
                     "{ let f = elements; true }",
                     "always{2} (nth(elements(`li`), 0) == null)"):
            assert observed_of(module, root) is None, root

    def test_shadowed_builtins_are_not_vetted(self):
        module = "let isOn(el) = el.checked;"
        # A local `count` is not the builtin: its argument escapes.
        assert observed_of(
            module, "{ let count = isOn; count(elements(`li`)) }"
        ) is None
        # A local predicate name is not the top-level function.
        assert observed_of(
            module, "{ let isOn = isOn; all(isOn, elements(`li`)) }"
        ) is None
        # A local `elements` is not a source; the builtin is never read.
        module = "let pick(elements) = first(elements(1));"
        assert observed_of(module, "pick(first) == null") == frozenset()

    def test_reads_are_gathered_through_definitions(self):
        module = """
        let ~title = `#a`.title;
        let ~roles = props(`li`, "role");
        let ~both = title == "x" && roles == [];
        let unused(el) = el.secret;
        """
        assert observed_of(module, "both") == {"title", "role"}

    def test_action_bodies_and_guards_are_not_walked(self):
        module = load_module(
            """
            let ~head = first(elements(`li`));
            action poke! = click!(`#b`) when head == null;
            let ~ok = `#a`.text == "x";
            check always{0} (ok && (poke! in happened ==> true));
            """
        )
        assert module.checks[0].observed_attributes == frozenset()

    def test_bundled_specs(self):
        from repro.specs import load_eggtimer_spec, load_todomvc_spec

        observed = {
            (spec, check.name): check.observed_attributes
            for spec, module in (("todomvc", load_todomvc_spec()),
                                 ("eggtimer", load_eggtimer_spec()))
            for check in module.checks
        }
        assert observed == {
            ("todomvc", "safety"): frozenset(),
            ("todomvc", "persistence"): frozenset(),
            ("eggtimer", "safety"): frozenset(),
            ("eggtimer", "liveness"): frozenset(),
            ("eggtimer", "timeUp"): frozenset(),
        }
