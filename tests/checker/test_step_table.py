"""The step table: one progression step per distinct (residual, state).

A keyed checker may skip a step another test already took, so every
test here compares it with fresh, unkeyed checkers, the oracle: same
verdict, same residual node, same size and same exception at every
state.  The traps are the ways a naive memo goes wrong: an element
equal to another under Python's ``True == 1`` that Specstrom tells
apart, a hand-built formula that reads more of a state than the key
holds, and an attribute the key projects away that the formula reads
after all, directly or through a whole element.
"""

import dataclasses

from hypothesis import given, strategies as st

from repro.api import CheckSession, CheckTarget, SessionConfig
from repro.apps.eggtimer import egg_timer_app
from repro.checker import RunnerConfig
from repro.checker.compiled import CompiledProperty, step_key
from repro.dom import Element
from repro.executors import DomExecutor
from repro.fuzz.machine import generate_machine
from repro.fuzz.specgen import random_spec_source
from repro.quickltl import (
    Always,
    FormulaChecker,
    ProgressionCaches,
    Verdict,
    atom,
    check_trace,
)
from repro.specs import load_eggtimer_spec
from repro.specstrom import ElementSnapshot, StateSnapshot, load_module

from tests.strategies import examples


def observed(checker, state, key=None):
    """What one ``observe`` did: the verdict, or the exception it raised."""
    try:
        return checker.observe(state, key)
    except Exception as error:  # noqa: BLE001 - compared, not handled
        return ("raised", type(error), str(error))


def machine_state(machine, current, ticks, present, happened, version,
                  attributes=()):
    """A state of ``machine``'s page; ``ticks=None`` leaves ``#ticks``
    out, so a spec that reads it raises.  ``#state`` carries
    ``attributes``."""
    queries = {"#state": (ElementSnapshot("span", text=current,
                                          attributes=attributes),)}
    if ticks is not None:
        queries["#ticks"] = (ElementSnapshot("span", text=ticks),)
    for button, shown in zip(machine.buttons, present):
        queries[button.selector] = (
            (ElementSnapshot("button", text=button.name),) if shown else ()
        )
    return StateSnapshot(queries=queries, happened=happened, version=version)


#: Attribute sets of ``#state``: bookkeeping (``data-id``) and ``k``,
#: which some probes read.
ATTRIBUTES = st.sampled_from([
    (), (("data-id", "1"),), (("data-id", "2"),), (("k", "1"),),
    (("data-id", "1"), ("k", "0")), (("data-id", "2"), ("k", "1")),
])

#: Conjuncts mixed into a generated property, and the attributes the
#: analysis says each can read (``None``: every one, as it leaks a
#: whole element).
PROBES = [
    ("true", frozenset()),
    ('`#state`.k == "1"', frozenset({"k"})),
    ('props(`#state`, "k") == ["1"]', frozenset({"k"})),
    ("findIndex(hasK, elements(`#state`)) == 0", frozenset({"k"})),
    ("count(elements(`#state`)) == 1", frozenset()),
    ('attribute(first(elements(`#state`)), "k") == "1"', None),
    ("first(elements(`#state`)) == last(elements(`#state`))", None),
    ("{ let e = first(elements(`#state`)); "
     "next (e == first(elements(`#state`))) }", None),
]


def mixed_spec_source(machine, seed, probe, connective, n):
    """``random_spec_source``'s property combined with a probe:
    ``fuzzed <connective> always{n} probe``."""
    source = random_spec_source(machine, seed).replace(
        "\ncheck fuzzed with",
        '\nlet hasK(el) = el.k == "1";\n'
        f"let ~probe = {probe};\n"
        f"let ~mixed = fuzzed {connective} always{{{n}}} probe;\n"
        "check mixed with",
    )
    assert "check mixed with" in source
    return source


@st.composite
def specs_and_traces(draw):
    """A generated spec, with a probe conjunct mixed in, a pool of at
    most four states over its machine's observables with a twin of some
    that differs only in ``#state``'s attributes, and traces drawn from
    that pool, so that (residual, state) pairs repeat within and across
    traces."""
    seed = draw(st.integers(min_value=0, max_value=400))
    machine = generate_machine(seed)
    probe, reads = draw(st.sampled_from(PROBES))
    source = mixed_spec_source(
        machine, seed, probe, draw(st.sampled_from(("&&", "||"))),
        draw(st.integers(min_value=0, max_value=3)))
    check = load_module(source, default_subscript=3).checks[0]
    assert check.observed_attributes == reads
    events = [("loaded?",), ("tick?",), ()] + [
        (f"{button.name}!",) for button in machine.buttons
    ]
    pool = draw(st.lists(
        st.builds(
            machine_state,
            st.just(machine),
            st.sampled_from(machine.states),
            st.sampled_from(("0", "1", "2", "x", None)),
            st.lists(st.booleans(), min_size=len(machine.buttons),
                     max_size=len(machine.buttons)),
            st.sampled_from(events),
            st.integers(min_value=0, max_value=9),
            ATTRIBUTES,
        ),
        min_size=1, max_size=4,
    ))
    twins = [
        with_state_attributes(state, draw(ATTRIBUTES))
        for state in pool if draw(st.booleans())
    ]
    traces = draw(st.lists(
        st.lists(st.sampled_from(pool + twins), min_size=1, max_size=8),
        min_size=1, max_size=4,
    ))
    return check, traces


def with_state_attributes(state, attributes):
    queries = dict(state.queries)
    queries["#state"] = tuple(
        dataclasses.replace(element, attributes=attributes)
        for element in queries["#state"]
    )
    return dataclasses.replace(state, queries=queries)


class TestDifferential:
    @examples(120)
    @given(specs_and_traces())
    def test_keyed_checkers_match_fresh_unkeyed_ones(self, drawn):
        check, traces = drawn
        compiled = CompiledProperty(check)
        for trace in traces:
            keyed = FormulaChecker(check.formula, caches=compiled.caches)
            fresh = FormulaChecker(check.formula)
            for state in trace:
                want = observed(fresh, state)
                assert observed(keyed, state, compiled.key(state)) == want
                if type(want) is tuple:
                    break
                assert keyed.residual is fresh.residual
                assert keyed.formula_sizes == fresh.formula_sizes

    @examples(40)
    @given(specs_and_traces(), ATTRIBUTES)
    def test_states_differing_in_unread_attributes_share_a_key(
        self, drawn, attributes
    ):
        check, traces = drawn
        compiled = CompiledProperty(check)
        observed_names = check.observed_attributes
        for state in traces[0]:
            twin = with_state_attributes(state, attributes)
            (before,) = state.queries["#state"]
            if observed_names is None:
                same = before.attributes == attributes
            else:
                same = ([p for p in before.attributes if p[0] in observed_names]
                        == [p for p in attributes if p[0] in observed_names])
            assert (compiled.key(twin) == compiled.key(state)) is same

    def test_repeated_pairs_are_served_by_the_table(self):
        check = load_module(COUNTER_SPEC).checks[0]
        caches = ProgressionCaches()
        states = [counter_state(0, ("loaded?",))] + [
            counter_state(0, ("tick?",)) for _ in range(3)
        ]
        first = FormulaChecker(check.formula, caches=caches)
        second = FormulaChecker(check.formula, caches=caches)
        for state in states:
            first.observe(state, step_key(state))
        for state in states:
            second.observe(state, step_key(state))
        assert second.steps_reused == len(states)
        assert second.residual is first.residual


COUNTER_SPEC = """
let ~value = parseInt(`#value`.text);
action tick? = changed?(`#value`);
let ~safety = always{2} (value >= 0);
check safety with tick?;
"""


def counter_state(value, happened, version=0):
    return StateSnapshot(
        queries={"#value": (ElementSnapshot("span", text=str(value)),)},
        happened=happened,
        version=version,
    )


TICKED_SPEC = """
let ~ticked = `#box`.checked == true;
action toggle! = click!(`#box`);
check ticked with toggle!;
"""


def box_state(checked):
    return StateSnapshot(
        queries={"#box": (ElementSnapshot("input", checked=checked),)},
        happened=("loaded?",),
    )


class TestStepKey:
    def test_version_and_timestamp_are_left_out(self):
        state = counter_state(3, ("tick?",), version=1)
        later = dataclasses.replace(state, version=9, timestamp_ms=5.0)
        assert step_key(later) == step_key(state) is not None

    def test_queries_and_happened_are_kept(self):
        state = counter_state(3, ("tick?",))
        assert step_key(counter_state(4, ("tick?",))) != step_key(state)
        assert step_key(counter_state(3, ("loaded?",))) != step_key(state)

    def test_states_outside_the_wire_types_get_no_key(self):
        assert step_key({"p": True}) is None
        assert step_key(box_state(1)) is None
        assert step_key(StateSnapshot(
            queries={"#box": [ElementSnapshot("input")]})) is None
        assert step_key(StateSnapshot(
            queries={"#box": (ElementSnapshot("input", classes=("a", 1)),)}
        )) is None
        assert step_key(StateSnapshot(
            queries={"#box": (ElementSnapshot(
                "input", attributes=(("id", 1),)),)}
        )) is None

    def test_attributes_are_projected_onto_the_observed_names(self):
        def state(*attributes):
            return StateSnapshot(queries={"#box": (ElementSnapshot(
                "input", attributes=attributes),)})

        plain = state(("data-id", "1"), ("k", "a"))
        renumbered = state(("data-id", "2"), ("k", "a"))
        changed = state(("data-id", "1"), ("k", "b"))
        assert step_key(renumbered) != step_key(plain)
        assert step_key(renumbered, frozenset()) == step_key(plain, frozenset())
        assert step_key(changed, frozenset()) == step_key(plain, frozenset())
        assert step_key(renumbered, {"k"}) == step_key(plain, {"k"})
        assert step_key(changed, {"k"}) != step_key(plain, {"k"})
        # Unread attributes are never type-checked; read ones are.
        odd = state(("data-id", 1), ("k", "a"))
        assert step_key(odd, frozenset()) == step_key(plain, frozenset())
        assert step_key(odd, {"k"}) is None
        assert step_key(odd) is None

    def test_an_int_flag_never_hits_an_equal_bool_row(self):
        # ElementSnapshot(checked=1) == ElementSnapshot(checked=True), and
        # they hash alike, yet `1 == true` is false in Specstrom.
        check = load_module(TICKED_SPEC).checks[0]
        caches = ProgressionCaches()
        ticked, as_int = box_state(True), box_state(1)
        assert as_int == ticked
        first = FormulaChecker(check.formula, caches=caches)
        assert first.observe(ticked, step_key(ticked)) is Verdict.DEFINITELY_TRUE
        second = FormulaChecker(check.formula, caches=caches)
        assert second.observe(as_int, step_key(as_int)) is (
            FormulaChecker(check.formula).observe(as_int)
        ) is Verdict.DEFINITELY_FALSE
        assert second.steps_reused == 0


def toggle_app(page):
    doc = page.document
    button = Element("button", {"id": "toggle"}, text="off")
    doc.root.append_child(button)

    def on_click(_event):
        button.text = "on" if button.text == "off" else "off"

    doc.add_event_listener(button, "click", on_click)


TOGGLE_SPEC = """
let ~label = `#toggle`.text;
action toggle! = click!(`#toggle`);
let ~flips { let old = label; next (label != old) };
let ~safety = always{0} flips;
check safety with toggle!;
"""


class TestRunnerKeysOnlyEvaluatorFormulas:
    CONFIG = RunnerConfig(tests=3, scheduled_actions=6, demand_allowance=0,
                          seed=3, shrink=False, stop_on_failure=False)

    def campaign(self, spec):
        return CheckSession(lambda: DomExecutor(toggle_app)).check(
            spec, config=self.CONFIG
        )

    def test_a_specstrom_property_reuses_steps(self):
        spec = load_module(TOGGLE_SPEC).checks[0]
        assert CompiledProperty(spec).keyed
        result = self.campaign(spec)
        assert result.passed
        assert sum(r.steps_reused for r in result.results) > 0

    def test_an_atom_reading_the_version_keeps_its_verdicts(self):
        # The toggle's states repeat every two versions, so a memo keyed
        # without `version` would hand state 4 the step of state 2.
        spec = dataclasses.replace(
            load_module(TOGGLE_SPEC).checks[0],
            formula=Always(0, atom("not-4", lambda s: s.version != 4)),
        )
        assert not CompiledProperty(spec).keyed
        result = self.campaign(spec)
        for test in result.results:
            states = [entry.state for entry in test.trace]
            assert test.verdict is check_trace(spec.formula, states)
            assert test.verdict is Verdict.DEFINITELY_FALSE
            assert test.steps_reused == 0


class TestTransports:
    def results(self, **session):
        egg = load_eggtimer_spec().check_named("safety")
        config = RunnerConfig(tests=4, scheduled_actions=15,
                              demand_allowance=10, seed=7, shrink=True,
                              stop_on_failure=False)
        batch = CheckSession().check_many(
            [CheckTarget("egg", egg_timer_app(), spec=egg, config=config),
             CheckTarget("egg-faulty", egg_timer_app(decrement=2), spec=egg,
                         config=config)],
            session=SessionConfig(**session),
        )
        seen = []
        for outcome in batch.results:
            shrunk = outcome.shrunk_counterexample
            seen.append((
                outcome.passed,
                shrunk.describe() if shrunk is not None else None,
                [(r.verdict, r.forced, r.states_observed, r.actions_taken,
                  r.max_formula_size, [e.state for e in r.trace])
                 for r in outcome.results],
            ))
        return seen, batch.metrics

    def test_serial_and_thread_transports_agree(self):
        serial, metrics = self.results(jobs=1)
        threaded, _ = self.results(jobs=2, transport="thread")
        assert threaded == serial
        assert [passed for passed, _, _ in serial] == [True, False]
        assert metrics.steps_reused > 0


SIGN_SPEC = """
let ~value = parseInt(`#value`.text);
action tick? = changed?(`#value`);
let ~positive = value >= 0;
check positive with tick?;
"""


class TestThreads:
    def test_racing_resets_only_cost_misses(self, monkeypatch):
        # Thread workers share one bundle and the row table.  With a
        # four-row table, resets race with lookups and inserts all the
        # time, while the step table keeps every step: a row id that
        # ever named two rows would hand one state the other's verdict.
        import sys
        import threading

        import repro.checker.compiled as compiled_module

        check = load_module(SIGN_SPEC).checks[0]
        states = [counter_state(value, ("tick?",)) for value in range(-4, 4)]
        expected = [FormulaChecker(check.formula).observe(state)
                    for state in states]
        monkeypatch.setattr(compiled_module, "_ROW_LIMIT", 4)
        caches = ProgressionCaches()
        mismatches = []

        def worker():
            for _ in range(100):
                for state, want in zip(states, expected):
                    checker = FormulaChecker(check.formula, caches=caches)
                    if checker.observe(state, step_key(state)) is not want:
                        mismatches.append(state)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
        assert caches.outcomes
