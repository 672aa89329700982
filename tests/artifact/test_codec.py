"""The artifact codec: encode/decode re-interns into the live tables.

The payload encoding is the hash-consed formula DAG in pickle's
children-first (stable topological) stream; the acceptance property is
not mere equality but *identity* -- a decoded formula must be the very
interned node the encoder saw, because every downstream layer (memoized
progression, footprint caches, cohort batching) keys on object
identity.  Deferred formulas pickle through their quotes like any other
node; a decoded one captures decoded thunks, so it is a new node that
must progress exactly like the original.
"""

import pytest
from hypothesis import given, strategies as st

from repro.artifact.codec import decode, encode
from repro.artifact.errors import ArtifactEncodeError
from repro.artifact import compile_source, compile_spec
from repro.quickltl import (
    Always,
    And,
    Atom,
    BOTTOM,
    Defer,
    Eventually,
    FormulaChecker,
    Not,
    NextReq,
    NextStrong,
    NextWeak,
    Or,
    Release,
    TOP,
    Until,
    atom,
    children,
)
from repro.specs import spec_path
from repro.specstrom import ElementSnapshot, StateSnapshot
from repro.specstrom.eval import Quote

from tests.strategies import examples


# Module-level predicates pickle by reference; `atom("p")`'s default
# predicate is a local closure and deliberately does not.
def _reads_p(state):
    return bool(state.get("p", False))


def _reads_q(state):
    return bool(state.get("q", False))


_ATOMS = [Atom("p", _reads_p), Atom("q", _reads_q)]


@st.composite
def picklable_formulas(draw, max_depth: int = 4, max_subscript: int = 3):
    """Random structural formulas whose atoms pickle by reference."""
    if max_depth <= 0:
        return draw(st.sampled_from([TOP, BOTTOM] + _ATOMS))
    sub = lambda: picklable_formulas(
        max_depth=max_depth - 1, max_subscript=max_subscript
    )
    n = draw(st.integers(min_value=0, max_value=max_subscript))
    choice = draw(st.integers(min_value=0, max_value=10))
    if choice == 0:
        return draw(st.sampled_from([TOP, BOTTOM] + _ATOMS))
    if choice == 1:
        return Not(draw(sub()))
    if choice == 2:
        return And(draw(sub()), draw(sub()))
    if choice == 3:
        return Or(draw(sub()), draw(sub()))
    if choice == 4:
        return NextReq(draw(sub()))
    if choice == 5:
        return NextWeak(draw(sub()))
    if choice == 6:
        return NextStrong(draw(sub()))
    if choice == 7:
        return Always(n, draw(sub()))
    if choice == 8:
        return Eventually(n, draw(sub()))
    if choice == 9:
        return Until(n, draw(sub()), draw(sub()))
    return Release(n, draw(sub()), draw(sub()))


class TestFormulaRoundTrip:
    @given(formula=picklable_formulas())
    @examples(200)
    def test_decode_is_the_identical_interned_object(self, formula):
        assert decode(encode(formula)) is formula

    def test_shared_subterms_stay_shared(self):
        shared = And(_ATOMS[0], _ATOMS[1])
        formula = Or(Always(2, shared), Eventually(3, shared))
        restored = decode(encode(formula))
        assert restored is formula
        assert restored.left.body is restored.right.body

    def test_local_closure_atom_is_rejected_with_a_typed_error(self):
        with pytest.raises(ArtifactEncodeError):
            encode(atom("p"))  # default predicate is a local closure

    def test_hand_built_defer_is_rejected_with_a_typed_error(self):
        with pytest.raises(ArtifactEncodeError):
            encode(Defer("d", lambda state: TOP))


#: A strict top-level formula binding (``p``) read inside another
#: temporal body: ``q``'s quote captures ``p`` and the thunk ``t``, whose
#: environment binds ``q`` again -- the cycle ``defer -> thunk ->
#: environment -> binding -> defer``, which no bundled spec builds.
CYCLE_SPEC = """
let ~t = `#a`.text;
let p = always{3} (t == "x");
let q = eventually{2} (p || t == "y");
action go! = click!(`#a`);
check q;
"""


def _text_states(*texts):
    return [
        StateSnapshot({"#a": (ElementSnapshot("div", text=text),)}, (), index)
        for index, text in enumerate(texts)
    ]


def _verdicts(formula, states):
    checker = FormulaChecker(formula)
    verdicts = [checker.observe(state) for state in states]
    return verdicts + [checker.force()]


class TestSpecModuleRoundTrip:
    def test_eggtimer_module_round_trips_through_the_codec(self):
        bundle = compile_spec(spec_path("eggtimer.strom"))
        restored = decode(encode(bundle.module))
        assert [c.name for c in restored.checks] == [
            c.name for c in bundle.module.checks
        ]
        for original, loaded in zip(bundle.module.checks, restored.checks):
            # The loaded property quotes decoded thunks, so it is a new
            # interned node; it must progress identically, which the
            # campaign-identity tests assert end to end.  Here: same
            # spine, same footprints.
            assert type(loaded.formula) is type(original.formula)
            assert loaded.formula.name == original.formula.name
            assert (loaded.formula.selector_footprint()
                    == original.formula.selector_footprint())

    def test_observed_attributes_round_trip(self):
        bundle = compile_spec(spec_path("todomvc.strom"))
        restored = decode(encode(bundle))
        assert [c.observed_attributes for c in restored.module.checks] == [
            frozenset(), frozenset()]
        assert all(prop.spec.observed_attributes == frozenset()
                   for prop in restored.properties.values())

    def test_a_bundle_pickled_without_observed_attributes_keys_every_one(self):
        # A bundle written before CheckSpec had the field decodes with
        # the class default: every attribute stays in the step key.
        from repro.checker.compiled import step_key

        bundle = compile_spec(spec_path("todomvc.strom"))
        for check in bundle.module.checks:
            del check.__dict__["observed_attributes"]
        restored = decode(encode(bundle))
        state = StateSnapshot(queries={".todo-list li": (
            ElementSnapshot("li", attributes=(("data-id", "7"),)),)})
        for prop in restored.properties.values():
            assert "observed_attributes" not in prop.spec.__dict__
            assert prop.spec.observed_attributes is None
            assert prop.key(state) == step_key(state) != step_key(
                state, frozenset())

    def test_cycle_through_a_quoted_binding_round_trips(self):
        bundle = compile_source(CYCLE_SPEC)
        env = bundle.module.env
        p, t = env.lookup("q").formula.body.build.values
        assert p is env.lookup("p")
        assert t.env is env  # the thunk closes the cycle
        original = bundle.module.checks[0].formula
        once = decode(encode(bundle))
        twice = decode(encode(once))  # a loaded bundle encodes again
        for loaded in (once.module.checks[0].formula,
                       twice.module.checks[0].formula):
            assert loaded.selector_footprint() == original.selector_footprint()
            assert loaded.selector_footprint() == frozenset({"#a"})
            for texts in (("z", "x", "x", "x", "x"), ("z", "z", "y"),
                          ("z", "z", "z", "z"), ("x", "z", "y", "z")):
                states = _text_states(*texts)
                assert _verdicts(loaded, states) == _verdicts(original, states)

    def test_residual_with_a_quoted_binding_round_trips(self):
        # A monitor checkpoint pickles residuals before anything else,
        # so the stream enters the cycle at a formula, not at the
        # module environment.
        formula = compile_source(CYCLE_SPEC).module.checks[0].formula
        states = _text_states("z", "x", "x", "x", "z")
        checker = FormulaChecker(formula)
        checker.observe(states[0])
        restored = FormulaChecker(decode(encode(checker.residual)))
        for state in states[1:]:
            assert restored.observe(state) == checker.observe(state)
        assert restored.force() == checker.force()

    def test_decoded_quotes_equal_their_own_rebuilds(self):
        # Entering at the residual, ``ps`` is still being rebuilt when
        # the cycle makes pickle rebuild ``q``'s quote; a quote keyed
        # on that half-built list would equal quotes of other lists.
        source = CYCLE_SPEC.replace(
            "let p = always{3} (t == \"x\");\n"
            "let q = eventually{2} (p || t == \"y\");",
            "let ps = [always{3} (t == \"x\")];\n"
            "let q = eventually{2} (ps[0] || t == \"y\");",
        )
        checker = FormulaChecker(compile_source(source).module.checks[0].formula)
        checker.observe(_text_states("z")[0])
        quotes = []
        stack = [decode(encode(checker.residual))]
        while stack:
            node = stack.pop()
            if isinstance(node, Defer):
                quotes.append(node.build)
            stack.extend(children(node))
        assert quotes
        for quote in quotes:
            rebuilt = Quote(quote.body, quote.values, quote.default_subscript)
            assert rebuilt == quote and hash(rebuilt) == hash(quote)

    def test_structural_formulas_intern_across_the_wire_twice(self):
        formula = Until(2, _ATOMS[0], Not(_ATOMS[1]))
        once = decode(encode(formula))
        twice = decode(encode(once))
        assert once is formula and twice is formula
