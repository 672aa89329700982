"""The DOM executor: snapshots, dependency restriction, gestures."""

import pytest

from repro.api import CheckSession, CheckTarget, SessionConfig
from repro.apps.todomvc import implementation_named
from repro.checker import RunnerConfig
from repro.dom import Document, Element, parse_selector
from repro.executors import ActionFailed, DomExecutor
from repro.protocol.messages import Act, Start
from repro.specs import load_todomvc_spec
from repro.specstrom.actions import PrimitiveEvent, ResolvedAction
from repro.specstrom.state import ElementSnapshot


def form_app(page):
    doc = page.document
    doc.root.append_child(Element("input", {"id": "field", "type": "text"}))
    doc.root.append_child(Element("button", {"id": "go"}, text="go"))
    doc.root.append_child(Element("span", {"id": "secret"}, text="hidden dep"))
    hidden = Element("button", {"id": "ghost"}, text="ghost")
    hidden.set_style("display", "none")
    doc.root.append_child(hidden)
    return {}


@pytest.fixture()
def executor():
    ex = DomExecutor(form_app)
    ex.start(Start(frozenset({"#field", "#go"})))
    ex.drain()
    return ex


def act(kind, selector, *args, index=0, version=1):
    return Act(ResolvedAction(kind, selector, index, tuple(args)), "a!", version)


class TestSnapshots:
    def test_only_dependency_selectors_included(self, executor):
        executor.act(act("click", "#go"))
        (message,) = executor.drain()
        assert set(message.state.queries) == {"#field", "#go"}

    def test_snapshot_records_widget_state(self, executor):
        executor.act(act("input", "#field", "hello"))
        (message,) = executor.drain()
        field = message.state.queries["#field"][0]
        assert field.value == "hello"
        assert field.focused

    def test_versions_are_sequential(self, executor):
        executor.act(act("click", "#go", version=1))
        executor.act(act("click", "#go", version=2))
        messages = executor.drain()
        assert [m.state.version for m in messages] == [2, 3]


class TestGestures:
    def test_input_replaces_value(self, executor):
        executor.act(act("input", "#field", "first", version=1))
        executor.act(act("input", "#field", "second", version=2))
        messages = executor.drain()
        assert messages[-1].state.queries["#field"][0].value == "second"

    def test_press_key_focuses_target(self, executor):
        executor.act(act("pressKey", "#field", "Enter"))
        (message,) = executor.drain()
        assert message.state.queries["#field"][0].focused

    def test_clear(self, executor):
        executor.act(act("input", "#field", "text", version=1))
        executor.act(act("clear", "#field", version=2))
        messages = executor.drain()
        assert messages[-1].state.queries["#field"][0].value == ""

    def test_noop_changes_nothing_but_reports(self, executor):
        executor.act(Act(ResolvedAction("noop", None, None, ()), "wait!", 1))
        (message,) = executor.drain()
        assert message.state.happened == ("wait!",)

    def test_reload_reports_loaded_in_happened(self, executor):
        executor.act(Act(ResolvedAction("reload", None, None, ()), "reload!", 1))
        (message,) = executor.drain()
        assert message.state.happened == ("reload!", "loaded?")


class TestFailures:
    def test_unknown_selector_target_fails(self, executor):
        with pytest.raises(ActionFailed):
            executor.act(act("click", "#missing"))

    def test_invisible_target_fails(self, executor):
        with pytest.raises(ActionFailed):
            executor.act(act("click", "#ghost"))

    def test_index_out_of_range_fails(self, executor):
        with pytest.raises(ActionFailed):
            executor.act(act("click", "#go", index=5))

    def test_unknown_primitive_fails(self, executor):
        with pytest.raises(ActionFailed):
            executor.act(act("teleport", "#go"))

    def test_unstarted_executor_rejects_acts(self):
        ex = DomExecutor(form_app)
        with pytest.raises(RuntimeError):
            ex.act(act("click", "#go", version=0))


class TestIndexResolution:
    def test_index_counts_visible_matches_only(self):
        def many_buttons(page):
            doc = page.document
            for i, visible in enumerate([True, False, True]):
                b = Element("button", {"class": "b", "data-n": str(i)})
                if not visible:
                    b.set_style("display", "none")
                doc.root.append_child(b)
            return {}

        ex = DomExecutor(many_buttons)
        ex.start(Start(frozenset({".b"})))
        ex.drain()
        # Index 1 among *visible* matches is the data-n=2 button.
        ex.act(act("click", ".b", index=1))
        (message,) = ex.drain()
        clicked = [
            el for el in message.state.queries[".b"] if el.focused
        ]
        assert clicked and clicked[0].attribute("data-n") == "2"


class TestNarrowing:
    def test_narrow_restricts_subsequent_snapshots(self, executor):
        from repro.protocol.messages import Narrow

        assert executor.narrow(Narrow(frozenset({"#go"}))) is True
        executor.act(act("click", "#go"))
        (message,) = executor.drain()
        assert set(message.state.queries) == {"#go"}

    def test_narrow_intersects_with_the_start_set(self, executor):
        from repro.protocol.messages import Narrow

        # `#secret` exists in the DOM but was never instrumented; a
        # narrow cannot widen the session beyond its Start set.
        executor.narrow(Narrow(frozenset({"#go", "#secret"})))
        executor.act(act("click", "#go"))
        (message,) = executor.drain()
        assert set(message.state.queries) == {"#go"}

    def test_narrow_can_widen_again_up_to_the_start_set(self, executor):
        from repro.protocol.messages import Narrow

        executor.narrow(Narrow(frozenset({"#go"})))
        executor.narrow(Narrow(frozenset({"#go", "#field"})))
        executor.act(act("click", "#go"))
        (message,) = executor.drain()
        assert set(message.state.queries) == {"#field", "#go"}

    def test_narrow_before_start_is_declined(self):
        from repro.protocol.messages import Narrow

        ex = DomExecutor(form_app)
        assert ex.narrow(Narrow(frozenset({"#go"}))) is False

    def test_reset_restores_full_capture(self, executor):
        from repro.protocol.messages import Narrow, Reset

        executor.narrow(Narrow(frozenset({"#go"})))
        assert executor.reset(Reset(frozenset({"#field", "#go"}))) is True
        (loaded,) = executor.drain()
        assert set(loaded.state.queries) == {"#field", "#go"}


#: The ``Element`` methods that write ``_attrs``, and its constructor.
ATTRIBUTE_WRITERS = (
    "__init__", "set_attribute", "remove_attribute", "add_class",
    "remove_class", "set_style",
)


class TestWatchWork:
    """``_report`` hands its snapshot to the watch bookkeeping: a
    watched selector the state captured is not queried again."""

    def _queries(self, monkeypatch, dependencies):
        """``query_all`` calls of ``start``, then of one ``_report``,
        with ``#field`` watched; and what the watch then remembers."""
        calls = []
        query_all = Document.query_all

        def recording_query_all(self, selector):
            calls.append(selector)
            return query_all(self, selector)

        monkeypatch.setattr(Document, "query_all", recording_query_all)
        ex = DomExecutor(form_app)
        ex.start(Start(frozenset(dependencies),
                       (("typed?", PrimitiveEvent("changed", "#field")),)))
        on_start = sorted(calls)
        calls.clear()
        ex._report("event", ("typed?",))
        watched = [dict(el.attributes)["id"]
                   for el in ex._last_watch_state["#field"]]
        return on_start, sorted(calls), watched

    def test_a_captured_watch_is_not_queried_again(self, monkeypatch):
        on_start, on_report, watched = self._queries(
            monkeypatch, {"#field", "#go"})
        assert on_start == on_report == ["#field", "#go"]
        assert watched == ["field"]

    def test_a_watch_outside_the_capture_is_still_queried(self, monkeypatch):
        on_start, on_report, watched = self._queries(monkeypatch, {"#go"})
        assert on_start == on_report == ["#field", "#go"]
        assert watched == ["field"]


class TestSnapshotWork:
    """Snapshot work follows DOM mutations, counted on a fixed-seed vue
    campaign: one tree walk per queried document generation, one
    ``ElementSnapshot`` per element and generation, one parse per
    selector source, and at most one ``class`` and one ``style`` parse
    per attribute write or element construction."""

    def test_vue_campaign_counts(self, monkeypatch):
        walks = 0
        generations = set()  # (document, generation) pairs queried
        sources = set()
        snapshotted = []  # (element, document, generation) per snapshot
        writes = 0  # calls of ATTRIBUTE_WRITERS
        parses = {"class": 0, "style": 0}

        iter_elements = Element.iter_elements
        query_all = Document.query_all
        of_element = ElementSnapshot.of_element
        class_tuple = Element.class_tuple
        style_map = Element._style_map

        def counting_writer(method):
            def writer(self, *args, **kwargs):
                nonlocal writes
                writes += 1
                return method(self, *args, **kwargs)
            return writer

        def counting_class_tuple(self):
            parses["class"] += self._classes is None
            return class_tuple(self)

        def counting_style_map(self):
            parses["style"] += self._style is None
            return style_map(self)

        def counting_iter_elements(self):
            nonlocal walks
            if self._document is not None:  # only a document root has one
                walks += 1
            return iter_elements(self)

        def recording_query_all(self, selector):
            generations.add((self, self.generation))
            sources.add(selector)
            return query_all(self, selector)

        def recording_of_element(cls, element, document):
            snapshotted.append((element, document, document.generation))
            return of_element(element, document)

        monkeypatch.setattr(Element, "iter_elements", counting_iter_elements)
        monkeypatch.setattr(Document, "query_all", recording_query_all)
        monkeypatch.setattr(
            ElementSnapshot, "of_element", classmethod(recording_of_element)
        )
        for name in ATTRIBUTE_WRITERS:
            monkeypatch.setattr(Element, name, counting_writer(getattr(Element, name)))
        monkeypatch.setattr(Element, "class_tuple", counting_class_tuple)
        monkeypatch.setattr(Element, "_style_map", counting_style_map)
        parse_selector.cache_clear()
        batch = CheckSession().check_many(
            [
                CheckTarget(
                    "vue",
                    implementation_named("vue").app_factory(),
                    spec=load_todomvc_spec().check_named("safety"),
                )
            ],
            config=RunnerConfig(tests=3, scheduled_actions=30, seed=0,
                                shrink=False),
            session=SessionConfig(jobs=1),
        )
        assert batch.results[0].passed
        assert 0 < walks <= len(generations)
        assert 0 < len(snapshotted) <= len(set(snapshotted))
        assert 0 < parse_selector.cache_info().misses <= len(sources)
        assert 0 < parses["class"] <= writes
        assert 0 < parses["style"] <= writes
