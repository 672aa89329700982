"""Document-level behaviour not covered by the event/selector suites."""

import pytest

from repro.dom import Document, Element, SelectorError, Text, parse_selector
from repro.dom.selector import query_all, query_one
from repro.executors import DomExecutor
from repro.protocol.messages import Act, Reset, Start
from repro.specstrom.actions import ResolvedAction
from tests.dom.coherence import assert_caches_coherent


class TestLookup:
    def test_get_element_by_id(self):
        doc = Document()
        el = Element("div", {"id": "target"})
        doc.root.append_child(Element("section", children=[el]))
        assert doc.get_element_by_id("target") is el
        assert doc.get_element_by_id("missing") is None

    def test_create_element(self):
        doc = Document()
        el = doc.create_element("span", attrs={"class": "x"}, text="hi")
        assert el.tag == "span"
        assert el.text == "hi"

    def test_query_helpers_use_document_for_focus(self):
        doc = Document()
        field = doc.root.append_child(Element("input"))
        doc.focus(field)
        assert doc.query_one(":focus") is field


class TestOwnership:
    def test_document_property_follows_attachment(self):
        doc = Document()
        el = Element("div")
        assert el.document is None
        doc.root.append_child(el)
        assert el.document is doc
        el.detach()
        assert el.document is None

    def test_subtree_adopts_document(self):
        doc = Document()
        parent = Element("div", children=[Element("span")])
        doc.root.append_child(parent)
        assert parent.element_children[0].document is doc


class TestBatching:
    def test_nested_batches_suppress_until_outermost_exit(self):
        doc = Document()
        seen = []
        doc.observe_mutations(lambda node: seen.append(node))
        with doc.batched():
            with doc.batched():
                doc.root.append_child(Element("div"))
            doc.root.append_child(Element("p"))
        assert seen == []
        doc.root.append_child(Element("b"))
        assert len(seen) == 1

    def test_focus_notifies_mutation_observers(self):
        doc = Document()
        field = doc.root.append_child(Element("input"))
        seen = []
        doc.observe_mutations(lambda node: seen.append(node))
        doc.focus(field)
        assert seen

    def test_text_node_edit_notifies(self):
        doc = Document()
        text = Text("before")
        doc.root.append_child(text)
        seen = []
        doc.observe_mutations(lambda node: seen.append(node))
        text.data = "after"
        assert seen and text.text == "after"


def todo_document():
    """A small TodoMVC-shaped document with the new-todo field focused."""
    doc = Document()
    toggle = Element("input", {"type": "checkbox", "class": "toggle"})
    toggle.checked = True
    doc.root.append_child(
        Element(
            "section",
            {"id": "main", "class": "todoapp"},
            children=[
                Element("h1", {"hidden": "", "class": "title title"}, text="todos"),
                Element("input", {"class": "new-todo"}),
                Element(
                    "ul",
                    {"class": "todo-list"},
                    children=[
                        Element(
                            "li",
                            {"class": "completed item"},
                            children=[
                                toggle,
                                Element("label", text="a"),
                                Element("button", {"class": "destroy"}),
                            ],
                        ),
                        Element(
                            "li",
                            children=[
                                Element("input", {"type": "checkbox", "class": "toggle"}),
                                Element("label", text="b"),
                                Element("button", {"class": "destroy"}),
                            ],
                        ),
                    ],
                ),
            ],
        )
    )
    doc.focus(reference_one(doc, ".new-todo"))
    return doc


#: Keyed by id, class (a second and a repeated one) and tag, keyless,
#: and lists; every pseudo-class a mutation below can flip.
SELECTORS = (
    "*",
    "li",
    "#main",
    "#new",
    ".toggle",
    ".item",
    ".title",
    "li.completed",
    ".todo-list > li",
    ".todo-list li label",
    "li:not(.completed)",
    ".toggle:checked",
    "li:visible",
    "li:hidden",
    ":focus",
    "input:focus",
    "[data-x]",
    "[hidden]",
    "li:first-child",
    "li:last-child",
    "li:nth-child(2)",
    "label + button",
    "input ~ button",
    "button:empty",
    "h1, .new-todo, li.completed",
)


def reference(doc, css):
    return query_all(doc.root, css, doc)


def reference_one(doc, css):
    return query_one(doc.root, css, doc)


def _li(doc, index):
    return reference(doc, ".todo-list > li")[index]


def _set_text_node(doc):
    label = reference_one(doc, "label")
    label.children[0].data = "renamed"


def _focus_toggle(doc):
    doc.focus(reference_one(doc, ".toggle"))


def _restyle_detached(doc):
    li = _li(doc, 1)
    parent = li.parent
    li.detach()
    li.add_class("completed")
    li.set_style("display", "none")
    parent.append_child(li)


#: (mutation, a selector whose answer it changes -- None when no
#: selector can observe it, like ``value`` and text).
MUTATIONS = {
    "set_attribute": (lambda doc: _li(doc, 1).set_attribute("id", "new"), "#new"),
    "set_attribute_class": (
        lambda doc: _li(doc, 1).set_attribute("class", "completed"),
        "li.completed",
    ),
    "set_attribute_style": (
        lambda doc: _li(doc, 0).set_attribute("style", "display: none"),
        "li:visible",
    ),
    "set_attribute_hidden": (
        lambda doc: reference_one(doc, "ul").set_attribute("hidden", ""),
        "li:hidden",
    ),
    "restyle_detached": (_restyle_detached, "li.completed"),
    "remove_attribute": (
        lambda doc: reference_one(doc, "h1").remove_attribute("hidden"),
        "[hidden]",
    ),
    "add_class": (lambda doc: _li(doc, 1).add_class("completed"), "li.completed"),
    "remove_class": (lambda doc: _li(doc, 0).remove_class("completed"), "li.completed"),
    "toggle_class": (lambda doc: _li(doc, 1).toggle_class("completed"), "li.completed"),
    "set_style": (lambda doc: _li(doc, 0).set_style("display", "none"), "li:visible"),
    "value": (lambda doc: setattr(reference_one(doc, ".new-todo"), "value", "x"), None),
    "checked": (
        lambda doc: setattr(reference(doc, ".toggle")[1], "checked", True),
        ".toggle:checked",
    ),
    "text_data": (_set_text_node, None),
    "append_child": (
        lambda doc: reference_one(doc, "ul").append_child(Element("li")),
        "li",
    ),
    "insert_before": (
        lambda doc: reference_one(doc, "ul").insert_before(Element("li"), _li(doc, 0)),
        "li:first-child",
    ),
    "remove_child": (lambda doc: reference_one(doc, "ul").remove_child(_li(doc, 0)), "li"),
    "clear_children": (lambda doc: reference_one(doc, "ul").clear_children(), "li"),
    "focus": (_focus_toggle, ":focus"),
    "blur": (lambda doc: doc.blur(), ":focus"),
}


class TestQueryCache:
    """``Document.query_all`` is cached per mutation generation; after any
    mutator it must answer exactly like the uncached reference, and every
    element's cached attribute facts must equal a raw derivation."""

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_every_mutator_invalidates(self, name):
        mutate, observed = MUTATIONS[name]
        doc = todo_document()
        before = {css: doc.query_all(css) for css in SELECTORS}
        assert_caches_coherent(doc)  # and every cache is filled
        generation = doc.generation
        mutate(doc)
        assert doc.generation > generation
        if observed is not None:
            assert reference(doc, observed) != before[observed]
        for css in SELECTORS:
            assert doc.query_all(css) == reference(doc, css), css
            assert doc.query_one(css) is reference_one(doc, css), css
        assert doc.get_element_by_id("new") is reference_one(doc, "#new")
        assert_caches_coherent(doc)

    def test_mutation_inside_nested_batches_invalidates(self):
        doc = todo_document()
        assert len(doc.query_all("li")) == 2
        with doc.batched():
            with doc.batched():
                reference_one(doc, "ul").append_child(Element("li"))
                assert doc.query_all("li") == reference(doc, "li")
            _li(doc, 0).remove_class("completed")
            assert doc.query_all("li.completed") == []
        assert len(doc.query_all("li")) == 3

    def test_focus_handlers_see_the_new_focus(self):
        doc = todo_document()
        field = reference_one(doc, ".new-todo")
        toggle = reference_one(doc, ".toggle")
        assert doc.query_all(":focus") == [field]
        seen = []
        doc.add_event_listener(field, "blur", lambda _: seen.append(doc.query_all(":focus")))
        doc.add_event_listener(toggle, "focus", lambda _: seen.append(doc.query_all(":focus")))
        doc.focus(toggle)
        assert seen == [[toggle], [toggle]]

    def test_returned_list_is_the_callers(self):
        doc = todo_document()
        first = doc.query_all("li")
        first.clear()
        assert doc.query_all("li") == reference(doc, "li") != []

    def test_parsed_selector_is_answered_too(self):
        doc = todo_document()
        parsed = parse_selector("li.completed")
        assert doc.query_all(parsed) == reference(doc, "li.completed")
        _li(doc, 0).remove_class("completed")
        assert doc.query_all(parsed) == []

    @pytest.mark.parametrize("bad", ["", ":bogus", "div >", "li,,a"])
    def test_bad_selector_raises_on_every_call(self, bad):
        doc = todo_document()
        doc.query_all("li")
        for _ in range(2):
            with pytest.raises(SelectorError):
                doc.query_all(bad)
            with pytest.raises(SelectorError):
                doc.query_one(bad)


class TestExecutorSnapshotsFollowTheDocument:
    """The executor's element-snapshot memo is keyed on the document as
    well as its generation: ``reload`` and ``reset`` mount a fresh
    document whose generation starts over."""

    @pytest.mark.parametrize("restart", ["reload", "reset"])
    def test_fresh_document_with_the_same_generation(self, restart):
        # One element object survives every mount (only its text
        # changes, while detached from the new document), so a memo
        # keyed on the generation alone would serve the old snapshot.
        shared = Element("span", {"id": "mount"})
        mounts = []

        def app(page):
            mounts.append(page.document)
            shared.text = f"mount {len(mounts)}"
            page.document.root.append_child(shared)

        executor = DomExecutor(app)
        executor.start(Start(frozenset({"#mount"})))
        (loaded,) = executor.drain()
        assert loaded.state.queries["#mount"][0].text == "mount 1"
        generation = executor.browser.document.generation
        if restart == "reload":
            reload = ResolvedAction("reload", None, 0, ())
            assert executor.act(Act(reload, "reload!", executor.version))
        else:
            assert executor.reset(Reset(frozenset({"#mount"}), ()))
        (message,) = executor.drain()
        assert len(mounts) == 2
        assert executor.browser.document is mounts[1]
        assert mounts[1].generation == generation
        assert message.state.queries["#mount"][0].text == "mount 2"
