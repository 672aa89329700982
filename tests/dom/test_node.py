"""Element tree: attributes, classes, style, visibility, widget state."""


from repro.checker.compiled import step_key
from repro.dom import Document, Element, Text, matches
from repro.monitor.records import state_key
from repro.specstrom.state import ElementSnapshot, StateSnapshot


class TestAttributes:
    def test_get_set_remove(self):
        el = Element("div")
        assert el.get_attribute("data-x") is None
        el.set_attribute("data-x", "1")
        assert el.get_attribute("data-x") == "1"
        assert el.has_attribute("data-x")
        el.remove_attribute("data-x")
        assert not el.has_attribute("data-x")

    def test_remove_missing_attribute_is_noop(self):
        Element("div").remove_attribute("nope")

    def test_id_property(self):
        assert Element("div", {"id": "main"}).id == "main"
        assert Element("div").id is None

    def test_constructor_stores_strings_like_set_attribute(self):
        built = Element("input", {"maxlength": 5})
        written = Element("input")
        written.set_attribute("maxlength", 5)
        for el in (built, written):
            assert el.get_attribute("maxlength") == "5"
            assert matches(el, '[maxlength="5"]')
        snapshot = ElementSnapshot.of_element(built, None)
        assert snapshot.attributes == (("maxlength", "5"),)
        state = StateSnapshot(queries={"input": (snapshot,)})
        assert step_key(state) is not None
        state_key(state)  # the wire format carries it

    def test_attributes_copy(self):
        el = Element("div", {"a": "1"})
        snapshot = el.attributes
        snapshot["a"] = "2"
        assert el.get_attribute("a") == "1"


class TestClasses:
    def test_classes_parse_class_attribute(self):
        el = Element("div", {"class": "a  b c"})
        assert el.classes == ["a", "b", "c"]

    def test_add_remove_class(self):
        el = Element("div")
        el.add_class("completed")
        assert el.has_class("completed")
        el.add_class("completed")  # idempotent
        assert el.classes == ["completed"]
        el.remove_class("completed")
        assert not el.has_class("completed")

    def test_toggle_class(self):
        el = Element("div")
        el.toggle_class("editing")
        assert el.has_class("editing")
        el.toggle_class("editing")
        assert not el.has_class("editing")
        el.toggle_class("editing", on=True)
        el.toggle_class("editing", on=True)
        assert el.classes == ["editing"]


class TestStyleAndVisibility:
    def test_style_parsing(self):
        el = Element("div", {"style": "display: none; color: red"})
        assert el.style == {"display": "none", "color": "red"}

    def test_set_style_roundtrip(self):
        el = Element("div")
        el.set_style("display", "none")
        assert el.style["display"] == "none"
        el.set_style("display", None)
        assert "style" not in el.attributes

    def test_display_none_hides(self):
        el = Element("div", {"style": "display:none"})
        assert not el.displayed
        assert not el.visible

    def test_hidden_attribute_hides(self):
        assert not Element("div", {"hidden": ""}).visible

    def test_visibility_inherited_from_ancestors(self):
        parent = Element("div", {"style": "display:none"})
        child = Element("span")
        parent.append_child(child)
        assert not child.visible
        parent.set_style("display", None)
        assert child.visible


class TestWidgetState:
    def test_value_live_property(self):
        el = Element("input", {"type": "text"})
        el.value = "hello"
        assert el.value == "hello"

    def test_checked(self):
        box = Element("input", {"type": "checkbox"})
        assert not box.checked
        box.checked = True
        assert box.checked

    def test_is_checkbox(self):
        assert Element("input", {"type": "checkbox"}).is_checkbox
        assert not Element("input", {"type": "text"}).is_checkbox
        assert not Element("div").is_checkbox

    def test_is_text_input(self):
        assert Element("input").is_text_input  # default type is text
        assert Element("input", {"type": "text"}).is_text_input
        assert Element("textarea").is_text_input
        assert not Element("input", {"type": "checkbox"}).is_text_input

    def test_disabled_enabled(self):
        el = Element("button", {"disabled": ""})
        assert el.disabled and not el.enabled


class TestTreeStructure:
    def test_append_and_parent(self):
        parent = Element("ul")
        child = Element("li")
        parent.append_child(child)
        assert child.parent is parent
        assert parent.element_children == [child]

    def test_append_string_becomes_text(self):
        el = Element("p")
        el.append_child("hello")
        assert isinstance(el.children[0], Text)
        assert el.text == "hello"

    def test_append_reparents(self):
        a, b = Element("div"), Element("div")
        child = Element("span")
        a.append_child(child)
        b.append_child(child)
        assert child.parent is b
        assert a.children == []

    def test_insert_before(self):
        ul = Element("ul")
        first = ul.append_child(Element("li", text="1"))
        ul.insert_before(Element("li", text="0"), first)
        assert [li.text for li in ul.element_children] == ["0", "1"]

    def test_insert_before_none_appends(self):
        ul = Element("ul")
        ul.insert_before(Element("li", text="x"), None)
        assert ul.element_children[0].text == "x"

    def test_remove_child(self):
        ul = Element("ul")
        li = ul.append_child(Element("li"))
        ul.remove_child(li)
        assert li.parent is None
        assert ul.children == []

    def test_clear_children(self):
        ul = Element("ul", children=[Element("li"), Element("li")])
        ul.clear_children()
        assert ul.children == []

    def test_text_concatenates_descendants(self):
        el = Element(
            "div",
            children=[Element("span", text="a"), Text("b"), Element("b", text="c")],
        )
        assert el.text == "abc"

    def test_text_setter_replaces_children(self):
        el = Element("div", children=[Element("span", text="old")])
        el.text = "new"
        assert el.text == "new"
        assert el.element_children == []

    def test_iter_elements_document_order(self):
        tree = Element(
            "div",
            children=[
                Element("ul", children=[Element("li"), Element("li")]),
                Element("p"),
            ],
        )
        tags = [el.tag for el in tree.iter_elements()]
        assert tags == ["ul", "li", "li", "p"]

    def test_index_in_parent_counts_elements_only(self):
        ul = Element("ul")
        ul.append_child(Text("ignored"))
        a = ul.append_child(Element("li"))
        b = ul.append_child(Element("li"))
        assert a.index_in_parent == 0
        assert b.index_in_parent == 1


class TestMutationNotification:
    def test_mutations_reach_document_observers(self):
        doc = Document()
        seen = []
        doc.observe_mutations(lambda node: seen.append(node))
        el = Element("div")
        doc.root.append_child(el)
        el.set_attribute("class", "x")
        el.value = "v"
        assert len(seen) >= 3

    def test_detached_mutations_do_not_notify(self):
        doc = Document()
        seen = []
        doc.observe_mutations(lambda node: seen.append(node))
        Element("div").set_attribute("x", "1")
        assert seen == []

    def test_batched_suppresses(self):
        doc = Document()
        seen = []
        doc.observe_mutations(lambda node: seen.append(node))
        with doc.batched():
            doc.root.append_child(Element("div"))
        assert seen == []

    def test_unsubscribe(self):
        doc = Document()
        seen = []
        unsub = doc.observe_mutations(lambda node: seen.append(node))
        unsub()
        doc.root.append_child(Element("div"))
        assert seen == []


class TestSerialisation:
    def test_to_html_smoke(self):
        el = Element("ul", {"class": "list"}, children=[Element("li", text="x")])
        html = el.to_html()
        assert '<ul class="list">' in html
        assert "<li>x</li>" in html
