"""The DOM's read caches checked against a raw derivation.

Each :class:`repro.dom.Element` caches what it derives from its own
``_attrs``.  :func:`assert_caches_coherent` recomputes every one of
those facts, and each element's visibility, from ``_attrs`` and the
parent chain without touching a cache, and compares.
"""

from repro.dom import Document, Element


def raw_style(attrs):
    parsed = {}
    for declaration in attrs.get("style", "").split(";"):
        if ":" in declaration:
            name, _, value = declaration.partition(":")
            parsed[name.strip().lower()] = value.strip()
    return parsed


def raw_displayed(element: Element) -> bool:
    attrs = element._attrs
    return raw_style(attrs).get("display") != "none" and "hidden" not in attrs


def raw_visible(element: Element) -> bool:
    node = element
    while node is not None:
        if not raw_displayed(node):
            return False
        node = node.parent
    return True


def assert_caches_coherent(document: Document) -> int:
    """Assert every element's cached facts, and its visibility, equal the
    raw derivation; returns the elements checked."""
    elements = [document.root, *document.root.iter_elements()]
    for el in elements:
        attrs = el._attrs
        assert el.class_tuple() == tuple(attrs.get("class", "").split()), el
        assert el._style_map() == raw_style(attrs), el
        assert el.displayed == raw_displayed(el), el
        assert el.attribute_items() == tuple(sorted(attrs.items())), el
        assert el.visible == raw_visible(el), el
    return len(elements)
