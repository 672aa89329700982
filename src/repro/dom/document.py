"""The document: root element, focus, queries and mutation observation."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from .events import Event, EventTarget, dispatch
from .node import Element, Node
from .selector import filter_candidates, parse_selector, rightmost_key

__all__ = ["Document"]


class Document:
    """A minimal document: a ``<body>`` root plus focus and event plumbing.

    The document also tracks a *location hash* (for TodoMVC's filter
    routing) and notifies mutation observers, which the executor uses to
    pick up asynchronous UI changes.

    ``generation`` counts mutations: every mutator in :mod:`repro.dom.node`
    and every focus change bumps it, batched or not.  Query results are
    cached per generation, and each element caches what it parses from
    its attributes until its next attribute write, so the tree must only
    change through those mutators; writing ``Element.children`` or
    ``_attrs`` directly leaves the generation or the element's caches,
    and with them the cached answers, stale.
    """

    def __init__(self) -> None:
        self.root = Element("body")
        self.root._document = self
        self.events = EventTarget()
        self.active_element: Optional[Element] = None
        self._mutation_observers: List[Callable[[Node], None]] = []
        self._location_hash = ""
        self._muted = 0
        self.generation = 0
        #: The generation the fields below describe.
        self._indexed = -1
        #: Every element, in document order.
        self._elements: List[Element] = []
        #: ``"id"``/``"class"``/``"tag"`` -> name -> the elements that
        #: carry it, in document order.
        self._buckets: Dict[str, Dict[str, List[Element]]] = {}
        #: Selector (source string or parsed) -> its matches.
        self._results: Dict[object, List[Element]] = {}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def query_all(self, selector) -> List[Element]:
        """All elements matching ``selector``, in document order.

        Served from a cache that lives for one ``generation``: its first
        query walks the tree once into buckets by id, class and tag, and
        each distinct selector is matched once, against the bucket of its
        rightmost compound's key (the whole tree when it has none).  The
        result is a fresh list the caller may keep or change.  Equal to
        the uncached :func:`repro.dom.selector.query_all` on ``root``.
        """
        return list(self._matches(selector))

    def query_one(self, selector) -> Optional[Element]:
        hits = self._matches(selector)
        return hits[0] if hits else None

    def get_element_by_id(self, element_id: str) -> Optional[Element]:
        self._index()
        hits = self._buckets["id"].get(element_id)
        return hits[0] if hits else None

    def _matches(self, selector) -> List[Element]:
        """The cached (shared, not to be mutated) matches of ``selector``."""
        self._index()
        hits = self._results.get(selector)
        if hits is None:
            parsed = parse_selector(selector) if isinstance(selector, str) else selector
            key = rightmost_key(parsed)
            if key is None:
                candidates = self._elements
            else:
                candidates = self._buckets[key[0]].get(key[1], ())
            hits = self._results[selector] = filter_candidates(candidates, parsed, self)
        return hits

    def _index(self) -> None:
        """Walk the tree into this generation's buckets, unless done."""
        if self._indexed == self.generation:
            return
        elements = list(self.root.iter_elements())
        by_id: Dict[str, List[Element]] = {}
        by_class: Dict[str, List[Element]] = {}
        by_tag: Dict[str, List[Element]] = {}
        for el in elements:
            by_tag.setdefault(el.tag, []).append(el)
            element_id = el.id
            if element_id is not None:
                by_id.setdefault(element_id, []).append(el)
            for name in dict.fromkeys(el.class_tuple()):
                by_class.setdefault(name, []).append(el)
        self._elements = elements
        self._buckets = {"id": by_id, "class": by_class, "tag": by_tag}
        self._results = {}
        self._indexed = self.generation

    def create_element(self, tag: str, **kwargs) -> Element:
        return Element(tag, **kwargs)

    # ------------------------------------------------------------------
    # Focus
    # ------------------------------------------------------------------

    def focus(self, element: Optional[Element]) -> None:
        """Move focus, firing ``blur`` and ``focus`` events."""
        if element is self.active_element:
            return
        previous = self.active_element
        self.active_element = element
        # ``:focus`` answers change now, before the handlers below run.
        self.generation += 1
        if previous is not None and previous.document is self:
            dispatch(self.events, Event("blur", target=previous, bubbles=False))
        if element is not None:
            dispatch(self.events, Event("focus", target=element, bubbles=False))
        self.notify_mutation(element or self.root)

    def blur(self) -> None:
        self.focus(None)

    # ------------------------------------------------------------------
    # Location hash (routing)
    # ------------------------------------------------------------------

    @property
    def location_hash(self) -> str:
        return self._location_hash

    def set_location_hash(self, value: str) -> None:
        if value == self._location_hash:
            return
        self._location_hash = value
        dispatch(self.events, Event("hashchange", target=self.root))
        self.notify_mutation(self.root)

    # ------------------------------------------------------------------
    # Events and mutation observation
    # ------------------------------------------------------------------

    def add_event_listener(self, element, event_type, handler, capture=False):
        self.events.add_listener(element, event_type, handler, capture)

    def remove_event_listener(self, element, event_type, handler, capture=False):
        self.events.remove_listener(element, event_type, handler, capture)

    def dispatch_event(self, event: Event) -> bool:
        return dispatch(self.events, event)

    def observe_mutations(self, callback: Callable[[Node], None]) -> Callable[[], None]:
        """Register a mutation observer; returns an unsubscribe function."""
        self._mutation_observers.append(callback)

        def unsubscribe() -> None:
            if callback in self._mutation_observers:
                self._mutation_observers.remove(callback)

        return unsubscribe

    def notify_mutation(self, node: Node) -> None:
        """Record a mutation of ``node``: bump ``generation``, then tell
        the observers unless inside :meth:`batched`.

        The bump comes first because renderers mutate inside ``batched``
        and notify once afterwards; a muted mutation still changes what
        queries return.
        """
        self.generation += 1
        if self._muted:
            return
        for observer in list(self._mutation_observers):
            observer(node)

    class _Mute:
        def __init__(self, document: "Document") -> None:
            self._document = document

        def __enter__(self):
            self._document._muted += 1
            return self

        def __exit__(self, *exc):
            self._document._muted -= 1
            return False

    def batched(self) -> "_Mute":
        """Context manager suppressing mutation notifications inside; the
        caller is expected to notify once afterwards (used by renderers
        that rebuild whole subtrees)."""
        return Document._Mute(self)
