"""DOM event objects and capture/bubble dispatch.

Applications under test register listeners on elements; the simulated
WebDriver synthesises trusted events (click, dblclick, input, keydown,
keyup, change, focus, blur, hashchange) and dispatches them through this
module.  Dispatch follows the standard three phases: capture from the
root down, target, then bubbling back up (for bubbling event types).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from .node import Element

__all__ = ["Event", "EventTarget", "dispatch"]

#: Event types that do not bubble.
_NON_BUBBLING = {"focus", "blur", "load"}


@dataclass
class Event:
    """A DOM-like event."""

    type: str
    target: Optional[Element] = None
    key: Optional[str] = None  # for keyboard events
    detail: Optional[object] = None
    bubbles: bool = True
    current_target: Optional[Element] = None
    default_prevented: bool = field(default=False, init=False)
    propagation_stopped: bool = field(default=False, init=False)

    def prevent_default(self) -> None:
        self.default_prevented = True

    def stop_propagation(self) -> None:
        self.propagation_stopped = True


class EventTarget:
    """Listener registry mixed into the document; elements delegate here.

    Listeners are keyed ``(node_id, event_type, capture)`` so that node
    removal does not leak registrations when elements are recreated.
    """

    def __init__(self) -> None:
        self._listeners: Dict[tuple, List[Callable[[Event], None]]] = {}

    def add_listener(
        self,
        element: Element,
        event_type: str,
        handler: Callable[[Event], None],
        capture: bool = False,
    ) -> None:
        key = (element.node_id, event_type, capture)
        self._listeners.setdefault(key, []).append(handler)

    def remove_listener(
        self,
        element: Element,
        event_type: str,
        handler: Callable[[Event], None],
        capture: bool = False,
    ) -> None:
        key = (element.node_id, event_type, capture)
        handlers = self._listeners.get(key, [])
        if handler in handlers:
            handlers.remove(handler)


def dispatch(registry: EventTarget, event: Event) -> bool:
    """Dispatch ``event`` to its target through ``registry``.

    Returns True unless a listener called ``prevent_default``.
    """
    target = event.target
    if target is None:
        raise ValueError("event needs a target")
    path: List[Element] = []
    node = target
    while node is not None:
        path.append(node)
        node = node.parent
    bubbles = event.bubbles and event.type not in _NON_BUBBLING
    # Capture phase: root -> target's parent.
    for element in reversed(path[1:]):
        if event.propagation_stopped:
            break
        _invoke(registry, element, event, capture=True)
    # Target phase.
    if not event.propagation_stopped:
        _invoke(registry, target, event, capture=True)
        _invoke(registry, target, event, capture=False)
    # Bubble phase: target's parent -> root.
    if bubbles:
        for element in path[1:]:
            if event.propagation_stopped:
                break
            _invoke(registry, element, event, capture=False)
    return not event.default_prevented


def _invoke(registry: EventTarget, element: Element, event: Event, capture: bool) -> None:
    event.current_target = element
    handlers = registry._listeners.get((element.node_id, event.type, capture))
    if handlers:
        # A copy: a handler may add or remove listeners while it runs.
        for handler in list(handlers):
            handler(event)
