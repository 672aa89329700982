"""State snapshots: what the checker sees of the application.

The executor extracts a :class:`StateSnapshot` after every action, event
or timeout.  Snapshots are deeply immutable: the checker may evaluate
formulae against a snapshot long after the live DOM has moved on (the
staleness scenario of Figure 10), so nothing here may alias live nodes.

Only the selectors named in the specification's dependency set (computed
by :mod:`repro.specstrom.analysis`, per Section 3.3) are included, which
is exactly how the paper's executor instruments the page.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

__all__ = ["ElementSnapshot", "StateSnapshot"]


@dataclass(frozen=True)
class ElementSnapshot:
    """An immutable view of one DOM element at snapshot time."""

    tag: str
    text: str = ""
    value: str = ""
    checked: bool = False
    enabled: bool = True
    visible: bool = True
    focused: bool = False
    classes: Tuple[str, ...] = ()
    attributes: Tuple[Tuple[str, str], ...] = ()

    @property
    def disabled(self) -> bool:
        return not self.enabled

    def attribute(self, name: str) -> Optional[str]:
        for key, value in self.attributes:
            if key == name:
                return value
        return None

    def property_names(self) -> Tuple[str, ...]:
        return (
            "tag",
            "text",
            "value",
            "checked",
            "enabled",
            "disabled",
            "visible",
            "focused",
            "classes",
        )

    def get_property(self, name: str):
        """Property access used by Specstrom member syntax."""
        if name == "classes":
            return list(self.classes)
        if name in self.property_names():
            return getattr(self, name)
        return self.attribute(name)

    @classmethod
    def of_element(cls, element, document) -> "ElementSnapshot":
        """Snapshot a live :class:`repro.dom.Element`."""
        return cls(
            tag=element.tag,
            text=element.text,
            value=element.value,
            checked=element.checked,
            enabled=element.enabled,
            visible=element.visible,
            focused=document is not None and document.active_element is element,
            classes=element.class_tuple(),
            attributes=element.attribute_items(),
        )


@dataclass(frozen=True)
class StateSnapshot:
    """One observed application state.

    ``queries`` maps each dependency-set selector to the snapshots of its
    matching elements, in document order.  ``happened`` lists the names
    of the actions/events that occurred immediately before this state
    (the paper's special ``happened`` variable).  ``version`` is the
    trace length at snapshot time, used by the staleness protocol.
    """

    queries: Mapping[str, Tuple[ElementSnapshot, ...]] = field(default_factory=dict)
    happened: Tuple[str, ...] = ()
    version: int = 0
    timestamp_ms: float = 0.0

    def elements(self, css: str) -> Tuple[ElementSnapshot, ...]:
        try:
            return self.queries[css]
        except KeyError:
            raise KeyError(
                f"selector {css!r} is not in this state's dependency set; "
                "was it missed by the static analysis?"
            ) from None

    def first(self, css: str) -> Optional[ElementSnapshot]:
        elements = self.elements(css)
        return elements[0] if elements else None

    def visible_elements(self, css: str) -> Tuple[ElementSnapshot, ...]:
        return tuple(el for el in self.elements(css) if el.visible)

    def with_happened(self, names: Tuple[str, ...]) -> "StateSnapshot":
        return StateSnapshot(self.queries, tuple(names), self.version, self.timestamp_ms)
