"""A CSS selector engine for the simulated DOM.

Supports the selector subset needed by acceptance-testing specifications
(and a bit more):

* type, universal, ``#id``, ``.class`` simple selectors,
* attribute selectors ``[attr]``, ``[attr=value]``, ``[attr="value"]``,
  ``[attr^=v]``, ``[attr$=v]``, ``[attr*=v]``,
* pseudo-classes ``:checked``, ``:focus``, ``:visible`` (Selenium-style,
  not standard CSS), ``:disabled``, ``:enabled``, ``:empty``,
  ``:first-child``, ``:last-child``, ``:nth-child(k)``, ``:not(...)``,
* combinators: descendant (whitespace), child ``>``, adjacent sibling
  ``+``, general sibling ``~``,
* selector lists separated by commas.

The matcher is right-to-left, like production engines: the rightmost
compound is matched against a candidate element and the remaining
combinators walk outwards.  :func:`rightmost_key` names the id, class
or tag every match of a selector carries, so a document index can hand
:func:`filter_candidates` only the elements that bear it (the rule
hashing browsers do); the module-level :func:`query_all` filters the
whole tree and is the uncached reference for
:meth:`repro.dom.Document.query_all`.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from .node import Element

__all__ = [
    "SelectorError",
    "parse_selector",
    "matches",
    "filter_candidates",
    "rightmost_key",
    "query_all",
    "query_one",
]


class SelectorError(ValueError):
    """Raised for selectors outside the supported grammar."""


@dataclass(frozen=True)
class AttributeTest:
    name: str
    operator: Optional[str] = None  # '=', '^=', '$=', '*='
    value: Optional[str] = None


@dataclass(frozen=True)
class PseudoClass:
    name: str
    argument: Optional[object] = None  # int for nth-child, Compound for not


@dataclass(frozen=True)
class Compound:
    """One compound selector: tag/universal plus simple selector tests."""

    tag: Optional[str] = None
    element_id: Optional[str] = None
    classes: Tuple[str, ...] = ()
    attributes: Tuple[AttributeTest, ...] = ()
    pseudos: Tuple[PseudoClass, ...] = ()


@dataclass(frozen=True)
class Selector:
    """A complex selector: compounds joined by combinators.

    ``parts[0]`` is the leftmost compound; ``combinators[i]`` joins
    ``parts[i]`` to ``parts[i+1]`` and is one of ``' '``, ``'>'``,
    ``'+'``, ``'~'``.
    """

    parts: Tuple[Compound, ...]
    combinators: Tuple[str, ...]


@dataclass(frozen=True)
class SelectorList:
    selectors: Tuple[Selector, ...]

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"SelectorList({len(self.selectors)} selectors)"


_IDENT = r"[A-Za-z_][-A-Za-z0-9_]*"
_TOKEN_RE = re.compile(
    rf"""
    (?P<ws>\s+)
  | (?P<comb>[>+~])
  | (?P<comma>,)
  | (?P<hash>\#(?P<hash_name>{_IDENT}))
  | (?P<class>\.(?P<class_name>{_IDENT}))
  | (?P<attr>\[\s*(?P<attr_name>{_IDENT})\s*
      (?:(?P<attr_op>[\^\$\*]?=)\s*
         (?P<attr_value>"[^"]*"|'[^']*'|[^\]\s]+)\s*)?\])
  | (?P<pseudo>:(?P<pseudo_name>[-A-Za-z]+))
  | (?P<star>\*)
  | (?P<tag>{_IDENT})
""",
    re.VERBOSE,
)

_SUPPORTED_PSEUDOS = {
    "checked",
    "focus",
    "visible",
    "hidden",
    "disabled",
    "enabled",
    "empty",
    "first-child",
    "last-child",
    "nth-child",
    "not",
}


@functools.lru_cache(maxsize=1024)
def parse_selector(source: str) -> SelectorList:
    """Parse a selector list; raises :class:`SelectorError` on bad input.

    Memoized by source string: a spec's selector set is fixed, so every
    query after the first reuses the (frozen) parse.  Errors are not
    cached; a bad selector raises on every call.
    """
    source = source.strip()
    if not source:
        raise SelectorError("empty selector")
    selectors = []
    for chunk in _split_top_level_commas(source):
        selectors.append(_parse_complex(chunk.strip()))
    return SelectorList(tuple(selectors))


def _split_top_level_commas(source: str) -> List[str]:
    chunks, depth, start = [], 0, 0
    for i, ch in enumerate(source):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == "," and depth == 0:
            chunks.append(source[start:i])
            start = i + 1
    chunks.append(source[start:])
    if any(not c.strip() for c in chunks):
        raise SelectorError(f"empty selector in list: {source!r}")
    return chunks


def _parse_complex(source: str) -> Selector:
    parts: List[Compound] = []
    combinators: List[str] = []
    pos = 0
    pending_combinator: Optional[str] = None
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            raise SelectorError(f"cannot parse selector at {source[pos:]!r}")
        pos = match.end()
        if match.group("ws"):
            continue
        if match.group("comb"):
            if pending_combinator is not None or not parts:
                raise SelectorError(f"misplaced combinator in {source!r}")
            pending_combinator = match.group("comb")
            continue
        if match.group("comma"):
            raise SelectorError("unexpected comma")  # handled by caller
        # Start of a compound selector.
        compound, pos = _parse_compound(source, match, pos)
        if parts:
            combinators.append(pending_combinator or " ")
        elif pending_combinator is not None:
            raise SelectorError(f"selector cannot start with combinator: {source!r}")
        parts.append(compound)
        pending_combinator = None
    if pending_combinator is not None:
        raise SelectorError(f"dangling combinator in {source!r}")
    if not parts:
        raise SelectorError(f"no compound selector in {source!r}")
    return Selector(tuple(parts), tuple(combinators))


def _parse_compound(source: str, first_match, pos: int) -> Tuple[Compound, int]:
    tag = None
    element_id = None
    classes: List[str] = []
    attributes: List[AttributeTest] = []
    pseudos: List[PseudoClass] = []

    def absorb(match, after: int) -> Tuple[bool, int]:
        nonlocal tag, element_id
        if match.group("star"):
            return True, after
        if match.group("tag"):
            tag = match.group("tag").lower()  # noqa: F841 (assigned nonlocal)
            return True, after
        if match.group("hash"):
            element_id = match.group("hash_name")
            return True, after
        if match.group("class"):
            classes.append(match.group("class_name"))
            return True, after
        if match.group("attr"):
            value = match.group("attr_value")
            if value is not None and value[:1] in "\"'":
                value = value[1:-1]
            operator = match.group("attr_op")
            attributes.append(AttributeTest(match.group("attr_name"), operator, value))
            return True, after
        if match.group("pseudo"):
            argument_text, after = _scan_pseudo_argument(source, after)
            pseudos.append(_build_pseudo(match.group("pseudo_name"), argument_text))
            return True, after
        return False, after

    ok, pos = absorb(first_match, pos)
    if not ok:
        raise SelectorError(f"cannot parse compound selector in {source!r}")
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            raise SelectorError(f"cannot parse selector at {source[pos:]!r}")
        if match.group("ws") or match.group("comb") or match.group("comma"):
            break
        if match.group("tag") or match.group("star"):
            raise SelectorError(f"type selector must come first in {source!r}")
        _, pos = absorb(match, match.end())
    return (
        Compound(tag, element_id, tuple(classes), tuple(attributes), tuple(pseudos)),
        pos,
    )


def _scan_pseudo_argument(source: str, pos: int) -> Tuple[Optional[str], int]:
    """Scan a balanced ``(...)`` argument following a pseudo-class name."""
    if pos >= len(source) or source[pos] != "(":
        return None, pos
    depth = 0
    for i in range(pos, len(source)):
        if source[i] == "(":
            depth += 1
        elif source[i] == ")":
            depth -= 1
            if depth == 0:
                return source[pos + 1 : i], i + 1
    raise SelectorError(f"unbalanced parentheses in {source!r}")


def _build_pseudo(raw_name: str, argument_text: Optional[str]) -> PseudoClass:
    name = raw_name.lower()
    if name not in _SUPPORTED_PSEUDOS:
        raise SelectorError(f"unsupported pseudo-class :{name}")
    if name == "nth-child":
        if argument_text is None or not argument_text.strip().isdigit():
            raise SelectorError(":nth-child requires a positive integer")
        return PseudoClass(name, int(argument_text.strip()))
    if name == "not":
        if argument_text is None or not argument_text.strip():
            raise SelectorError(":not requires an argument")
        inner = _parse_complex(argument_text.strip())
        if len(inner.parts) != 1:
            raise SelectorError(":not argument must be a compound selector")
        return PseudoClass(name, inner.parts[0])
    if argument_text is not None:
        raise SelectorError(f":{name} takes no argument")
    return PseudoClass(name)


# ----------------------------------------------------------------------
# Matching
# ----------------------------------------------------------------------


def _matches_compound(element: Element, compound: Compound, document) -> bool:
    if compound.tag is not None and element.tag != compound.tag:
        return False
    if compound.element_id is not None and element.id != compound.element_id:
        return False
    element_classes = element.class_tuple()
    for cls in compound.classes:
        if cls not in element_classes:
            return False
    for test in compound.attributes:
        actual = element.get_attribute(test.name)
        if actual is None:
            return False
        if test.operator == "=" and actual != test.value:
            return False
        if test.operator == "^=" and not actual.startswith(test.value):
            return False
        if test.operator == "$=" and not actual.endswith(test.value):
            return False
        if test.operator == "*=" and test.value not in actual:
            return False
    for pseudo in compound.pseudos:
        if not _matches_pseudo(element, pseudo, document):
            return False
    return True


def _matches_pseudo(element: Element, pseudo: PseudoClass, document) -> bool:
    name = pseudo.name
    if name == "checked":
        return element.checked
    if name == "focus":
        return document is not None and document.active_element is element
    if name == "visible":
        return element.visible
    if name == "hidden":
        return not element.visible
    if name == "disabled":
        return element.disabled
    if name == "enabled":
        return element.enabled
    if name == "empty":
        return not element.children
    if name == "first-child":
        return element.parent is not None and element.index_in_parent == 0
    if name == "last-child":
        if element.parent is None:
            return False
        return element.index_in_parent == len(element.parent.element_children) - 1
    if name == "nth-child":
        return element.parent is not None and element.index_in_parent == pseudo.argument - 1
    if name == "not":
        return not _matches_compound(element, pseudo.argument, document)
    raise SelectorError(f"unsupported pseudo-class :{name}")  # pragma: no cover


def _matches_selector(element: Element, selector: Selector, document) -> bool:
    if not _matches_compound(element, selector.parts[-1], document):
        return False
    return _match_leftwards(element, selector, len(selector.parts) - 1, document)


def _match_leftwards(element: Element, selector: Selector, index: int, document) -> bool:
    if index == 0:
        return True
    combinator = selector.combinators[index - 1]
    target = selector.parts[index - 1]
    if combinator == ">":
        parent = element.parent
        return (
            parent is not None
            and _matches_compound(parent, target, document)
            and _match_leftwards(parent, selector, index - 1, document)
        )
    if combinator == " ":
        ancestor = element.parent
        while ancestor is not None:
            if _matches_compound(ancestor, target, document) and _match_leftwards(
                ancestor, selector, index - 1, document
            ):
                return True
            ancestor = ancestor.parent
        return False
    if combinator == "+":
        sibling = _previous_element_sibling(element)
        return (
            sibling is not None
            and _matches_compound(sibling, target, document)
            and _match_leftwards(sibling, selector, index - 1, document)
        )
    if combinator == "~":
        sibling = _previous_element_sibling(element)
        while sibling is not None:
            if _matches_compound(sibling, target, document) and _match_leftwards(
                sibling, selector, index - 1, document
            ):
                return True
            sibling = _previous_element_sibling(sibling)
        return False
    raise SelectorError(f"unknown combinator {combinator!r}")  # pragma: no cover


def _previous_element_sibling(element: Element) -> Optional[Element]:
    if element.parent is None:
        return None
    siblings = element.parent.element_children
    position = siblings.index(element)
    if position == 0:
        return None
    return siblings[position - 1]


def matches(element: Element, selector, document=None) -> bool:
    """Does ``element`` match the selector (string or parsed)?"""
    if isinstance(selector, str):
        selector = parse_selector(selector)
    return any(_matches_selector(element, s, document) for s in selector.selectors)


def filter_candidates(
    candidates: Iterable[Element], selector: SelectorList, document=None
) -> List[Element]:
    """The candidates matching the parsed ``selector``, in their order."""
    return [
        el
        for el in candidates
        if any(_matches_selector(el, s, document) for s in selector.selectors)
    ]


def rightmost_key(selector: SelectorList) -> Optional[Tuple[str, str]]:
    """``("id" | "class" | "tag", name)`` that every element matching
    ``selector`` carries, taken from its rightmost compound (an id before
    a class before a tag); None for a list of several selectors and for a
    rightmost compound with none of the three (universal, attribute- or
    pseudo-class-only), which must be matched against every element."""
    if len(selector.selectors) != 1:
        return None
    compound = selector.selectors[0].parts[-1]
    if compound.element_id is not None:
        return "id", compound.element_id
    if compound.classes:
        return "class", compound.classes[0]
    if compound.tag is not None:
        return "tag", compound.tag
    return None


def query_all(root: Element, selector, document=None) -> List[Element]:
    """All descendant elements of ``root`` matching, in document order.

    Walks and matches the whole tree on every call: the reference the
    document's generation-keyed cache is tested against.
    """
    if isinstance(selector, str):
        selector = parse_selector(selector)
    return filter_candidates(root.iter_elements(), selector, document)


def query_one(root: Element, selector, document=None) -> Optional[Element]:
    """The first matching descendant element, or None."""
    if isinstance(selector, str):
        selector = parse_selector(selector)
    for el in root.iter_elements():
        if matches(el, selector, document):
            return el
    return None
