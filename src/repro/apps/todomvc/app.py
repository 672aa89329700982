"""The DOM-backed TodoMVC application (reference + injectable faults).

Markup follows the standard TodoMVC template::

    section.todoapp
      header.header
        h1 "todos"
        input.new-todo
      section.main                      (hidden when there are no items)
        input#toggle-all.toggle-all
        ul.todo-list
          li[.completed][.editing]
            input.toggle  label  button.destroy  [input.edit while editing]
      footer.footer                     (hidden when there are no items)
        span.todo-count > strong
        ul.filters > li > a(.selected)
        button.clear-completed          (hidden when nothing is completed)

Items hidden by the active filter stay in the DOM with
``display: none`` (several real implementations do the same); the formal
specification therefore distinguishes *present* from *visible* items.

Event handling uses delegation on the list so that re-renders need not
re-register listeners.  The editing list item is mutated in place (never
re-rendered) so the edit input keeps focus and value.
"""

from __future__ import annotations

from typing import List, Optional

from ...browser.webdriver import Page
from ...dom.node import Element
from .faults import Faults
from .model import FILTERS

__all__ = ["TodoMvcApp", "todomvc_app"]

_STORAGE_KEY = "todos-repro"

_FILTER_LABELS = {"all": "All", "active": "Active", "completed": "Completed"}
_HASH_TO_FILTER = {"": "all", "/": "all", "/active": "active", "/completed": "completed"}


class _Item:
    """Mutable item record (id-stable across renders)."""

    def __init__(self, item_id: int, text: str, completed: bool = False) -> None:
        self.id = item_id
        self.text = text
        self.completed = completed


class TodoMvcApp:
    """The application under test."""

    def __init__(self, page: Page, faults: Optional[Faults] = None) -> None:
        self.page = page
        self.faults = faults or Faults()
        self.items: List[_Item] = []
        self.graveyard: List[_Item] = []  # P11 zombies
        #: Items are numbered per mounted app, so the ``data-id`` a state
        #: captures never depends on what earlier sessions created.
        self._next_id = 1
        self.filter = "all"
        self.editing_id: Optional[int] = None
        self._editing_original: str = ""
        self._build_skeleton()
        self._load()
        self._wire_events()
        self.render()

    # ------------------------------------------------------------------
    # Skeleton
    # ------------------------------------------------------------------

    def _build_skeleton(self) -> None:
        document = self.page.document
        self.new_todo = Element(
            "input",
            {"class": "new-todo", "placeholder": "What needs to be done?"},
        )
        self.toggle_all = Element(
            "input", {"id": "toggle-all", "class": "toggle-all", "type": "checkbox"}
        )
        self.todo_list = Element("ul", {"class": "todo-list"})
        self.main = Element(
            "section", {"class": "main"}, children=[self.toggle_all, self.todo_list]
        )
        self.count_span = Element("span", {"class": "todo-count"})
        self.clear_completed = Element(
            "button", {"class": "clear-completed"}, text="Clear completed"
        )
        footer_children: List[Element] = [self.count_span]
        self.filters = Element("ul", {"class": "filters"})
        if not self.faults.missing_filters:
            for name in FILTERS:
                href = "#/" if name == "all" else f"#/{name}"
                link = Element("a", {"href": href}, text=_FILTER_LABELS[name])
                self.filters.append_child(Element("li", children=[link]))
            footer_children.append(self.filters)
        footer_children.append(self.clear_completed)
        self.footer = Element("footer", {"class": "footer"}, children=footer_children)
        self.root = Element(
            "section",
            {"class": "todoapp"},
            children=[
                Element(
                    "header",
                    {"class": "header"},
                    children=[Element("h1", text="todos"), self.new_todo],
                ),
                self.main,
                self.footer,
            ],
        )
        document.root.append_child(self.root)

    # ------------------------------------------------------------------
    # Persistence and routing
    # ------------------------------------------------------------------

    def _load(self) -> None:
        stored = self.page.storage.get_json(_STORAGE_KEY, default=[])
        for entry in stored:
            self.items.append(
                self._new_item(str(entry.get("title", "")),
                               bool(entry.get("completed")))
            )
        self.filter = _HASH_TO_FILTER.get(self.page.document.location_hash, "all")

    def _save(self) -> None:
        if self.faults.broken_persistence:
            return
        self.page.storage.set_json(
            _STORAGE_KEY,
            [{"title": i.text, "completed": i.completed} for i in self.items],
        )

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------

    def _wire_events(self) -> None:
        document = self.page.document
        document.add_event_listener(self.new_todo, "keydown", self._on_new_todo_key)
        document.add_event_listener(self.toggle_all, "change", self._on_toggle_all)
        document.add_event_listener(self.todo_list, "change", self._on_list_change)
        document.add_event_listener(self.todo_list, "click", self._on_list_click)
        document.add_event_listener(self.todo_list, "dblclick", self._on_list_dblclick)
        document.add_event_listener(self.todo_list, "keydown", self._on_list_key)
        document.add_event_listener(self.clear_completed, "click", self._on_clear_completed)
        if not self.faults.missing_filters:
            document.add_event_listener(document.root, "hashchange", self._on_hash_change)

    def _new_item(self, text: str, completed: bool = False) -> _Item:
        item = _Item(self._next_id, text, completed)
        self._next_id += 1
        return item

    def _item_of(self, element: Element) -> Optional[_Item]:
        node = element
        while node is not None and node.get_attribute("data-id") is None:
            node = node.parent
        if node is None:
            return None
        item_id = int(node.get_attribute("data-id"))
        for item in self.items:
            if item.id == item_id:
                return item
        return None

    # -- creating ------------------------------------------------------

    def _on_new_todo_key(self, event) -> None:
        if event.key != "Enter":
            return
        self._add_item(self.new_todo.value)

    def _add_item(self, raw_text: str) -> None:
        if self.faults.allows_blank_items:
            text = raw_text
        else:
            text = raw_text.strip()
            if not text:
                return
        self.items.append(self._new_item(text))
        self.new_todo.value = ""
        if self.faults.add_resets_filter:
            self.filter = "all"
        self._save()
        if self.faults.add_transient_empty:
            # Buggy implementations briefly render an empty list before
            # the asynchronous re-render fills it back in (Table 2, #14).
            real_items = self.items
            self.items = []
            self.render()
            self.items = real_items

            def repopulate() -> None:
                self.render()

            self.page.set_timeout(repopulate, 30)
            return
        self.render()

    # -- toggling ------------------------------------------------------

    def _on_toggle_all(self, _event) -> None:
        target_state = self.toggle_all.checked
        if self.faults.toggle_all_filtered_only:
            affected = self._filtered_items()
        else:
            affected = list(self.items)
        for item in affected:
            item.completed = target_state
        if self.faults.empty_edit_keeps_item and target_state and self.graveyard:
            # Resurrect zombies: the hidden "deleted" items come back,
            # completed (Table 2, #11).
            for zombie in self.graveyard:
                zombie.completed = True
                self.items.append(zombie)
            self.graveyard = []
        if self.faults.commits_pending_input:
            self._commit_pending_input()
        self._save()
        self.render()

    def _on_list_change(self, event) -> None:
        if "toggle" not in event.target.classes:
            return
        item = self._item_of(event.target)
        if item is not None:
            item.completed = event.target.checked
            self._save()
            self.render()

    # -- deleting ------------------------------------------------------

    def _on_list_click(self, event) -> None:
        if "destroy" not in event.target.classes:
            return
        item = self._item_of(event.target)
        if item is None:
            return
        self.items.remove(item)
        if self.faults.clears_pending_input and not self.items:
            self.new_todo.value = ""
        self._save()
        self.render()

    # -- editing -------------------------------------------------------

    def _on_list_dblclick(self, event) -> None:
        if event.target.tag != "label":
            return
        item = self._item_of(event.target)
        if item is None or self.editing_id is not None:
            return
        self.editing_id = item.id
        self._editing_original = item.text
        li = self._li_of(item.id)
        li.add_class("editing")
        edit = Element("input", {"class": "edit"})
        edit.value = item.text
        li.append_child(edit)
        if not self.faults.edit_not_focused:
            self.page.document.focus(edit)
        if self.faults.editing_hides_others:
            for other in self.todo_list.element_children:
                if other is not li:
                    other.set_style("display", "none")

    def _on_list_key(self, event) -> None:
        if "edit" not in event.target.classes or self.editing_id is None:
            return
        if event.key == "Enter":
            self._commit_edit(event.target.value)
        elif event.key == "Escape":
            self._abort_edit()

    def _commit_edit(self, raw_text: str) -> None:
        item = self._find_item(self.editing_id)
        text = raw_text.strip()
        if item is not None:
            if text:
                item.text = text
            elif self.faults.empty_edit_keeps_item:
                # Remove from the list (looks deleted) but keep the
                # record; toggle-all can resurrect it.
                self.items.remove(item)
                self.graveyard.append(item)
            else:
                self.items.remove(item)
        self._finish_editing()

    def _abort_edit(self) -> None:
        item = self._find_item(self.editing_id)
        if item is not None:
            item.text = self._editing_original
        self._finish_editing()

    def _finish_editing(self) -> None:
        self.editing_id = None
        self._editing_original = ""
        self.page.document.blur()
        self._save()
        self.render()

    # -- footer --------------------------------------------------------

    def _on_clear_completed(self, _event) -> None:
        self.items = [i for i in self.items if not i.completed]
        self._save()
        self.render()

    def _on_hash_change(self, _event) -> None:
        new_filter = _HASH_TO_FILTER.get(self.page.document.location_hash)
        if new_filter is None:
            return
        self.filter = new_filter
        if self.faults.clears_pending_input:
            self.new_todo.value = ""
        if self.faults.commits_pending_input:
            self._commit_pending_input()
        self.render()

    def _commit_pending_input(self) -> None:
        pending = self.new_todo.value.strip()
        if pending:
            self.items.append(self._new_item(pending))
            self.new_todo.value = ""
            self._save()

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def _filtered_items(self) -> List[_Item]:
        if self.filter == "active":
            return [i for i in self.items if not i.completed]
        if self.filter == "completed":
            return [i for i in self.items if i.completed]
        return list(self.items)

    def _li_of(self, item_id: int) -> Optional[Element]:
        for li in self.todo_list.element_children:
            if li.get_attribute("data-id") == str(item_id):
                return li
        return None

    def _find_item(self, item_id: Optional[int]) -> Optional[_Item]:
        for item in self.items:
            if item.id == item_id:
                return item
        return None

    def render(self) -> None:
        document = self.page.document
        with document.batched():
            self._render_list()
            self._render_chrome()
        document.notify_mutation(self.root)

    def _render_list(self) -> None:
        self.todo_list.clear_children()
        visible_ids = {i.id for i in self._filtered_items()}
        for item in self.items:
            li = Element("li", {"data-id": str(item.id)})
            if item.completed:
                li.add_class("completed")
            if not self.faults.missing_checkboxes:
                toggle = Element("input", {"type": "checkbox", "class": "toggle"})
                toggle.checked = item.completed
                li.append_child(toggle)
            li.append_child(Element("label", text=item.text))
            li.append_child(Element("button", {"class": "destroy"}))
            if item.id not in visible_ids:
                li.set_style("display", "none")
            self.todo_list.append_child(li)

    def _render_chrome(self) -> None:
        has_items = bool(self.items)
        active = sum(1 for i in self.items if not i.completed)
        completed = len(self.items) - active

        if self.faults.toggle_all_hidden_on_empty_filter:
            show_main = bool(self._filtered_items())
        else:
            show_main = has_items
        self.main.set_style("display", None if show_main else "none")
        self.footer.set_style("display", None if has_items else "none")
        self.toggle_all.checked = has_items and active == 0

        noun = "items" if self.faults.bad_pluralization or active != 1 else "item"
        self.count_span.clear_children()
        if self.faults.missing_strong:
            self.count_span.append_child(f"{active} {noun} left")
        else:
            self.count_span.append_child(Element("strong", text=str(active)))
            self.count_span.append_child(f" {noun} left")

        self.clear_completed.set_style("display", None if completed else "none")

        if not self.faults.missing_filters:
            for li in self.filters.element_children:
                link = li.element_children[0]
                selected = _HASH_TO_FILTER.get(
                    (link.get_attribute("href") or "#")[1:], "all"
                ) == self.filter
                link.toggle_class("selected", on=selected)


def todomvc_app(faults: Optional[Faults] = None):
    """App factory for the browser/executor."""

    def factory(page: Page) -> TodoMvcApp:
        return TodoMvcApp(page, faults)

    return factory
