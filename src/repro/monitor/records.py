"""The monitor's wire format: framed JSONL records and the state codec.

One record per line, each a JSON object tagged with the session it
belongs to:

* ``{"session": ID, "state": {...}}`` -- one observed application state,
* ``{"session": ID, "end": true}``    -- explicit end-of-session (the
  stream promises no further states; the monitor resolves the session's
  final verdict, forcing by the polarity rule if the residual still
  demands states).

``ID`` is any JSON string or integer (integers are canonicalised to
their decimal string).  Blank lines are ignored; anything else that
fails to parse raises :class:`RecordError`, which the ingest layer
quarantines (counted and sampled, never fatal to other sessions).

The ``state`` payload mirrors :class:`~repro.specstrom.state.StateSnapshot`::

    {"queries": {"#sel": [ELEMENT, ...], ...},
     "happened": ["loaded?", ...],
     "version": 0, "timestamp_ms": 0.0}

``version``/``timestamp_ms`` are optional bookkeeping -- spec evaluation
never reads them, so they are *excluded* from :attr:`MonitorRecord.state_key`:
two sessions observing semantically identical states get equal keys
even when their stream positions differ.  ELEMENT payloads omit fields
at their defaults (``element_to_json``).

A record is decoded in one pass.  Each selector's row payload is first
looked up by its type-exact bytes (``marshal`` version 2, where
``true``, ``1`` and ``1.0`` differ and ``str``/``list``/``dict``
subclasses refuse to serialise), so a row seen before costs one
serialisation and one dict lookup.  A new row takes the slow path:
each element is validated, then interned by its validated fields
(built only on a miss), and the row by its elements' ids; only a row
that validated is remembered under its bytes, so every
:class:`RecordError` comes from the slow path.  The state key is the
sorted ``(selector, row id)`` pairs plus ``happened``, so hashing it
never re-hashes an element, and formatting (key order, whitespace,
explicit defaults) can never split a key: a differently formatted row
misses the bytes table and reaches its canonical row id through the
element and row tables.  Ids are never reused and a full table resets
whole, so a reset or a thread race can only split a key, never merge
two different states.
"""

from __future__ import annotations

import itertools
import json
import marshal
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from ..specstrom.state import ElementSnapshot, StateSnapshot

__all__ = [
    "RecordError",
    "MonitorRecord",
    "element_to_json",
    "element_from_json",
    "snapshot_to_json",
    "snapshot_from_json",
    "state_key",
    "encode_record",
    "parse_record",
    "trace_records",
]


class RecordError(ValueError):
    """A malformed monitor record (quarantined by the ingest layer)."""


#: Sorted ``(selector, row id)`` pairs, then ``happened``.
StateKey = Tuple[Tuple[Tuple[str, int], ...], Tuple[str, ...]]


@dataclass(frozen=True)
class MonitorRecord:
    """One parsed frame: a state observation or an end-of-session mark."""

    session_id: str
    state: Optional[StateSnapshot]  # None for end records
    state_key: Optional[StateKey]  # cohort key; None for end records
    end: bool = False


# ----------------------------------------------------------------------
# Element / snapshot codec
# ----------------------------------------------------------------------

#: Fields serialised only when they differ from the element defaults.
_ELEMENT_DEFAULTS = ElementSnapshot(tag="")
_ELEMENT_OPTIONAL = ("text", "value", "checked", "enabled", "visible", "focused")
_OPTIONAL_DEFAULTS = [(n, getattr(_ELEMENT_DEFAULTS, n)) for n in _ELEMENT_OPTIONAL]

#: Decode intern tables, process-wide since ``parse_record(line)`` takes
#: nothing else; each resets whole at ``_TABLE_LIMIT`` entries:
#: element fields -> (element, id), element ids -> (row, id), and the
#: bytes of each validated row payload -> that row's (row, id).
_TABLE_LIMIT = 1 << 14
_ELEMENTS: dict = {}
_ROWS: dict = {}
_PAYLOADS: dict = {}
_ids = itertools.count()  # never reused: one id, one content


def element_to_json(element: ElementSnapshot) -> dict:
    """JSON payload of one element; default-valued fields are omitted."""
    data: dict = {"tag": element.tag}
    for name in _ELEMENT_OPTIONAL:
        value = getattr(element, name)
        if value != getattr(_ELEMENT_DEFAULTS, name):
            data[name] = value
    if element.classes:
        data["classes"] = list(element.classes)
    if element.attributes:
        data["attributes"] = {key: value for key, value in element.attributes}
    return data


def _element_fields(data: object) -> tuple:
    """Validate one element payload; its ``ElementSnapshot`` fields, in order."""
    if not isinstance(data, dict):
        raise RecordError(f"element payload must be an object, got {type(data).__name__}")
    tag = data.get("tag")
    if not isinstance(tag, str):
        raise RecordError("element payload needs a string 'tag'")
    fields = [tag]
    for name, default in _OPTIONAL_DEFAULTS:
        value = data.get(name, default)
        # bool is an int subclass; demand the exact flavour the snapshot
        # holds so round-trips stay canonical and an int can never look
        # up a cached bool (True == 1, hash(True) == hash(1)).
        if type(value) is not type(default):
            raise RecordError(
                f"element field {name!r} must be {type(default).__name__}, "
                f"got {type(value).__name__}"
            )
        fields.append(value)
    classes = data.get("classes", [])
    if not isinstance(classes, list) or not all(isinstance(c, str) for c in classes):
        raise RecordError("element 'classes' must be a list of strings")
    attributes = data.get("attributes", {})
    if not isinstance(attributes, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in attributes.items()
    ):
        raise RecordError("element 'attributes' must map strings to strings")
    fields.append(tuple(classes))
    fields.append(tuple(sorted(attributes.items())))
    return tuple(fields)


def _remember(table: dict, key, value):
    if len(table) >= _TABLE_LIMIT:
        table.clear()
    table[key] = value
    return value


def _decode_row(payloads: list) -> tuple:
    """Validate and intern one selector's elements: ``(row, row id)``."""
    try:
        # Version 2 writes no back-references, so equal payloads give
        # equal bytes whichever objects the JSON decoder shared.
        key = marshal.dumps(payloads, 2)
    except ValueError:  # a subclass or too deep: validate it every time
        key = None
    else:
        row = _PAYLOADS.get(key)
        if row is not None:
            return row
    entries = []
    for payload in payloads:
        fields = _element_fields(payload)
        entry = _ELEMENTS.get(fields)
        if entry is None:
            entry = _remember(
                _ELEMENTS, fields, (ElementSnapshot(*fields), next(_ids))
            )
        entries.append(entry)
    ids = tuple([entry[1] for entry in entries])
    row = _ROWS.get(ids)
    if row is None:
        row = _remember(
            _ROWS, ids, (tuple([entry[0] for entry in entries]), next(_ids))
        )
    if key is not None:
        _remember(_PAYLOADS, key, row)
    return row


def element_from_json(data: object) -> ElementSnapshot:
    return ElementSnapshot(*_element_fields(data))


def snapshot_to_json(state: StateSnapshot, *, meta: bool = True) -> dict:
    """JSON payload of one state snapshot.

    ``meta=False`` drops ``version``/``timestamp_ms`` -- the projection
    used for :func:`state_key`, since spec evaluation reads only
    ``queries`` and ``happened``.
    """
    payload: dict = {
        "queries": {
            selector: [element_to_json(element) for element in elements]
            for selector, elements in state.queries.items()
        },
        "happened": list(state.happened),
    }
    if meta:
        payload["version"] = state.version
        payload["timestamp_ms"] = state.timestamp_ms
    return payload


def _decode_state(data: object) -> Tuple[StateSnapshot, StateKey]:
    """Validate a state payload in one pass: the snapshot and its key."""
    if not isinstance(data, dict):
        raise RecordError(f"state payload must be an object, got {type(data).__name__}")
    queries_data = data.get("queries", {})
    if not isinstance(queries_data, dict):
        raise RecordError("state 'queries' must be an object")
    queries = {}
    rows = []
    for selector, elements in queries_data.items():
        if not isinstance(selector, str):
            raise RecordError("query selectors must be strings")
        if not isinstance(elements, list):
            raise RecordError(f"query {selector!r} must hold a list of elements")
        queries[selector], row_id = _decode_row(elements)
        rows.append((selector, row_id))
    happened = data.get("happened", [])
    if not isinstance(happened, list) or not all(isinstance(h, str) for h in happened):
        raise RecordError("state 'happened' must be a list of strings")
    version = data.get("version", 0)
    if not isinstance(version, int) or isinstance(version, bool):
        raise RecordError("state 'version' must be an integer")
    timestamp_ms = data.get("timestamp_ms", 0.0)
    if isinstance(timestamp_ms, int) and not isinstance(timestamp_ms, bool):
        try:
            timestamp_ms = float(timestamp_ms)
        except OverflowError:
            raise RecordError("state 'timestamp_ms' is out of range") from None
    if not isinstance(timestamp_ms, float):
        raise RecordError("state 'timestamp_ms' must be a number")
    happened = tuple(happened)
    rows.sort()
    state = StateSnapshot(
        queries=queries,
        happened=happened,
        version=version,
        timestamp_ms=timestamp_ms,
    )
    return state, (tuple(rows), happened)


def snapshot_from_json(data: object) -> StateSnapshot:
    return _decode_state(data)[0]


def state_key(state: StateSnapshot) -> StateKey:
    """The cohort key :func:`parse_record` gives any wire line carrying
    ``state``: semantically identical states (same queries and happened
    set; version/timestamp excluded) get equal keys.  Raises
    :class:`RecordError` for a state the wire format cannot carry."""
    return _decode_state(snapshot_to_json(state, meta=False))[1]


# ----------------------------------------------------------------------
# Record framing
# ----------------------------------------------------------------------


def encode_record(
    session_id: Union[str, int],
    state: Optional[StateSnapshot] = None,
    *,
    end: bool = False,
) -> str:
    """One wire line (no trailing newline) for a state or an end mark."""
    if (state is None) == (not end):
        raise ValueError("a record carries exactly one of state= or end=True")
    payload: dict = {"session": session_id}
    if end:
        payload["end"] = True
    else:
        payload["state"] = snapshot_to_json(state)
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def parse_record(line: str) -> Optional[MonitorRecord]:
    """Parse one wire line; blank lines give ``None``.

    Raises :class:`RecordError` for anything malformed: invalid JSON
    (including a partial line from a torn write, and nesting deeper
    than the interpreter's recursion limit), a missing/ill-typed
    session tag, a record that is neither a state nor an end mark, or a
    state payload that fails validation.
    """
    text = line.strip()
    if not text:
        return None
    try:
        data = json.loads(text)
    except ValueError as error:
        raise RecordError(f"invalid JSON: {error}") from None
    except RecursionError:
        raise RecordError("invalid JSON: nested too deeply") from None
    if not isinstance(data, dict):
        raise RecordError(f"record must be an object, got {type(data).__name__}")
    session = data.get("session")
    if isinstance(session, int) and not isinstance(session, bool):
        session = str(session)
    if not isinstance(session, str) or not session:
        raise RecordError("record needs a non-empty 'session' tag")
    end = data.get("end", False)
    if end is not False and end is not True:
        raise RecordError("'end' must be a boolean")
    has_state = "state" in data
    if end and has_state:
        raise RecordError("a record carries either 'state' or 'end', not both")
    if end:
        return MonitorRecord(session_id=session, state=None, state_key=None,
                             end=True)
    if not has_state:
        raise RecordError("record carries neither 'state' nor 'end'")
    state, key = _decode_state(data["state"])
    return MonitorRecord(session_id=session, state=state, state_key=key)


def trace_records(
    session_id: Union[str, int],
    trace: Sequence[object],
    *,
    end: bool = True,
) -> List[str]:
    """Encode a recorded trace as wire lines for one session.

    ``trace`` holds :class:`StateSnapshot`\\ s or objects with a
    ``.state`` attribute (the checker's ``TraceEntry``).  With ``end``
    (the default) a final end-of-session mark is appended, so replaying
    the lines resolves the session exactly like the offline checker
    resolves a finished test.
    """
    lines = []
    for entry in trace:
        state = getattr(entry, "state", entry)
        lines.append(encode_record(session_id, state))
    if end:
        lines.append(encode_record(session_id, end=True))
    return lines
