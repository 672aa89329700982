"""The wire codec: round-trips, canonicalisation, malformed input."""

import json
import re
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api import CheckSession, CheckTarget, SessionConfig
from repro.apps.todomvc import implementation_named
from repro.checker import RunnerConfig
from repro.monitor import records
from repro.monitor.records import (
    RecordError,
    element_to_json,
    encode_record,
    parse_record,
    snapshot_from_json,
    snapshot_to_json,
    state_key,
    trace_records,
)
from repro.monitor.replay import interleave_sessions
from repro.specs import load_todomvc_spec
from repro.specstrom.state import ElementSnapshot, StateSnapshot
from tests.strategies import examples, state_snapshots

#: Whitespace a wire line may carry around any JSON token.
_SPACES = st.sampled_from(("", " ", "  ", "\t"))

_OPTIONAL_FIELDS = ("text", "value", "checked", "enabled", "visible", "focused")


#: Malformed wire lines and the exact RecordError message of each.
_MALFORMED = {
    "not json at all":
        "invalid JSON: Expecting value: line 1 column 1 (char 0)",
    '{"session": "a"':  # torn write
        "invalid JSON: Expecting ',' delimiter: line 1 column 16 (char 15)",
    "[1, 2]": "record must be an object, got list",
    '{"state": {}}':  # no session
        "record needs a non-empty 'session' tag",
    '{"session": "", "end": true}':  # empty session
        "record needs a non-empty 'session' tag",
    '{"session": true, "end": true}':  # bool is not an id
        "record needs a non-empty 'session' tag",
    '{"session": "a"}':  # neither state nor end
        "record carries neither 'state' nor 'end'",
    '{"session": "a", "end": 1}': "'end' must be a boolean",
    '{"session": "a", "end": true, "state": {}}':  # both
        "a record carries either 'state' or 'end', not both",
    '{"session": "a", "state": []}':
        "state payload must be an object, got list",
    '{"session": "a", "state": {"queries": []}}':
        "state 'queries' must be an object",
    '{"session": "a", "state": {"queries": {"#x": [{"text": "hi"}]}}}':
        "element payload needs a string 'tag'",
    '{"session": "a", "state": {"queries": {"#x": [{"tag": "div", '
    '"checked": "yes"}]}}}':
        "element field 'checked' must be bool, got str",
    '{"session": "a", "state": {"happened": "tick?"}}':
        "state 'happened' must be a list of strings",
    '{"session": "a", "state": {"happened": [1]}}':
        "state 'happened' must be a list of strings",
    '{"session": "a", "state": {"version": true}}':
        "state 'version' must be an integer",
    '{"session": "a", "state": {"timestamp_ms": "soon"}}':
        "state 'timestamp_ms' must be a number",
    # The bool/int intern trap: True == 1 and hash(True) == hash(1), and
    # the test's primer has decoded {"tag": "div", "checked": true}.
    '{"session": "a", "state": {"queries": {"#x": [{"tag": "div", '
    '"checked": 1}]}}}':
        "element field 'checked' must be bool, got int",
    '{"session": "a", "state": {"queries": {"#x": [{"tag": "div", '
    '"classes": null}]}}}':
        "element 'classes' must be a list of strings",
    '{"session": "a", "state": {"queries": {"#x": [{"tag": "div", '
    '"attributes": {"a": 1}}]}}}':
        "element 'attributes' must map strings to strings",
    '{"session": "a", "state": {"queries": {"#x": [["tag", "div"]]}}}':
        "element payload must be an object, got list",
    '{"session": "a", "state": {"queries": {"#x": {"tag": "div"}}}}':
        "query '#x' must hold a list of elements",
    # An integer too large for a float, and nesting past the recursion
    # limit: neither may escape as OverflowError or RecursionError.
    '{"session":"x","state":{"timestamp_ms":1' + "0" * 400 + '}}':
        "state 'timestamp_ms' is out of range",
    "[" * 100_000: "invalid JSON: nested too deeply",
}

#: Numbers that equal a bool under ``==``, and the wire fields a valid
#: row may carry a bool in.
_NUMBER_TRAPS = (1, 1.0, 0, 0.0)
_BOOL_FIELDS = ("checked", "enabled", "visible", "focused")


def _clear_decode_tables():
    """Empty the three process-wide decode tables."""
    for table in (records._ELEMENTS, records._ROWS, records._PAYLOADS):
        table.clear()


def _outcome(line: str):
    """What ``parse_record`` makes of ``line``: the error text, or the
    state's repr (which tells ``True`` from ``1``) and its key with row
    ids renumbered by first appearance."""
    try:
        record = parse_record(line)
    except RecordError as error:
        return "error", str(error)
    rows, happened = record.state_key
    renamed = {}
    key = tuple(
        (selector, renamed.setdefault(row_id, len(renamed)))
        for selector, row_id in rows
    )
    return "state", repr(record.state), (key, happened)


def _state_line(elements: list) -> str:
    return json.dumps({"session": "t", "state": {"queries": {"#x": elements}}})


def _render(draw, value) -> str:
    """JSON text for ``value``: object keys shuffled at every level,
    random whitespace around every token."""
    if isinstance(value, dict):
        items = draw(st.permutations(list(value.items())))
        members = [
            f"{draw(_SPACES)}{json.dumps(key)}{draw(_SPACES)}:"
            f"{draw(_SPACES)}{_render(draw, item)}{draw(_SPACES)}"
            for key, item in items
        ]
        return "{" + ",".join(members) + draw(_SPACES) + "}"
    if isinstance(value, list):
        items = [f"{draw(_SPACES)}{_render(draw, item)}{draw(_SPACES)}"
                 for item in value]
        return "[" + ",".join(items) + draw(_SPACES) + "]"
    return json.dumps(value)


def _verbose_element(draw, element: ElementSnapshot) -> dict:
    """``element_to_json`` with some default fields written out."""
    payload = element_to_json(element)
    for name in _OPTIONAL_FIELDS:
        if name not in payload and draw(st.booleans()):
            payload[name] = getattr(element, name)
    if not element.classes and draw(st.booleans()):
        payload["classes"] = []
    if not element.attributes and draw(st.booleans()):
        payload["attributes"] = {}
    return payload


@st.composite
def wire_lines(draw, state: StateSnapshot, session: str = "s") -> str:
    """One wire line carrying ``state`` in a varied but valid format,
    with its own random ``version``/``timestamp_ms``."""
    payload = {
        "queries": {
            selector: [_verbose_element(draw, e) for e in elements]
            for selector, elements in state.queries.items()
        },
        "happened": list(state.happened),
        "version": draw(st.integers(min_value=0, max_value=10**6)),
        "timestamp_ms": draw(st.one_of(
            st.integers(min_value=0, max_value=10**9),
            st.floats(min_value=0, max_value=1e9),
        )),
    }
    for meta in ("version", "timestamp_ms"):
        if draw(st.booleans()):
            del payload[meta]
    record = {"session": session, "state": payload}
    return draw(_SPACES) + _render(draw, record) + draw(_SPACES)


@st.composite
def near_states(draw, state: StateSnapshot) -> StateSnapshot:
    """``state`` with at most one small change that may or may not
    matter to spec evaluation."""
    queries = dict(state.queries)
    happened = state.happened
    selector = draw(st.sampled_from(sorted(queries)))
    row = queries[selector]
    change = draw(st.sampled_from(
        ("reverse", "flip", "drop", "happened", "reorder", "meta")
    ))
    if change == "reverse":
        queries[selector] = row[::-1]
    elif change == "flip" and row:
        index = draw(st.integers(min_value=0, max_value=len(row) - 1))
        flipped = replace(row[index], checked=not row[index].checked)
        queries[selector] = row[:index] + (flipped,) + row[index + 1:]
    elif change == "drop" and row:
        queries[selector] = row[1:]
    elif change == "happened":
        happened = happened + ("tick?",)
    elif change == "reorder":
        queries = dict(reversed(list(queries.items())))
    return StateSnapshot(
        queries=queries,
        happened=happened,
        version=draw(st.integers(min_value=0, max_value=50)),
        timestamp_ms=state.timestamp_ms + 1.0,
    )


class TestSnapshotRoundTrip:
    @given(state=state_snapshots())
    @examples(80)
    def test_json_round_trip_is_identity(self, state):
        assert snapshot_from_json(snapshot_to_json(state)) == state

    @given(state=state_snapshots())
    @examples(60)
    def test_wire_round_trip_through_record(self, state):
        record = parse_record(encode_record("s1", state))
        assert record.session_id == "s1"
        assert record.state == state
        assert not record.end

    def test_attributes_survive_and_sort(self):
        element = ElementSnapshot(
            tag="input", attributes=(("href", "x"), ("id", "a"))
        )
        payload = json.loads(json.dumps(
            {"tag": "input", "attributes": {"id": "a", "href": "x"}}
        ))
        from repro.monitor.records import element_from_json, element_to_json
        assert element_from_json(payload) == element
        assert element_from_json(element_to_json(element)) == element

    def test_defaults_are_omitted_on_the_wire(self):
        from repro.monitor.records import element_to_json
        assert element_to_json(ElementSnapshot(tag="div")) == {"tag": "div"}


class TestStateKey:
    def test_version_and_timestamp_do_not_split_cohorts(self):
        a = StateSnapshot(queries={}, happened=("tick?",), version=1,
                          timestamp_ms=10.0)
        b = StateSnapshot(queries={}, happened=("tick?",), version=9,
                          timestamp_ms=99.5)
        assert state_key(a) == state_key(b)

    def test_happened_matters(self):
        a = StateSnapshot(happened=("tick?",))
        b = StateSnapshot(happened=("stop!",))
        assert state_key(a) != state_key(b)

    def test_wire_formatting_cannot_split_cohorts(self):
        """Explicit defaults, key order and whitespace on the wire must
        map to the same cohort key."""
        verbose = ('{"session": "x", "state": {"happened": ["tick?"], '
                   '"queries": {"#a": [{"enabled": true, "text": "", '
                   '"tag": "div", "visible": true}]}, "version": 3}}')
        terse = ('{"session":"x","state":{"queries":{"#a":[{"tag":"div"}]},'
                 '"happened":["tick?"]}}')
        assert (parse_record(verbose).state_key
                == parse_record(terse).state_key)


class TestFormattingNeverSplitsACohort:
    """The cohort-key invariant: key order, whitespace, explicit
    defaults, attribute order and the ``version``/``timestamp_ms``
    bookkeeping never change the decoded state or its key."""

    @given(state=state_snapshots(attributes=True), data=st.data())
    @examples(150)
    def test_any_wire_format_decodes_to_the_canonical_state_and_key(
        self, state, data
    ):
        line = data.draw(wire_lines(state))
        record = parse_record(line)
        assert replace(
            record.state, version=state.version,
            timestamp_ms=state.timestamp_ms,
        ) == state
        canonical = parse_record(encode_record("s", state))
        assert record.state_key == canonical.state_key
        assert record.state_key == state_key(state)

    @given(state=state_snapshots(attributes=True), data=st.data())
    @examples(150)
    def test_keys_are_equal_exactly_when_queries_and_happened_are(
        self, state, data
    ):
        other = data.draw(st.one_of(
            state_snapshots(attributes=True), near_states(state)
        ))
        same = (state.queries == other.queries
                and state.happened == other.happened)
        assert (state_key(state) == state_key(other)) == same
        assert (parse_record(encode_record("a", state)).state_key
                == parse_record(encode_record("b", other)).state_key) == same


class TestParseRecord:
    def test_blank_lines_are_skipped(self):
        assert parse_record("") is None
        assert parse_record("   \n") is None

    def test_integer_session_ids_canonicalise(self):
        record = parse_record('{"session": 17, "end": true}')
        assert record.session_id == "17"

    def test_end_record(self):
        record = parse_record('{"session": "a", "end": true}')
        assert record.end and record.state is None and record.state_key is None

    @pytest.mark.parametrize("line", list(_MALFORMED))
    def test_malformed_records_raise(self, line):
        primer = parse_record(
            '{"session": "p", "state": {"queries": {"#x": '
            '[{"tag": "div", "checked": true}]}}}'
        )
        assert primer.state.queries["#x"][0].checked is True
        with pytest.raises(RecordError) as raised:
            parse_record(line)
        assert str(raised.value) == _MALFORMED[line]


class TestTraceRecords:
    def test_accepts_snapshots_and_trace_entries(self):
        state = StateSnapshot(happened=("loaded?",))

        class Entry:
            def __init__(self, state):
                self.state = state

        for trace in ([state], [Entry(state)]):
            lines = trace_records("s", trace)
            assert len(lines) == 2
            first = parse_record(lines[0])
            assert first.state == state
            assert parse_record(lines[1]).end

    def test_end_mark_is_optional(self):
        assert trace_records("s", [], end=False) == []
        (only,) = trace_records("s", [], end=True)
        assert parse_record(only).end


class TestDecodeWork:
    """Decode work on a fixed stream: a seeded vue TodoMVC ``safety``
    campaign, recorded with ``trace_records`` and interleaved like live
    traffic.  Every distinct element is built once, and no state is
    re-encoded to find its cohort."""

    @pytest.fixture(scope="class")
    def recorded(self):
        batch = CheckSession().check_many(
            [CheckTarget(
                "vue", implementation_named("vue").app_factory(),
                spec=load_todomvc_spec().check_named("safety"),
            )],
            config=RunnerConfig(tests=3, scheduled_actions=30, seed=0,
                                shrink=False),
            session=SessionConfig(jobs=1),
        )
        traces = {
            f"vue/{index}": [entry.state for entry in test.trace]
            for index, test in enumerate(batch.outcomes[0].result.results)
        }
        lines = list(interleave_sessions({
            session: trace_records(session, trace)
            for session, trace in traces.items()
        }))
        states = [state for trace in traces.values() for state in trace]
        return lines, states

    def test_each_distinct_element_is_built_once(self, recorded, monkeypatch):
        lines, states = recorded
        distinct = {
            element
            for state in states
            for elements in state.queries.values()
            for element in elements
        }
        built = []

        def counting_element(*args, **kwargs):
            element = ElementSnapshot(*args, **kwargs)
            built.append(element)
            return element

        def forbidden(*args, **kwargs):
            raise AssertionError("parse_record re-encoded a state")

        # Start from empty tables so that no reset can fall mid-stream.
        _clear_decode_tables()
        monkeypatch.setattr(records, "ElementSnapshot", counting_element)
        monkeypatch.setattr(json, "dumps", forbidden)
        monkeypatch.setattr(records, "snapshot_to_json", forbidden)
        parsed = [parse_record(line) for line in lines]
        assert len(parsed) == len(states) + 3
        assert 0 < len(built) <= len(distinct)
        assert len(set(built)) == len(built)

    def test_each_distinct_row_payload_is_validated_once(
        self, recorded, monkeypatch
    ):
        lines, _states = recorded
        rows = [
            row
            for line in lines
            for row in json.loads(line).get("state", {"queries": {}})[
                "queries"].values()
        ]
        bound = sum({json.dumps(row): len(row) for row in rows}.values())
        validated = []
        element_fields = records._element_fields

        def counting_fields(payload):
            validated.append(payload)
            return element_fields(payload)

        _clear_decode_tables()
        monkeypatch.setattr(records, "_element_fields", counting_fields)
        for line in lines:
            parse_record(line)
        # The stream repeats rows: validating every element occurrence
        # would break the bound.
        assert bound < sum(len(row) for row in rows)
        assert 0 < len(validated) <= bound

    def test_cohort_keys_partition_like_state_equality(self, recorded):
        lines, _states = recorded
        groups = {}
        for record in map(parse_record, lines):
            if record.state is not None:
                state = record.state
                groups.setdefault(record.state_key, set()).add(
                    (tuple(sorted(state.queries.items())), state.happened)
                )
        assert all(len(contents) == 1 for contents in groups.values())
        assert len(set().union(*groups.values())) == len(groups)


class TestPayloadTable:
    """The row-payload table in front of validation: a row seen before
    is looked up by its type-exact bytes, so a value Python calls equal
    but the wire format rejects must still be rejected, with the
    message it gets from empty tables."""

    @pytest.mark.parametrize("field", _BOOL_FIELDS)
    @pytest.mark.parametrize("trap", _NUMBER_TRAPS)
    def test_a_number_never_hits_a_primed_bool(self, field, trap):
        valid = _state_line([{"tag": "div", field: bool(trap)}])
        line = _state_line([{"tag": "div", field: trap}])
        _clear_decode_tables()
        cold = _outcome(line)
        parse_record(valid)
        assert _outcome(line) == cold == (
            "error",
            f"element field {field!r} must be bool, got {type(trap).__name__}",
        )

    @pytest.mark.parametrize("element, trap, message", [
        ({"tag": "li", "classes": ["1"]}, {"tag": "li", "classes": [1]},
         "element 'classes' must be a list of strings"),
        ({"tag": "a", "attributes": {"x": "1"}},
         {"tag": "a", "attributes": {"x": 1}},
         "element 'attributes' must map strings to strings"),
    ])
    def test_a_number_never_hits_a_primed_string(self, element, trap, message):
        line = _state_line([trap])
        _clear_decode_tables()
        cold = _outcome(line)
        parse_record(_state_line([element]))
        assert _outcome(line) == cold == ("error", message)

    @given(state=state_snapshots(attributes=True), data=st.data())
    @examples(150)
    def test_warm_tables_decode_like_empty_ones(self, state, data):
        """Any wire line, a valid one or one with a bool swapped for a
        number, decodes to the same state, key or error text whether
        its rows were seen before or every table was just emptied."""
        primer = data.draw(wire_lines(state))
        line = primer
        bools = [match.span() for match in re.finditer("true|false", primer)]
        if bools and data.draw(st.booleans()):
            at, end = data.draw(st.sampled_from(bools))
            trap = data.draw(st.sampled_from(_NUMBER_TRAPS))
            line = primer[:at] + json.dumps(trap) + primer[end:]
        parse_record(encode_record("p", state))
        parse_record(primer)
        warm = _outcome(line)
        _clear_decode_tables()
        assert _outcome(line) == warm

    def test_hand_built_states_key_as_before(self):
        """``state_key`` of snapshots the wire cannot carry exactly: a
        ``str`` subclass is validated (and keyed like its plain twin)
        every time, and a wrong type is refused even when an equal
        value of the right type was keyed first."""

        class Name(str):
            pass

        plain = ElementSnapshot(tag="div", classes=("a",),
                                attributes=(("k", "v"),))

        def key_of(element):
            return state_key(StateSnapshot(queries={"#x": (element,)}))

        expected = key_of(plain)
        for twin in (replace(plain, tag=Name("div")),
                     replace(plain, classes=(Name("a"),)),
                     replace(plain, attributes=(("k", Name("v")),))):
            assert key_of(twin) == expected
            assert key_of(twin) == expected  # once more, tables warm
        for wrong, right, message in (
            (replace(plain, text=Name("x")), replace(plain, text="x"),
             "element field 'text' must be str, got Name"),
            (replace(plain, text=b"x"), replace(plain, text="x"),
             "element field 'text' must be str, got bytes"),
            (replace(plain, checked=1), replace(plain, checked=True),
             "element field 'checked' must be bool, got int"),
        ):
            key_of(right)
            with pytest.raises(RecordError) as raised:
                key_of(wrong)
            assert str(raised.value) == message
