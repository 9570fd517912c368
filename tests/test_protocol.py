"""Wire codec: canonical encoding, strict decoding, happy-path sequencing."""
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camcp import protocol
from camcp.protocol import (
    MESSAGE_TYPES,
    Envelope,
    MalformedSyntaxError,
    ProtocolError,
    SchemaViolationError,
    SequenceError,
    UnknownMessageTypeError,
    decode,
    check_payload,
    encode,
    encode_line,
    make_envelope,
    validate_sequence,
)
from camcp.store import MAX_VALUE_DEPTH, canonical_dumps, canonicalize_value
from strategies import json_values

SAMPLE_PAYLOADS = {
    "plan_request": {"query": {"raw_text": "plan it", "kind": "travel", "params": {"days": 3}}},
    "tool_declaration": {
        "server_id": "hotel_server",
        "tools": [{"name": "book_hotel", "description": "reserve", "param_schema": {"type": "object"}}],
    },
    "context_seed": {"blueprint": {"goals": ["g"], "stages": []}},
    "context_write": {"key": "hotel", "value": {"cost": 285}},
    "context_read": {"key": "hotel"},
    "completion_signal": {"completion_key": "itinerary_complete"},
    "summary_request": {"snapshot": {"hotel": "done"}},
    "final_response": {"text": "all set"},
}


def sample(msg_type: str, seq: int = 1) -> protocol.Envelope:
    return make_envelope(msg_type, seq, SAMPLE_PAYLOADS[msg_type])


# -- Encoding ----------------------------------------------------------------------


def test_encode_canonical_field_order_and_sorted_payload():
    line = encode(make_envelope("context_write", 3, {"value": {"b": 1, "a": 2}, "key": "k"}))
    assert line == '{"msg_type":"context_write","seq":3,"payload":{"key":"k","value":{"a":2,"b":1}}}'


def test_every_message_type_round_trips():
    for i, msg_type in enumerate(MESSAGE_TYPES, start=1):
        envelope = sample(msg_type, i)
        line = encode(envelope)
        assert "\n" not in line
        again = decode(line)
        assert again == envelope
        assert encode(again) == line


def test_tool_declaration_allows_zero_tools():
    envelope = make_envelope("tool_declaration", 1, {"server_id": "s", "tools": []})
    assert decode(encode(envelope)) == envelope


def test_context_seed_golden_line(golden_dir):
    line = (golden_dir / "context_seed_travel.txt").read_text().strip()
    envelope = decode(line)
    assert envelope.msg_type == "context_seed"
    assert envelope.seq == 2
    assert envelope.payload["blueprint"]["completion_key"] == "itinerary_complete"
    assert encode(envelope) == line


# -- Construction and decoding errors ---------------------------------------------------


def test_make_envelope_rejects_bad_inputs():
    with pytest.raises(UnknownMessageTypeError):
        make_envelope("bogus", 1, {})
    for bad_seq in (0, -1, 1.5, True, "1"):
        with pytest.raises(SchemaViolationError) as info:
            make_envelope("context_read", bad_seq, {"key": "k"})
        assert info.value.field == "seq"
    with pytest.raises(SchemaViolationError) as info:
        make_envelope("context_read", 1, ["not a dict"])
    assert info.value.field == "payload"


@pytest.mark.parametrize("msg_type", [["x"], {"a": 1}], ids=["list", "dict"])
def test_make_envelope_rejects_an_unhashable_msg_type(msg_type):
    with pytest.raises(UnknownMessageTypeError) as info:
        make_envelope(msg_type, 1, {})
    assert info.value.msg_type == msg_type

def test_schema_missing_field_named():
    with pytest.raises(SchemaViolationError) as info:
        make_envelope("context_write", 1, {"value": 1})
    assert info.value.field == "key"


def test_schema_ill_typed_field_named():
    with pytest.raises(SchemaViolationError) as info:
        make_envelope("context_write", 1, {"key": 5, "value": 1})
    assert info.value.field == "key"


def test_schema_unexpected_field_named():
    with pytest.raises(SchemaViolationError) as info:
        make_envelope("context_read", 1, {"key": "k", "extra": 1})
    assert info.value.field == "extra"


def test_tool_declaration_nested_schema():
    base = {"name": "n", "description": "d", "param_schema": {}}
    with pytest.raises(SchemaViolationError) as info:
        make_envelope("tool_declaration", 1, {"server_id": "s", "tools": [dict(base, name=3)]})
    assert info.value.field == "tools[0].name"
    missing = {"name": "n", "description": "d"}
    with pytest.raises(SchemaViolationError) as info:
        make_envelope("tool_declaration", 1, {"server_id": "s", "tools": [missing]})
    assert info.value.field == "tools[0].param_schema"
    with pytest.raises(SchemaViolationError) as info:
        make_envelope("tool_declaration", 1, {"server_id": "s", "tools": ["book_hotel"]})
    assert info.value.field == "tools[0]"
    extra_fields = [([dict(base, extra=1)], "tools[0].extra"), ([base, dict(base, x=1)], "tools[1].x")]
    for tools, field in extra_fields:
        with pytest.raises(SchemaViolationError) as info:
            make_envelope("tool_declaration", 1, {"server_id": "s", "tools": tools})
        assert info.value.field == field


def test_decode_errors():
    with pytest.raises(MalformedSyntaxError):
        decode("")
    with pytest.raises(MalformedSyntaxError):
        decode("{not json")
    with pytest.raises(MalformedSyntaxError):
        decode("[1,2]")
    with pytest.raises(MalformedSyntaxError):  # nested past the recursion limit
        decode('{"msg_type":"final_response","seq":1,"payload":' + "[" * 100_000 + "]" * 100_000 + "}")
    with pytest.raises(MalformedSyntaxError):  # past the interpreter's 4300-digit limit
        decode('{"msg_type":"context_write","seq":1,"payload":{"key":"k","value":' + "7" * 5001 + "}}")
    with pytest.raises(UnknownMessageTypeError):
        decode('{"msg_type":"bogus","seq":1,"payload":{}}')
    with pytest.raises(SchemaViolationError) as info:
        decode('{"msg_type":"context_write","seq":1,"payload":{"value":1}}')
    assert info.value.field == "key"
    with pytest.raises(SchemaViolationError) as info:
        decode('{"seq":1,"payload":{}}')
    assert info.value.field == "msg_type"
    with pytest.raises(SchemaViolationError) as info:
        decode('{"msg_type":"context_read","seq":1,"payload":{"key":"k"},"junk":0}')
    assert info.value.field == "junk"
    with pytest.raises(SchemaViolationError) as info:
        decode('{"msg_type":"context_write","seq":1,"payload":{"key":"k","value":NaN}}')
    assert info.value.field == "value"


def test_envelope_holds_its_own_copy_of_the_payload():
    payload = {"key": "k", "value": {"pair": (1, 2), "list": [1]}}
    envelope = make_envelope("context_write", 1, payload)
    line = encode(envelope)
    payload["value"]["list"].append(2)
    payload["value"]["extra"] = True
    assert encode(envelope) == line
    assert line == (
        '{"msg_type":"context_write","seq":1,'
        '"payload":{"key":"k","value":{"list":[1],"pair":[1,2]}}}'
    )


@pytest.mark.parametrize(
    "msg_type, seq, payload, error, field",
    [
        pytest.param("bogus", 1, {}, UnknownMessageTypeError, None, id="unknown-type"),
        pytest.param("context_read", 0, {"key": "k"}, SchemaViolationError, "seq", id="seq-zero"),
        pytest.param("context_read", True, {"key": "k"}, SchemaViolationError, "seq", id="seq-bool"),
        pytest.param("context_read", 1, ["k"], SchemaViolationError, "payload", id="payload-list"),
        pytest.param("context_write", 1, {"value": 1}, SchemaViolationError, "key", id="missing"),
        pytest.param("context_write", 1, {"key": 5, "value": 1}, SchemaViolationError, "key", id="ill-typed"),
        pytest.param("completion_signal", 1, {"completion_key": "k", "x": 1}, SchemaViolationError, "x", id="extra"),
        pytest.param("summary_request", 1, {"snapshot": []}, SchemaViolationError, "snapshot", id="snapshot-list"),
        pytest.param("final_response", 1, {"text": 5}, SchemaViolationError, "text", id="text-int"),
        pytest.param("final_response", 1, {"text": float("nan")}, SchemaViolationError, "text", id="text-nan"),
        pytest.param("final_response", 1, {"text": object()}, SchemaViolationError, "text", id="text-object"),
        pytest.param("final_response", 1, {"text": "ok", "extra": 1}, SchemaViolationError, "extra", id="text-extra"),
    ],
)
def test_encode_stored_rejects_what_make_envelope_rejects(msg_type, seq, payload, error, field):
    """What make_envelope rejects, encode rejects too once a built envelope's
    payload has been changed to it."""
    with pytest.raises(error) as info:
        make_envelope(msg_type, seq, payload)
    if field is not None:
        assert info.value.field == field
    if field not in (None, "seq", "payload"):  # the case is in a payload field
        envelope = make_envelope(msg_type, seq, SAMPLE_PAYLOADS[msg_type])
        envelope.payload.clear()
        envelope.payload.update(payload)
        with pytest.raises(error) as info:
            encode(envelope)
        assert info.value.field == field


def _nested(depth: int):
    value = 0
    for _ in range(depth):
        value = [value]
    return value


def _decode_written(msg_type, seq, payload):
    return decode(encode_line(msg_type, seq, canonical_dumps(payload)))


@pytest.mark.parametrize("build", [make_envelope, _decode_written], ids=["made", "decoded"])
def test_each_payload_field_may_nest_up_to_the_value_depth_cap(build):
    """A field as deep as a stored value may be passes; one level more is a
    schema violation naming the field, whether built or decoded."""
    deepest = {"key": "k", "value": _nested(MAX_VALUE_DEPTH)}
    assert build("context_write", 1, deepest).payload == deepest
    with pytest.raises(SchemaViolationError, match="nested too deeply") as info:
        build("context_write", 1, {"key": "k", "value": _nested(MAX_VALUE_DEPTH + 1)})
    assert info.value.field == "value"


# -- Sequencing --------------------------------------------------------------------------


def test_validate_sequence_empty_ok():
    validate_sequence([])


def test_validate_sequence_happy_path():
    order = ["plan_request", "context_seed", "completion_signal", "summary_request", "final_response"]
    validate_sequence([sample(t, i) for i, t in enumerate(order, start=1)])


def test_validate_sequence_allows_repeats_within_step():
    msgs = [
        sample("plan_request", 1),
        sample("context_seed", 2),
        sample("context_write", 3),
        sample("context_read", 4),
        sample("context_write", 5),
        sample("completion_signal", 6),
    ]
    validate_sequence(msgs)


def test_validate_sequence_rejects_inverted_steps():
    with pytest.raises(SequenceError) as info:
        validate_sequence([sample("context_seed", 1), sample("plan_request", 2)])
    assert info.value.at == 2


def test_validate_sequence_rejects_stale_seq():
    with pytest.raises(SequenceError) as info:
        validate_sequence([sample("context_write", 5), sample("context_write", 4)])
    assert info.value.at == 2


def test_validate_sequence_rejects_write_before_seed():
    with pytest.raises(SequenceError) as info:
        validate_sequence(
            [sample("plan_request", 1), sample("context_write", 2), sample("context_seed", 3)]
        )
    assert info.value.at == 3


def test_validate_sequence_rejects_a_message_that_is_not_an_envelope():
    with pytest.raises(ProtocolError, match="message 1: expected an Envelope, got int"):
        validate_sequence([1])
    with pytest.raises(ProtocolError, match="message 2: expected an Envelope, got dict"):
        validate_sequence([sample("plan_request", 1), {"msg_type": "context_seed", "seq": 2}])


@pytest.mark.parametrize(
    "msg_type, seq, error, field",
    [
        ("x", 1, UnknownMessageTypeError, None),
        ("plan_request", "1", SchemaViolationError, "seq"),
    ],
    ids=["unknown-type", "text-seq"],
)
def test_validate_sequence_of_bad_envelopes_raises_protocol_errors(msg_type, seq, error, field):
    """An Envelope checks itself when built, so a sequence of bad ones fails
    with the protocol's own error naming the field, never a raw KeyError or
    TypeError."""
    with pytest.raises(error) as info:
        validate_sequence([Envelope(msg_type, seq, {})])
    assert getattr(info.value, "field", None) == field
    if error is UnknownMessageTypeError:
        assert info.value.msg_type == msg_type


@pytest.mark.parametrize(
    "msg_type, seq, payload, error, field",
    [
        ("plan_request", True, {}, SchemaViolationError, "seq"),
        ("bogus", 0, [], UnknownMessageTypeError, None),
        ("plan_request", 0, [], SchemaViolationError, "seq"),
        ("plan_request", 1, {}, SchemaViolationError, "query"),
    ],
    ids=["bool-seq", "type-first", "seq-second", "payload-schema"],
)
def test_an_envelope_checks_type_then_seq_then_payload_when_built(msg_type, seq, payload, error, field):
    with pytest.raises(error) as info:
        Envelope(msg_type, seq, payload)
    assert getattr(info.value, "field", None) == field


def test_an_envelope_built_directly_equals_a_made_one():
    payload = {"key": "k", "value": {"pair": (1, 2)}}
    envelope = Envelope("context_write", 2, payload)
    assert envelope == make_envelope("context_write", 2, payload)
    assert envelope.payload == {"key": "k", "value": {"pair": [1, 2]}}
    payload["key"] = "changed"
    assert envelope.payload["key"] == "k"


@pytest.mark.parametrize(
    "msg_type, payload, error, field",
    [
        ("bogus", {}, UnknownMessageTypeError, None),
        (["x"], {}, UnknownMessageTypeError, None),
        ("final_response", None, SchemaViolationError, "payload"),
    ],
    ids=["unknown-type", "unhashable-type", "payload-none"],
)
def test_check_payload_rejects_a_bad_type_or_payload_with_a_protocol_error(
    msg_type, payload, error, field
):
    with pytest.raises(error) as info:
        check_payload(msg_type, payload)
    assert getattr(info.value, "field", None) == field

# -- Properties -----------------------------------------------------------------------------


payload_strategies = {
    "plan_request": st.fixed_dictionaries({"query": st.dictionaries(st.text(max_size=6), json_values, max_size=3)}),
    "tool_declaration": st.fixed_dictionaries(
        {
            "server_id": st.text(min_size=1, max_size=10),
            "tools": st.lists(
                st.fixed_dictionaries(
                    {
                        "name": st.text(max_size=8),
                        "description": st.text(max_size=12),
                        "param_schema": st.dictionaries(st.text(max_size=4), json_values, max_size=2),
                    }
                ),
                max_size=3,
            ),
        }
    ),
    "context_seed": st.fixed_dictionaries({"blueprint": st.dictionaries(st.text(max_size=6), json_values, max_size=3)}),
    "context_write": st.fixed_dictionaries({"key": st.text(min_size=1, max_size=10), "value": json_values}),
    "context_read": st.fixed_dictionaries({"key": st.text(min_size=1, max_size=10)}),
    "completion_signal": st.fixed_dictionaries({"completion_key": st.text(min_size=1, max_size=10)}),
    "summary_request": st.fixed_dictionaries({"snapshot": st.dictionaries(st.text(max_size=6), json_values, max_size=3)}),
    "final_response": st.fixed_dictionaries({"text": st.text(max_size=30)}),
}

envelopes = st.sampled_from(MESSAGE_TYPES).flatmap(
    lambda t: st.builds(make_envelope, st.just(t), st.integers(1, 10**6), payload_strategies[t])
)


@given(envelopes)
@settings(max_examples=200)
def test_decode_encode_identity(envelope):
    line = encode(envelope)
    assert decode(line) == envelope
    assert encode(decode(line)) == line
    # canonical lines survive a JSON parse/re-parse cycle too
    assert decode(json.dumps(json.loads(line), separators=(",", ":"))) == envelope


@given(envelopes)
@settings(max_examples=300)
def test_encode_equals_dumping_the_field_ordered_dict(envelope):
    top = {
        "msg_type": envelope.msg_type,
        "seq": envelope.seq,
        "payload": canonicalize_value(envelope.payload),
    }
    assert encode(envelope) == json.dumps(top, separators=(",", ":"), allow_nan=False)


@given(st.lists(envelopes, min_size=2, max_size=6, unique_by=encode))
@settings(max_examples=100)
def test_encoding_is_injective(batch):
    lines = [encode(e) for e in batch]
    assert len(set(lines)) == len(batch)


@given(st.sampled_from(MESSAGE_TYPES).flatmap(
    lambda t: st.tuples(st.just(t), st.integers(1, 10**6), payload_strategies[t])
))
@settings(max_examples=300)
def test_encode_line_equals_encoding_a_made_envelope(message):
    """Writing a valid payload's canonical text, as a run does, gives the
    line that building and encoding its envelope gives."""
    msg_type, seq, payload = message
    assert encode_line(msg_type, seq, canonical_dumps(payload)) == encode(
        make_envelope(msg_type, seq, payload)
    )
