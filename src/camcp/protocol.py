"""Line-delimited JSON codec for the client/server message exchange.

Every message is one envelope per line: ``{"msg_type": ..., "seq": ...,
"payload": {...}}`` with that top-level field order fixed and the payload
written by :func:`camcp.store.canonical_dumps` (compact, every object's keys
sorted by the C JSON encoder), so encoding is canonical and injective.
Trace events use the same line encoding.

One function, :func:`encode_line`, writes that layout around a payload's
canonical text, and every envelope line goes through it: :func:`encode`
fills it from an :class:`Envelope`, and a run fills it with texts it
already has (a store entry's ``ContextEntry.text``, or the one encoding of a
value the loader checked), with no second copy or check. The checks live
where envelopes are built, since an :class:`Envelope` checks itself; in
:func:`encode`, which checks the payload again as it stands now; and where
lines are read, in :func:`decode`.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from .store import canonical_dumps, copy_value

PLAN_REQUEST = "plan_request"
TOOL_DECLARATION = "tool_declaration"
CONTEXT_SEED = "context_seed"
CONTEXT_WRITE = "context_write"
CONTEXT_READ = "context_read"
COMPLETION_SIGNAL = "completion_signal"
SUMMARY_REQUEST = "summary_request"
FINAL_RESPONSE = "final_response"

class ProtocolError(Exception):
    pass


class MalformedSyntaxError(ProtocolError):
    """The line is not a JSON object of the envelope shape."""


class UnknownMessageTypeError(ProtocolError):
    def __init__(self, msg_type):
        super().__init__(f"unknown msg_type: {msg_type!r}")
        self.msg_type = msg_type


class SchemaViolationError(ProtocolError):
    """A required payload field is missing, ill-typed, or unexpected."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"field {field!r}: {reason}")
        self.field = field
        self.reason = reason


class SequenceError(ProtocolError):
    """A message appears out of happy-path order; ``at`` is its 1-based index."""

    def __init__(self, at: int, reason: str):
        super().__init__(f"message {at} out of order: {reason}")
        self.at = at
        self.reason = reason


@dataclass(frozen=True)
class Envelope:
    """One message, checked when built: ``msg_type``, then ``seq``, then the
    payload, which it holds as its own validated copy. Each payload field is
    copied on its own, so it may nest :data:`camcp.store.MAX_VALUE_DEPTH`
    levels, as a stored value may, and every line a run writes decodes."""

    msg_type: str
    seq: int
    payload: dict

    def __post_init__(self) -> None:
        _schema(self.msg_type)
        seq, payload = self.seq, self.payload
        if isinstance(seq, bool) or not isinstance(seq, int) or seq < 1:
            raise SchemaViolationError("seq", "expected integer >= 1")
        if not isinstance(payload, dict):
            raise SchemaViolationError("payload", "expected object")
        copied = {}
        for name, value in payload.items():
            try:
                copied[name] = copy_value(value)
            except TypeError as exc:
                raise SchemaViolationError(name, str(exc)) from exc
        check_payload(self.msg_type, copied)
        object.__setattr__(self, "payload", copied)


# msg_type -> (its position in the happy-path exchange, ordered {field:
# (type, description)}), in happy-path order. Positions must be
# non-decreasing along a valid sequence; equal positions carry no mutual
# order (concurrent server reads/writes).
_SCHEMAS = {
    PLAN_REQUEST: (1, {"query": (dict, "object")}),
    TOOL_DECLARATION: (2, {"server_id": (str, "text"), "tools": (list, "list")}),
    CONTEXT_SEED: (3, {"blueprint": (dict, "object")}),
    CONTEXT_WRITE: (5, {"key": (str, "text"), "value": (object, "value")}),
    CONTEXT_READ: (5, {"key": (str, "text")}),
    COMPLETION_SIGNAL: (7, {"completion_key": (str, "text")}),
    SUMMARY_REQUEST: (8, {"snapshot": (dict, "object")}),
    FINAL_RESPONSE: (9, {"text": (str, "text")}),
}
MESSAGE_TYPES = tuple(_SCHEMAS)
# Made once; encode_line encodes any other message type.
_TYPE_TEXTS = {msg_type: canonical_dumps(msg_type) for msg_type in _SCHEMAS}

_TOOL_FIELDS = {"name": (str, "text"), "description": (str, "text"), "param_schema": (dict, "object")}
# The Envelope checks the msg_type, seq and payload of a decoded envelope.
_ENVELOPE_FIELDS = {"msg_type": (str, "text"), "seq": (object, "value"), "payload": (object, "value")}


def _check_fields(obj: dict, fields: dict, prefix: str = "") -> None:
    """Check that *obj* holds exactly *fields*, each of its type; an error
    names the field as *prefix* + name."""
    for name, (kind, description) in fields.items():
        if name not in obj:
            raise SchemaViolationError(prefix + name, "missing")
        if not isinstance(obj[name], kind):
            raise SchemaViolationError(prefix + name, f"expected {description}")
    for name in obj:
        if name not in fields:
            raise SchemaViolationError(prefix + name, "unexpected field")


def _schema(msg_type) -> tuple[int, dict]:
    """The (position, fields) row of *msg_type*."""
    row = _SCHEMAS.get(msg_type) if isinstance(msg_type, str) else None
    if row is None:
        raise UnknownMessageTypeError(msg_type)
    return row


def check_payload(msg_type: str, payload: dict) -> None:
    """Validate a payload against its message schema.

    Raises :class:`UnknownMessageTypeError` for a msg_type with no schema,
    and :class:`SchemaViolationError` naming the offending field.
    """
    _, fields = _schema(msg_type)
    if not isinstance(payload, dict):
        raise SchemaViolationError("payload", "expected object")
    _check_fields(payload, fields)
    if msg_type == TOOL_DECLARATION:
        for i, tool in enumerate(payload["tools"]):
            if not isinstance(tool, dict):
                raise SchemaViolationError(f"tools[{i}]", "expected object")
            _check_fields(tool, _TOOL_FIELDS, f"tools[{i}].")


def make_envelope(msg_type: str, seq: int, payload: dict) -> Envelope:
    """Build a checked :class:`Envelope`; decoded lines come through here."""
    return Envelope(msg_type, seq, payload)


def encode(envelope: Envelope) -> str:
    """Encode to the canonical single-line JSON form. The payload is a dict
    that may have changed since the envelope was built, so it is checked
    again first, as :func:`make_envelope` checks it."""
    envelope = make_envelope(envelope.msg_type, envelope.seq, envelope.payload)
    return encode_line(envelope.msg_type, envelope.seq, canonical_dumps(envelope.payload))


def encode_line(msg_type: str, seq: int, payload_text: str) -> str:
    """Write the envelope layout around *payload_text*, a payload's
    canonical text. Nothing else is checked here; :func:`decode` checks the
    lines it reads."""
    type_text = _TYPE_TEXTS.get(msg_type) or canonical_dumps(msg_type)
    line = f'{{"msg_type":{type_text},"seq":{seq},"payload":{payload_text}}}'
    assert "\n" not in line
    return line


def decode(line: str) -> Envelope:
    """Decode one line into a validated envelope.

    Raises :class:`MalformedSyntaxError` for non-JSON or non-envelope shapes,
    :class:`UnknownMessageTypeError` for an unrecognized msg_type, and
    :class:`SchemaViolationError` for payload schema problems.
    """
    try:
        data = json.loads(line)
    except (ValueError, TypeError, RecursionError) as exc:  # ValueError: also too many digits
        raise MalformedSyntaxError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise MalformedSyntaxError("envelope must be a JSON object")
    _check_fields(data, _ENVELOPE_FIELDS)
    return make_envelope(data["msg_type"], data["seq"], data["payload"])


def validate_sequence(messages: Sequence[Envelope]) -> None:
    """Check happy-path ordering: planning before seeding, seeding before any
    server write, completion before summary, summary before final response.
    Sequence numbers must be strictly increasing across the log, so any
    reordering of a recorded conversation is caught even between messages of
    the same step.

    Raises :class:`SequenceError` naming the first out-of-order message.
    """
    highest = 0
    highest_type = None
    last_seq = 0
    for index, envelope in enumerate(messages, start=1):
        if not isinstance(envelope, Envelope):
            kind = type(envelope).__name__
            raise ProtocolError(f"message {index}: expected an Envelope, got {kind}")
        rank = _SCHEMAS[envelope.msg_type][0]
        if rank < highest:
            raise SequenceError(index, f"{envelope.msg_type} after {highest_type}")
        if envelope.seq <= last_seq:
            raise SequenceError(
                index, f"seq {envelope.seq} does not advance past {last_seq}"
            )
        last_seq = envelope.seq
        if rank > highest:
            highest = rank
            highest_type = envelope.msg_type
