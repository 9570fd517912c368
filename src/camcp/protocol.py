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
where lines are read: :func:`decode`, and :func:`make_envelope` for public
callers.
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

MESSAGE_TYPES = (
    PLAN_REQUEST,
    TOOL_DECLARATION,
    CONTEXT_SEED,
    CONTEXT_WRITE,
    CONTEXT_READ,
    COMPLETION_SIGNAL,
    SUMMARY_REQUEST,
    FINAL_RESPONSE,
)

# Position of each message type in the happy-path exchange. Ranks must be
# non-decreasing along a valid sequence; equal ranks carry no mutual order
# (concurrent server reads/writes).
STEP_RANK = {
    PLAN_REQUEST: 1,
    TOOL_DECLARATION: 2,
    CONTEXT_SEED: 3,
    CONTEXT_READ: 5,
    CONTEXT_WRITE: 5,
    COMPLETION_SIGNAL: 7,
    SUMMARY_REQUEST: 8,
    FINAL_RESPONSE: 9,
}


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
    """One message. Its payload is the validated copy that
    :func:`make_envelope` took, so later edits to the caller's value do not
    reach it."""

    msg_type: str
    seq: int
    payload: dict


# msg_type -> ordered {field: (type, description)}
_SCHEMAS = {
    PLAN_REQUEST: {"query": (dict, "object")},
    TOOL_DECLARATION: {"server_id": (str, "text"), "tools": (list, "list")},
    CONTEXT_SEED: {"blueprint": (dict, "object")},
    CONTEXT_WRITE: {"key": (str, "text"), "value": (object, "value")},
    CONTEXT_READ: {"key": (str, "text")},
    COMPLETION_SIGNAL: {"completion_key": (str, "text")},
    SUMMARY_REQUEST: {"snapshot": (dict, "object")},
    FINAL_RESPONSE: {"text": (str, "text")},
}

_TOOL_FIELDS = {"name": str, "description": str, "param_schema": dict}


def check_payload(msg_type: str, payload: dict) -> None:
    """Validate a payload against its message schema.

    Raises :class:`SchemaViolationError` naming the offending field.
    """
    schema = _SCHEMAS[msg_type]
    for name, (kind, description) in schema.items():
        if name not in payload:
            raise SchemaViolationError(name, "missing")
        if not isinstance(payload[name], kind):
            raise SchemaViolationError(name, f"expected {description}")
    for name in payload:
        if name not in schema:
            raise SchemaViolationError(name, "unexpected field")
    if msg_type == TOOL_DECLARATION:
        for i, tool in enumerate(payload["tools"]):
            if not isinstance(tool, dict):
                raise SchemaViolationError(f"tools[{i}]", "expected object")
            for field, kind in _TOOL_FIELDS.items():
                if field not in tool:
                    raise SchemaViolationError(f"tools[{i}].{field}", "missing")
                if not isinstance(tool[field], kind):
                    raise SchemaViolationError(f"tools[{i}].{field}", "ill-typed")
            for field in tool:
                if field not in _TOOL_FIELDS:
                    raise SchemaViolationError(f"tools[{i}].{field}", "unexpected field")


def make_envelope(msg_type: str, seq: int, payload: dict) -> Envelope:
    """Construct a validated envelope around its own copy of *payload*.

    This is the checked boundary for payloads from outside a run: decoded
    lines and public callers. Each payload field is copied on its own, so a
    field may nest as deep as a scenario file or a stored value may
    (:data:`camcp.store.MAX_VALUE_DEPTH` levels) and every line a run writes
    decodes."""
    if msg_type not in _SCHEMAS:
        raise UnknownMessageTypeError(msg_type)
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
    check_payload(msg_type, copied)
    return Envelope(msg_type=msg_type, seq=seq, payload=copied)


def encode(envelope: Envelope) -> str:
    """Encode to the canonical single-line JSON form."""
    return encode_line(envelope.msg_type, envelope.seq, canonical_dumps(envelope.payload))


def encode_line(msg_type: str, seq: int, payload_text: str) -> str:
    """Write the envelope layout around *payload_text*, a payload's
    canonical text. Nothing else is checked here; :func:`decode` checks the
    lines it reads."""
    line = f'{{"msg_type":{canonical_dumps(msg_type)},"seq":{seq},"payload":{payload_text}}}'
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
    for field in ("msg_type", "seq", "payload"):
        if field not in data:
            raise SchemaViolationError(field, "missing")
    for field in data:
        if field not in ("msg_type", "seq", "payload"):
            raise SchemaViolationError(field, "unexpected field")
    if not isinstance(data["msg_type"], str):
        raise SchemaViolationError("msg_type", "expected text")
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
        rank = STEP_RANK[envelope.msg_type]
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
