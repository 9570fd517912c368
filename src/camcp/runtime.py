"""Run drivers for both execution modes, emitting deterministic traces.

Context-aware runs plan once, seed the shared store, let reactors
self-coordinate to quiescence, then summarize. The query a run asks and the
plan it gets are the very values its ``plan_request`` and ``context_seed``
messages carry. Traditional runs drive every stage from the center through
a private history that can lose context under a window budget. Either way
the trace is a pure function of (scenario, mode, seed): replaying a
serialized trace reproduces the same metrics. The drivers name no kind or
stage: what differs by kind (the query a seed asks, the call policy, the
constraints a trace must carry) is read from the kind's ``scenarios.KINDS``
row, and the tool calls a stage took from its tool.

Each store commit and each traditional stage output is encoded once. A
store commit's ``scs_write`` line, a ``stage_done`` line and the final
summary are assembled from the canonical text that the store made at commit
(``ContextEntry.text``), or, in traditional mode, from the one text made per
stage output. A value held by two outputs is encoded in each: a traditional
wedding run encodes each request in its tracker's output and again in the
``schedule`` output, whose trips hold the same requests. A line that embeds
another escapes its text once more: the ``scs_write`` envelope, and the
final response, whose summary holds the output texts, inside ``run_end``.
A run of ``tool_exec`` calls with the same field names fills one template of
the fixed fields' texts with each call's own, from the second call on. The
builder passes each such line to its event, a read-only tuple built in one
call, and :func:`serialize_trace` joins them. Every other event
(``run_start``, ``llm_call``, ``trigger_fire``, ``stage_failed``,
``run_end``, a stage's first or only call) is encoded in full when it is
serialized, as parsed and hand-built events are, so a run that is never
serialized does not encode it.
Every protocol line a run writes goes through
:func:`camcp.protocol.encode_line` as text, with no envelope, copy or check
of its own: the loader and the store checked the values, and
:func:`camcp.protocol.decode` checks a line where it is read.

:func:`parse_trace` reads each line with one call into the decoder's C
scanner. A line that holds exactly one object, with at most JSON whitespace
after it, is scanned directly; any other line is decoded on its own through
the decoder's ``decode``. Either way a line gives the same events, or the
same error naming it, as decoding every line alone.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from . import protocol
from .planner import (
    MockPlanner,
    Stage,
    completion_condition,
    query_constraints,
    render_summary,
    rendered,
)
from .reactor import ReactorPool, ReactorState
from .scenarios import (
    CA_COMBINED_SINGLE,
    KINDS,
    MODE_CA,
    MODE_TRADITIONAL,
    TRADITIONAL_PER_STAGE,
    Scenario,
    build_servers,
)
from .store import (
    ContextStore,
    ContextValue,
    canonical_dumps,
    canonical_object,
    canonicalize_value,  # not called here; perfbench's self-test reads runtime.canonicalize_value
    evaluate,
)

RUN_START = "run_start"
RUN_END = "run_end"
LLM_CALL = "llm_call"
TOOL_EXEC = "tool_exec"
SCS_WRITE = "scs_write"
TRIGGER_FIRE = "trigger_fire"
STAGE_DONE = "stage_done"
STAGE_FAILED = "stage_failed"

EVENT_KINDS = (
    RUN_START, RUN_END, LLM_CALL, TOOL_EXEC, SCS_WRITE, TRIGGER_FIRE, STAGE_DONE, STAGE_FAILED
)
# Made once; _line encodes any other kind, which a hand-built event may carry.
_KIND_TEXTS = {kind: canonical_dumps(kind) for kind in EVENT_KINDS}

# Payload fields that compute_metrics reads, by event kind, with the JSON
# type each must have. None of them may be a boolean, which Python counts as
# an integer, and a float must be finite: a literal such as 1e400 decodes to
# a float infinity. A field that may be null may also be absent. Each kind's
# row in ``scenarios.KINDS`` lists the run_start constraints it scores.
_PAYLOAD_FIELDS = {
    RUN_START: {
        "mode": (str, "text"),
        "seed": (int, "an integer"),
        "kind": (str, "text"),
        "stage_ids": (list, "a list"),
        "constraints": (dict, "an object"),
    },
    STAGE_DONE: {"stage": (str, "text"), "outputs": (dict, "an object")},
    RUN_END: {"simulated_latency_s": ((int, float), "a number")},
}

# Fields of a stage_done ``outputs.schedule`` that the wedding scoring reads:
# the integers of each trip, and the fields of each request it carries.
_TRIP_INTS = ("trip_id", "start_min", "duration_min")
_REQUEST_FIELDS = ("request_id", "origin", "destination", "ready_time_min", "source")

SEED_WRITER = "runtime"


class MalformedTraceError(Exception):
    def __init__(self, line_no: int, reason: str):
        super().__init__(f"trace line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class TraceEvent(NamedTuple):
    t: int
    kind: str
    payload: dict
    # The event's serialized line, which TraceBuilder assembles from texts it
    # already has; the payload must not change after that, so ``_replace``
    # of the payload would keep a stale line. Parsed and hand-built events
    # have none and are encoded in full. Equality and repr leave it out.
    line: str | None = None

    def __eq__(self, other):
        return self[:3] == other[:3] if isinstance(other, TraceEvent) else NotImplemented

    def __ne__(self, other):
        return self[:3] != other[:3] if isinstance(other, TraceEvent) else NotImplemented

    __hash__ = None  # the payload is a dict

    def __repr__(self) -> str:
        return f"TraceEvent(t={self.t!r}, kind={self.kind!r}, payload={self.payload!r})"


@dataclass
class Trace:
    """Ordered event log of one run. Its mode and seed are the ones its
    run_start event states, its simulated latency the one run_end states.

    ``wall_clock_s`` is measured, never serialized: trace files must be
    byte-identical across runs of the same (scenario, mode, seed).
    """

    events: list[TraceEvent]
    wall_clock_s: float = 0.0

    mode = property(lambda self: self.events[0].payload["mode"])
    seed = property(lambda self: self.events[0].payload["seed"])
    simulated_latency_s = property(lambda self: self.events[-1].payload["simulated_latency_s"])

    def protocol_messages(self) -> list[protocol.Envelope]:
        messages = []
        for event in self.events:
            line = event.payload.get("envelope")
            if line is not None:
                messages.append(protocol.decode(line))
        return messages


def _line(t: int, kind: str, payload_text: str) -> str:
    kind_text = _KIND_TEXTS.get(kind) or canonical_dumps(kind)
    return f'{{"t":{t},"kind":{kind_text},"payload":{payload_text}}}'


def serialize_trace(trace: Trace) -> str:
    lines = [e.line or _line(e.t, e.kind, canonical_dumps(e.payload)) for e in trace.events]
    lines.append("")  # the final newline, without copying the joined text again
    return "\n".join(lines)


def write_trace(trace: Trace, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_trace(trace))


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON value")


# Built once; rejects the NaN, Infinity and -Infinity that json.loads accepts.
_TRACE_DECODER = json.JSONDecoder(parse_constant=_reject_constant)

_RECORD_KEYS = frozenset({"t", "kind", "payload"})
_KIND_SET = frozenset(EVENT_KINDS)
_JSON_SPACE = " \t\r"  # all the JSON whitespace a line can hold once split at "\n"


def parse_trace(text: str) -> Trace:
    """Strict parse of a serialized trace; raises :class:`MalformedTraceError`
    naming the offending line. Only "\\n" ends a line: JSON allows U+0085,
    U+2028 and U+2029 raw in a string, and a trailing "\\r" is whitespace. A
    line is blank, and skipped, when it holds only JSON whitespace.

    A line that starts with an object and holds only JSON whitespace after
    it, CRLF included, is scanned directly. Any other line (blank, indented,
    a value that spans or shares lines, bad JSON) is decoded on its own, so
    it gives the result and the error it would give if every line were
    decoded alone."""
    events: list[TraceEvent] = []
    scan = _TRACE_DECODER.scan_once
    line_no = 0
    for raw in text.split("\n"):
        record = None
        if raw[:1] == "{":
            try:
                record, end = scan(raw, 0)
            except (ValueError, RecursionError, StopIteration):
                pass
            else:
                # JSON whitespace may follow the object, as decoding the line allows.
                if end != len(raw) and raw[end:].strip(_JSON_SPACE):
                    record = None
        if record is None:
            if not raw.strip(_JSON_SPACE):
                continue
            try:
                record = _TRACE_DECODER.decode(raw)
            except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
                raise MalformedTraceError(line_no + 1, f"not valid JSON: {exc}") from exc
        line_no += 1
        # Decoded JSON holds exact types, so ``type(x) is`` checks suffice.
        if type(record) is not dict or record.keys() != _RECORD_KEYS:
            raise MalformedTraceError(line_no, "expected an object with t, kind, payload")
        t, kind, payload = record["t"], record["kind"], record["payload"]
        if type(kind) is not str or kind not in _KIND_SET:  # a list is unhashable
            raise MalformedTraceError(line_no, f"unknown event kind {kind!r}")
        if type(t) is not int or t != line_no:
            raise MalformedTraceError(line_no, f"logical time 't' must be the integer {line_no}")
        if type(payload) is not dict:
            raise MalformedTraceError(line_no, "payload must be an object")
        fields = _PAYLOAD_FIELDS.get(kind)
        if fields:
            _check_fields(line_no, f"{kind} payload", "", payload, fields)
        if kind == RUN_START:
            if not all(isinstance(s, str) for s in payload["stage_ids"]):
                raise MalformedTraceError(line_no, "run_start payload 'stage_ids' must hold only text")
            row = KINDS.get(payload["kind"])
            if row is None:
                known = " or ".join(map(repr, KINDS))
                raise MalformedTraceError(line_no, f"run_start payload 'kind' must be {known}")
            _check_fields(
                line_no, "run_start payload", "constraints.", payload["constraints"], row.scored
            )
        if kind == STAGE_DONE and payload["outputs"].get("schedule") is not None:
            _check_schedule(line_no, payload["outputs"]["schedule"])
        # tuple.__new__ skips the Python-level __new__ that NamedTuple defines.
        events.append(tuple.__new__(TraceEvent, (t, kind, payload, None)))
    if not events:
        raise MalformedTraceError(1, "empty trace")
    if events[0].kind != RUN_START:
        raise MalformedTraceError(1, "first event must be run_start")
    if events[-1].kind != RUN_END:
        raise MalformedTraceError(len(events), "last event must be run_end")
    for event in events[1:-1]:
        if event.kind in (RUN_START, RUN_END):
            raise MalformedTraceError(event.t, f"{event.kind} may only appear at the boundary")
    return Trace(events)


def _check_fields(line_no: int, where: str, prefix: str, obj: dict, fields: dict) -> None:
    """Check each of *fields* in *obj*; an error names it as *prefix* + name."""
    for name, (types, description) in fields.items():
        value = obj.get(name)
        if name not in obj and not isinstance(None, types):
            raise MalformedTraceError(line_no, f"{where} missing {prefix + name!r}")
        if not isinstance(value, types) or isinstance(value, bool):
            raise MalformedTraceError(line_no, f"{where} {prefix + name!r} must be {description}")
        # Only a float can be infinite; an integer of any length is finite.
        if type(value) is float and not math.isfinite(value):
            raise MalformedTraceError(line_no, f"{where} {prefix + name!r} must be finite")


def _check_schedule(line_no: int, schedule) -> None:
    """Check, in place, the shape of a wedding schedule that the scoring
    reads; raise :class:`MalformedTraceError` naming the first bad field.
    Parsed JSON holds exact types, so ``type(v) is int`` also rules out
    booleans."""
    where = "stage_done outputs.schedule"
    if type(schedule) is not dict:
        raise MalformedTraceError(line_no, f"{where} must be an object")
    if type(schedule.get("makespan_min")) is not int:
        raise _field_error(line_no, where, schedule, "makespan_min", "an integer")
    trips = schedule.get("trips")
    if type(trips) is not list:
        raise _field_error(line_no, where, schedule, "trips", "a list")
    for i, trip in enumerate(trips):
        if type(trip) is not dict:
            raise MalformedTraceError(line_no, f"{where}.trips[{i}] must be an object")
        for name in _TRIP_INTS:
            if type(trip.get(name)) is not int:
                raise _field_error(line_no, f"{where}.trips[{i}]", trip, name, "an integer")
        requests = trip.get("requests")
        if type(requests) is not list:
            raise _field_error(line_no, f"{where}.trips[{i}]", trip, "requests", "a list")
        for j, request in enumerate(requests):
            if type(request) is not dict:
                raise MalformedTraceError(
                    line_no, f"{where}.trips[{i}].requests[{j}] must be an object"
                )
            for name in _REQUEST_FIELDS:
                if name not in request:
                    raise MalformedTraceError(
                        line_no, f"{where}.trips[{i}].requests[{j}] missing {name!r}"
                    )
            if type(request["ready_time_min"]) is not int:
                raise MalformedTraceError(
                    line_no,
                    f"{where}.trips[{i}].requests[{j}] 'ready_time_min' must be an integer",
                )


def _field_error(line_no: int, where: str, obj: dict, name: str, description: str):
    if name not in obj:
        return MalformedTraceError(line_no, f"{where} missing {name!r}")
    return MalformedTraceError(line_no, f"{where} {name!r} must be {description}")


def read_trace(path) -> Trace:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Number lines as parse_trace does; "x" keeps the bad byte's line non-blank.
        head = data[: exc.start].decode("utf-8") + "x"
        line_no = sum(1 for raw in head.split("\n") if raw.strip(_JSON_SPACE))
        raise MalformedTraceError(line_no, f"not UTF-8 text: {exc.reason}") from exc
    return parse_trace(text)


class TraceBuilder:
    """Accumulates events under one strictly increasing logical clock and one
    strictly increasing protocol sequence counter, and times the run from
    its own creation to :meth:`build`."""

    def __init__(self, mode: str, seed: int, scenario: Scenario):
        self._started = time.perf_counter()
        self.mode = mode
        self.seed = seed
        self.scenario = scenario
        self.cost = scenario.cost_model
        self._events: list[TraceEvent] = []
        self._seq = 0

    def _append(self, kind: str, payload: dict, payload_text: str | None = None) -> None:
        """Record an event; *payload_text*, when given, is
        ``canonical_dumps(payload)`` and becomes the event's prebuilt line.
        Callers write its fields in sorted order, as the encoder would."""
        t = len(self._events) + 1
        line = None if payload_text is None else _line(t, kind, payload_text)
        self._events.append(tuple.__new__(TraceEvent, (t, kind, payload, line)))

    def envelope_line(self, msg_type: str, payload_text: str) -> str:
        """The next protocol line, around a payload's canonical text."""
        self._seq += 1
        return protocol.encode_line(msg_type, self._seq, payload_text)

    def run_start(self, query: dict) -> None:
        self._append(
            RUN_START,
            {
                "mode": self.mode,
                "seed": self.seed,
                "scenario": self.scenario.name,
                "kind": self.scenario.kind,
                "stage_ids": self.scenario.stage_ids(),
                "constraints": query_constraints(query),
                "envelope": self.envelope_line(
                    protocol.PLAN_REQUEST, canonical_dumps({"query": query})
                ),
            },
        )

    def llm_call(self, role: str, envelope: str | None = None) -> None:
        payload = {"role": role, "latency_s": self.cost.per_call_latency_s}
        if envelope is not None:
            payload["envelope"] = envelope
        self._append(LLM_CALL, payload)

    def tool_exec(self, server_id: str, stage_id: str, calls=({},)) -> None:
        """Record one tool_exec per call, its payload the fixed fields updated
        by the call's own. A call with the previous call's field names fills
        a template of the fixed texts with its own values' texts; any other
        call is left to be encoded in full. Every text is made before any
        event is recorded, so calls that cannot be encoded record nothing."""
        fixed = {"server": server_id, "stage": stage_id, "latency_s": self.cost.per_tool_latency_s}
        names = template = None
        events = []
        for extra in calls:
            text = None
            if extra.keys() != names:
                names, template = extra.keys(), None
            else:
                if template is None:  # no canonical text holds a raw NUL, so NUL marks own fields
                    order = sorted(names)
                    members = {k: canonical_dumps(v) for k, v in fixed.items()}
                    members.update(dict.fromkeys(order, "\0"))
                    template = canonical_object(members).replace("%", "%%").replace("\0", "%s")
                text = template % tuple([canonical_dumps(extra[k]) for k in order])
            events.append(({**fixed, **extra}, text))
        for payload, text in events:
            self._append(TOOL_EXEC, payload, text)

    def trigger_fire(self, server_id: str, edge_time: int) -> None:
        self._append(TRIGGER_FIRE, {"server": server_id, "edge_time": edge_time})

    def stage_done(self, stage_id: str, output: ContextValue, text: str) -> None:
        """Record a finished stage and its *output*, whose canonical text is
        *text*."""
        key = canonical_dumps(stage_id)
        self._append(
            STAGE_DONE,
            {"stage": stage_id, "outputs": {stage_id: output}},
            f'{{"outputs":{{{key}:{text}}},"stage":{key}}}',
        )

    def stage_failed(self, stage_id: str, reason: str) -> None:
        self._append(STAGE_FAILED, {"stage": stage_id, "reason": reason})

    def scs_listener(self, completion_key: str):
        """Commit listener: every store commit becomes an scs_write event
        carrying its wire message (the completion flag is the completion
        signal; everything else is a plain context write). The key, the
        writer and the line are text, so each is escaped directly."""
        escape = encode_basestring_ascii

        def on_commit(entry) -> None:
            key = escape(entry.key)
            if entry.key == completion_key:
                line = self.envelope_line(protocol.COMPLETION_SIGNAL, f'{{"completion_key":{key}}}')
            else:
                line = self.envelope_line(
                    protocol.CONTEXT_WRITE, f'{{"key":{key},"value":{entry.text}}}'
                )
            self._append(
                SCS_WRITE,
                {
                    "key": entry.key,
                    "value": entry.value,
                    "version": entry.version,
                    "writer": entry.writer_id,
                    "envelope": line,
                },
                f'{{"envelope":{escape(line)},"key":{key},"value":{entry.text},'
                f'"version":{entry.version},"writer":{escape(entry.writer_id)}}}',
            )

        return on_commit

    def run_end(self, completed: bool, summary: str | None = None) -> None:
        """Close the trace; a *summary* goes out as the final response."""
        kinds = [e.kind for e in self._events]
        latency = (
            kinds.count(LLM_CALL) * self.cost.per_call_latency_s
            + kinds.count(TOOL_EXEC) * self.cost.per_tool_latency_s
        )
        payload = {"completed": completed, "simulated_latency_s": latency}
        if summary is not None:
            text = canonical_dumps({"text": summary})
            payload["envelope"] = self.envelope_line(protocol.FINAL_RESPONSE, text)
        self._append(RUN_END, payload)

    def build(self) -> Trace:
        return Trace(self._events, time.perf_counter() - self._started)


def query_for_seed(scenario: Scenario, seed: int) -> dict:
    """Deterministic query for a seed, as the scenario's kind asks it: the
    ``plan_request`` value ``{"raw_text", "kind", "params"}``. Seed 0 is the
    scenario's base query."""
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return KINDS[scenario.kind].query(scenario, seed)


def seed_context(store: ContextStore, blueprint: dict) -> None:
    """Write a blueprint value into the store: goals, one entry per
    constraint, the stage outline, and last the goals_seeded flag that arms
    root stages."""
    store.put("goals", blueprint["goals"], SEED_WRITER)
    for name, value in blueprint["constraints"].items():
        store.put(f"constraints.{name}", value, SEED_WRITER)
    store.put("stages", blueprint["stages"], SEED_WRITER)
    store.put("goals_seeded", True, SEED_WRITER)


def run_context_aware(scenario: Scenario, seed: int) -> Trace:
    """One context-aware run: plan, seed, react to quiescence, summarize."""
    builder = TraceBuilder(MODE_CA, seed, scenario)
    query = query_for_seed(scenario, seed)
    builder.run_start(query)

    planner = MockPlanner()
    combined = KINDS[scenario.kind].ca_calls == CA_COMBINED_SINGLE
    blueprint = planner.plan(query, scenario)
    builder.llm_call(
        "combined" if combined else "plan",
        envelope=builder.envelope_line(
            protocol.CONTEXT_SEED, canonical_dumps({"blueprint": blueprint})
        ),
    )

    store = ContextStore()
    store.add_commit_listener(builder.scs_listener(scenario.completion_key))
    seed_context(store, blueprint)

    def on_firing(stage: Stage, edge_time: int) -> None:
        builder.trigger_fire(stage.server_id, edge_time)
        builder.tool_exec(stage.server_id, stage.stage_id)

    def on_fired(stage: Stage, writes) -> None:
        # Every action writes its stage's output under the stage id.
        entry = store.get(stage.stage_id)
        builder.stage_done(entry.key, entry.value, entry.text)

    def on_failed(stage: Stage, reason: str) -> None:
        builder.stage_failed(stage.stage_id, reason)

    pool = ReactorPool(store, on_firing=on_firing, on_fired=on_fired, on_failed=on_failed)
    for spec in build_servers(scenario, MODE_CA):
        pool.register(spec)
    pool.run_until_quiescent()

    snapshot = store.snapshot()
    completed = evaluate(completion_condition(scenario.stages), snapshot)
    if completed:
        store.put(scenario.completion_key, True, SEED_WRITER)
        final = store.snapshot()
        if combined:
            summary = render_summary(final, blueprint)
        else:
            summary = planner.summarize(final, blueprint)
            snapshot_text = canonical_object({k: e.text for k, e in final.items()})
            builder.llm_call(
                "summarize",
                envelope=builder.envelope_line(
                    protocol.SUMMARY_REQUEST, f'{{"snapshot":{snapshot_text}}}'
                ),
            )
        builder.run_end(True, summary)
    else:
        states = pool.states()
        for stage in scenario.stages:
            if states[stage.server_id] is ReactorState.IDLE:
                builder.stage_failed(stage.stage_id, "never triggered: upstream incomplete")
        builder.run_end(False)

    return builder.build()


def run_traditional(scenario: Scenario, seed: int) -> Trace:
    """One centrally orchestrated run over a private, evictable history. Both
    call policies share this stage loop; the per-stage policy adds a step
    decision over the window and the eviction check before each stage. The
    window also bounds the final synthesis. A tool logs one tool_exec per
    call that its ``calls`` reports for its output."""
    builder = TraceBuilder(MODE_TRADITIONAL, seed, scenario)
    query = query_for_seed(scenario, seed)
    builder.run_start(query)

    planner = MockPlanner()
    # (key, value, rendered text) in the order the orchestrator learned them.
    history = [(k, v, rendered(v)) for k, v in query_constraints(query).items()]

    # The window keeps the history from this index on.
    first = -scenario.window if scenario.window else 0
    per_stage = KINDS[scenario.kind].traditional_calls == TRADITIONAL_PER_STAGE
    if not per_stage:
        # One upfront orchestration decides everything; tools then run
        # open-loop over the whole history.
        planner.plan(query, scenario)
        builder.llm_call("plan")
    finished = 0
    for stage, tool in zip(scenario.stages, build_servers(scenario, MODE_TRADITIONAL)):
        visible = history
        if per_stage:  # a step decision sees only what the window keeps
            visible = history[first:]
            visible_keys = [k for k, _, _ in visible]
            planner.step_decision(stage.stage_id, visible_keys)
            builder.llm_call("step_decision")
            missing = [k for k in stage.required if k not in visible_keys]
            if missing:
                builder.stage_failed(stage.stage_id, f"required context evicted: {missing[0]}")
                continue
        try:
            output = tool.run({k: v for k, v, _ in visible})
            # One encoding per output, shared by its stage_done line and the synthesis.
            text = canonical_dumps(output)
            builder.tool_exec(stage.server_id, stage.stage_id, tool.calls(output))
        except Exception as exc:  # a crash, or an output or call with no JSON text
            builder.tool_exec(stage.server_id, stage.stage_id)
            builder.stage_failed(stage.stage_id, f"{type(exc).__name__}: {exc}")
            continue
        history.append((stage.stage_id, output, output if isinstance(output, str) else text))
        builder.stage_done(stage.stage_id, output, text)
        finished += 1

    summary = planner.synthesize([(k, text) for k, _, text in history[first:]])
    builder.llm_call("summarize")
    builder.run_end(finished == len(scenario.stages), summary)

    return builder.build()


def run(scenario: Scenario, mode: str, seed: int) -> Trace:
    if mode == MODE_CA:
        return run_context_aware(scenario, seed)
    if mode == MODE_TRADITIONAL:
        return run_traditional(scenario, seed)
    raise ValueError(f"unknown mode: {mode!r}")
