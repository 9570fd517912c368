"""Run drivers for both execution modes, emitting deterministic traces.

Context-aware runs plan once, seed the shared store, let reactors
self-coordinate to quiescence, then summarize. Traditional runs drive every
stage from the center through a private history that can lose context under
a window budget. Either way the trace is a pure function of (scenario,
mode, seed): replaying a serialized trace reproduces the same metrics.

Each value a run produces is encoded once. A store commit's ``scs_write``
line, a ``stage_done`` line and the final summary are assembled from the
canonical text that the store made at commit (``ContextEntry.text``), or, in
traditional mode, from the one text made per stage output; the builder
keeps each such line on its event and :func:`serialize_trace` joins them.
Events without a prebuilt line, such as parsed ones, are encoded in full.
Every protocol line a run writes goes through
:func:`camcp.protocol.encode_line` as text, with no envelope, copy or check
of its own: the loader and the store checked the values, and
:func:`camcp.protocol.decode` checks a line where it is read.
"""
from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass

from . import protocol
from .planner import (
    MockPlanner,
    PlanBlueprint,
    Query,
    blueprint_to_value,
    completion_condition,
    render_summary,
    rendered,
)
from .reactor import BudgetExceededError, ReactorPool
from .scenarios import (
    CA_COMBINED_SINGLE,
    CALL_POLICIES,
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
    RUN_START,
    RUN_END,
    LLM_CALL,
    TOOL_EXEC,
    SCS_WRITE,
    TRIGGER_FIRE,
    STAGE_DONE,
    STAGE_FAILED,
)

# Payload fields that compute_metrics reads, by event kind, with the JSON
# type each must have. None of them may be a boolean, which Python counts as
# an integer, and a float must be finite: a literal such as 1e400 decodes to
# a float infinity. A field that may be null may also be absent.
_NUMBER = (int, float)
_PAYLOAD_FIELDS = {
    RUN_START: {
        "mode": (str, "text"),
        "seed": (int, "an integer"),
        "kind": (str, "text"),
        "stage_ids": (list, "a list"),
        "constraints": (dict, "an object"),
    },
    STAGE_DONE: {"stage": (str, "text"), "outputs": (dict, "an object")},
    RUN_END: {"simulated_latency_s": (_NUMBER, "a number")},
}

# The run_start constraints that the scoring compares against, by scenario
# kind; its keys are the kinds a trace may name.
_CONSTRAINT_FIELDS = {
    "travel": {"budget": (_NUMBER, "a number")},
    "wedding": {
        "vehicle_capacity": (int, "an integer"),
        "deadline_min": ((int, type(None)), "null or an integer"),
    },
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


@dataclass(frozen=True)
class TraceEvent:
    t: int
    kind: str
    payload: dict
    # Not a field: the event's serialized line, which TraceBuilder assembles
    # from texts it already has; the payload must not change after that.
    # Parsed and hand-built events have none and are encoded in full.
    line = None


@dataclass
class Trace:
    """Ordered event log of one run.

    ``wall_clock_s`` is measured, never serialized: trace files must be
    byte-identical across runs of the same (scenario, mode, seed).
    """

    events: list[TraceEvent]
    mode: str
    seed: int
    simulated_latency_s: float
    wall_clock_s: float = 0.0

    def events_of(self, kind: str) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def llm_call_count(self) -> int:
        return len(self.events_of(LLM_CALL))

    def protocol_messages(self) -> list[protocol.Envelope]:
        messages = []
        for event in self.events:
            line = event.payload.get("envelope")
            if line is not None:
                messages.append(protocol.decode(line))
        return messages


def _line(t: int, kind: str, payload_text: str) -> str:
    return f'{{"t":{t},"kind":{canonical_dumps(kind)},"payload":{payload_text}}}'


def serialize_trace(trace: Trace) -> str:
    return "\n".join(
        _line(e.t, e.kind, canonical_dumps(e.payload)) if e.line is None else e.line
        for e in trace.events
    ) + "\n"


def write_trace(trace: Trace, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_trace(trace))


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON value")


# Built once; rejects the NaN, Infinity and -Infinity that json.loads accepts.
_TRACE_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def parse_trace(text: str) -> Trace:
    """Strict parse of a serialized trace; raises :class:`MalformedTraceError`
    naming the offending line."""
    events: list[TraceEvent] = []
    line_no = 0
    for raw in text.splitlines():
        if not raw.strip():
            continue
        line_no += 1
        try:
            record = _TRACE_DECODER.decode(raw)
        except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
            raise MalformedTraceError(line_no, f"not valid JSON: {exc}") from exc
        if not isinstance(record, dict) or sorted(record) != ["kind", "payload", "t"]:
            raise MalformedTraceError(line_no, "expected an object with t, kind, payload")
        if record["kind"] not in EVENT_KINDS:
            raise MalformedTraceError(line_no, f"unknown event kind {record['kind']!r}")
        if type(record["t"]) is not int or record["t"] != line_no:
            raise MalformedTraceError(line_no, f"logical time 't' must be the integer {line_no}")
        kind, payload = record["kind"], record["payload"]
        if not isinstance(payload, dict):
            raise MalformedTraceError(line_no, "payload must be an object")
        fields = _PAYLOAD_FIELDS.get(kind)
        if fields:
            _check_fields(line_no, f"{kind} payload", "", payload, fields)
        if kind == RUN_START:
            if not all(isinstance(s, str) for s in payload["stage_ids"]):
                raise MalformedTraceError(line_no, "run_start payload 'stage_ids' must hold only text")
            fields = _CONSTRAINT_FIELDS.get(payload["kind"])
            if fields is None:
                known = " or ".join(map(repr, _CONSTRAINT_FIELDS))
                raise MalformedTraceError(line_no, f"run_start payload 'kind' must be {known}")
            _check_fields(
                line_no, "run_start payload", "constraints.", payload["constraints"], fields
            )
        if kind == STAGE_DONE and payload["outputs"].get("schedule") is not None:
            _check_schedule(line_no, payload["outputs"]["schedule"])
        events.append(TraceEvent(record["t"], kind, payload))
    if not events:
        raise MalformedTraceError(1, "empty trace")
    if events[0].kind != RUN_START:
        raise MalformedTraceError(1, "first event must be run_start")
    if events[-1].kind != RUN_END:
        raise MalformedTraceError(len(events), "last event must be run_end")
    for event in events[1:-1]:
        if event.kind in (RUN_START, RUN_END):
            raise MalformedTraceError(event.t, f"{event.kind} may only appear at the boundary")
    return Trace(
        events=events,
        mode=events[0].payload["mode"],
        seed=events[0].payload["seed"],
        simulated_latency_s=events[-1].payload["simulated_latency_s"],
    )


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
        line_no = sum(1 for raw in head.splitlines() if raw.strip())
        raise MalformedTraceError(line_no, f"not UTF-8 text: {exc.reason}") from exc
    return parse_trace(text)


class TraceBuilder:
    """Accumulates events under one strictly increasing logical clock and one
    strictly increasing protocol sequence counter."""

    def __init__(self, mode: str, seed: int, scenario: Scenario):
        self.mode = mode
        self.seed = seed
        self.scenario = scenario
        self.cost = scenario.cost_model
        self.stages_done: set[str] = set()
        self.stages_failed: set[str] = set()
        self._events: list[TraceEvent] = []
        self._t = 0
        self._seq = 0
        self._llm_calls = 0
        self._tool_execs = 0
        self._closed = False

    def _append(self, kind: str, payload: dict, payload_text: str | None = None) -> None:
        """Record an event; *payload_text*, when given, is
        ``canonical_dumps(payload)`` and becomes the event's prebuilt line.
        Callers write its fields in sorted order, as the encoder would."""
        if self._closed:
            raise RuntimeError("trace already ended")
        self._t += 1
        event = TraceEvent(self._t, kind, payload)
        if payload_text is not None:
            object.__setattr__(event, "line", _line(self._t, kind, payload_text))
        self._events.append(event)

    def envelope_line(self, msg_type: str, payload_text: str) -> str:
        """The next protocol line, around a payload's canonical text."""
        self._seq += 1
        return protocol.encode_line(msg_type, self._seq, payload_text)

    def run_start(self, query: Query) -> None:
        request = {"query": {"raw_text": query.raw_text, "kind": query.kind, "params": query.params}}
        self._append(
            RUN_START,
            {
                "mode": self.mode,
                "seed": self.seed,
                "scenario": self.scenario.name,
                "kind": self.scenario.kind,
                "stage_ids": self.scenario.stage_ids(),
                "constraints": query.constraints(),
                "envelope": self.envelope_line(protocol.PLAN_REQUEST, canonical_dumps(request)),
            },
        )

    def llm_call(self, role: str, envelope: str | None = None) -> None:
        self._llm_calls += 1
        payload = {"role": role, "latency_s": self.cost.per_call_latency_s}
        if envelope is not None:
            payload["envelope"] = envelope
        self._append(LLM_CALL, payload)

    def tool_exec(self, server_id: str, stage_id: str, extra: dict | None = None) -> None:
        self._tool_execs += 1
        payload = {"server": server_id, "stage": stage_id, "latency_s": self.cost.per_tool_latency_s}
        if extra:
            payload.update(extra)
        self._append(TOOL_EXEC, payload)

    def trigger_fire(self, server_id: str, edge_time: int) -> None:
        self._append(TRIGGER_FIRE, {"server": server_id, "edge_time": edge_time})

    def stage_done(self, stage_id: str, output: ContextValue, text: str) -> None:
        """Record a finished stage and its *output*, whose canonical text is
        *text*."""
        self.stages_done.add(stage_id)
        key = canonical_dumps(stage_id)
        self._append(
            STAGE_DONE,
            {"stage": stage_id, "outputs": {stage_id: output}},
            f'{{"outputs":{{{key}:{text}}},"stage":{key}}}',
        )

    def stage_failed(self, stage_id: str, reason: str) -> None:
        self.stages_failed.add(stage_id)
        self._append(STAGE_FAILED, {"stage": stage_id, "reason": reason})

    def scs_listener(self, completion_key: str):
        """Commit listener: every store commit becomes an scs_write event
        carrying its wire message (the completion flag is the completion
        signal; everything else is a plain context write)."""

        def on_commit(entry) -> None:
            key = canonical_dumps(entry.key)
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
                f'{{"envelope":{canonical_dumps(line)},"key":{key},"value":{entry.text},'
                f'"version":{entry.version},"writer":{canonical_dumps(entry.writer_id)}}}',
            )

        return on_commit

    def simulated_latency_s(self) -> float:
        return (
            self._llm_calls * self.cost.per_call_latency_s
            + self._tool_execs * self.cost.per_tool_latency_s
        )

    def run_end(self, completed: bool, summary: str | None = None) -> None:
        """Close the trace; a *summary* goes out as the final response."""
        payload = {"completed": completed, "simulated_latency_s": self.simulated_latency_s()}
        if summary is not None:
            text = canonical_dumps({"text": summary})
            payload["envelope"] = self.envelope_line(protocol.FINAL_RESPONSE, text)
        self._append(RUN_END, payload)
        self._closed = True

    def build(self) -> Trace:
        if not self._closed:
            raise RuntimeError("trace not ended")
        return Trace(
            events=self._events,
            mode=self.mode,
            seed=self.seed,
            simulated_latency_s=self.simulated_latency_s(),
        )


def query_for_seed(scenario: Scenario, seed: int) -> Query:
    """Deterministic query for a seed. Seed 0 is the scenario's base query;
    other seeds vary the travel destination, length, and budget within the
    shipped data tables. Wedding queries are structurally fixed."""
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    if scenario.kind == "travel":
        params = dict(scenario.constraints)
        if seed != 0:
            rng = random.Random(seed)
            destinations = list(scenario.data_tables["destinations"])
            params["destination"] = destinations[rng.randrange(len(destinations))]
            params["days"] = rng.choice([2, 3, 4])
            params["budget"] = rng.choice([1200, 1500, 1800])
        preferences = params.get("preferences") or []
        raw = (
            f"Plan a {params['days']}-day trip to {params['destination']} "
            f"with a ${params['budget']} budget; preferences: {', '.join(preferences)}."
        )
        return Query(raw_text=raw, kind="travel", params=params)
    params = {"scenario": scenario.name, **scenario.constraints}
    raw = "Coordinate wedding-day guest arrivals, errands, and the shared vehicle."
    return Query(raw_text=raw, kind="wedding", params=params)


def seed_context(store: ContextStore, blueprint: PlanBlueprint) -> None:
    """Write the blueprint into the store: goals, one entry per constraint,
    the stage outline, and last the goals_seeded flag that arms root stages."""
    store.put("goals", list(blueprint.goals), SEED_WRITER)
    for name, value in blueprint.constraints.items():
        store.put(f"constraints.{name}", value, SEED_WRITER)
    store.put("stages", blueprint_to_value(blueprint)["stages"], SEED_WRITER)
    store.put("goals_seeded", True, SEED_WRITER)


def run_context_aware(scenario: Scenario, seed: int) -> Trace:
    """One context-aware run: plan, seed, react to quiescence, summarize."""
    started = time.perf_counter()
    query = query_for_seed(scenario, seed)
    builder = TraceBuilder(MODE_CA, seed, scenario)
    builder.run_start(query)

    planner = MockPlanner()
    combined = CALL_POLICIES[scenario.kind]["ca_calls"] == CA_COMBINED_SINGLE
    blueprint = planner.plan(query, scenario)
    builder.llm_call(
        "combined" if combined else "plan",
        envelope=builder.envelope_line(
            protocol.CONTEXT_SEED, canonical_dumps({"blueprint": blueprint_to_value(blueprint)})
        ),
    )

    store = ContextStore()
    store.add_commit_listener(builder.scs_listener(blueprint.completion_key))
    seed_context(store, blueprint)

    stage_by_server = {s.server_id: s.stage_id for s in blueprint.stages}

    def on_firing(server_id: str, edge_time: int) -> None:
        builder.trigger_fire(server_id, edge_time)
        builder.tool_exec(server_id, stage_by_server[server_id])

    def on_fired(server_id: str, writes) -> None:
        # Every action writes its stage's output under the stage id.
        entry = store.get(stage_by_server[server_id])
        builder.stage_done(entry.key, entry.value, entry.text)

    def on_failed(server_id: str, reason: str) -> None:
        builder.stage_failed(stage_by_server[server_id], reason)

    pool = ReactorPool(store, on_firing=on_firing, on_fired=on_fired, on_failed=on_failed)
    for spec in build_servers(scenario, MODE_CA):
        pool.register(spec)
    try:
        pool.run_until_quiescent(scenario.max_steps)
        unfinished = "never triggered: upstream incomplete"
    except BudgetExceededError as exc:  # contained: the run ends incomplete
        unfinished = str(exc)

    snapshot = store.snapshot()
    completed = evaluate(completion_condition(blueprint), snapshot)
    if completed:
        store.put(blueprint.completion_key, True, SEED_WRITER)
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
        for stage in blueprint.stages:
            if stage.stage_id not in builder.stages_done | builder.stages_failed:
                builder.stage_failed(stage.stage_id, unfinished)
        builder.run_end(False)

    trace = builder.build()
    trace.wall_clock_s = time.perf_counter() - started
    return trace


def run_traditional(scenario: Scenario, seed: int) -> Trace:
    """One centrally orchestrated run over a private, evictable history. Both
    call policies share this stage loop; the per-stage policy adds a step
    decision and the eviction check before each stage."""
    started = time.perf_counter()
    query = query_for_seed(scenario, seed)
    builder = TraceBuilder(MODE_TRADITIONAL, seed, scenario)
    builder.run_start(query)

    planner = MockPlanner()
    tools = {t.stage_id: t for t in build_servers(scenario, MODE_TRADITIONAL)}
    # (key, value, rendered text) in the order the orchestrator learned them.
    history = [(k, v, rendered(v)) for k, v in query.constraints().items()]

    def window() -> list[tuple[str, ContextValue, str]]:
        if scenario.window.enabled:
            return history[-scenario.window.budget_entries :]
        return list(history)

    per_stage = CALL_POLICIES[scenario.kind]["traditional_calls"] == TRADITIONAL_PER_STAGE
    if not per_stage:
        # One upfront orchestration decides everything; tools then run open-loop.
        planner.plan(query, scenario)
        builder.llm_call("plan")
    for stage in scenario.stages:
        tool = tools[stage.stage_id]
        # The schedule tool reads the whole history and dispatches each
        # transport request as its own trip, one tool call per trip.
        schedule = stage.stage_id == "schedule"
        visible = history if schedule else window()
        if per_stage:
            visible_keys = [k for k, _, _ in visible]
            planner.step_decision(stage.stage_id, visible_keys)
            builder.llm_call("step_decision")
            missing = [k for k in tool.required if k not in visible_keys]
            if missing:
                builder.stage_failed(stage.stage_id, f"required context evicted: {missing[0]}")
                continue
        try:
            output = tool.run({k: v for k, v, _ in visible})
            # One encoding per output, shared by its stage_done line and the synthesis.
            text = canonical_dumps(output)
        except Exception as exc:  # a crash, or an output with no JSON text
            builder.tool_exec(tool.server_id, stage.stage_id)
            builder.stage_failed(stage.stage_id, f"{type(exc).__name__}: {exc}")
            continue
        if schedule:
            for trip in output["trips"]:
                request_id = trip["requests"][0]["request_id"]
                builder.tool_exec(tool.server_id, stage.stage_id, {"request": request_id})
        else:
            builder.tool_exec(tool.server_id, stage.stage_id)
        history.append((stage.stage_id, output, output if isinstance(output, str) else text))
        builder.stage_done(stage.stage_id, output, text)

    summary = planner.synthesize([(k, text) for k, _, text in window()])
    builder.llm_call("summarize")
    completed = len(builder.stages_done) == len(scenario.stages)
    builder.run_end(completed, summary)

    trace = builder.build()
    trace.wall_clock_s = time.perf_counter() - started
    return trace


def run(scenario: Scenario, mode: str, seed: int) -> Trace:
    if mode in (MODE_CA, "ca"):
        return run_context_aware(scenario, seed)
    if mode == MODE_TRADITIONAL:
        return run_traditional(scenario, seed)
    raise ValueError(f"unknown mode: {mode!r}")
