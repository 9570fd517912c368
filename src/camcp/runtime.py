"""Run drivers for both execution modes, emitting deterministic traces.

Context-aware runs plan once, seed the shared store, let reactors
self-coordinate to quiescence, then summarize. Traditional runs drive every
stage from the center through a private history that can lose context under
a window budget. Either way the trace is a pure function of (scenario,
mode, seed): replaying a serialized trace reproduces the same metrics.
"""
from __future__ import annotations

import json
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
)
from .reactor import ReactorPool
from .scenarios import (
    CA_COMBINED_SINGLE,
    CALL_POLICIES,
    MODE_CA,
    MODE_TRADITIONAL,
    TRADITIONAL_PER_STAGE,
    Scenario,
    build_servers,
)
from .store import ContextStore, ContextValue, canonicalize_value, evaluate

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
# type each must have.
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


def _event_line(event: TraceEvent) -> str:
    record = {"t": event.t, "kind": event.kind, "payload": canonicalize_value(event.payload)}
    return json.dumps(record, separators=(",", ":"), allow_nan=False)


def serialize_trace(trace: Trace) -> str:
    return "\n".join(_event_line(e) for e in trace.events) + "\n"


def write_trace(trace: Trace, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_trace(trace))


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
            record = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise MalformedTraceError(line_no, f"not valid JSON: {exc}") from exc
        if not isinstance(record, dict) or sorted(record) != ["kind", "payload", "t"]:
            raise MalformedTraceError(line_no, "expected an object with t, kind, payload")
        if record["kind"] not in EVENT_KINDS:
            raise MalformedTraceError(line_no, f"unknown event kind {record['kind']!r}")
        if record["t"] != line_no:
            raise MalformedTraceError(line_no, f"logical time {record['t']} != {line_no}")
        kind, payload = record["kind"], record["payload"]
        if not isinstance(payload, dict):
            raise MalformedTraceError(line_no, "payload must be an object")
        for name, (types, description) in _PAYLOAD_FIELDS.get(kind, {}).items():
            if name not in payload:
                raise MalformedTraceError(line_no, f"{kind} payload missing {name!r}")
            if not isinstance(payload[name], types):
                raise MalformedTraceError(line_no, f"{kind} payload {name!r} must be {description}")
        if kind == RUN_START and not all(isinstance(s, str) for s in payload["stage_ids"]):
            raise MalformedTraceError(line_no, "run_start payload 'stage_ids' must hold only text")
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


def read_trace(path) -> Trace:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_trace(fh.read())


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

    def _append(self, kind: str, payload: dict) -> None:
        if self._closed:
            raise RuntimeError("trace already ended")
        self._t += 1
        self._events.append(TraceEvent(self._t, kind, payload))

    def envelope_line(self, msg_type: str, payload: dict) -> str:
        self._seq += 1
        return protocol.encode(protocol.make_envelope(msg_type, self._seq, payload))

    def run_start(self, query: Query) -> None:
        constraints = {k: v for k, v in query.params.items() if k != "scenario"}
        self._append(
            RUN_START,
            {
                "mode": self.mode,
                "seed": self.seed,
                "scenario": self.scenario.name,
                "kind": self.scenario.kind,
                "stage_ids": self.scenario.stage_ids(),
                "constraints": constraints,
                "envelope": self.envelope_line(
                    protocol.PLAN_REQUEST,
                    {"query": {"raw_text": query.raw_text, "kind": query.kind, "params": query.params}},
                ),
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

    def stage_done(self, stage_id: str, outputs: dict) -> None:
        self.stages_done.add(stage_id)
        self._append(STAGE_DONE, {"stage": stage_id, "outputs": outputs})

    def stage_failed(self, stage_id: str, reason: str) -> None:
        self.stages_failed.add(stage_id)
        self._append(STAGE_FAILED, {"stage": stage_id, "reason": reason})

    def scs_listener(self, completion_key: str):
        """Commit listener: every store commit becomes an scs_write event
        carrying its wire message (the completion flag is the completion
        signal; everything else is a plain context write)."""

        def on_commit(entry) -> None:
            if entry.key == completion_key:
                line = self.envelope_line(
                    protocol.COMPLETION_SIGNAL, {"completion_key": entry.key}
                )
            else:
                line = self.envelope_line(
                    protocol.CONTEXT_WRITE, {"key": entry.key, "value": entry.value}
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
            )

        return on_commit

    def simulated_latency_s(self) -> float:
        return (
            self._llm_calls * self.cost.per_call_latency_s
            + self._tool_execs * self.cost.per_tool_latency_s
        )

    def run_end(self, completed: bool, envelope: str | None = None) -> None:
        payload = {"completed": completed, "simulated_latency_s": self.simulated_latency_s()}
        if envelope is not None:
            payload["envelope"] = envelope
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


def seed_context(store: ContextStore, blueprint: PlanBlueprint, writer_id: str = SEED_WRITER) -> None:
    """Write the blueprint into the store: goals, one entry per constraint,
    the stage outline, and last the goals_seeded flag that arms root stages."""
    store.put("goals", list(blueprint.goals), writer_id)
    for name, value in blueprint.constraints.items():
        store.put(f"constraints.{name}", value, writer_id)
    store.put("stages", blueprint_to_value(blueprint)["stages"], writer_id)
    store.put("goals_seeded", True, writer_id)


def run_context_aware(scenario: Scenario, seed: int) -> Trace:
    """One context-aware run: plan, seed, react to quiescence, summarize."""
    started = time.perf_counter()
    query = query_for_seed(scenario, seed)
    builder = TraceBuilder(MODE_CA, seed, scenario)
    builder.run_start(query)

    planner = MockPlanner()
    combined = CALL_POLICIES[scenario.kind]["ca_calls"] == CA_COMBINED_SINGLE
    blueprint = planner.plan(query)
    builder.llm_call(
        "combined" if combined else "plan",
        envelope=builder.envelope_line(
            protocol.CONTEXT_SEED, {"blueprint": blueprint_to_value(blueprint)}
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
        stage_id = stage_by_server[server_id]
        outputs = {k: v for k, v in writes if k == stage_id}
        builder.stage_done(stage_id, outputs)

    def on_failed(server_id: str, reason: str) -> None:
        builder.stage_failed(stage_by_server[server_id], reason)

    pool = ReactorPool(store, on_firing=on_firing, on_fired=on_fired, on_failed=on_failed)
    for spec in build_servers(scenario, MODE_CA):
        pool.register(spec)
    pool.run_until_quiescent(scenario.max_steps)

    snapshot = store.snapshot()
    completed = evaluate(completion_condition(blueprint), snapshot)
    if completed:
        store.put(blueprint.completion_key, True, SEED_WRITER)
        final = store.snapshot()
        if combined:
            summary = render_summary(final.values_map(), blueprint)
        else:
            summary = planner.summarize(final, blueprint)
            builder.llm_call(
                "summarize",
                envelope=builder.envelope_line(
                    protocol.SUMMARY_REQUEST, {"snapshot": final.values_map()}
                ),
            )
        builder.run_end(
            True, envelope=builder.envelope_line(protocol.FINAL_RESPONSE, {"text": summary})
        )
    else:
        for stage in blueprint.stages:
            if stage.stage_id not in builder.stages_done | builder.stages_failed:
                builder.stage_failed(stage.stage_id, "never triggered: upstream incomplete")
        builder.run_end(False)

    trace = builder.build()
    trace.wall_clock_s = time.perf_counter() - started
    return trace


def run_traditional(scenario: Scenario, seed: int) -> Trace:
    """One centrally orchestrated run over a private, evictable history."""
    started = time.perf_counter()
    query = query_for_seed(scenario, seed)
    builder = TraceBuilder(MODE_TRADITIONAL, seed, scenario)
    builder.run_start(query)

    planner = MockPlanner()
    tools = {t.stage_id: t for t in build_servers(scenario, MODE_TRADITIONAL)}
    history: list[tuple[str, ContextValue]] = [
        (k, v) for k, v in query.params.items() if k != "scenario"
    ]

    def window() -> list[tuple[str, ContextValue]]:
        if scenario.window.enabled:
            return history[-scenario.window.budget_entries :]
        return list(history)

    if CALL_POLICIES[scenario.kind]["traditional_calls"] == TRADITIONAL_PER_STAGE:
        for stage in scenario.stages:
            visible = window()
            visible_keys = [k for k, _ in visible]
            planner.step_decision(stage.stage_id, visible_keys)
            builder.llm_call("step_decision")
            tool = tools[stage.stage_id]
            missing = [k for k in tool.required if k not in visible_keys]
            if missing:
                builder.stage_failed(stage.stage_id, f"required context evicted: {missing[0]}")
                continue
            builder.tool_exec(tool.server_id, stage.stage_id)
            try:
                output = tool.run(dict(visible))
            except Exception as exc:
                builder.stage_failed(stage.stage_id, f"{type(exc).__name__}: {exc}")
                continue
            history.append((stage.stage_id, output))
            builder.stage_done(stage.stage_id, {stage.stage_id: output})
    else:
        # One upfront orchestration decides everything; tools then run
        # open-loop. The schedule tool reads the whole history and dispatches
        # each transport request as its own trip, one tool call per trip.
        planner.plan(query)
        builder.llm_call("plan")
        for stage in scenario.stages:
            tool = tools[stage.stage_id]
            schedule = stage.stage_id == "schedule"
            try:
                output = tool.run(dict(history if schedule else window()))
            except Exception as exc:
                builder.tool_exec(tool.server_id, stage.stage_id)
                builder.stage_failed(stage.stage_id, f"{type(exc).__name__}: {exc}")
                continue
            if schedule:
                for trip in output["trips"]:
                    request_id = trip["requests"][0]["request_id"]
                    builder.tool_exec(tool.server_id, stage.stage_id, {"request": request_id})
            else:
                builder.tool_exec(tool.server_id, stage.stage_id)
            history.append((stage.stage_id, output))
            builder.stage_done(stage.stage_id, {stage.stage_id: output})

    summary = planner.synthesize(window())
    builder.llm_call("summarize")
    completed = len(builder.stages_done) == len(scenario.stages)
    builder.run_end(
        completed, envelope=builder.envelope_line(protocol.FINAL_RESPONSE, {"text": summary})
    )

    trace = builder.build()
    trace.wall_clock_s = time.perf_counter() - started
    return trace


def run(scenario: Scenario, mode: str, seed: int) -> Trace:
    if mode in (MODE_CA, "ca"):
        return run_context_aware(scenario, seed)
    if mode == MODE_TRADITIONAL:
        return run_traditional(scenario, seed)
    raise ValueError(f"unknown mode: {mode!r}")
