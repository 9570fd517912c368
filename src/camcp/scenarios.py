"""Benchmark scenarios: configuration files, domain data tables, the tool
computations shared by both execution modes, vehicle-trip batching, and
goal/constraint scoring.

A scenario file is a single JSON document. The same underlying tool
computations are exposed two ways: as stateful reactors over the shared
store (context-aware mode) and as stateless functions over an assembled
context window (traditional mode).
"""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Mapping

from .planner import CostModel, Stage, stage_outline
from .reactor import ActionResult, ServerSpec
from .store import ContextValue, Snapshot, copy_value

MODE_CA = "context_aware"
MODE_TRADITIONAL = "traditional"
MODES = (MODE_CA, MODE_TRADITIONAL)

TRADITIONAL_PER_STAGE = "per_stage_plus_synthesis"
TRADITIONAL_SINGLE = "single_orchestration_plus_synthesis"
CA_PLAN_AND_SUMMARIZE = "plan_and_summarize"
CA_COMBINED_SINGLE = "combined_single"

# Each kind's fixed call shape: how many planner invocations each mode
# performs. A scenario file may restate it under "call_policy", not change it.
CALL_POLICIES = {
    "travel": {"traditional_calls": TRADITIONAL_PER_STAGE, "ca_calls": CA_PLAN_AND_SUMMARIZE},
    "wedding": {"traditional_calls": TRADITIONAL_SINGLE, "ca_calls": CA_COMBINED_SINGLE},
}

REQUEST_KEY_PREFIX = "transport_request."


class ScenarioParseError(Exception):
    """The scenario file is unreadable or not valid JSON."""


class ScenarioValidationError(Exception):
    def __init__(self, field_name: str, reason: str):
        super().__init__(f"scenario field {field_name!r}: {reason}")
        self.field = field_name
        self.reason = reason


@dataclass(frozen=True)
class WindowConfig:
    """Traditional-mode context window: keep only the most recent entries of
    the orchestrator's private history. Never applies in context-aware mode."""

    enabled: bool = False
    budget_entries: int = 3


@dataclass(frozen=True)
class Scenario:
    name: str
    kind: str
    stages: tuple[Stage, ...]
    data_tables: dict
    window: WindowConfig
    constraints: dict
    cost_model: CostModel = CostModel()
    max_steps: int = 16

    def stage_ids(self) -> list[str]:
        return [s.stage_id for s in self.stages]


@dataclass(frozen=True)
class TransportRequest:
    request_id: str
    origin: str
    destination: str
    ready_time_min: int
    source: str


@dataclass(frozen=True)
class Trip:
    trip_id: int
    requests: tuple[TransportRequest, ...]
    start_min: int
    duration_min: int

    def end_min(self) -> int:
        return self.start_min + self.duration_min


@dataclass(frozen=True)
class Schedule:
    trips: tuple[Trip, ...]
    makespan_min: int


# -- Loading and validation ---------------------------------------------------


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioParseError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"scenario file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioParseError(f"scenario file {path} must hold a JSON object")
    return scenario_from_value(data, default_name=path.stem)


def builtin_scenario_names() -> tuple[str, ...]:
    return ("travel", "wedding_p5")


def load_builtin(name: str) -> Scenario:
    if name not in builtin_scenario_names():
        raise ScenarioParseError(f"no built-in scenario named {name!r}")
    text = resources.files("camcp").joinpath("data", f"{name}.json").read_text("utf-8")
    return scenario_from_value(json.loads(text), default_name=name)


def resolve_scenario(spec: str) -> Scenario:
    """Accept either a filesystem path or a built-in scenario name."""
    if Path(spec).exists():
        return load_scenario(spec)
    if spec in builtin_scenario_names():
        return load_builtin(spec)
    raise ScenarioParseError(f"{spec!r} is neither a scenario file nor a built-in name")


def scenario_from_value(data: Mapping, default_name: str = "") -> Scenario:
    try:
        data = copy_value(data)
    except TypeError as exc:
        raise ScenarioParseError(f"scenario holds non-JSON data: {exc}") from exc

    kind = data.get("kind")
    if kind not in ("travel", "wedding"):
        raise ScenarioValidationError("kind", f"must be travel or wedding, got {kind!r}")

    name = data.get("name", default_name or kind)
    if not isinstance(name, str) or not name:
        raise ScenarioValidationError("name", "must be non-empty text")

    policy_data = data.get("call_policy", {})
    if not isinstance(policy_data, dict):
        raise ScenarioValidationError("call_policy", "must be an object")
    for fname, policy in CALL_POLICIES[kind].items():
        if policy_data.get(fname, policy) != policy:
            raise ScenarioValidationError(f"call_policy.{fname}", f"{kind} scenarios use {policy!r}")

    window_data = data.get("window", {})
    if not isinstance(window_data, dict):
        raise ScenarioValidationError("window", "must be an object")
    enabled = window_data.get("enabled", False)
    if not isinstance(enabled, bool):
        raise ScenarioValidationError("window.enabled", "must be true or false")
    budget_entries = window_data.get("budget_entries", 3)
    if not _is_int(budget_entries) or budget_entries < 1:
        raise ScenarioValidationError("window.budget_entries", "must be an integer >= 1")
    eviction = window_data.get("eviction", "fifo")
    if eviction != "fifo":
        raise ScenarioValidationError("window.eviction", f"unsupported policy {eviction!r}")
    window = WindowConfig(enabled=enabled, budget_entries=budget_entries)

    cost_data = data.get("cost_model", {})
    if not isinstance(cost_data, dict):
        raise ScenarioValidationError("cost_model", "must be an object")
    cost_model = CostModel(
        per_call_latency_s=_latency(cost_data, "per_call_latency_s", 6.0),
        per_tool_latency_s=_latency(cost_data, "per_tool_latency_s", 0.4),
    )

    max_steps = data.get("max_steps", 16)
    if not _is_int(max_steps) or max_steps < 1:
        raise ScenarioValidationError("max_steps", "must be an integer >= 1")

    constraints = data.get("constraints")
    if not isinstance(constraints, dict):
        raise ScenarioValidationError("constraints", "must be an object")

    stages_data = data.get("stages")
    if not isinstance(stages_data, list) or not stages_data:
        raise ScenarioValidationError("stages", "must be a non-empty list")
    required_keys = []
    for i, stage in enumerate(stages_data):
        if not isinstance(stage, dict):
            raise ScenarioValidationError(f"stages[{i}]", "must be an object")
        for fname in ("stage_id", "server_id"):
            if not isinstance(stage.get(fname), str) or not stage[fname]:
                raise ScenarioValidationError(f"stages[{i}].{fname}", "must be non-empty text")
        required = stage.get("required", [])
        if not isinstance(required, list) or not all(isinstance(r, str) for r in required):
            raise ScenarioValidationError(f"stages[{i}].required", "must be a list of key names")
        required_keys.append(tuple(required))
    outline = stage_outline(kind)
    declared = [(s["stage_id"], s["server_id"]) for s in stages_data]
    if declared != [(s.stage_id, s.server_id) for s in outline]:
        raise ScenarioValidationError(
            "stages", f"{kind} scenarios must declare stages {[s.stage_id for s in outline]}"
        )
    stages = tuple(
        replace(stage, required=required)
        for stage, required in zip(outline, required_keys)
    )

    tables = data.get("data_tables")
    if not isinstance(tables, dict):
        raise ScenarioValidationError("data_tables", "must be an object")
    if kind == "travel":
        _validate_travel(tables, constraints)
    else:
        _validate_wedding(tables, constraints)

    return Scenario(
        name=name,
        kind=kind,
        stages=stages,
        data_tables=tables,
        window=window,
        constraints=constraints,
        cost_model=cost_model,
        max_steps=max_steps,
    )


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _latency(cost_data: dict, name: str, default: float) -> float:
    value = cost_data.get(name, default)
    # The upper bound rejects an integer too large to become a float.
    if not (_is_int(value) or isinstance(value, float)) or not 0 <= value <= sys.float_info.max:
        raise ScenarioValidationError(f"cost_model.{name}", "must be a finite number >= 0")
    return float(value)


def _validate_travel(tables: dict, constraints: dict) -> None:
    destinations = tables.get("destinations")
    if not isinstance(destinations, dict) or not destinations:
        raise ScenarioValidationError("data_tables.destinations", "must be a non-empty object")
    for place, entry in destinations.items():
        for section in ("attractions", "hotels", "restaurants", "weather"):
            rows = entry.get(section) if isinstance(entry, dict) else None
            if not isinstance(rows, list) or not rows:
                raise ScenarioValidationError(
                    f"data_tables.destinations.{place}.{section}", "must be a non-empty list"
                )
    for fname in ("destination", "days", "budget"):
        if fname not in constraints:
            raise ScenarioValidationError(f"constraints.{fname}", "required for travel")
    if constraints["destination"] not in destinations:
        raise ScenarioValidationError(
            "constraints.destination", f"{constraints['destination']!r} not in data tables"
        )


def _validate_wedding(tables: dict, constraints: dict) -> None:
    for section in ("guests", "errands"):
        rows = tables.get(section)
        if not isinstance(rows, list) or not rows:
            raise ScenarioValidationError(f"data_tables.{section}", "must be a non-empty list")
        for i, row in enumerate(rows):
            if not isinstance(row, dict) or not isinstance(row.get("id"), str):
                raise ScenarioValidationError(f"data_tables.{section}[{i}].id", "must be text")
            if "ready_time_min" in row and not _is_int(row["ready_time_min"]):
                raise ScenarioValidationError(
                    f"data_tables.{section}[{i}].ready_time_min", "must be an integer"
                )
    ids = [r["id"] for r in tables["guests"]] + [r["id"] for r in tables["errands"]]
    if len(ids) != len(set(ids)):
        raise ScenarioValidationError("data_tables", "guest/errand ids must be unique")
    vehicle = tables.get("vehicle")
    if not isinstance(vehicle, dict):
        raise ScenarioValidationError("data_tables.vehicle", "must be an object")
    for name in ("capacity", "trip_duration_min"):
        if not _is_int(vehicle.get(name)) or vehicle[name] < 1:
            raise ScenarioValidationError(f"data_tables.vehicle.{name}", "must be an integer >= 1")
    if "vehicle_capacity" not in constraints:
        raise ScenarioValidationError("constraints.vehicle_capacity", "required for wedding")
    if not _is_int(constraints["vehicle_capacity"]) or constraints["vehicle_capacity"] < 1:
        raise ScenarioValidationError("constraints.vehicle_capacity", "must be an integer >= 1")
    if "deadline_min" in constraints and not _is_int(constraints["deadline_min"]):
        raise ScenarioValidationError("constraints.deadline_min", "must be an integer")


# -- Travel tool computations --------------------------------------------------


def _destination_entry(tables: dict, destination) -> dict:
    entry = tables.get("destinations", {}).get(destination)
    if entry is None:
        raise LookupError(f"unknown destination: {destination!r}")
    return entry


def _preferred_first(rows: list[dict], preferences: Iterable[str]) -> list[dict]:
    wanted = set(preferences or [])
    preferred = [r for r in rows if wanted & set(r.get("tags", []))]
    rest = [r for r in rows if r not in preferred]
    return preferred + rest


def suggest_locations(tables: dict, destination, days, preferences) -> dict:
    entry = _destination_entry(tables, destination)
    ordered = _preferred_first(entry["attractions"], preferences)
    chosen = ordered[: max(1, min(int(days), len(ordered)))]
    return {
        "destination": destination,
        "days": days,
        "attractions": [a["name"] for a in chosen],
        "cost": sum(a.get("cost", 0) for a in chosen),
    }


def forecast_weather(tables: dict, destination, days) -> dict:
    entry = _destination_entry(tables, destination)
    reports = entry["weather"]
    return {
        "destination": destination,
        "forecast": [reports[i % len(reports)] for i in range(int(days))],
    }


def book_hotel(tables: dict, destination, days) -> dict:
    entry = _destination_entry(tables, destination)
    hotel = entry["hotels"][0]
    nights = int(days)
    return {
        "hotel": hotel["name"],
        "price_per_night": hotel["price_per_night"],
        "nights": nights,
        "cost": hotel["price_per_night"] * nights,
    }


def plan_dining(tables: dict, destination, days, preferences) -> dict:
    entry = _destination_entry(tables, destination)
    ordered = _preferred_first(entry["restaurants"], preferences)
    wanted = set(preferences or [])
    pool = [r for r in ordered if wanted & set(r.get("tags", []))] or ordered
    chosen = [pool[i % len(pool)] for i in range(int(days))]
    return {
        "restaurants": [r["name"] for r in chosen],
        "cost": sum(r["cost_per_meal"] for r in chosen),
    }


def itinerary_cost(outputs: Mapping[str, ContextValue]) -> float:
    """Total cost across stage outputs (entries without a cost are free)."""
    total = 0
    for value in outputs.values():
        if isinstance(value, dict) and isinstance(value.get("cost"), (int, float)):
            total += value["cost"]
    return total


# -- Wedding requests and batching ---------------------------------------------


def request_to_value(request: TransportRequest) -> dict:
    return {
        "request_id": request.request_id,
        "origin": request.origin,
        "destination": request.destination,
        "ready_time_min": request.ready_time_min,
        "source": request.source,
    }


def request_from_value(value: Mapping) -> TransportRequest:
    return TransportRequest(
        request_id=value["request_id"],
        origin=value["origin"],
        destination=value["destination"],
        ready_time_min=value["ready_time_min"],
        source=value["source"],
    )


def guest_requests(tables: dict) -> list[TransportRequest]:
    return [
        TransportRequest(
            request_id=g["id"],
            origin=g.get("origin", "city"),
            destination=g.get("destination", "venue"),
            ready_time_min=g.get("ready_time_min", 0),
            source="arrival",
        )
        for g in tables["guests"]
    ]


def errand_requests(tables: dict) -> list[TransportRequest]:
    return [
        TransportRequest(
            request_id=e["id"],
            origin=e.get("origin", "venue"),
            destination=e.get("destination", "venue"),
            ready_time_min=e.get("ready_time_min", 0),
            source="errand",
        )
        for e in tables["errands"]
    ]


def schedule_to_value(schedule: Schedule) -> dict:
    return {
        "trips": [
            {
                "trip_id": t.trip_id,
                "start_min": t.start_min,
                "duration_min": t.duration_min,
                "requests": [request_to_value(r) for r in t.requests],
            }
            for t in schedule.trips
        ],
        "makespan_min": schedule.makespan_min,
    }


def schedule_from_value(value: Mapping) -> Schedule:
    trips = tuple(
        Trip(
            trip_id=t["trip_id"],
            requests=tuple(request_from_value(r) for r in t["requests"]),
            start_min=t["start_min"],
            duration_min=t["duration_min"],
        )
        for t in value["trips"]
    )
    return Schedule(trips=trips, makespan_min=value["makespan_min"])


def batch_requests(
    requests: Iterable[TransportRequest], capacity: int, duration_min: int
) -> Schedule:
    """Greedy batching: sort by (ready_time_min, request_id), fill each trip
    to capacity in order, run trips back to back on the single vehicle."""
    if isinstance(capacity, bool) or not isinstance(capacity, int) or capacity < 1:
        raise ValueError(f"capacity must be an integer >= 1, got {capacity!r}")
    if isinstance(duration_min, bool) or not isinstance(duration_min, int) or duration_min < 1:
        raise ValueError(f"duration_min must be an integer >= 1, got {duration_min!r}")
    ordered = sorted(requests, key=lambda r: (r.ready_time_min, r.request_id))
    trips: list[Trip] = []
    previous_end = 0
    for i in range(0, len(ordered), capacity):
        group = tuple(ordered[i : i + capacity])
        start = max(previous_end, min(r.ready_time_min for r in group))
        trips.append(
            Trip(trip_id=len(trips) + 1, requests=group, start_min=start, duration_min=duration_min)
        )
        previous_end = start + duration_min
    makespan = trips[-1].end_min() if trips else 0
    return Schedule(trips=tuple(trips), makespan_min=makespan)


def append_single_trip(
    trips: list[Trip], request: TransportRequest, duration_min: int
) -> Trip:
    """One unbatched dispatch: the request gets its own trip, queued after
    whatever the vehicle is already committed to."""
    previous_end = trips[-1].end_min() if trips else 0
    trip = Trip(
        trip_id=len(trips) + 1,
        requests=(request,),
        start_min=max(previous_end, request.ready_time_min),
        duration_min=duration_min,
    )
    trips.append(trip)
    return trip


def coordination_score(schedule: Schedule) -> int:
    """1 when at least one trip carries two or more requests, else 0."""
    return 1 if any(len(t.requests) >= 2 for t in schedule.trips) else 0


# -- Goal and constraint scoring -----------------------------------------------


def evaluate_satisfaction(
    kind: str, constraints: Mapping, stage_ids: list[str], outputs: Mapping[str, ContextValue]
) -> tuple[float, float]:
    """Score a finished run: (goal_satisfaction, constraint_satisfaction).

    Goal satisfaction is the fraction of stages whose output is present.
    Constraint satisfaction is 1.0 when every check passes, else the
    satisfied fraction.
    """
    if not stage_ids:
        goal = 1.0
    else:
        goal = sum(1 for sid in stage_ids if outputs.get(sid) is not None) / len(stage_ids)

    checks: list[bool] = []
    if kind == "travel":
        budget = constraints.get("budget")
        if isinstance(budget, (int, float)):
            checks.append(itinerary_cost(outputs) <= budget)
    elif kind == "wedding":
        schedule_value = outputs.get("schedule")
        capacity = constraints.get("vehicle_capacity")
        deadline = constraints.get("deadline_min")
        if schedule_value is None:
            checks.extend([False, False] + ([False] if deadline is not None else []))
        else:
            schedule = schedule_from_value(schedule_value)
            checks.append(all(len(t.requests) <= capacity for t in schedule.trips))
            checks.append(
                all(
                    r.ready_time_min <= t.start_min
                    for t in schedule.trips
                    for r in t.requests
                )
            )
            if deadline is not None:
                checks.append(schedule.makespan_min <= deadline)
    constraint = 1.0 if all(checks) else sum(checks) / len(checks) if checks else 1.0
    return goal, constraint


def outputs_from_trace(trace) -> dict[str, ContextValue]:
    """Collect per-stage outputs from stage_done events (last write wins)."""
    outputs: dict[str, ContextValue] = {}
    for event in trace.events:
        if event.kind == "stage_done":
            outputs.update(event.payload.get("outputs", {}))
    return outputs


# -- Server builders -------------------------------------------------------------


@dataclass(frozen=True)
class StatelessTool:
    """Traditional-mode tool: a pure function of the context window it is
    handed, with the keys it cannot run without."""

    stage_id: str
    server_id: str
    required: tuple[str, ...]
    run: Callable[[Mapping[str, ContextValue]], dict]


def _travel_stage_fn(tables: dict, stage_id: str):
    """Stage computation over explicit inputs, shared by both modes."""

    def compute(destination, days, preferences) -> dict:
        if stage_id == "location":
            return suggest_locations(tables, destination, days, preferences)
        if stage_id == "weather":
            return forecast_weather(tables, destination, days)
        if stage_id == "hotel":
            return book_hotel(tables, destination, days)
        if stage_id == "dining":
            return plan_dining(tables, destination, days, preferences)
        raise LookupError(f"unknown travel stage: {stage_id!r}")

    return compute


def _build_travel_ca(scenario: Scenario) -> list[ServerSpec]:
    tables = scenario.data_tables
    specs = []
    for stage in scenario.stages:
        compute = _travel_stage_fn(tables, stage.stage_id)

        def action(snapshot: Snapshot, stage_id=stage.stage_id, compute=compute) -> ActionResult:
            output = compute(
                snapshot.value("constraints.destination"),
                snapshot.value("constraints.days"),
                snapshot.value("constraints.preferences") or [],
            )
            return ActionResult.ok([(stage_id, output)])

        specs.append(
            ServerSpec(
                server_id=stage.server_id,
                trigger=stage.trigger,
                action=action,
                done_key=stage.done_key,
            )
        )
    return specs


def _build_wedding_ca(scenario: Scenario) -> list[ServerSpec]:
    tables = scenario.data_tables
    arrivals, errands, transport = scenario.stages

    def tracker_action(requests: list[TransportRequest], summary_key: str, other_done: str):
        def action(snapshot: Snapshot) -> ActionResult:
            writes: list[tuple[str, ContextValue]] = [
                (REQUEST_KEY_PREFIX + r.request_id, request_to_value(r)) for r in requests
            ]
            writes.append(
                (summary_key, {"requests": [r.request_id for r in requests], "count": len(requests)})
            )
            # The slower tracker posts the shared flag: coordination happens
            # through the store, not through any central scheduler.
            if other_done in snapshot:
                writes.append(("requests_posted", True))
            return ActionResult.ok(writes)

        return action

    def transport_action(snapshot: Snapshot) -> ActionResult:
        requests = [
            request_from_value(entry.value)
            for key, entry in snapshot.items()
            if key.startswith(REQUEST_KEY_PREFIX)
        ]
        capacity = snapshot.value("constraints.vehicle_capacity", tables["vehicle"]["capacity"])
        schedule = batch_requests(requests, capacity, tables["vehicle"]["trip_duration_min"])
        return ActionResult.ok([("schedule", schedule_to_value(schedule))])

    return [
        ServerSpec(
            server_id=arrivals.server_id,
            trigger=arrivals.trigger,
            action=tracker_action(guest_requests(tables), "arrivals", errands.done_key),
            done_key=arrivals.done_key,
        ),
        ServerSpec(
            server_id=errands.server_id,
            trigger=errands.trigger,
            action=tracker_action(errand_requests(tables), "errands", arrivals.done_key),
            done_key=errands.done_key,
        ),
        ServerSpec(
            server_id=transport.server_id,
            trigger=transport.trigger,
            action=transport_action,
            done_key=transport.done_key,
        ),
    ]


def _build_travel_traditional(scenario: Scenario) -> list[StatelessTool]:
    tables = scenario.data_tables
    tools = []
    for stage in scenario.stages:
        compute = _travel_stage_fn(tables, stage.stage_id)

        def run(window: Mapping[str, ContextValue], compute=compute) -> dict:
            location = window.get("location")
            if isinstance(location, dict):
                destination = location.get("destination", window.get("destination"))
                days = location.get("days", window.get("days", 1))
            else:
                destination = window.get("destination")
                days = window.get("days", 1)
            return compute(destination, days, window.get("preferences") or [])

        tools.append(StatelessTool(stage.stage_id, stage.server_id, stage.required, run))
    return tools


def _build_wedding_traditional(scenario: Scenario) -> list[StatelessTool]:
    tables = scenario.data_tables
    duration = tables["vehicle"]["trip_duration_min"]

    def run_arrivals(window: Mapping[str, ContextValue]) -> dict:
        requests = guest_requests(tables)
        return {"requests": [request_to_value(r) for r in requests], "count": len(requests)}

    def run_errands(window: Mapping[str, ContextValue]) -> dict:
        requests = errand_requests(tables)
        return {"requests": [request_to_value(r) for r in requests], "count": len(requests)}

    def run_schedule(window: Mapping[str, ContextValue]) -> dict:
        requests = collect_window_requests(window)
        return schedule_to_value(batch_requests(requests, 1, duration))

    by_stage = {
        "arrivals": run_arrivals,
        "errands": run_errands,
        "schedule": run_schedule,
    }
    return [
        StatelessTool(s.stage_id, s.server_id, s.required, by_stage[s.stage_id])
        for s in scenario.stages
    ]


def collect_window_requests(window: Mapping[str, ContextValue]) -> list[TransportRequest]:
    requests: list[TransportRequest] = []
    for key in ("arrivals", "errands"):
        value = window.get(key)
        if isinstance(value, dict):
            requests.extend(request_from_value(r) for r in value.get("requests", []))
    return requests


def build_servers(scenario: Scenario, mode: str):
    """Materialize the scenario's tool servers for one execution mode:
    ServerSpec reactors for ``context_aware``, StatelessTool functions for
    ``traditional``."""
    if mode not in MODES:
        raise ValueError(f"unknown mode: {mode!r}")
    if scenario.kind == "travel":
        return _build_travel_ca(scenario) if mode == MODE_CA else _build_travel_traditional(scenario)
    return _build_wedding_ca(scenario) if mode == MODE_CA else _build_wedding_traditional(scenario)
