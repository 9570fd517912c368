"""Benchmark scenarios: configuration files, domain data tables, the tool
computations shared by both execution modes, vehicle-trip batching, and
goal/constraint scoring.

A scenario file is a single JSON document, checked against its kind's fixed
wiring in the ``_WIRING`` table: the stages with their triggers, done flags and
goals, and the completion key. The planner reads that wiring from the loaded
scenario. The same tool computations are exposed two ways, through one maker
per kind and mode: as stateful reactors over the shared store (context-aware
mode) and as stateless functions over an assembled context window
(traditional mode).

Wedding requests and schedules are the plain values that the store holds and
the trace carries. No function here changes a request value it is handed: the
store, or an earlier stage output, owns it.
"""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Mapping

from .planner import CostModel, Stage
from .reactor import Action, ServerSpec
from .store import ContextValue, Exists, Snapshot, UnstorableValueError, copy_value

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
# The flag the wedding trackers raise once all of them have posted requests.
_REQUESTS_POSTED = "requests_posted"

# Each kind's fixed wiring: its stages in run order, and the flag that marks a
# run complete. A scenario file restates each stage's (stage_id, server_id)
# and adds the context keys the stage requires.
_WIRING = {
    "travel": (
        (
            Stage("location", "location_server", Exists("goals_seeded"), "location_done",
                  "shortlist places to visit"),
            Stage("weather", "weather_server", Exists("location_done"), "weather_done",
                  "forecast the weather"),
            Stage("hotel", "hotel_server", Exists("location_done"), "hotel_done", "book a hotel"),
            Stage("dining", "dining_server", Exists("hotel_done"), "dining_done",
                  "plan the dining"),
        ),
        "itinerary_complete",
    ),
    "wedding": (
        (
            Stage("arrivals", "arrival_tracker", Exists("goals_seeded"), "arrivals_done",
                  "track guest arrivals"),
            Stage("errands", "errand_tracker", Exists("goals_seeded"), "errands_done",
                  "track errand pickups"),
            Stage("schedule", "transport", Exists(_REQUESTS_POSTED), "schedule_done",
                  "produce the shared-vehicle schedule"),
        ),
        "logistics_complete",
    ),
}

# Longest travel plan a scenario may ask for; the tools build one row per day.
MAX_TRAVEL_DAYS = 30

# Longest simulated latency of one model or tool call: one simulated day, so a
# run's total stays finite.
_MAX_LATENCY_S = 86400
_LATENCY_RANGE = f"must be a finite number >= 0 and <= {_MAX_LATENCY_S} (one simulated day)"


class ScenarioParseError(Exception):
    """The scenario file is unreadable, not UTF-8 text or not valid JSON."""


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
    completion_key: str
    data_tables: dict
    window: WindowConfig
    constraints: dict
    cost_model: CostModel = CostModel()
    max_steps: int = 16

    def stage_ids(self) -> list[str]:
        return [s.stage_id for s in self.stages]


# -- Loading and validation ---------------------------------------------------


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioParseError(f"cannot read scenario file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioParseError(f"scenario file {path} is not UTF-8 text: {exc}") from exc
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also a huge integer, or nesting too deep
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
    except UnstorableValueError as exc:  # a NaN, say, or a value nested too deeply
        field = exc.path.removeprefix("$.")
        raise ScenarioValidationError(field, exc.problem + exc.detail) from exc

    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in _WIRING:
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
    enabled = window_data.get("enabled", WindowConfig.enabled)
    if not isinstance(enabled, bool):
        raise ScenarioValidationError("window.enabled", "must be true or false")
    budget_entries = window_data.get("budget_entries", WindowConfig.budget_entries)
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
        per_call_latency_s=_latency(cost_data, "per_call_latency_s"),
        per_tool_latency_s=_latency(cost_data, "per_tool_latency_s"),
    )

    max_steps = data.get("max_steps", Scenario.max_steps)
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
    outline, completion_key = _WIRING[kind]
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
        completion_key=completion_key,
        data_tables=tables,
        window=window,
        constraints=constraints,
        cost_model=cost_model,
        max_steps=max_steps,
    )


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_amount(value) -> bool:
    """A non-bool number from 0 to the largest float; the upper bound also
    rejects an integer too large to become a float."""
    return (_is_int(value) or isinstance(value, float)) and 0 <= value <= sys.float_info.max


def _latency(cost_data: dict, name: str) -> float:
    value = cost_data.get(name, getattr(CostModel, name))
    if not _is_finite_amount(value) or value > _MAX_LATENCY_S:
        raise ScenarioValidationError(f"cost_model.{name}", _LATENCY_RANGE)
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
    destination = constraints["destination"]
    if not isinstance(destination, str):
        raise ScenarioValidationError("constraints.destination", "must be text")
    if destination not in destinations:
        raise ScenarioValidationError(
            "constraints.destination", f"{destination!r} not in data tables"
        )
    days = constraints["days"]
    if not _is_int(days) or not 1 <= days <= MAX_TRAVEL_DAYS:
        raise ScenarioValidationError(
            "constraints.days", f"must be an integer from 1 to {MAX_TRAVEL_DAYS}"
        )
    if not _is_finite_amount(constraints["budget"]):
        raise ScenarioValidationError("constraints.budget", "must be a finite number >= 0")
    preferences = constraints.get("preferences", [])
    if not isinstance(preferences, list) or not all(isinstance(p, str) for p in preferences):
        raise ScenarioValidationError("constraints.preferences", "must be a list of text")


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


def forecast_weather(tables: dict, destination, days, preferences=()) -> dict:
    entry = _destination_entry(tables, destination)
    reports = entry["weather"]
    return {
        "destination": destination,
        "forecast": [reports[i % len(reports)] for i in range(int(days))],
    }


def book_hotel(tables: dict, destination, days, preferences=()) -> dict:
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


def _request(row: Mapping, origin: str, source: str) -> dict:
    return {
        "request_id": row["id"],
        "origin": row.get("origin", origin),
        "destination": row.get("destination", "venue"),
        "ready_time_min": row.get("ready_time_min", 0),
        "source": source,
    }


def guest_requests(tables: dict) -> list[dict]:
    return [_request(g, "city", "arrival") for g in tables["guests"]]


def errand_requests(tables: dict) -> list[dict]:
    return [_request(e, "venue", "errand") for e in tables["errands"]]


def batch_requests(requests: Iterable[Mapping], capacity: int, duration_min: int) -> dict:
    """Greedy batching: sort by (ready_time_min, request_id), fill each trip
    to capacity in order, run trips back to back on the single vehicle.
    The schedule's trips hold the request values they are given."""
    if isinstance(capacity, bool) or not isinstance(capacity, int) or capacity < 1:
        raise ValueError(f"capacity must be an integer >= 1, got {capacity!r}")
    if isinstance(duration_min, bool) or not isinstance(duration_min, int) or duration_min < 1:
        raise ValueError(f"duration_min must be an integer >= 1, got {duration_min!r}")
    ordered = sorted(requests, key=lambda r: (r["ready_time_min"], r["request_id"]))
    trips: list[dict] = []
    for i in range(0, len(ordered), capacity):
        _append_trip(trips, ordered[i : i + capacity], duration_min)
    return {"trips": trips, "makespan_min": _end_min(trips)}


def append_single_trip(trips: list[dict], request: Mapping, duration_min: int) -> dict:
    """One unbatched dispatch: the request gets its own trip."""
    return _append_trip(trips, [request], duration_min)


def _append_trip(trips: list[dict], requests: list, duration_min: int) -> dict:
    """Queue a trip after whatever the vehicle is already committed to; it
    leaves at the earliest ready time among its requests."""
    start = max(_end_min(trips), min(r["ready_time_min"] for r in requests))
    trip = {
        "trip_id": len(trips) + 1,
        "start_min": start,
        "duration_min": duration_min,
        "requests": requests,
    }
    trips.append(trip)
    return trip


def _end_min(trips: list[dict]) -> int:
    return trips[-1]["start_min"] + trips[-1]["duration_min"] if trips else 0


def coordination_score(schedule: Mapping) -> int:
    """1 when at least one trip of a schedule value carries two or more
    requests, else 0."""
    return 1 if any(len(t["requests"]) >= 2 for t in schedule["trips"]) else 0


# -- Goal and constraint scoring -----------------------------------------------


def evaluate_satisfaction(
    kind: str, constraints: Mapping, stage_ids: list[str], outputs: Mapping[str, ContextValue]
) -> tuple[float, float]:
    """Score a finished run: (goal_satisfaction, constraint_satisfaction).

    Goal satisfaction is the fraction of stages whose output is present.
    Constraint satisfaction is 1.0 when every check passes, else the
    satisfied fraction. The wedding checks read the ``schedule`` output as
    the plain value whose shape :func:`~camcp.runtime.parse_trace` checks.
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
            trips = schedule_value["trips"]
            checks.append(all(len(t["requests"]) <= capacity for t in trips))
            checks.append(
                all(
                    r["ready_time_min"] <= t["start_min"]
                    for t in trips
                    for r in t["requests"]
                )
            )
            if deadline is not None:
                checks.append(schedule_value["makespan_min"] <= deadline)
    constraint = 1.0 if all(checks) else sum(checks) / len(checks) if checks else 1.0
    return goal, constraint


# -- Server builders -------------------------------------------------------------


@dataclass(frozen=True)
class StatelessTool:
    """Traditional-mode tool: a pure function of the context window it is
    handed, with the keys it cannot run without."""

    stage_id: str
    server_id: str
    required: tuple[str, ...]
    run: Callable[[Mapping[str, ContextValue]], dict]


# Travel tools by stage, each called with (tables, destination, days,
# preferences); the weather and hotel tools ignore the preferences.
_TRAVEL_TOOLS = {
    "location": suggest_locations,
    "weather": forecast_weather,
    "hotel": book_hotel,
    "dining": plan_dining,
}

# Wedding trackers by stage: each turns its data-table rows into requests.
_WEDDING_TRACKERS = {"arrivals": guest_requests, "errands": errand_requests}


def _travel_action(scenario: Scenario, stage: Stage) -> Action:
    """A travel stage reads the seeded constraints from the store."""
    tool = _TRAVEL_TOOLS[stage.stage_id]

    def action(snapshot: Snapshot) -> list[tuple[str, ContextValue]]:
        output = tool(
            scenario.data_tables,
            snapshot.value("constraints.destination"),
            snapshot.value("constraints.days"),
            snapshot.value("constraints.preferences") or [],
        )
        return [(stage.stage_id, output)]

    return action


def _travel_tool(scenario: Scenario, stage: Stage):
    """A travel stage reads the destination and length of the location
    output when the window still holds it, else the query's."""
    tool = _TRAVEL_TOOLS[stage.stage_id]

    def run(window: Mapping[str, ContextValue]) -> dict:
        location = window.get("location")
        source = location if isinstance(location, dict) else window
        destination = source.get("destination", window.get("destination"))
        days = source.get("days", window.get("days", 1))
        return tool(scenario.data_tables, destination, days, window.get("preferences") or [])

    return run


def _wedding_action(scenario: Scenario, stage: Stage) -> Action:
    """A tracker posts its requests; the schedule batches every request
    posted."""
    tables = scenario.data_tables
    if stage.stage_id not in _WEDDING_TRACKERS:

        def schedule(snapshot: Snapshot) -> list[tuple[str, ContextValue]]:
            requests = [
                entry.value for key, entry in snapshot.items() if key.startswith(REQUEST_KEY_PREFIX)
            ]
            capacity = snapshot.value("constraints.vehicle_capacity", tables["vehicle"]["capacity"])
            duration = tables["vehicle"]["trip_duration_min"]
            return [(stage.stage_id, batch_requests(requests, capacity, duration))]

        return schedule
    make_requests = _WEDDING_TRACKERS[stage.stage_id]
    others_done = [
        s.done_key
        for s in scenario.stages
        if s.stage_id in _WEDDING_TRACKERS and s.stage_id != stage.stage_id
    ]

    def track(snapshot: Snapshot) -> list[tuple[str, ContextValue]]:
        requests = make_requests(tables)
        writes: list[tuple[str, ContextValue]] = [
            (REQUEST_KEY_PREFIX + r["request_id"], r) for r in requests
        ]
        writes.append(
            (stage.stage_id, {"requests": [r["request_id"] for r in requests], "count": len(requests)})
        )
        # The last tracker to finish posts the shared flag: coordination
        # happens through the store, not through any central scheduler.
        if all(key in snapshot for key in others_done):
            writes.append((_REQUESTS_POSTED, True))
        return writes

    return track


def collect_window_requests(window: Mapping[str, ContextValue]) -> list[dict]:
    requests: list[dict] = []
    for key in _WEDDING_TRACKERS:
        value = window.get(key)
        if isinstance(value, dict):
            requests.extend(value.get("requests", []))
    return requests


def _wedding_tool(scenario: Scenario, stage: Stage):
    """A tracker lists its requests; the schedule dispatches every request
    in the window as its own trip."""
    tables = scenario.data_tables
    if stage.stage_id not in _WEDDING_TRACKERS:
        duration = tables["vehicle"]["trip_duration_min"]
        return lambda window: batch_requests(collect_window_requests(window), 1, duration)
    make_requests = _WEDDING_TRACKERS[stage.stage_id]

    def run(window: Mapping[str, ContextValue]) -> dict:
        requests = make_requests(tables)
        return {"requests": requests, "count": len(requests)}

    return run


# Per kind: the maker of a stage's context-aware action and of its
# traditional tool, each called with (scenario, stage).
_MAKERS = {"travel": (_travel_action, _travel_tool), "wedding": (_wedding_action, _wedding_tool)}


def build_servers(scenario: Scenario, mode: str):
    """Materialize the scenario's tool servers for one execution mode:
    ServerSpec reactors for ``context_aware``, StatelessTool functions for
    ``traditional``."""
    if mode not in MODES:
        raise ValueError(f"unknown mode: {mode!r}")
    make_action, make_tool = _MAKERS[scenario.kind]
    if mode == MODE_CA:
        return [
            ServerSpec(s.server_id, s.trigger, make_action(scenario, s), s.done_key)
            for s in scenario.stages
        ]
    return [
        StatelessTool(s.stage_id, s.server_id, s.required, make_tool(scenario, s))
        for s in scenario.stages
    ]
