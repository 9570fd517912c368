"""Benchmark scenarios: configuration files, domain data tables, the tool
computations shared by both execution modes, vehicle-trip batching, and
goal/constraint scoring.

Everything a scenario kind fixes has one home, its row in ``KINDS``: the
stages with their triggers, done flags and goals, the completion key, the
call policy, the loader's check of the data tables and constraints, the
query a seed asks, the ``run_start`` constraints its scoring reads (which
:func:`~camcp.runtime.parse_trace` checks), the constraint checks, and the
makers of each stage's server. A scenario file is a single JSON document,
checked against its kind's row; the planner reads the wiring from the loaded
scenario. The same tool computations are exposed two ways: as stateful
reactors over the shared store (context-aware mode) and as stateless
functions over an assembled context window (traditional mode).

Wedding requests and schedules are the plain values that the store holds and
the trace carries. No function here changes a request value it is handed: the
store, or an earlier stage output, owns it.
"""
from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass, replace
from importlib import resources
from operator import itemgetter
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

REQUEST_KEY_PREFIX = "transport_request."
# The flag the wedding trackers raise once all of them have posted requests.
_REQUESTS_POSTED = "requests_posted"

# Longest travel plan a scenario may ask for; the tools build one row per day.
MAX_TRAVEL_DAYS = 30

# Longest simulated latency of one model or tool call: one simulated day, so a
# run's total stays finite.
_MAX_LATENCY_S = 86400
# Latest wedding ready time or deadline, and longest trip: one simulated year
# in minutes, so a makespan and a sweep's mean of them stay floats.
_MAX_MINUTES = 525600


class ScenarioParseError(Exception):
    """The scenario file is unreadable, not UTF-8 text or not valid JSON."""


class ScenarioValidationError(Exception):
    def __init__(self, field_name: str, reason: str):
        super().__init__(f"scenario field {field_name!r}: {reason}")
        self.field = field_name
        self.reason = reason


@dataclass(frozen=True)
class Scenario:
    name: str
    kind: str
    stages: tuple[Stage, ...]
    data_tables: dict
    # How many of the most recent entries of its private history the
    # traditional orchestrator keeps, or None to keep them all. Never
    # applies in context-aware mode.
    window: int | None
    constraints: dict
    cost_model: CostModel = CostModel()
    max_steps: int = 16

    def stage_ids(self) -> list[str]:
        return [s.stage_id for s in self.stages]

    completion_key = property(lambda self: KINDS[self.kind].completion_key)


@dataclass(frozen=True)
class Kind:
    """One row of ``KINDS``. ``check(data_tables, constraints)`` raises
    ScenarioValidationError; ``query(scenario, seed)`` is the query a seed
    asks; ``scored`` maps each ``run_start`` constraint that
    ``score(constraints, outputs)`` reads, one bool per check, to (its JSON
    types, their description), and None among the types makes it optional."""

    stages: tuple[Stage, ...]
    completion_key: str
    traditional_calls: str
    ca_calls: str
    check: Callable[[dict, dict], None]
    query: Callable[[Scenario, int], dict]
    scored: dict
    score: Callable[[Mapping, Mapping], list[bool]]
    make_action: Callable[[Scenario, Stage], Action]
    make_tool: Callable[[Scenario, Stage], StatelessTool]


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


BUILTIN_SCENARIO_NAMES = ("travel", "wedding_p5")


def load_builtin(name: str) -> Scenario:
    """Load one of :data:`BUILTIN_SCENARIO_NAMES`; :func:`resolve_scenario`
    checks a name that comes from outside the program."""
    text = resources.files("camcp").joinpath("data", f"{name}.json").read_text("utf-8")
    return scenario_from_value(json.loads(text), default_name=name)


def resolve_scenario(spec: str) -> Scenario:
    """Accept either a filesystem path or a built-in scenario name."""
    if Path(spec).exists():
        return load_scenario(spec)
    if spec in BUILTIN_SCENARIO_NAMES:
        return load_builtin(spec)
    raise ScenarioParseError(f"{spec!r} is neither a scenario file nor a built-in name")


def scenario_from_value(data: Mapping, default_name: str = "") -> Scenario:
    try:
        data = copy_value(data)
    except UnstorableValueError as exc:  # a NaN, say, or a value nested too deeply
        field = exc.path.removeprefix("$.")
        raise ScenarioValidationError(field, exc.problem + exc.detail) from exc

    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in KINDS:
        raise ScenarioValidationError("kind", f"must be {' or '.join(KINDS)}, got {kind!r}")
    row = KINDS[kind]

    name = data.get("name", default_name or kind)
    if not isinstance(name, str) or not name:
        raise ScenarioValidationError("name", "must be non-empty text")

    policy_data = data.get("call_policy", {})
    if not isinstance(policy_data, dict):
        raise ScenarioValidationError("call_policy", "must be an object")
    for fname in ("traditional_calls", "ca_calls"):
        policy = getattr(row, fname)
        if policy_data.get(fname, policy) != policy:
            raise ScenarioValidationError(f"call_policy.{fname}", f"{kind} scenarios use {policy!r}")

    window_data = data.get("window", {})
    if not isinstance(window_data, dict):
        raise ScenarioValidationError("window", "must be an object")
    enabled = window_data.get("enabled", False)
    if not isinstance(enabled, bool):
        raise ScenarioValidationError("window.enabled", "must be true or false")
    budget_entries = _checked("window.budget_entries", window_data.get("budget_entries", 3), 1)
    eviction = window_data.get("eviction", "fifo")
    if eviction != "fifo":
        raise ScenarioValidationError("window.eviction", f"unsupported policy {eviction!r}")
    window = budget_entries if enabled else None

    cost_data = data.get("cost_model", {})
    if not isinstance(cost_data, dict):
        raise ScenarioValidationError("cost_model", "must be an object")
    cost_model = CostModel(**{
        fname: float(_checked(
            f"cost_model.{fname}", cost_data.get(fname, getattr(CostModel, fname)),
            0, _MAX_LATENCY_S, number=True,
        ))
        for fname in ("per_call_latency_s", "per_tool_latency_s")
    })

    max_steps = _checked("max_steps", data.get("max_steps", Scenario.max_steps), 1)

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
    declared = [(s["stage_id"], s["server_id"]) for s in stages_data]
    if declared != [(s.stage_id, s.server_id) for s in row.stages]:
        raise ScenarioValidationError(
            "stages", f"{kind} scenarios must declare stages {[s.stage_id for s in row.stages]}"
        )
    stages = tuple(replace(s, required=r) for s, r in zip(row.stages, required_keys))

    tables = data.get("data_tables")
    if not isinstance(tables, dict):
        raise ScenarioValidationError("data_tables", "must be an object")
    row.check(tables, constraints)

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


def _checked(field_name: str, value, low, high=None, number=False):
    """*value* if it is an integer, or with *number* an int or float, from
    *low* to *high*; else a ScenarioValidationError naming *field_name*. A
    bool is neither. With no *high*, an integer is unbounded and a number is
    capped at the largest float, which rules out an int too big for one; a
    *high* of ``math.inf`` leaves a number unbounded too."""
    top = high if high is not None else sys.float_info.max if number else math.inf
    if isinstance(value, (int, float) if number else int) and not isinstance(value, bool):
        if low <= value <= top:
            return value
    what = "a number" if number else "an integer"
    limit = f">= {low}" if high is None or high == math.inf else f"from {low} to {high}"
    raise ScenarioValidationError(field_name, f"must be {what} {limit}")


# Each table of a travel destination, with the price the tools sum over its
# rows; only an attraction may omit it. A price has no upper cap, because the
# budget check sums an integer too large for a float exactly.
_TRAVEL_PRICES = {
    "attractions": "cost", "hotels": "price_per_night", "restaurants": "cost_per_meal",
    "weather": None,
}


def _validate_travel(tables: dict, constraints: dict) -> None:
    destinations = tables.get("destinations")
    if not isinstance(destinations, dict) or not destinations:
        raise ScenarioValidationError("data_tables.destinations", "must be a non-empty object")
    for place, entry in destinations.items():
        for section, price in _TRAVEL_PRICES.items():
            where = f"data_tables.destinations.{place}.{section}"
            rows = entry.get(section) if isinstance(entry, dict) else None
            if not isinstance(rows, list) or not rows:
                raise ScenarioValidationError(where, "must be a non-empty list")
            for i, row in enumerate(rows if price else ()):
                if not isinstance(row, dict):
                    raise ScenarioValidationError(f"{where}[{i}]", "must be an object")
                if not isinstance(row.get("name"), str):
                    raise ScenarioValidationError(f"{where}[{i}].name", "must be text")
                tags = row.get("tags", [])
                if not isinstance(tags, list) or not all(isinstance(t, str) for t in tags):
                    raise ScenarioValidationError(f"{where}[{i}].tags", "must be a list of text")
                if price in row or section != "attractions":
                    _checked(f"{where}[{i}].{price}", row.get(price), 0, math.inf, number=True)
    destination = constraints.get("destination")
    if not isinstance(destination, str) or destination not in destinations:
        raise ScenarioValidationError("constraints.destination", "must name a data-table destination")
    _checked("constraints.days", constraints.get("days"), 1, MAX_TRAVEL_DAYS)
    _checked("constraints.budget", constraints.get("budget"), 0, number=True)
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
            if "ready_time_min" in row:
                field_name = f"data_tables.{section}[{i}].ready_time_min"
                _checked(field_name, row["ready_time_min"], 0, _MAX_MINUTES)
    ids = [r["id"] for r in tables["guests"]] + [r["id"] for r in tables["errands"]]
    if len(ids) != len(set(ids)):
        raise ScenarioValidationError("data_tables", "guest/errand ids must be unique")
    vehicle = tables.get("vehicle")
    if not isinstance(vehicle, dict):
        raise ScenarioValidationError("data_tables.vehicle", "must be an object")
    _checked("data_tables.vehicle.capacity", vehicle.get("capacity"), 1)
    _checked("data_tables.vehicle.trip_duration_min", vehicle.get("trip_duration_min"), 1, _MAX_MINUTES)
    _checked("constraints.vehicle_capacity", constraints.get("vehicle_capacity"), 1)
    if "deadline_min" in constraints:
        _checked("constraints.deadline_min", constraints["deadline_min"], 0, _MAX_MINUTES)


# -- Queries -------------------------------------------------------------------


def _travel_query(scenario: Scenario, seed: int) -> dict:
    """Seed 0 asks for the scenario's own trip; other seeds vary the
    destination, length and budget within the shipped data tables."""
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
    return {"raw_text": raw, "kind": scenario.kind, "params": params}


def _wedding_query(scenario: Scenario, seed: int) -> dict:
    """The same query for every seed."""
    params = {"scenario": scenario.name, **scenario.constraints}
    raw = "Coordinate wedding-day guest arrivals, errands, and the shared vehicle."
    return {"raw_text": raw, "kind": scenario.kind, "params": params}


# -- Travel tool computations --------------------------------------------------


def _destination_entry(tables: dict, destination) -> dict:
    entry = tables.get("destinations", {}).get(destination)
    if entry is None:
        raise LookupError(f"unknown destination: {destination!r}")
    return entry


def _preferred_first(rows: list[dict], preferences: Iterable[str]) -> list[dict]:
    wanted = set(preferences or [])
    return sorted(rows, key=lambda r: not wanted & set(r.get("tags", [])))


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
    rows, wanted = entry["restaurants"], set(preferences or [])
    pool = [r for r in rows if wanted & set(r.get("tags", []))] or rows
    chosen = [pool[i % len(pool)] for i in range(int(days))]
    return {
        "restaurants": [r["name"] for r in chosen],
        "cost": sum(r["cost_per_meal"] for r in chosen),
    }


def itinerary_cost(outputs: Mapping[str, ContextValue]):
    """Total cost across stage outputs (entries without a cost are free);
    exact, as a Fraction, where a float sum would overflow."""
    costs = [
        value["cost"]
        for value in outputs.values()
        if isinstance(value, dict)
        and isinstance(value.get("cost"), (int, float))
        and not isinstance(value["cost"], bool)
    ]
    try:
        return sum(costs)
    except OverflowError:  # a float plus an integer too large to become one
        from fractions import Fraction  # here, so importing camcp skips fractions and decimal
        floats = [c for c in costs if isinstance(c, float)]
        # An infinity, which only a parsed trace can hold, outweighs any integer.
        return sum(map(Fraction, costs)) if all(map(math.isfinite, floats)) else sum(floats)


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


_READY_ORDER = itemgetter("ready_time_min", "request_id")


def batch_requests(requests: Iterable[Mapping], capacity: int, duration_min: int) -> dict:
    """Greedy batching: sort by (ready_time_min, request_id), fill each trip
    to capacity in order, run trips back to back on the single vehicle.
    Each group therefore reaches :func:`_append_trip` in ready order, as it
    requires. The schedule's trips hold the request values they are given."""
    if isinstance(capacity, bool) or not isinstance(capacity, int) or capacity < 1:
        raise ValueError(f"capacity must be an integer >= 1, got {capacity!r}")
    if isinstance(duration_min, bool) or not isinstance(duration_min, int) or duration_min < 1:
        raise ValueError(f"duration_min must be an integer >= 1, got {duration_min!r}")
    ordered = sorted(requests, key=_READY_ORDER)
    trips: list[dict] = []
    for i in range(0, len(ordered), capacity):
        _append_trip(trips, ordered[i : i + capacity], duration_min)
    return {"trips": trips, "makespan_min": trips[-1]["start_min"] + duration_min if trips else 0}


def append_single_trip(trips: list[dict], request: Mapping, duration_min: int) -> dict:
    """One unbatched dispatch: the request gets its own trip."""
    return _append_trip(trips, [request], duration_min)


def _append_trip(trips: list[dict], requests: list, duration_min: int) -> dict:
    """Queue a trip after whatever the vehicle is already committed to; it
    leaves at the earliest ready time among its requests. The requests must
    come in ready order, so that time is the first one's."""
    start = requests[0]["ready_time_min"]
    if trips:
        last = trips[-1]
        free = last["start_min"] + last["duration_min"]
        if free > start:
            start = free
    trip = {
        "trip_id": len(trips) + 1,
        "start_min": start,
        "duration_min": duration_min,
        "requests": requests,
    }
    trips.append(trip)
    return trip


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
    goal = sum(outputs.get(sid) is not None for sid in stage_ids) / len(stage_ids) if stage_ids else 1.0

    checks = KINDS[kind].score(constraints, outputs)
    constraint = 1.0 if all(checks) else sum(checks) / len(checks)
    return goal, constraint


def _travel_checks(constraints: Mapping, outputs: Mapping[str, ContextValue]) -> list[bool]:
    return [itinerary_cost(outputs) <= constraints["budget"]]


def _wedding_checks(constraints: Mapping, outputs: Mapping[str, ContextValue]) -> list[bool]:
    schedule = outputs.get("schedule")
    deadline = constraints.get("deadline_min")
    if schedule is None:
        return [False, False] + ([False] if deadline is not None else [])
    trips = schedule["trips"]
    checks = [
        all(len(t["requests"]) <= constraints["vehicle_capacity"] for t in trips),
        all(r["ready_time_min"] <= t["start_min"] for t in trips for r in t["requests"]),
    ]
    if deadline is not None:
        checks.append(schedule["makespan_min"] <= deadline)
    return checks


# -- Server builders -------------------------------------------------------------


@dataclass(frozen=True)
class StatelessTool:
    """Traditional-mode tool: a pure function of the context it is handed.
    Its wiring (stage, server, the keys it cannot run without) is its
    ``Stage``'s. ``calls(output)`` lists the extra fields of each tool_exec
    that the output took, one plain call unless the tool says otherwise."""

    run: Callable[[Mapping[str, ContextValue]], dict]
    calls: Callable[[ContextValue], list[dict]] = lambda output: [{}]


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
        preferences = snapshot.get("constraints.preferences")  # optional
        output = tool(
            scenario.data_tables,
            snapshot["constraints.destination"].value,
            snapshot["constraints.days"].value,
            [] if preferences is None else preferences.value,
        )
        return [(stage.stage_id, output)]

    return action


def _travel_tool(scenario: Scenario, stage: Stage) -> StatelessTool:
    """A travel stage reads the destination and length of the location
    output when the window still holds it, else the query's."""
    tool = _TRAVEL_TOOLS[stage.stage_id]

    def run(window: Mapping[str, ContextValue]) -> dict:
        location = window.get("location")
        source = location if isinstance(location, dict) else window
        destination = source.get("destination", window.get("destination"))
        days = source.get("days", window.get("days", 1))
        return tool(scenario.data_tables, destination, days, window.get("preferences") or [])

    return StatelessTool(run)


def _wedding_action(scenario: Scenario, stage: Stage) -> Action:
    """A tracker posts its requests; the schedule batches every request
    posted."""
    tables = scenario.data_tables
    if stage.stage_id not in _WEDDING_TRACKERS:

        def schedule(snapshot: Snapshot) -> list[tuple[str, ContextValue]]:
            requests = [
                entry.value for key, entry in snapshot.items() if key.startswith(REQUEST_KEY_PREFIX)
            ]
            capacity = snapshot["constraints.vehicle_capacity"].value
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


def _trip_calls(schedule: Mapping) -> list[dict]:
    return [{"request": trip["requests"][0]["request_id"]} for trip in schedule["trips"]]


def _wedding_tool(scenario: Scenario, stage: Stage) -> StatelessTool:
    """A tracker lists its requests; the schedule dispatches every request
    it is handed as its own trip, one tool call per trip."""
    tables = scenario.data_tables
    if stage.stage_id not in _WEDDING_TRACKERS:
        duration = tables["vehicle"]["trip_duration_min"]
        return StatelessTool(
            lambda window: batch_requests(collect_window_requests(window), 1, duration), _trip_calls
        )
    make_requests = _WEDDING_TRACKERS[stage.stage_id]

    def run(window: Mapping[str, ContextValue]) -> dict:
        requests = make_requests(tables)
        return {"requests": requests, "count": len(requests)}

    return StatelessTool(run)


def build_servers(scenario: Scenario, mode: str):
    """Materialize the scenario's tool servers for one execution mode, one
    per stage in stage order: for ``context_aware`` a ServerSpec, the stage
    with its reactor action; for ``traditional`` a StatelessTool."""
    if mode not in MODES:
        raise ValueError(f"unknown mode: {mode!r}")
    row = KINDS[scenario.kind]
    if mode == MODE_CA:
        return [ServerSpec(s, row.make_action(scenario, s)) for s in scenario.stages]
    return [row.make_tool(scenario, s) for s in scenario.stages]


# -- Scenario kinds ----------------------------------------------------------------

KINDS = {
    "travel": Kind(
        stages=(
            Stage("location", "location_server", Exists("goals_seeded"), "location_done",
                  "shortlist places to visit"),
            Stage("weather", "weather_server", Exists("location_done"), "weather_done",
                  "forecast the weather"),
            Stage("hotel", "hotel_server", Exists("location_done"), "hotel_done", "book a hotel"),
            Stage("dining", "dining_server", Exists("hotel_done"), "dining_done",
                  "plan the dining"),
        ),
        completion_key="itinerary_complete",
        traditional_calls=TRADITIONAL_PER_STAGE,
        ca_calls=CA_PLAN_AND_SUMMARIZE,
        check=_validate_travel,
        query=_travel_query,
        scored={"budget": ((int, float), "a number")},
        score=_travel_checks,
        make_action=_travel_action,
        make_tool=_travel_tool,
    ),
    "wedding": Kind(
        stages=(
            Stage("arrivals", "arrival_tracker", Exists("goals_seeded"), "arrivals_done",
                  "track guest arrivals"),
            Stage("errands", "errand_tracker", Exists("goals_seeded"), "errands_done",
                  "track errand pickups"),
            Stage("schedule", "transport", Exists(_REQUESTS_POSTED), "schedule_done",
                  "produce the shared-vehicle schedule"),
        ),
        completion_key="logistics_complete",
        traditional_calls=TRADITIONAL_SINGLE,
        ca_calls=CA_COMBINED_SINGLE,
        check=_validate_wedding,
        query=_wedding_query,
        scored={
            "vehicle_capacity": (int, "an integer"),
            "deadline_min": ((int, type(None)), "null or an integer"),
        },
        score=_wedding_checks,
        make_action=_wedding_action,
        make_tool=_wedding_tool,
    ),
}
