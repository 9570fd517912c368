"""Scenario loading, data validation, travel tools, batching, scoring."""
import copy
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camcp.reactor import ServerSpec
from camcp.store import MAX_VALUE_DEPTH
from camcp.runtime import Trace, TraceEvent, parse_trace, run, serialize_trace
from camcp.scenarios import (
    MAX_TRAVEL_DAYS,
    MODE_CA,
    MODE_TRADITIONAL,
    Scenario,
    ScenarioParseError,
    ScenarioValidationError,
    StatelessTool,
    append_single_trip,
    batch_requests,
    book_hotel,
    build_servers,
    collect_window_requests,
    coordination_score,
    errand_requests,
    evaluate_satisfaction,
    forecast_weather,
    guest_requests,
    itinerary_cost,
    load_builtin,
    load_scenario,
    plan_dining,
    resolve_scenario,
    scenario_from_value,
    suggest_locations,
)
from oracles import brute_force_min_trips


def request(request_id: str, ready: int = 0) -> dict:
    return {
        "request_id": request_id,
        "origin": "a",
        "destination": "b",
        "ready_time_min": ready,
        "source": "arrival",
    }


# -- Loading -----------------------------------------------------------------------


def test_builtins_load(travel_scenario, wedding_scenario):
    assert travel_scenario.kind == "travel"
    assert travel_scenario.stage_ids() == ["location", "weather", "hotel", "dining"]
    assert wedding_scenario.kind == "wedding"
    assert wedding_scenario.stage_ids() == ["arrivals", "errands", "schedule"]
    assert wedding_scenario.constraints["vehicle_capacity"] == 2
    # A window is the number of history entries it keeps, or None when off.
    assert travel_scenario.window is None and wedding_scenario.window is None
    data = _travel_value()
    del data["window"]
    assert scenario_from_value(data).window is None
    for window, kept in [
        ({"enabled": False, "budget_entries": 5}, None),
        ({"enabled": True, "budget_entries": 2}, 2),
    ]:
        data["window"] = window
        assert scenario_from_value(data).window == kept


def test_resolve_accepts_path_or_builtin(tmp_path, travel_scenario):
    assert resolve_scenario("travel").name == travel_scenario.name
    from importlib import resources

    text = resources.files("camcp").joinpath("data", "travel.json").read_text("utf-8")
    path = tmp_path / "copy.json"
    path.write_text(text)
    assert resolve_scenario(str(path)).kind == "travel"
    with pytest.raises(ScenarioParseError):
        resolve_scenario("no_such_scenario")


def test_load_scenario_parse_errors(tmp_path):
    with pytest.raises(ScenarioParseError, match="cannot read"):
        load_scenario(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(ScenarioParseError, match="not valid JSON"):
        load_scenario(bad)
    array = tmp_path / "array.json"
    array.write_text("[1]")
    with pytest.raises(ScenarioParseError, match="JSON object"):
        load_scenario(array)


def _travel_value() -> dict:
    from importlib import resources

    return json.loads(resources.files("camcp").joinpath("data", "travel.json").read_text("utf-8"))


def _wedding_value() -> dict:
    from importlib import resources

    return json.loads(
        resources.files("camcp").joinpath("data", "wedding_p5.json").read_text("utf-8")
    )


@pytest.mark.parametrize(
    "mutate, field",
    [
        (lambda d: d.update(kind="space"), "kind"),
        (lambda d: d.update(name=""), "name"),
        (lambda d: d.update(call_policy={"traditional_calls": "wild"}), "call_policy.traditional_calls"),
        (lambda d: d.update(call_policy={"ca_calls": "wild"}), "call_policy.ca_calls"),
        (lambda d: d.update(window={"budget_entries": 0}), "window.budget_entries"),
        (lambda d: d.update(window={"eviction": "lru"}), "window.eviction"),
        pytest.param(
            lambda d: d.update(window={"enabled": "false"}), "window.enabled", id="enabled-text"
        ),
        pytest.param(
            lambda d: d.update(window={"budget_entries": True}),
            "window.budget_entries",
            id="budget-bool",
        ),
        pytest.param(lambda d: d.update(window=[]), "window", id="window-list"),
        pytest.param(
            lambda d: d.update(cost_model={"per_call_latency_s": "fast"}),
            "cost_model.per_call_latency_s",
            id="latency-text",
        ),
        pytest.param(
            lambda d: d.update(cost_model={"per_call_latency_s": -1}),
            "cost_model.per_call_latency_s",
            id="latency-negative",
        ),
        pytest.param(
            lambda d: d.update(cost_model={"per_tool_latency_s": True}),
            "cost_model.per_tool_latency_s",
            id="latency-bool",
        ),
        pytest.param(
            lambda d: d.update(cost_model={"per_tool_latency_s": 10**400}),
            "cost_model.per_tool_latency_s",
            id="latency-overflow",
        ),
        pytest.param(
            lambda d: d.update(cost_model={"per_call_latency_s": 86400.5}),
            "cost_model.per_call_latency_s",
            id="latency-past-a-day",
        ),
        pytest.param(lambda d: d.update(cost_model=3), "cost_model", id="cost-model-number"),
        (lambda d: d.update(max_steps=0), "max_steps"),
        pytest.param(lambda d: d.update(max_steps=True), "max_steps", id="max-steps-bool"),
        (lambda d: d.update(constraints=None), "constraints"),
        (lambda d: d.update(stages=[]), "stages"),
        (lambda d: d["stages"].__setitem__(0, {"stage_id": "", "server_id": "s"}), "stages[0].stage_id"),
        (lambda d: d["stages"][0].update(required="destination"), "stages[0].required"),
        (lambda d: d["stages"].pop(), "stages"),
        (lambda d: d.update(data_tables=None), "data_tables"),
        (lambda d: d["data_tables"].update(destinations={}), "data_tables.destinations"),
        (
            lambda d: d["data_tables"]["destinations"]["Seattle"].update(hotels=[]),
            "data_tables.destinations.Seattle.hotels",
        ),
        (lambda d: d["constraints"].pop("budget"), "constraints.budget"),
        (lambda d: d["constraints"].update(destination="Atlantis"), "constraints.destination"),
        pytest.param(
            lambda d: d["constraints"].update(destination=["Seattle"]),
            "constraints.destination",
            id="destination-list",
        ),
        pytest.param(lambda d: d["constraints"].update(days="3"), "constraints.days", id="days-text"),
        pytest.param(lambda d: d["constraints"].update(days=0), "constraints.days", id="days-zero"),
        pytest.param(lambda d: d["constraints"].update(days=2.5), "constraints.days", id="days-float"),
        pytest.param(lambda d: d["constraints"].update(days=True), "constraints.days", id="days-bool"),
        pytest.param(
            lambda d: d["constraints"].update(days=MAX_TRAVEL_DAYS + 1),
            "constraints.days",
            id="days-over-max",
        ),
        pytest.param(
            lambda d: d["constraints"].update(days=10**9), "constraints.days", id="days-huge"
        ),
        pytest.param(lambda d: d["constraints"].update(budget="x"), "constraints.budget", id="travel-budget-text"),
        pytest.param(lambda d: d["constraints"].update(budget=-1), "constraints.budget", id="travel-budget-negative"),
        pytest.param(lambda d: d["constraints"].update(budget=True), "constraints.budget", id="travel-budget-bool"),
        pytest.param(
            lambda d: d["constraints"].update(budget=10**400), "constraints.budget", id="travel-budget-overflow"
        ),
        pytest.param(
            lambda d: d["constraints"].update(preferences=[None]),
            "constraints.preferences",
            id="preferences-null-item",
        ),
        pytest.param(
            lambda d: d["constraints"].update(preferences="vegan"),
            "constraints.preferences",
            id="preferences-text",
        ),
        pytest.param(
            lambda d: d["constraints"].update(preferences=None),
            "constraints.preferences",
            id="preferences-null",
        ),
        pytest.param(
            lambda d: d.update(call_policy={"traditional_calls": "single_orchestration_plus_synthesis"}),
            "call_policy.traditional_calls",
            id="policy-of-other-kind",
        ),
        pytest.param(lambda d: d.update(call_policy=[]), "call_policy", id="policy-list"),
        pytest.param(
            lambda d: d["data_tables"]["destinations"]["Seattle"]["hotels"][0].pop("name"),
            "data_tables.destinations.Seattle.hotels[0].name",
            id="hotel-name-missing",
        ),
        pytest.param(
            lambda d: d["data_tables"]["destinations"]["Seattle"]["attractions"][1].update(name=7),
            "data_tables.destinations.Seattle.attractions[1].name",
            id="attraction-name-number",
        ),
        pytest.param(
            lambda d: d["data_tables"]["destinations"]["Denver"]["restaurants"][0].update(name=None),
            "data_tables.destinations.Denver.restaurants[0].name",
            id="restaurant-name-null",
        ),
        pytest.param(
            lambda d: d["data_tables"]["destinations"]["Seattle"]["restaurants"][1].update(tags=3),
            "data_tables.destinations.Seattle.restaurants[1].tags",
            id="restaurant-tags-number",
        ),
        pytest.param(
            lambda d: d["data_tables"]["destinations"]["Portland"]["attractions"][0].update(tags="hiking"),
            "data_tables.destinations.Portland.attractions[0].tags",
            id="attraction-tags-text",
        ),
        pytest.param(
            lambda d: d["data_tables"]["destinations"]["Seattle"]["hotels"][1].update(tags=["quiet", 1]),
            "data_tables.destinations.Seattle.hotels[1].tags",
            id="hotel-tags-number-item",
        ),
    ],
)
def test_travel_validation_names_offending_field(mutate, field):
    data = _travel_value()
    mutate(data)
    with pytest.raises(ScenarioValidationError) as info:
        scenario_from_value(data)
    assert info.value.field == field


def test_loader_names_the_field_nested_past_the_value_depth_cap():
    """Two levels are the document and its constraints, so a constraint may
    nest MAX_VALUE_DEPTH - 2 levels; one more is rejected by field path."""
    data = _travel_value()
    data["constraints"]["notes"] = [[0]] * 2
    for _ in range(MAX_VALUE_DEPTH - 4):
        data["constraints"]["notes"] = [data["constraints"]["notes"]]
    assert scenario_from_value(data).constraints["notes"] == data["constraints"]["notes"]
    data["constraints"]["notes"] = [data["constraints"]["notes"]]
    with pytest.raises(ScenarioValidationError, match="nested too deeply") as info:
        scenario_from_value(data)
    assert info.value.field == "constraints.notes" + "[0]" * (MAX_VALUE_DEPTH - 2)


@pytest.mark.parametrize(
    "edit",
    [
        {"days": 1},
        {"days": MAX_TRAVEL_DAYS},
        {"budget": 0},
        {"budget": 1499.5},
        {"preferences": []},
    ],
)
def test_travel_accepts_constraints_within_bounds(edit):
    data = _travel_value()
    data["constraints"].update(edit)
    assert scenario_from_value(data).constraints == data["constraints"]


def test_latency_of_one_simulated_day_is_accepted():
    """The latency cap is inclusive, and a run at the cap has a finite latency."""
    data = _travel_value()
    data["cost_model"] = {"per_call_latency_s": 86400, "per_tool_latency_s": 86400.0}
    scenario = scenario_from_value(data)
    assert scenario.cost_model.per_call_latency_s == 86400.0
    trace = parse_trace(serialize_trace(run(scenario, MODE_TRADITIONAL, 0)))
    assert trace.simulated_latency_s == 5 * 86400 + 4 * 86400


def test_travel_preferences_may_be_absent():
    data = _travel_value()
    del data["constraints"]["preferences"]
    scenario_from_value(data)


@pytest.mark.parametrize(
    "mutate, field",
    [
        (lambda d: d["data_tables"].update(guests=[]), "data_tables.guests"),
        (lambda d: d["data_tables"]["errands"].__setitem__(0, {"id": 3}), "data_tables.errands[0].id"),
        (
            lambda d: d["data_tables"]["errands"].__setitem__(0, {"id": "g1"}),
            "data_tables",
        ),
        (lambda d: d["data_tables"].update(vehicle={"capacity": 0, "trip_duration_min": 30}), "data_tables.vehicle.capacity"),
        (
            lambda d: d["data_tables"]["vehicle"].update(trip_duration_min="30"),
            "data_tables.vehicle.trip_duration_min",
        ),
        (lambda d: d["constraints"].pop("vehicle_capacity"), "constraints.vehicle_capacity"),
        pytest.param(
            lambda d: d["data_tables"]["guests"][0].update(ready_time_min="soon"),
            "data_tables.guests[0].ready_time_min",
            id="guest-ready-text",
        ),
        pytest.param(
            lambda d: d["data_tables"]["errands"][1].update(ready_time_min=True),
            "data_tables.errands[1].ready_time_min",
            id="errand-ready-bool",
        ),
        pytest.param(
            lambda d: d["constraints"].update(vehicle_capacity="two"),
            "constraints.vehicle_capacity",
            id="capacity-text",
        ),
        pytest.param(
            lambda d: d["constraints"].update(vehicle_capacity=0),
            "constraints.vehicle_capacity",
            id="capacity-zero",
        ),
        pytest.param(
            lambda d: d["constraints"].update(deadline_min="soon"),
            "constraints.deadline_min",
            id="deadline-text",
        ),
        pytest.param(
            lambda d: d["data_tables"]["vehicle"].update(capacity=True),
            "data_tables.vehicle.capacity",
            id="vehicle-capacity-bool",
        ),
        pytest.param(
            lambda d: d["data_tables"]["vehicle"].update(trip_duration_min=True),
            "data_tables.vehicle.trip_duration_min",
            id="vehicle-duration-bool",
        ),
        pytest.param(
            lambda d: d["data_tables"]["vehicle"].update(trip_duration_min=525601),
            "data_tables.vehicle.trip_duration_min",
            id="vehicle-duration-past-a-year",
        ),
        pytest.param(
            lambda d: d["data_tables"]["guests"][2].update(ready_time_min=-1),
            "data_tables.guests[2].ready_time_min",
            id="guest-ready-negative",
        ),
        pytest.param(
            lambda d: d["data_tables"]["errands"][0].update(ready_time_min=10**400),
            "data_tables.errands[0].ready_time_min",
            id="errand-ready-huge",
        ),
        pytest.param(
            lambda d: d["constraints"].update(deadline_min=525601),
            "constraints.deadline_min",
            id="deadline-past-a-year",
        ),
        pytest.param(
            lambda d: d["constraints"].update(deadline_min=None),
            "constraints.deadline_min",
            id="deadline-null",
        ),
    ],
)
def test_wedding_validation_names_offending_field(mutate, field):
    data = _wedding_value()
    mutate(data)
    with pytest.raises(ScenarioValidationError) as info:
        scenario_from_value(data)
    assert info.value.field == field


def test_wedding_minutes_of_one_simulated_year_are_accepted():
    """The minute cap is inclusive: a run at the cap finishes and scores."""
    data = _wedding_value()
    data["data_tables"]["guests"][0]["ready_time_min"] = 525600
    data["data_tables"]["vehicle"]["trip_duration_min"] = 525600
    data["constraints"]["deadline_min"] = 525600
    scenario = scenario_from_value(data)
    trace = parse_trace(serialize_trace(run(scenario, MODE_CA, 0)))
    assert trace.events[-1].payload["completed"] is True


def test_constraint_key_order_is_preserved(travel_scenario):
    assert list(travel_scenario.constraints) == ["preferences", "days", "destination", "budget"]


# -- Travel tools ---------------------------------------------------------------------


def test_suggest_locations_prefers_tagged_and_caps_by_days(travel_scenario):
    tables = travel_scenario.data_tables
    out = suggest_locations(tables, "Seattle", 3, ["adventurous"])
    assert len(out["attractions"]) == 3
    seattle = tables["destinations"]["Seattle"]["attractions"]
    tagged = [a["name"] for a in seattle if "adventurous" in a.get("tags", [])]
    assert out["attractions"][: len(tagged)] == tagged[:3]
    assert out["cost"] == sum(
        a["cost"] for a in seattle if a["name"] in out["attractions"]
    )
    single = suggest_locations(tables, "Seattle", 1, [])
    assert len(single["attractions"]) == 1


def test_forecast_weather_cycles_reports(travel_scenario):
    tables = travel_scenario.data_tables
    reports = tables["destinations"]["Portland"]["weather"]
    out = forecast_weather(tables, "Portland", len(reports) + 2)
    assert out["forecast"][: len(reports)] == reports
    assert out["forecast"][len(reports)] == reports[0]


def test_book_hotel_takes_first_row(travel_scenario):
    tables = travel_scenario.data_tables
    out = book_hotel(tables, "Seattle", 3)
    first = tables["destinations"]["Seattle"]["hotels"][0]
    assert out["hotel"] == first["name"]
    assert out["cost"] == first["price_per_night"] * 3


def test_plan_dining_cycles_preference_pool(travel_scenario):
    tables = travel_scenario.data_tables
    out = plan_dining(tables, "Seattle", 3, ["vegan"])
    vegan_names = {
        r["name"]
        for r in tables["destinations"]["Seattle"]["restaurants"]
        if "vegan" in r.get("tags", [])
    }
    assert set(out["restaurants"]) <= vegan_names
    no_pref = plan_dining(tables, "Seattle", 2, [])
    assert len(no_pref["restaurants"]) == 2


def test_unknown_destination_raises_lookup(travel_scenario):
    with pytest.raises(LookupError, match="Atlantis"):
        suggest_locations(travel_scenario.data_tables, "Atlantis", 2, [])


def test_itinerary_cost_sums_cost_fields():
    outputs = {
        "location": {"cost": 12},
        "weather": {"forecast": []},
        "hotel": {"cost": 285},
        "note": "free",
        "flag": {"cost": True},
    }
    assert itinerary_cost(outputs) == 297


def test_itinerary_cost_past_the_largest_float_stays_exact():
    """A float plus an integer too large to become one sums exactly, so the
    budget check still orders it; an infinite float cost, which only a
    parsed trace can hold, outweighs any integer."""
    huge = 10**400
    assert itinerary_cost({"a": {"cost": 0.5}, "b": {"cost": huge}}) == huge + Fraction(1, 2)
    assert itinerary_cost({"a": {"cost": 0.5}, "b": {"cost": -huge}}) < 0
    assert itinerary_cost({"a": {"cost": float("inf")}, "b": {"cost": -huge}}) == float("inf")


def test_every_query_variation_fits_the_tightest_budget(travel_scenario):
    """All seeded (destination, days) combinations stay under the smallest
    budget the query generator can pick, so constraint satisfaction is a
    structural guarantee, not luck."""
    tables = travel_scenario.data_tables
    preferences = travel_scenario.constraints["preferences"]
    worst = 0
    for destination in tables["destinations"]:
        for days in (2, 3, 4):
            total = (
                suggest_locations(tables, destination, days, preferences)["cost"]
                + book_hotel(tables, destination, days)["cost"]
                + plan_dining(tables, destination, days, preferences)["cost"]
            )
            worst = max(worst, total)
    assert worst <= 1200


# -- Wedding requests and batching ------------------------------------------------------


def test_request_extraction_defaults(wedding_scenario):
    tables = wedding_scenario.data_tables
    guests = guest_requests(tables)
    errands = errand_requests(tables)
    assert [g["request_id"] for g in guests] == ["g1", "g2", "g3", "g4", "g5", "g6"]
    assert [e["request_id"] for e in errands] == ["e1", "e2", "e3", "e4", "e5"]
    assert all(g["source"] == "arrival" for g in guests)
    assert all(e["source"] == "errand" for e in errands)
    assert guests[0]["destination"] == "venue"


def test_batch_requests_empty():
    schedule = batch_requests([], 2, 30)
    assert schedule["trips"] == []
    assert schedule["makespan_min"] == 0
    assert coordination_score(schedule) == 0


def test_batch_requests_wedding_tables(wedding_scenario):
    tables = wedding_scenario.data_tables
    requests = guest_requests(tables) + errand_requests(tables)
    assert len(requests) == 11
    batched = batch_requests(requests, 2, 30)
    assert len(batched["trips"]) == 6
    assert batched["makespan_min"] == 180
    assert coordination_score(batched) == 1
    assert [r["request_id"] for r in batched["trips"][0]["requests"]] == ["e1", "e2"]
    solo = batch_requests(requests, 1, 30)
    assert len(solo["trips"]) == 11
    assert solo["makespan_min"] == 330
    assert coordination_score(solo) == 0


def test_batch_requests_orders_by_ready_time_then_id():
    requests = [request("b", 10), request("a", 10), request("c", 0)]
    schedule = batch_requests(requests, 2, 5)
    assert [r["request_id"] for r in schedule["trips"][0]["requests"]] == ["c", "a"]
    assert [r["request_id"] for r in schedule["trips"][1]["requests"]] == ["b"]


def test_batch_requests_trip_start_uses_group_earliest_ready():
    """Trip start is max(previous end, earliest ready in the group). A group
    mixing ready times can therefore start before its latest member."""
    schedule = batch_requests([request("a", 0), request("b", 100)], 2, 30)
    trip = schedule["trips"][0]
    assert trip["start_min"] == 0
    assert schedule["makespan_min"] == 30
    goal, constraint = evaluate_satisfaction(
        "wedding",
        {"vehicle_capacity": 2},
        ["schedule"],
        {"schedule": schedule},
    )
    assert constraint < 1.0  # the late rider boarded before being ready


def test_batch_requests_waits_for_ready_groups():
    schedule = batch_requests([request("a", 50), request("b", 60)], 1, 30)
    assert schedule["trips"][0]["start_min"] == 50
    assert schedule["trips"][1]["start_min"] == 80  # vehicle busy until 80, b ready at 60
    schedule = batch_requests([request("a", 0), request("b", 200)], 1, 30)
    assert schedule["trips"][1]["start_min"] == 200  # vehicle idles until b is ready


_request_values = st.lists(
    st.fixed_dictionaries(
        {
            "request_id": st.text(max_size=6),
            "origin": st.text(max_size=4),
            "destination": st.text(max_size=4),
            "ready_time_min": st.integers(min_value=0, max_value=10_000),
            "source": st.sampled_from(["arrival", "errand"]),
        }
    ),
    max_size=12,
)


@given(
    requests=_request_values,
    capacity=st.integers(min_value=1, max_value=4),
    duration=st.integers(min_value=1, max_value=60),
)
@settings(max_examples=200)
def test_batched_schedule_passes_the_trace_check_and_leaves_requests_alone(
    requests, capacity, duration
):
    """Every schedule batch_requests writes is one parse_trace accepts in a
    stage_done line, and batching changes none of the request values."""
    before = copy.deepcopy(requests)
    schedule = batch_requests(requests, capacity, duration)
    assert requests == before
    start = {
        "mode": MODE_CA,
        "seed": 0,
        "kind": "wedding",
        "stage_ids": ["schedule"],
        "constraints": {"vehicle_capacity": capacity},
    }
    trace = Trace(
        events=[
            TraceEvent(1, "run_start", start),
            TraceEvent(2, "stage_done", {"stage": "schedule", "outputs": {"schedule": schedule}}),
            TraceEvent(3, "run_end", {"simulated_latency_s": 0.0}),
        ],
    )
    parsed = parse_trace(serialize_trace(trace))
    assert parsed.events[1].payload["outputs"]["schedule"] == schedule
    assert requests == before


def test_batch_requests_validates_arguments():
    with pytest.raises(ValueError):
        batch_requests([], 0, 30)
    with pytest.raises(ValueError):
        batch_requests([], 2, 0)
    with pytest.raises(ValueError):
        batch_requests([], True, 30)


def test_append_single_trip_matches_capacity_one_batching():
    rng = random.Random(7)
    for _ in range(50):
        requests = [
            request(f"r{i}", rng.choice([0, 0, 15, 40, 90])) for i in range(rng.randint(0, 9))
        ]
        duration = rng.choice([10, 30])
        expected = batch_requests(requests, 1, duration)
        trips = []
        for r in sorted(requests, key=lambda r: (r["ready_time_min"], r["request_id"])):
            append_single_trip(trips, r, duration)
        makespan = trips[-1]["start_min"] + trips[-1]["duration_min"] if trips else 0
        assert trips == expected["trips"]
        assert makespan == expected["makespan_min"]


def _reference_batch_requests(requests, capacity, duration_min):
    """``batch_requests`` as it was before ``_append_trip`` assumed ready
    order: each trip's start is computed from the whole group."""
    ordered = sorted(requests, key=lambda r: (r["ready_time_min"], r["request_id"]))
    trips = []
    for i in range(0, len(ordered), capacity):
        _reference_append_trip(trips, ordered[i : i + capacity], duration_min)
    return {"trips": trips, "makespan_min": _reference_end_min(trips)}


def _reference_append_trip(trips, requests, duration_min):
    start = max(_reference_end_min(trips), min(r["ready_time_min"] for r in requests))
    trip = {"trip_id": len(trips) + 1, "start_min": start, "duration_min": duration_min, "requests": requests}
    trips.append(trip)
    return trip


def _reference_end_min(trips):
    return trips[-1]["start_min"] + trips[-1]["duration_min"] if trips else 0


# Few ids and ready times, so that ties on both are common.
_tied_requests = st.lists(
    st.builds(request, st.sampled_from(["a", "b", "c", "d"]), st.sampled_from([0, 0, 15, 40, 90])),
    max_size=12,
)


@given(
    requests=_tied_requests,
    capacity=st.integers(min_value=1, max_value=4),
    duration=st.integers(min_value=1, max_value=60),
    durations=st.lists(st.integers(min_value=1, max_value=60), min_size=12, max_size=12),
)
@settings(max_examples=300)
def test_batching_equals_the_reference_batching(requests, capacity, duration, durations):
    """batch_requests equals the reference, holding the very request values
    in the same order; append_single_trip, handed requests in any order and
    with mixed trip lengths, queues the same trips as the reference."""
    schedule = batch_requests(requests, capacity, duration)
    expected = _reference_batch_requests(requests, capacity, duration)
    assert schedule == expected
    held = [[id(r) for r in trip["requests"]] for trip in schedule["trips"]]
    assert held == [[id(r) for r in trip["requests"]] for trip in expected["trips"]]
    trips, reference = [], []
    for r, minutes in zip(requests, durations):
        assert append_single_trip(trips, r, minutes) == _reference_append_trip(reference, [r], minutes)
    assert trips == reference


def test_greedy_trip_count_matches_brute_force_small():
    for n in range(0, 7):
        for capacity in range(1, 4):
            requests = [request(f"r{i}") for i in range(n)]
            greedy = len(batch_requests(requests, capacity, 30)["trips"])
            assert greedy == brute_force_min_trips(n, capacity)


def test_collect_window_requests_merges_both_trackers(wedding_scenario):
    tables = wedding_scenario.data_tables
    window = {
        "arrivals": {"requests": guest_requests(tables)[:2]},
        "errands": {"requests": errand_requests(tables)[:1]},
        "unrelated": 5,
    }
    merged = collect_window_requests(window)
    assert [r["request_id"] for r in merged] == ["g1", "g2", "e1"]


# -- Satisfaction scoring -----------------------------------------------------------------


def test_goal_satisfaction_counts_present_stages():
    budget = {"budget": 0}
    goal, _ = evaluate_satisfaction("travel", budget, ["a", "b", "c", "d"], {"a": 1, "c": 2})
    assert goal == 0.5
    goal, constraint = evaluate_satisfaction("travel", budget, [], {})
    assert goal == 1.0 and constraint == 1.0


def test_travel_budget_constraint():
    outputs = {"hotel": {"cost": 900}, "dining": {"cost": 200}}
    _, ok = evaluate_satisfaction("travel", {"budget": 1500}, ["hotel", "dining"], outputs)
    assert ok == 1.0
    _, blown = evaluate_satisfaction("travel", {"budget": 1000}, ["hotel", "dining"], outputs)
    assert blown == 0.0


def test_wedding_missing_schedule_fails_all_checks():
    goal, constraint = evaluate_satisfaction(
        "wedding",
        {"vehicle_capacity": 2, "deadline_min": 360},
        ["arrivals", "errands", "schedule"],
        {"arrivals": {"count": 6}},
    )
    assert goal == pytest.approx(1 / 3)
    assert constraint == 0.0


def test_wedding_deadline_check():
    schedule = batch_requests([request("a"), request("b")], 1, 100)
    _, ok = evaluate_satisfaction(
        "wedding", {"vehicle_capacity": 1, "deadline_min": 200}, ["schedule"], {"schedule": schedule}
    )
    assert ok == 1.0
    _, late = evaluate_satisfaction(
        "wedding", {"vehicle_capacity": 1, "deadline_min": 150}, ["schedule"], {"schedule": schedule}
    )
    assert late == pytest.approx(2 / 3)


# -- Server builders ------------------------------------------------------------------------


def test_build_servers_by_mode(travel_scenario, wedding_scenario):
    ca = build_servers(travel_scenario, MODE_CA)
    assert all(isinstance(s, ServerSpec) for s in ca)
    assert [s.stage.server_id for s in ca] == [
        "location_server",
        "weather_server",
        "hotel_server",
        "dining_server",
    ]
    traditional = build_servers(wedding_scenario, MODE_TRADITIONAL)
    assert all(isinstance(t, StatelessTool) for t in traditional)
    # One tool per stage, in stage order: each runs its own stage's computation.
    assert len(traditional) == len(wedding_scenario.stages)
    tools = {s.stage_id: t for s, t in zip(wedding_scenario.stages, traditional)}
    assert list(tools) == ["arrivals", "errands", "schedule"]
    assert {r["source"] for r in tools["arrivals"].run({})["requests"]} == {"arrival"}
    assert {r["source"] for r in tools["errands"].run({})["requests"]} == {"errand"}
    assert tools["schedule"].run({}) == {"trips": [], "makespan_min": 0}
    with pytest.raises(ValueError):
        build_servers(travel_scenario, "hybrid")


def test_traditional_tools_declare_required_keys(travel_scenario):
    stages = {s.stage_id: s for s in travel_scenario.stages}
    assert stages["location"].required == ("destination", "days")
    assert stages["weather"].required == ("location",)
    assert stages["dining"].required == ("location", "budget")
