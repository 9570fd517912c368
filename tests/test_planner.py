"""Planner templates, blueprint wiring, summaries, and the package's import cost."""
import json
import os
import subprocess
import sys

from camcp.planner import (
    CostModel,
    MockPlanner,
    blueprint_to_value,
    completion_condition,
    render_summary,
    rendered,
)
from camcp.store import And, ContextStore, Exists, condition_to_value, evaluate

TRAVEL_QUERY = {
    "raw_text": "Plan a 3-day trip to Seattle with a $1500 budget; preferences: adventurous, vegan.",
    "kind": "travel",
    "params": {"preferences": ["adventurous", "vegan"], "days": 3, "destination": "Seattle", "budget": 1500},
}
WEDDING_QUERY = {
    "raw_text": "Coordinate wedding-day guest arrivals, errands, and the shared vehicle.",
    "kind": "wedding",
    "params": {"scenario": "wedding_p5", "vehicle_capacity": 2, "deadline_min": 360},
}


# -- Planning -------------------------------------------------------------------


def test_plan_is_deterministic(travel_scenario):
    planner = MockPlanner()
    first = planner.plan(TRAVEL_QUERY, travel_scenario)
    second = planner.plan(TRAVEL_QUERY, travel_scenario)
    assert first == second


def test_travel_blueprint_wiring(travel_scenario):
    blueprint = MockPlanner().plan(TRAVEL_QUERY, travel_scenario)
    assert [s["stage_id"] for s in blueprint["stages"]] == ["location", "weather", "hotel", "dining"]
    assert [s["server_id"] for s in blueprint["stages"]] == [
        "location_server",
        "weather_server",
        "hotel_server",
        "dining_server",
    ]
    assert blueprint["stages"][0]["trigger"] == condition_to_value(Exists("goals_seeded"))
    assert blueprint["stages"][1]["trigger"] == condition_to_value(Exists("location_done"))
    assert blueprint["stages"][2]["trigger"] == condition_to_value(Exists("location_done"))
    assert blueprint["stages"][3]["trigger"] == condition_to_value(Exists("hotel_done"))
    assert blueprint["completion_key"] == "itinerary_complete"
    assert blueprint["constraints"] == TRAVEL_QUERY["params"]
    assert len(blueprint["goals"]) == 4
    # the plan holds the value of each of the scenario's stage records
    assert [s["done_key"] for s in blueprint["stages"]] == [s.done_key for s in travel_scenario.stages]


def test_wedding_blueprint_wiring(wedding_scenario):
    blueprint = MockPlanner().plan(WEDDING_QUERY, wedding_scenario)
    assert [s["stage_id"] for s in blueprint["stages"]] == ["arrivals", "errands", "schedule"]
    assert blueprint["stages"][2]["trigger"] == condition_to_value(Exists("requests_posted"))
    assert blueprint["completion_key"] == "logistics_complete"
    # the scenario selector parameter is routing, not a constraint
    assert "scenario" not in blueprint["constraints"]
    assert blueprint["constraints"] == {"vehicle_capacity": 2, "deadline_min": 360}


def test_completion_condition_is_conjunction_of_done_keys(travel_scenario):
    condition = completion_condition(travel_scenario.stages)
    assert condition == And(
        (
            Exists("location_done"),
            Exists("weather_done"),
            Exists("hotel_done"),
            Exists("dining_done"),
        )
    )
    store = ContextStore()
    for stage in travel_scenario.stages:
        assert not evaluate(condition, store.snapshot())
        store.put(stage.done_key, True, "w")
    assert evaluate(condition, store.snapshot())


def test_blueprint_to_value_is_json_shaped(travel_scenario):
    value = blueprint_to_value(TRAVEL_QUERY, travel_scenario)
    json.dumps(value)
    assert value["stages"][0]["trigger"] == {"op": "exists", "key": "goals_seeded"}


# -- Summaries -------------------------------------------------------------------


def test_summarize_golden(golden_dir, travel_scenario):
    from camcp.reactor import ReactorPool
    from camcp.runtime import query_for_seed, seed_context
    from camcp.scenarios import build_servers

    planner = MockPlanner()
    blueprint = planner.plan(query_for_seed(travel_scenario, 0), travel_scenario)
    store = ContextStore()
    seed_context(store, blueprint)
    pool = ReactorPool(store)
    for spec in build_servers(travel_scenario, "context_aware"):
        pool.register(spec)
    pool.run_until_quiescent()
    store.put(blueprint["completion_key"], True, "runtime")
    summary = planner.summarize(store.snapshot(), blueprint)
    assert summary + "\n" == (golden_dir / "summary_travel.txt").read_text()


def test_render_summary_echoes_every_constraint_and_stage(travel_scenario):
    blueprint = MockPlanner().plan(TRAVEL_QUERY, travel_scenario)
    store = ContextStore()
    store.put("location", {"cost": 1}, "location_server")
    summary = render_summary(store.snapshot(), blueprint)
    for name, value in blueprint["constraints"].items():
        assert f"constraint {name}:" in summary
    assert "Seattle" in summary and "1500" in summary
    assert "weather: null" in summary  # missing stages stay visible
    assert summary.endswith("complete: false")


def test_synthesize_lists_history_in_order():
    planner = MockPlanner()
    history = [("destination", "Seattle"), ("hotel", {"cost": 285})]
    text = planner.synthesize([(key, rendered(value)) for key, value in history])
    lines = text.splitlines()
    assert lines[0] == "=== final response ==="
    assert lines[1] == "destination: Seattle"
    assert lines[2] == 'hotel: {"cost":285}'


def test_cost_model_defaults():
    cost = CostModel()
    assert cost.per_call_latency_s == 6.0
    assert cost.per_tool_latency_s == 0.4


# -- Import cost ------------------------------------------------------------------


def test_import_leaves_requests_unloaded():
    import camcp

    src = os.path.dirname(os.path.dirname(camcp.__file__))
    code = f"import sys; sys.path.insert(0, {src!r}); import camcp; print('requests' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True
    )
    assert result.stdout.strip() == "False"


def test_import_loads_only_the_standard_library():
    """camcp has no runtime dependency: importing it loads nothing beyond
    the standard library and camcp's own modules."""
    import camcp

    src = os.path.dirname(os.path.dirname(camcp.__file__))
    code = (
        f"import sys; sys.path.insert(0, {src!r}); before = set(sys.modules); import camcp; "
        "print('\\n'.join(sorted(set(sys.modules) - before)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True
    )
    loaded = result.stdout.split()
    assert "camcp.store" in loaded
    foreign = [
        name
        for name in loaded
        if name.split(".")[0] not in sys.stdlib_module_names and name.split(".")[0] != "camcp"
    ]
    assert foreign == []

