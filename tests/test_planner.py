"""Planner templates and the HTTP adapter contract."""
import json
import os
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from camcp.planner import (
    AdapterConfigurationError,
    AdapterNetworkError,
    AdapterResponseError,
    AdapterStatusError,
    CostModel,
    IncompleteContextError,
    LlmAdapter,
    MockPlanner,
    Query,
    UnsupportedKindError,
    blueprint_to_value,
    completion_condition,
    render_summary,
    stage_outline,
)
from camcp.runtime import TraceBuilder
from camcp.store import And, ContextStore, Exists, evaluate

TRAVEL_QUERY = Query(
    raw_text="Plan a 3-day trip to Seattle with a $1500 budget; preferences: adventurous, vegan.",
    kind="travel",
    params={"preferences": ["adventurous", "vegan"], "days": 3, "destination": "Seattle", "budget": 1500},
)
WEDDING_QUERY = Query(
    raw_text="Coordinate wedding-day guest arrivals, errands, and the shared vehicle.",
    kind="wedding",
    params={"scenario": "wedding_p5", "vehicle_capacity": 2, "deadline_min": 360},
)


# -- Planning -------------------------------------------------------------------


def test_plan_is_deterministic():
    planner = MockPlanner()
    first = planner.plan(TRAVEL_QUERY)
    second = planner.plan(TRAVEL_QUERY)
    assert first == second


def test_travel_blueprint_wiring():
    blueprint = MockPlanner().plan(TRAVEL_QUERY)
    assert [s.stage_id for s in blueprint.stages] == ["location", "weather", "hotel", "dining"]
    assert [s.server_id for s in blueprint.stages] == [
        "location_server",
        "weather_server",
        "hotel_server",
        "dining_server",
    ]
    assert blueprint.stages[0].trigger == Exists("goals_seeded")
    assert blueprint.stages[1].trigger == Exists("location_done")
    assert blueprint.stages[2].trigger == Exists("location_done")
    assert blueprint.stages[3].trigger == Exists("hotel_done")
    assert blueprint.completion_key == "itinerary_complete"
    assert blueprint.constraints == TRAVEL_QUERY.params
    assert len(blueprint.goals) == 4


def test_wedding_blueprint_wiring():
    blueprint = MockPlanner().plan(WEDDING_QUERY)
    assert [s.stage_id for s in blueprint.stages] == ["arrivals", "errands", "schedule"]
    assert blueprint.stages[2].trigger == Exists("requests_posted")
    assert blueprint.completion_key == "logistics_complete"
    # the scenario selector parameter is routing, not a constraint
    assert "scenario" not in blueprint.constraints
    assert blueprint.constraints == {"vehicle_capacity": 2, "deadline_min": 360}


def test_plan_rejects_bad_queries():
    planner = MockPlanner()
    with pytest.raises(UnsupportedKindError):
        planner.plan(Query("x", "cooking", {}))
    with pytest.raises(ValueError, match="budget"):
        planner.plan(Query("x", "travel", {"destination": "Seattle", "days": 3}))


def test_completion_condition_is_conjunction_of_done_keys():
    blueprint = MockPlanner().plan(TRAVEL_QUERY)
    condition = completion_condition(blueprint)
    assert condition == And(
        (
            Exists("location_done"),
            Exists("weather_done"),
            Exists("hotel_done"),
            Exists("dining_done"),
        )
    )
    store = ContextStore()
    for stage in blueprint.stages:
        assert not evaluate(condition, store.snapshot())
        store.put(stage.done_key, True, "w")
    assert evaluate(condition, store.snapshot())


def test_stage_outline_rejects_unknown_kind():
    with pytest.raises(UnsupportedKindError):
        stage_outline("heist")


def test_blueprint_to_value_is_json_shaped():
    value = blueprint_to_value(MockPlanner().plan(TRAVEL_QUERY))
    json.dumps(value)
    assert value["stages"][0]["trigger"] == {"op": "exists", "key": "goals_seeded"}


# -- Summaries -------------------------------------------------------------------


def test_summarize_requires_completion_flag():
    planner = MockPlanner()
    blueprint = planner.plan(TRAVEL_QUERY)
    store = ContextStore()
    with pytest.raises(IncompleteContextError) as info:
        planner.summarize(store.snapshot(), blueprint)
    assert info.value.completion_key == "itinerary_complete"


def test_summarize_golden(golden_dir, travel_scenario):
    from camcp.reactor import ReactorPool
    from camcp.runtime import query_for_seed, seed_context
    from camcp.scenarios import build_servers

    planner = MockPlanner()
    blueprint = planner.plan(query_for_seed(travel_scenario, 0))
    store = ContextStore()
    seed_context(store, blueprint)
    pool = ReactorPool(store)
    for spec in build_servers(travel_scenario, "context_aware"):
        pool.register(spec)
    pool.run_until_quiescent(travel_scenario.max_steps)
    store.put(blueprint.completion_key, True, "runtime")
    summary = planner.summarize(store.snapshot(), blueprint)
    assert summary + "\n" == (golden_dir / "summary_travel.txt").read_text()


def test_render_summary_echoes_every_constraint_and_stage():
    blueprint = MockPlanner().plan(TRAVEL_QUERY)
    summary = render_summary({"location": {"cost": 1}}, blueprint)
    for name, value in blueprint.constraints.items():
        assert f"constraint {name}:" in summary
    assert "Seattle" in summary and "1500" in summary
    assert "weather: null" in summary  # missing stages stay visible
    assert summary.endswith("complete: false")


def test_synthesize_lists_history_in_order():
    planner = MockPlanner()
    text = planner.synthesize([("destination", "Seattle"), ("hotel", {"cost": 285})])
    lines = text.splitlines()
    assert lines[0] == "=== final response ==="
    assert lines[1] == "destination: Seattle"
    assert lines[2] == 'hotel: {"cost":285}'


def test_cost_model_defaults():
    cost = CostModel()
    assert cost.per_call_latency_s == 6.0
    assert cost.per_tool_latency_s == 0.4


# -- HTTP adapter ------------------------------------------------------------------


class _StubHandler(BaseHTTPRequestHandler):
    captured: list = []
    status = 200
    body = '{"text": "stub answer"}'

    def do_POST(self):
        length = int(self.headers["content-length"])
        type(self).captured.append(
            {
                "path": self.path,
                "authorization": self.headers.get("authorization"),
                "body": self.rfile.read(length).decode("utf-8"),
            }
        )
        payload = type(self).body.encode("utf-8")
        self.send_response(type(self).status)
        self.send_header("content-type", "application/json")
        self.send_header("content-length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub_server():
    _StubHandler.captured = []
    _StubHandler.status = 200
    _StubHandler.body = '{"text": "stub answer"}'
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/v1/complete", _StubHandler
    server.shutdown()
    thread.join()


def test_import_leaves_requests_unloaded():
    import camcp

    src = os.path.dirname(os.path.dirname(camcp.__file__))
    code = f"import sys; sys.path.insert(0, {src!r}); import camcp; print('requests' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True
    )
    assert result.stdout.strip() == "False"


def test_adapter_from_env_requires_url():
    with pytest.raises(AdapterConfigurationError):
        LlmAdapter.from_env(env={})
    adapter = LlmAdapter.from_env(env={"CA_MCP_LLM_URL": "http://example/api", "CA_MCP_LLM_TOKEN": "tok"})
    assert adapter.url == "http://example/api"
    assert adapter.token == "tok"


def test_adapter_posts_verbatim_contract(stub_server):
    url, handler = stub_server
    recorder = []
    adapter = LlmAdapter(url=url, token="secret", recorder=recorder)
    text = adapter.request(
        messages=[{"role": "user", "content": "plan"}],
        tools=[{"name": "book_hotel"}],
    )
    assert text == "stub answer"
    sent = handler.captured[0]
    assert sent["authorization"] == "Bearer secret"
    assert json.loads(sent["body"]) == {
        "messages": [{"role": "user", "content": "plan"}],
        "tools": [{"name": "book_hotel"}],
    }
    assert recorder == [
        {
            "request": {"messages": [{"role": "user", "content": "plan"}], "tools": [{"name": "book_hotel"}]},
            "response": '{"text": "stub answer"}',
        }
    ]


def test_adapter_maps_http_status_errors(stub_server):
    url, handler = stub_server
    handler.status = 500
    handler.body = "boom"
    with pytest.raises(AdapterStatusError) as info:
        LlmAdapter(url=url).request([], [])
    assert info.value.status_code == 500
    assert info.value.body == "boom"


def test_adapter_rejects_malformed_response(stub_server):
    url, handler = stub_server
    handler.body = '{"unexpected": 1}'
    with pytest.raises(AdapterResponseError):
        LlmAdapter(url=url).request([], [])
    handler.body = "not json"
    with pytest.raises(AdapterResponseError):
        LlmAdapter(url=url).request([], [])


def test_adapter_maps_connection_failures():
    adapter = LlmAdapter(url="http://127.0.0.1:9/nothing-listens-here", timeout_s=2.0)
    with pytest.raises(AdapterNetworkError):
        adapter.request([], [])


def test_adapter_counts_calls_through_hook(stub_server, travel_scenario):
    url, _ = stub_server
    builder = TraceBuilder("context_aware", 0, travel_scenario)
    LlmAdapter(url=url, on_call=builder.llm_call).request([], [])
    builder.run_end(True)
    trace = builder.build()
    assert trace.llm_call_count() == 1
    assert trace.events_of("llm_call")[0].payload["role"] == "plan"
