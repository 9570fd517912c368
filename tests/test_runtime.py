"""End-to-end runs: trace shape, call counts, determinism, protocol embedding."""
import dataclasses
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camcp import runtime, store
from camcp.bench import compute_metrics
from camcp.planner import CostModel, MockPlanner
from camcp.protocol import decode, encode, validate_sequence
from camcp.runtime import (
    _JSON_SPACE,
    _PAYLOAD_FIELDS,
    _RECORD_KEYS,
    _REQUEST_FIELDS,
    _TRACE_DECODER,
    _TRIP_INTS,
    EVENT_KINDS,
    RUN_END,
    RUN_START,
    STAGE_DONE,
    MalformedTraceError,
    Trace,
    TraceBuilder,
    TraceEvent,
    _check_fields,
    parse_trace,
    query_for_seed,
    read_trace,
    run,
    run_context_aware,
    run_traditional,
    seed_context,
    serialize_trace,
    write_trace,
)
from camcp.scenarios import KINDS, MODE_CA, MODE_TRADITIONAL
from camcp.store import ContextStore, canonicalize_value
from strategies import generated_wedding, json_values

ALL = [("travel", MODE_TRADITIONAL), ("travel", MODE_CA), ("wedding_p5", MODE_TRADITIONAL), ("wedding_p5", MODE_CA)]


def scenario_by_name(name, travel, wedding):
    return travel if name == "travel" else wedding


def events_of(trace, kind):
    return [e for e in trace.events if e.kind == kind]


@pytest.fixture()
def windowed_travel(travel_scenario):
    def make(budget: int):
        return dataclasses.replace(travel_scenario, window=budget)

    return make


# -- Trace shape -------------------------------------------------------------------


@pytest.mark.parametrize("name, mode", ALL)
def test_trace_boundaries_and_dense_clock(name, mode, travel_scenario, wedding_scenario):
    trace = run(scenario_by_name(name, travel_scenario, wedding_scenario), mode, 0)
    assert trace.events[0].kind == "run_start"
    assert trace.events[-1].kind == "run_end"
    assert [e.t for e in trace.events] == list(range(1, len(trace.events) + 1))
    assert all(e.kind in EVENT_KINDS for e in trace.events)
    assert trace.events[-1].payload["completed"] is True


def test_run_start_payload_carries_everything_metrics_need(travel_scenario):
    payload = run(travel_scenario, MODE_CA, 3).events[0].payload
    assert payload["mode"] == "context_aware"
    assert payload["seed"] == 3
    assert payload["scenario"] == "travel"
    assert payload["kind"] == "travel"
    assert payload["stage_ids"] == ["location", "weather", "hotel", "dining"]
    assert set(payload["constraints"]) == {"preferences", "days", "destination", "budget"}


def test_run_dispatcher_accepts_mode_names_and_rejects_aliases(travel_scenario):
    assert run(travel_scenario, MODE_CA, 0).mode == MODE_CA
    assert run(travel_scenario, MODE_TRADITIONAL, 0).mode == MODE_TRADITIONAL
    for mode in ("ca", "hybrid"):  # the CLI maps --mode ca itself
        with pytest.raises(ValueError):
            run(travel_scenario, mode, 0)


# -- Call counts and latency ---------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 17])
def test_travel_call_counts(travel_scenario, seed):
    traditional = run_traditional(travel_scenario, seed)
    aware = run_context_aware(travel_scenario, seed)
    assert compute_metrics(traditional).llm_calls == 5
    assert compute_metrics(aware).llm_calls == 2
    assert [e.payload["role"] for e in events_of(aware, "llm_call")] == ["plan", "summarize"]
    assert [e.payload["role"] for e in events_of(traditional, "llm_call")] == [
        "step_decision"
    ] * 4 + ["summarize"]


@pytest.mark.parametrize("seed", [0, 5])
def test_wedding_call_counts(wedding_scenario, seed):
    traditional = run_traditional(wedding_scenario, seed)
    aware = run_context_aware(wedding_scenario, seed)
    assert compute_metrics(traditional).llm_calls == 2
    assert compute_metrics(aware).llm_calls == 1
    assert [e.payload["role"] for e in events_of(aware, "llm_call")] == ["combined"]
    assert len(events_of(traditional, "tool_exec")) == 13  # 2 trackers + 11 dispatches
    assert len(events_of(aware, "tool_exec")) == 3


def test_simulated_latency_matches_event_arithmetic(travel_scenario, wedding_scenario):
    expected = {
        ("travel", MODE_TRADITIONAL): 31.6,
        ("travel", MODE_CA): 13.6,
        ("wedding_p5", MODE_TRADITIONAL): 17.2,
        ("wedding_p5", MODE_CA): 7.2,
    }
    for (name, mode), total in expected.items():
        trace = run(scenario_by_name(name, travel_scenario, wedding_scenario), mode, 0)
        assert trace.simulated_latency_s == total
        llm = events_of(trace, "llm_call")
        tools = events_of(trace, "tool_exec")
        assert all(e.payload["latency_s"] == 6.0 for e in llm)
        assert all(e.payload["latency_s"] == 0.4 for e in tools)
        assert trace.simulated_latency_s == len(llm) * 6.0 + len(tools) * 0.4
        assert trace.events[-1].payload["simulated_latency_s"] == total
    assert 13.6 / 31.6 == pytest.approx(0.43038, abs=1e-5)


# -- Determinism ------------------------------------------------------------------------


@pytest.mark.parametrize("name, mode", ALL)
def test_repeat_runs_are_byte_identical(name, mode, travel_scenario, wedding_scenario):
    scenario = scenario_by_name(name, travel_scenario, wedding_scenario)
    assert serialize_trace(run(scenario, mode, 11)) == serialize_trace(run(scenario, mode, 11))


@pytest.mark.parametrize(
    "name, golden",
    [("travel", "trace_travel_ca.jsonl"), ("wedding_p5", "trace_wedding_ca.jsonl")],
)
def test_ca_trace_matches_golden_bytes(name, golden, travel_scenario, wedding_scenario, golden_dir):
    scenario = scenario_by_name(name, travel_scenario, wedding_scenario)
    assert serialize_trace(run(scenario, MODE_CA, 0)) == (golden_dir / golden).read_text()


def test_wall_clock_measured_but_never_serialized(travel_scenario):
    trace = run(travel_scenario, MODE_CA, 0)
    assert trace.wall_clock_s > 0.0
    text = serialize_trace(trace)
    assert "wall_clock" not in text
    assert parse_trace(text).wall_clock_s == 0.0


# -- Seeding ---------------------------------------------------------------------------


def test_seed_context_write_order(travel_scenario):
    blueprint = MockPlanner().plan(query_for_seed(travel_scenario, 0), travel_scenario)
    store = ContextStore()
    keys = []
    store.add_commit_listener(lambda entry: keys.append(entry.key))
    seed_context(store, blueprint)
    assert keys == [
        "goals",
        "constraints.preferences",
        "constraints.days",
        "constraints.destination",
        "constraints.budget",
        "stages",
        "goals_seeded",
    ]
    assert keys[-1] == "goals_seeded"


def test_seed_context_empty_blueprint():
    blueprint = {"goals": [], "constraints": {}, "stages": [], "completion_key": "done"}
    store = ContextStore()
    keys = []
    store.add_commit_listener(lambda entry: keys.append(entry.key))
    seed_context(store, blueprint)
    assert keys == ["goals", "stages", "goals_seeded"]


def test_seed_context_reseed_bumps_versions(travel_scenario):
    blueprint = MockPlanner().plan(query_for_seed(travel_scenario, 0), travel_scenario)
    store = ContextStore()
    seed_context(store, blueprint)
    seed_context(store, blueprint)
    assert store.get("goals_seeded").version == 2
    assert store.get("constraints.budget").version == 2


# -- Seeded queries ------------------------------------------------------------------------


def test_query_seed_zero_is_base_query(travel_scenario):
    query = query_for_seed(travel_scenario, 0)
    assert query["params"] == travel_scenario.constraints
    assert "Seattle" in query["raw_text"]
    assert "$1500" in query["raw_text"]


def test_query_variations_stay_inside_tables(travel_scenario):
    destinations = set(travel_scenario.data_tables["destinations"])
    seen = set()
    for seed in range(1, 60):
        params = query_for_seed(travel_scenario, seed)["params"]
        assert params["destination"] in destinations
        assert params["days"] in (2, 3, 4)
        assert params["budget"] in (1200, 1500, 1800)
        assert params["preferences"] == travel_scenario.constraints["preferences"]
        assert list(params) == list(travel_scenario.constraints)
        seen.add((params["destination"], params["days"], params["budget"]))
    assert len(seen) > 5  # the sweep actually varies
    assert query_for_seed(travel_scenario, 9) == query_for_seed(travel_scenario, 9)


def test_wedding_query_is_seed_invariant(wedding_scenario):
    assert query_for_seed(wedding_scenario, 0) == query_for_seed(wedding_scenario, 99)


@pytest.mark.parametrize("bad", [-1, True, 1.5, "0"])
def test_query_rejects_bad_seed(travel_scenario, bad):
    with pytest.raises(ValueError):
        query_for_seed(travel_scenario, bad)


# -- Window eviction -----------------------------------------------------------------------


def test_window_three_loses_exactly_dining(windowed_travel):
    trace = run_traditional(windowed_travel(3), 0)
    failed = events_of(trace, "stage_failed")
    assert len(failed) == 1
    assert failed[0].payload["stage"] == "dining"
    assert "budget" in failed[0].payload["reason"]
    done = [e.payload["stage"] for e in events_of(trace, "stage_done")]
    assert done == ["location", "weather", "hotel"]
    assert trace.events[-1].payload["completed"] is False
    assert compute_metrics(trace).llm_calls == 5  # the orchestrator still pays every decision


@pytest.mark.parametrize("budget, expected_done", [(1, 0), (2, 0), (4, 4), (6, 4)])
def test_window_budget_thresholds(windowed_travel, budget, expected_done):
    trace = run_traditional(windowed_travel(budget), 0)
    assert len(events_of(trace, "stage_done")) == expected_done


def test_context_aware_ignores_window(windowed_travel):
    trace = run_context_aware(windowed_travel(1), 0)
    assert len(events_of(trace, "stage_done")) == 4
    assert trace.events[-1].payload["completed"] is True


@pytest.mark.parametrize("name", ["travel", "wedding_p5"])
def test_ca_run_out_of_steps_ends_incomplete(name, travel_scenario, wedding_scenario):
    scenario = dataclasses.replace(
        scenario_by_name(name, travel_scenario, wedding_scenario), max_steps=1
    )
    trace = run_context_aware(scenario, 0)
    assert trace.events[-1].payload["completed"] is False
    reasons = {e.payload["reason"] for e in events_of(trace, "stage_failed")}
    assert reasons == {"not quiescent within 1 steps"}
    assert compute_metrics(parse_trace(serialize_trace(trace))) == compute_metrics(trace, scenario)


def test_ca_stages_behind_a_failed_stage_are_reported_never_triggered(travel_scenario, monkeypatch):
    """A reactor whose trigger never rose is still idle at quiescence, and
    its stage fails as never triggered, after the stage that failed."""
    build_servers = runtime.build_servers

    def crash(snapshot):
        raise RuntimeError("boom")

    def servers(scenario, mode):
        return [
            dataclasses.replace(s, action=crash) if s.stage.server_id == "location_server" else s
            for s in build_servers(scenario, mode)
        ]

    monkeypatch.setattr(runtime, "build_servers", servers)
    trace = run_context_aware(travel_scenario, 0)
    failed = [(e.payload["stage"], e.payload["reason"]) for e in events_of(trace, "stage_failed")]
    never = "never triggered: upstream incomplete"
    assert failed == [
        ("location", "RuntimeError: boom"), ("weather", never), ("hotel", never), ("dining", never)
    ]
    assert trace.events[-1].payload["completed"] is False
    assert compute_metrics(parse_trace(serialize_trace(trace))) == compute_metrics(trace)


# -- Protocol embedding ----------------------------------------------------------------------


@pytest.mark.parametrize("name, mode", ALL)
def test_embedded_messages_validate(name, mode, travel_scenario, wedding_scenario):
    trace = run(scenario_by_name(name, travel_scenario, wedding_scenario), mode, 0)
    messages = trace.protocol_messages()
    validate_sequence(messages)
    seqs = [m.seq for m in messages]
    assert seqs == sorted(seqs)
    assert messages[0].msg_type == "plan_request"
    assert messages[-1].msg_type == "final_response"
    # decode copies and schema-checks every line, whichever way it was written
    lines = [e.payload["envelope"] for e in trace.events if "envelope" in e.payload]
    assert [encode(decode(line)) for line in lines] == lines


def test_ca_run_copies_only_the_payloads_from_outside_the_store(
    monkeypatch, travel_scenario, wedding_scenario
):
    """A run deep-copies a value only where the store commits it: one
    top-level copy per commit in context-aware mode and none in traditional
    mode. No protocol payload or plan is copied again: the loader and the
    store copied every value a line embeds, and lines are checked where they
    are decoded. Counting ``store._copy`` sees every module's ``copy_value``."""
    copy = store._copy
    calls = []

    def counting_copy(value, depth):
        if depth == 0:
            calls.append(value)
        return copy(value, depth)

    monkeypatch.setattr(store, "_copy", counting_copy)
    for seed in (0, 3):
        for name, mode in ALL:
            calls.clear()
            trace = run(scenario_by_name(name, travel_scenario, wedding_scenario), mode, seed)
            assert sum("envelope" in e.payload for e in trace.events) >= 2
            commits = len(events_of(trace, runtime.SCS_WRITE))
            assert len(calls) == (commits if mode == MODE_CA else 0), (name, mode, seed)


def test_travel_ca_message_vocabulary(travel_scenario):
    types = [m.msg_type for m in run_context_aware(travel_scenario, 0).protocol_messages()]
    assert types[0] == "plan_request"
    assert types[1] == "context_seed"
    assert types.count("completion_signal") == 1
    assert types.count("summary_request") == 1
    assert types[-1] == "final_response"
    assert types.index("completion_signal") < types.index("summary_request")


def test_wedding_ca_combined_call_skips_summary_request(wedding_scenario):
    types = [m.msg_type for m in run_context_aware(wedding_scenario, 0).protocol_messages()]
    assert "summary_request" not in types
    assert types.count("completion_signal") == 1
    assert types[-1] == "final_response"


def test_traditional_messages_are_plan_and_final_only(travel_scenario):
    types = [m.msg_type for m in run_traditional(travel_scenario, 0).protocol_messages()]
    assert types == ["plan_request", "final_response"]


@pytest.mark.parametrize("name, seed", [("travel", seed) for seed in range(4)] + [("wedding_p5", 0)])
def test_ca_trace_carries_the_query_and_plan_values(name, seed, travel_scenario, wedding_scenario):
    """The plan_request carries the query value, and the context_seed and the
    seeded stage outline carry the plan value, as they read back."""
    scenario = scenario_by_name(name, travel_scenario, wedding_scenario)
    trace = parse_trace(serialize_trace(run_context_aware(scenario, seed)))
    messages = trace.protocol_messages()
    query = query_for_seed(scenario, seed)
    blueprint = MockPlanner().plan(query, scenario)
    assert [m.msg_type for m in messages[:2]] == ["plan_request", "context_seed"]
    assert messages[0].payload["query"] == query
    assert messages[1].payload["blueprint"] == blueprint
    [stages] = [e for e in events_of(trace, runtime.SCS_WRITE) if e.payload["key"] == "stages"]
    assert stages.payload["value"] == blueprint["stages"]


def test_ca_run_spends_no_calls_between_seed_and_summary(travel_scenario):
    trace = run_context_aware(travel_scenario, 0)
    calls = [e.t for e in events_of(trace, "llm_call")]
    assert len(calls) == 2
    between = [
        e.kind for e in trace.events if calls[0] < e.t < calls[1] and e.kind == "llm_call"
    ]
    assert between == []


# -- Context-aware run content ------------------------------------------------------------------


def test_ca_stage_done_outputs_are_scoped_to_own_stage(travel_scenario):
    trace = run_context_aware(travel_scenario, 0)
    for event in events_of(trace, "stage_done"):
        assert list(event.payload["outputs"]) == [event.payload["stage"]]


def test_ca_trigger_fire_precedes_matching_tool_exec(travel_scenario):
    trace = run_context_aware(travel_scenario, 0)
    fires = events_of(trace, "trigger_fire")
    assert len(fires) == 4
    for fire in fires:
        follower = trace.events[fire.t]  # trace.events is 0-indexed, t is 1-based
        assert follower.kind == "tool_exec"
        assert follower.payload["server"] == fire.payload["server"]


def test_wedding_ca_store_coordination(wedding_scenario):
    trace = run_context_aware(wedding_scenario, 0)
    writes = {e.payload["key"]: e.payload for e in events_of(trace, "scs_write")}
    request_keys = [k for k in writes if k.startswith("transport_request.")]
    assert len(request_keys) == 11
    # the tracker that fires second observes the first one's done flag and
    # posts the shared gate; the transport stage wakes on that single write
    assert writes["requests_posted"]["writer"] == "errand_tracker"
    assert writes["logistics_complete"]["writer"] == "runtime"
    schedule = writes["schedule"]["value"]
    assert schedule["makespan_min"] == 180
    assert any(len(t["requests"]) == 2 for t in schedule["trips"])


def test_final_response_echoes_constraints_and_outputs(travel_scenario, wedding_scenario):
    trace = run_context_aware(travel_scenario, 0)
    text = trace.protocol_messages()[-1].payload["text"]
    assert "constraint destination: Seattle" in text
    assert "constraint budget: 1500" in text
    assert "constraint preferences:" in text and "vegan" in text
    assert "hotel:" in text and "dining:" in text
    wedding_text = run_context_aware(wedding_scenario, 0).protocol_messages()[-1].payload["text"]
    assert "constraint vehicle_capacity: 2" in wedding_text
    assert '"makespan_min":180' in wedding_text


def test_traditional_failure_reason_reaches_trace_for_unknown_destination(travel_scenario):
    broken = dataclasses.replace(
        travel_scenario,
        constraints={**travel_scenario.constraints, "destination": "Atlantis"},
    )
    trace = run_traditional(broken, 0)
    failed = {e.payload["stage"]: e.payload["reason"] for e in events_of(trace, "stage_failed")}
    assert "location" in failed
    assert "Atlantis" in failed["location"]
    assert trace.events[-1].payload["completed"] is False


@pytest.mark.parametrize("mode", [MODE_TRADITIONAL, MODE_CA])
def test_output_the_store_cannot_hold_becomes_stage_failed(travel_scenario, mode):
    """A hotel price near the float limit makes the hotel cost infinite, which
    has no JSON text: the hotel stage fails in both modes and the run goes on."""
    tables = json.loads(json.dumps(travel_scenario.data_tables))
    tables["destinations"]["Seattle"]["hotels"][0]["price_per_night"] = 1e308
    broken = dataclasses.replace(travel_scenario, data_tables=tables)
    trace = run(broken, mode, 0)
    failed = {e.payload["stage"]: e.payload["reason"] for e in events_of(trace, "stage_failed")}
    assert "hotel" in failed
    assert failed["hotel"].startswith("TypeError" if mode == MODE_CA else "ValueError")
    assert "hotel" not in {e.payload["stage"] for e in events_of(trace, "stage_done")}
    assert trace.events[-1].payload["completed"] is False
    assert compute_metrics(parse_trace(serialize_trace(trace))) == compute_metrics(trace)


def test_cyclic_tool_output_becomes_stage_failed(travel_scenario, monkeypatch):
    """A traditional output is encoded without a copy, and the encoder does
    not look for cycles: a cyclic output fails its stage, not the run."""
    build_servers = runtime.build_servers

    def cyclic_run(context):
        output = {"hotel": "loop"}
        output["self"] = output
        return output

    def servers(scenario, mode):
        return [
            dataclasses.replace(t, run=cyclic_run) if s.stage_id == "hotel" else t
            for s, t in zip(scenario.stages, build_servers(scenario, mode))
        ]

    monkeypatch.setattr(runtime, "build_servers", servers)
    trace = run_traditional(travel_scenario, 0)
    failed = {e.payload["stage"]: e.payload["reason"] for e in events_of(trace, "stage_failed")}
    assert list(failed) == ["hotel"]
    assert failed["hotel"].startswith("RecursionError")
    assert trace.events[-1].payload["completed"] is False
    assert compute_metrics(parse_trace(serialize_trace(trace))) == compute_metrics(trace)


@pytest.mark.parametrize("mode", [MODE_TRADITIONAL, MODE_CA])
def test_crashing_schedule_tool_becomes_stage_failed(wedding_scenario, mode):
    tables = json.loads(json.dumps(wedding_scenario.data_tables))
    tables["guests"][0]["ready_time_min"] = "soon"
    broken = dataclasses.replace(wedding_scenario, data_tables=tables)
    trace = run(broken, mode, 0)
    failed = {e.payload["stage"]: e.payload["reason"] for e in events_of(trace, "stage_failed")}
    assert list(failed) == ["schedule"]
    assert failed["schedule"].startswith("TypeError")
    assert trace.events[-1].payload["completed"] is False
    assert compute_metrics(parse_trace(serialize_trace(trace))) == compute_metrics(trace)


def _schedule_calls(monkeypatch, calls):
    """Make the traditional schedule tool report *calls* for its output."""
    build_servers = runtime.build_servers

    def servers(scenario, mode):
        return [
            dataclasses.replace(t, calls=lambda output: calls) if s.stage_id == "schedule" else t
            for s, t in zip(scenario.stages, build_servers(scenario, mode))
        ]

    monkeypatch.setattr(runtime, "build_servers", servers)


@pytest.mark.parametrize(
    "calls", [[{"request": "a"}, {"request": {1, 2}}], [{1: "x"}, {1: "y"}]], ids=["set", "int-key"]
)
def test_tool_calls_with_no_json_text_fail_only_their_stage(wedding_scenario, monkeypatch, calls):
    """A call after the first is encoded while its stage runs: one with no
    JSON text fails the stage, which records only the plain tool_exec a
    crash leaves, and the run goes on."""
    _schedule_calls(monkeypatch, calls)
    trace = run_traditional(wedding_scenario, 0)
    failed = {e.payload["stage"]: e.payload["reason"] for e in events_of(trace, "stage_failed")}
    assert list(failed) == ["schedule"]
    assert failed["schedule"].startswith("TypeError")
    schedule_calls = [e.payload for e in events_of(trace, "tool_exec") if e.payload["stage"] == "schedule"]
    latency = wedding_scenario.cost_model.per_tool_latency_s
    assert schedule_calls == [{"server": "transport", "stage": "schedule", "latency_s": latency}]
    assert compute_metrics(parse_trace(serialize_trace(trace))) == compute_metrics(trace)


def test_a_first_call_with_no_json_text_fails_only_serialization(wedding_scenario, monkeypatch):
    """A stage's first call is encoded only when the trace is written, as
    every event without a prebuilt line is, so the run completes and writing
    its trace raises."""
    _schedule_calls(monkeypatch, [{1: "x"}])
    trace = run_traditional(wedding_scenario, 0)
    assert trace.events[-1].payload["completed"] is True
    with pytest.raises(TypeError):
        serialize_trace(trace)


# -- Serialization and parsing -------------------------------------------------------------------


def _renumber(lines: list[str]) -> list[str]:
    out = []
    for i, line in enumerate(lines, start=1):
        record = json.loads(line)
        record["t"] = i
        out.append(json.dumps(record, separators=(",", ":"), sort_keys=False))
    return out


def _edit_payload(kind: str, field: str, value=None):
    """Mangler for the first event of ``kind``: drop ``field`` from its
    payload, or set it to ``value`` when one is given."""

    def mangle(lines: list[str]) -> list[str]:
        records = [json.loads(line) for line in lines]
        payload = next(r for r in records if r["kind"] == kind)["payload"]
        if value is None:
            del payload[field]
        else:
            payload[field] = value
        return [json.dumps(r, separators=(",", ":")) for r in records]

    return mangle


def _edit_schedule(edit):
    """Mangler for the wedding CA trace: apply ``edit`` to the outputs of the
    stage_done event that carries the schedule (line 34)."""

    def mangle(lines: list[str]) -> list[str]:
        records = [json.loads(line) for line in lines]
        done = [r for r in records if r["kind"] == "stage_done"]
        edit(next(r for r in done if "schedule" in r["payload"]["outputs"])["payload"]["outputs"])
        return [json.dumps(r, separators=(",", ":")) for r in records]

    mangle.scenario = "wedding"
    return mangle


def _edit_text(index: int, old: str, new: str):
    """Mangler that replaces ``old`` with ``new`` in the raw text of line
    ``index``, for edits a JSON encoder cannot write, such as ``1e400``."""

    def mangle(lines: list[str]) -> list[str]:
        assert old in lines[index]
        lines = list(lines)
        lines[index] = lines[index].replace(old, new)
        return lines

    return mangle


def _edit_travel_constraints(edit):
    """Mangler for the travel CA trace: apply ``edit`` to the constraints of
    its run_start (line 1)."""

    def mangle(lines: list[str]) -> list[str]:
        records = [json.loads(line) for line in lines]
        edit(records[0]["payload"]["constraints"])
        return [json.dumps(r, separators=(",", ":")) for r in records]

    return mangle


def _edit_wedding_constraints(edit):
    """Mangler for the wedding CA trace: apply ``edit`` to the constraints of
    its run_start (line 1)."""

    def mangle(lines: list[str]) -> list[str]:
        records = [json.loads(line) for line in lines]
        edit(records[0]["payload"]["constraints"])
        return [json.dumps(r, separators=(",", ":")) for r in records]

    mangle.scenario = "wedding"
    return mangle


@given(
    st.lists(
        st.tuples(
            st.sampled_from(EVENT_KINDS),
            st.dictionaries(st.text(max_size=6), json_values, max_size=4),
        ),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=300)
def test_serialize_trace_equals_dumping_the_field_ordered_dicts(events):
    trace = Trace(
        events=[TraceEvent(t, kind, payload) for t, (kind, payload) in enumerate(events, 1)],
    )
    records = [
        {"t": t, "kind": kind, "payload": canonicalize_value(payload)}
        for t, (kind, payload) in enumerate(events, 1)
    ]
    expected = "\n".join(json.dumps(r, separators=(",", ":"), allow_nan=False) for r in records)
    assert serialize_trace(trace) == expected + "\n"


def test_write_read_round_trip(tmp_path, wedding_scenario):
    trace = run_context_aware(wedding_scenario, 2)
    path = tmp_path / "trace.jsonl"
    write_trace(trace, path)
    loaded = read_trace(path)
    assert loaded.mode == trace.mode
    assert loaded.seed == trace.seed
    assert loaded.simulated_latency_s == trace.simulated_latency_s
    assert serialize_trace(loaded) == serialize_trace(trace)


# -- Prebuilt lines ------------------------------------------------------------------------


def _encoded_line(event: TraceEvent) -> str:
    """An event's line from a fresh ``json.dumps`` of its payload."""
    payload = json.dumps(event.payload, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return f'{{"t":{event.t},"kind":{json.dumps(event.kind)},"payload":{payload}}}'


# Text that needs escaping, or reads as a format directive or a line break.
_awkward_text = st.text(
    alphabet=st.sampled_from(list('az"\\%/\n\t\x00\x7fé☃\U0001f600')), min_size=1, max_size=6
)
_stored_values = st.one_of(
    json_values,
    _awkward_text,
    st.lists(json_values, max_size=3).map(tuple),
    st.dictionaries(_awkward_text, st.tuples(st.just(1), st.just(1.0)), max_size=2),
    st.sampled_from([1, 1.0, -0.0, 1e300, [1, 1.0], {"n": 1.0, "%s": "%d\n"}]),
)


@given(commits=st.lists(st.tuples(_awkward_text, _stored_values, _awkward_text), min_size=1, max_size=6))
@settings(max_examples=300)
def test_prebuilt_lines_equal_encoding_their_payload(travel_scenario, commits):
    """Commit through a store with the trace listener and record each entry
    as a finished stage: every line the builder assembled from entry texts
    is the line a full encoding of its event gives."""
    builder = TraceBuilder(MODE_CA, 0, travel_scenario)
    store = ContextStore()
    store.add_commit_listener(builder.scs_listener(commits[-1][0]))
    for key, value, writer in commits:
        store.put(key, value, writer)
        entry = store.get(key)
        builder.stage_done(key, entry.value, entry.text)
    builder.run_end(True)
    trace = builder.build()
    prebuilt = [e for e in trace.events if e.line is not None]
    assert [e.kind for e in prebuilt] == ["scs_write", "stage_done"] * len(commits)
    for event in prebuilt:
        assert event.line == _encoded_line(event)
        envelope = event.payload.get("envelope")
        if envelope is not None:
            assert encode(decode(envelope)) == envelope
    assert serialize_trace(trace) == "".join(_encoded_line(e) + "\n" for e in trace.events)


# Field names that sort before, between and after the fixed ones (latency_s,
# server, stage), two of the fixed names themselves, and awkward text.
_call_names = st.one_of(
    st.sampled_from(["a", "latency_s", "request", "server", "sl", "stage", "z", "é", '"q"', "%s"]),
    _awkward_text,
)
_call_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False),
    _awkward_text,
    st.sampled_from([1.0, -0.0, 1e300, 10**30, [], [1, "é"], {"n": [1, {"%d": "\n"}], "a": None}]),
)


@st.composite
def _call_lists(draw):
    """Calls of a few shapes in one list, so that runs of calls with the
    same field names, in either order, meet calls of other shapes."""
    shapes = draw(st.lists(st.lists(_call_names, unique=True, max_size=3), min_size=1, max_size=3))
    calls = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        names = draw(st.permutations(draw(st.sampled_from(shapes))))
        calls.append({name: draw(_call_values) for name in names})
    return calls


@given(
    server=_awkward_text,
    stage=_awkward_text,
    latency=st.sampled_from([0, 0.4, 1e-7, 3, 1e300]),
    calls=_call_lists(),
)
@settings(max_examples=300)
def test_tool_exec_lines_equal_encoding_their_payload(
    travel_scenario, server, stage, latency, calls
):
    """Each tool_exec the builder records for a list of calls carries the
    payload a call always had, the fixed fields updated by the call's own.
    A call with the previous call's field names carries the line a full
    encoding of that payload gives; any other call carries none."""
    scenario = dataclasses.replace(travel_scenario, cost_model=CostModel(6.0, latency))
    builder = TraceBuilder(MODE_TRADITIONAL, 0, scenario)
    builder.tool_exec(server, stage, calls)
    builder.run_end(False)
    events = builder.build().events[:-1]
    assert len(events) == len(calls)
    previous = None
    for t, (event, extra) in enumerate(zip(events, calls), start=1):
        payload = {"server": server, "stage": stage, "latency_s": latency}
        payload.update(extra)
        assert (event.t, event.kind, event.payload) == (t, "tool_exec", payload)
        line = runtime._line(t, "tool_exec", store.canonical_dumps(payload))
        assert event.line == (line if extra.keys() == previous else None)
        assert _encoded_line(event) == line
        previous = extra.keys()


def test_entries_and_events_are_read_only_records():
    """Store entries and trace events are read-only tuples with no
    per-instance dict; an event's prebuilt line is left out of its equality
    and its repr."""
    context = ContextStore()
    context.put("k", {"a": [1]}, "w")
    entry = context.get("k")
    event = TraceEvent(1, "run_start", {"mode": "x"}, '{"t":1}')
    assert store.ContextEntry._fields == (
        "key", "value", "version", "writer_id", "logical_time", "text"
    )
    assert entry == ("k", {"a": [1]}, 1, "w", 1, '{"a":[1]}')
    for record in (entry, event):
        assert not hasattr(record, "__dict__")
        for name in (*record._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
    plain = TraceEvent(1, "run_start", {"mode": "x"})
    assert event == plain and not event != plain
    assert event != TraceEvent(1, "run_start", {"mode": "y"}, '{"t":1}')
    assert repr(event) == repr(plain) == "TraceEvent(t=1, kind='run_start', payload={'mode': 'x'})"


@pytest.mark.parametrize("mode", [MODE_TRADITIONAL, MODE_CA])
@pytest.mark.parametrize("which", ["travel", "wedding_p5", 1, 2, 3, 4, 5])
def test_every_line_of_a_run_equals_encoding_its_event(
    travel_scenario, wedding_scenario, which, mode
):
    """Both shipped scenarios, and five generated wedding scenarios: each
    serialized line, prebuilt or not, is the full encoding of its event;
    every value-carrying line (scs_write, stage_done) was prebuilt, and so
    was each tool_exec that follows another, such as a wedding trip's."""
    if isinstance(which, int):
        scenario = generated_wedding(which)
    else:
        scenario = scenario_by_name(which, travel_scenario, wedding_scenario)
    trace = run(scenario, mode, 0)
    assert serialize_trace(trace).splitlines() == [_encoded_line(e) for e in trace.events]
    previous = None
    for event in trace.events:
        follows_a_call = event.kind == previous == "tool_exec"
        assert (event.line is not None) == (event.kind in ("scs_write", "stage_done") or follows_a_call)
        previous = event.kind


@pytest.mark.parametrize(
    "mangle, line_no, message",
    [
        (lambda lines: ["nonsense"] + lines[1:], 1, "not valid JSON"),
        (lambda lines: [lines[1]] + lines[1:], 1, "logical time"),
        (lambda lines: [], 1, "empty trace"),
        (lambda lines: _renumber(lines[1:]), 1, "first event must be run_start"),
        (lambda lines: lines[:-1], None, "last event must be run_end"),
        (
            lambda lines: [lines[0].replace("run_start", "lift_off")] + lines[1:],
            1,
            "unknown event kind",
        ),
        (
            lambda lines: [lines[0], lines[0].replace('"t":1', '"t":2')] + lines[2:],
            2,
            "run_start may only appear at the boundary",
        ),
        pytest.param(
            _edit_payload("stage_done", "stage"), 14, "stage_done payload missing 'stage'",
            id="stage-done-no-stage",
        ),
        pytest.param(
            _edit_payload("stage_done", "outputs"), 14, "stage_done payload missing 'outputs'",
            id="stage-done-no-outputs",
        ),
        pytest.param(
            _edit_payload("stage_done", "stage", ["location"]), 14,
            "stage_done payload 'stage' must be text", id="stage-done-stage-list",
        ),
        pytest.param(
            _edit_payload("run_start", "stage_ids"), 1, "run_start payload missing 'stage_ids'",
            id="run-start-no-stage-ids",
        ),
        pytest.param(
            _edit_payload("run_start", "constraints", []), 1,
            "run_start payload 'constraints' must be an object", id="run-start-constraints-list",
        ),
        pytest.param(
            _edit_payload("run_end", "simulated_latency_s"), 32,
            "run_end payload missing 'simulated_latency_s'", id="run-end-no-latency",
        ),
        pytest.param(
            _edit_payload("run_start", "stage_ids", [["location"]]), 1,
            "run_start payload 'stage_ids' must hold only text", id="run-start-stage-id-list",
        ),
        pytest.param(
            _edit_schedule(lambda o: o["schedule"].pop("trips")), 34,
            "stage_done outputs.schedule missing 'trips'", id="schedule-no-trips",
        ),
        pytest.param(
            _edit_schedule(lambda o: o["schedule"]["trips"][0].update(requests="x")), 34,
            re.escape("outputs.schedule.trips[0] 'requests' must be a list"),
            id="schedule-requests-text",
        ),
        pytest.param(
            _edit_schedule(lambda o: o.update(schedule=[])), 34,
            "stage_done outputs.schedule must be an object", id="schedule-list",
        ),
        pytest.param(
            _edit_schedule(lambda o: o["schedule"].update(makespan_min="180")), 34,
            "outputs.schedule 'makespan_min' must be an integer", id="schedule-makespan-text",
        ),
        pytest.param(
            _edit_schedule(lambda o: o["schedule"]["trips"].insert(1, [])), 34,
            re.escape("outputs.schedule.trips[1] must be an object"), id="schedule-trip-list",
        ),
        pytest.param(
            _edit_schedule(lambda o: o["schedule"]["trips"][2].update(start_min=True)), 34,
            re.escape("outputs.schedule.trips[2] 'start_min' must be an integer"),
            id="schedule-start-bool",
        ),
        pytest.param(
            _edit_schedule(lambda o: o["schedule"]["trips"][0].pop("trip_id")), 34,
            re.escape("outputs.schedule.trips[0] missing 'trip_id'"), id="schedule-no-trip-id",
        ),
        pytest.param(
            _edit_schedule(lambda o: o["schedule"]["trips"][1]["requests"].append(7)), 34,
            re.escape("outputs.schedule.trips[1].requests[2] must be an object"),
            id="schedule-request-number",
        ),
        pytest.param(
            _edit_schedule(lambda o: o["schedule"]["trips"][1]["requests"][0].pop("source")), 34,
            re.escape("outputs.schedule.trips[1].requests[0] missing 'source'"),
            id="schedule-request-no-source",
        ),
        pytest.param(
            _edit_schedule(
                lambda o: o["schedule"]["trips"][0]["requests"][1].update(ready_time_min="soon")
            ),
            34,
            re.escape("outputs.schedule.trips[0].requests[1] 'ready_time_min' must be an integer"),
            id="schedule-ready-text",
        ),
        pytest.param(
            _edit_wedding_constraints(lambda c: c.update(vehicle_capacity="two")), 1,
            re.escape("run_start payload 'constraints.vehicle_capacity' must be an integer"),
            id="run-start-capacity-text",
        ),
        pytest.param(
            _edit_wedding_constraints(lambda c: c.pop("vehicle_capacity")), 1,
            re.escape("run_start payload missing 'constraints.vehicle_capacity'"),
            id="run-start-capacity-missing",
        ),
        pytest.param(
            _edit_wedding_constraints(lambda c: c.update(deadline_min="soon")), 1,
            re.escape("run_start payload 'constraints.deadline_min' must be null or an integer"),
            id="run-start-deadline-text",
        ),
        pytest.param(
            lambda lines: [lines[0].replace('"t":1,', '"t":true,', 1)] + lines[1:], 1,
            "logical time 't' must be the integer 1", id="t-bool",
        ),
        pytest.param(
            lambda lines: [lines[0].replace('"t":1,', '"t":1.0,', 1)] + lines[1:], 1,
            "logical time 't' must be the integer 1", id="t-float",
        ),
        pytest.param(
            _edit_payload("run_start", "seed", True), 1,
            "run_start payload 'seed' must be an integer", id="run-start-seed-bool",
        ),
        pytest.param(
            _edit_payload("run_end", "simulated_latency_s", True), 32,
            "run_end payload 'simulated_latency_s' must be a number", id="run-end-latency-bool",
        ),
        pytest.param(
            _edit_payload("run_end", "simulated_latency_s", float("nan")), 32,
            "not valid JSON: NaN is not a JSON value", id="run-end-latency-nan",
        ),
        pytest.param(
            _edit_payload("run_end", "simulated_latency_s", float("inf")), 32,
            "not valid JSON: Infinity is not a JSON value", id="run-end-latency-infinity",
        ),
        pytest.param(
            _edit_payload("tool_exec", "latency_s", float("-inf")), 11,
            "not valid JSON: -Infinity is not a JSON value", id="tool-exec-latency-minus-infinity",
        ),
        pytest.param(
            _edit_travel_constraints(lambda c: c.update(budget=True)), 1,
            re.escape("run_start payload 'constraints.budget' must be a number"),
            id="run-start-budget-bool",
        ),
        pytest.param(
            _edit_travel_constraints(lambda c: c.update(budget="1500")), 1,
            re.escape("run_start payload 'constraints.budget' must be a number"),
            id="run-start-budget-text",
        ),
        pytest.param(
            _edit_text(-1, '"simulated_latency_s":13.6}', '"simulated_latency_s":1e400}'), 32,
            "run_end payload 'simulated_latency_s' must be finite", id="run-end-latency-overflow",
        ),
        pytest.param(
            _edit_text(0, '"budget":1500', '"budget":1e400'), 1,
            re.escape("run_start payload 'constraints.budget' must be finite"),
            id="run-start-budget-overflow",
        ),
        pytest.param(
            _edit_text(0, '"budget":1500', '"budget":-1e400'), 1,
            re.escape("run_start payload 'constraints.budget' must be finite"),
            id="run-start-budget-minus-overflow",
        ),
        pytest.param(
            _edit_payload("run_start", "kind", "cooking"), 1,
            "run_start payload 'kind' must be 'travel' or 'wedding'", id="run-start-kind-unknown",
        ),
        pytest.param(
            lambda lines: [lines[0], *lines[1].split(",", 1), *lines[2:]], 2,
            "not valid JSON", id="line-split-at-comma",
        ),
        pytest.param(
            lambda lines: [lines[0], lines[1] + lines[2], *lines[3:]], 2,
            "not valid JSON", id="lines-joined",
        ),
        pytest.param(
            _edit_text(0, '"kind":"run_start"', '"kind":["run_start"]'), 1,
            re.escape("unknown event kind ['run_start']"), id="kind-list",
        ),
        pytest.param(
            _edit_schedule(lambda o: o["schedule"]["trips"][1].update(start_min="30")), 34,
            re.escape("outputs.schedule.trips[1] 'start_min' must be an integer"),
            id="schedule-start-text",
        ),
    ],
)
def test_parse_trace_rejects_corruption(
    travel_scenario, wedding_scenario, mangle, line_no, message
):
    wedding = getattr(mangle, "scenario", None) == "wedding"
    scenario = wedding_scenario if wedding else travel_scenario
    lines = serialize_trace(run_context_aware(scenario, 0)).splitlines()
    text = "\n".join(mangle(lines)) + "\n"
    with pytest.raises(MalformedTraceError, match=message) as info:
        parse_trace(text)
    if line_no is not None:
        assert info.value.line_no == line_no


def test_parse_trace_splits_lines_only_at_newline(travel_scenario):
    """JSON allows U+0085, U+2028 and U+2029 raw inside a string, so a line
    that holds them is one line, and a CRLF copy parses the same."""
    escaped = serialize_trace(run_context_aware(travel_scenario, 0)).replace(
        '"scenario":"travel"', '"scenario":"trip x\\u0085y\\u2028z\\u2029"', 1
    )
    raw = escaped.replace("\\u0085", "\x85").replace("\\u2028", "\u2028")
    raw = raw.replace("\\u2029", "\u2029")
    assert raw != escaped and raw.count("\n") == escaped.count("\n")
    expected = parse_trace(escaped)
    assert expected.events[0].payload["scenario"] == "trip x\x85y\u2028z\u2029"
    for text in (raw, raw.replace("\n", "\r\n")):
        parsed = parse_trace(text)
        assert parsed.events == expected.events
        assert compute_metrics(parsed) == compute_metrics(expected)


def _golden_travel_lines(golden_dir) -> list[str]:
    return (golden_dir / "trace_travel_ca.jsonl").read_text(encoding="utf-8").split("\n")


def _with_line_after_third(golden_dir, extra: str) -> list[str]:
    lines = _golden_travel_lines(golden_dir)
    return lines[:3] + [extra] + lines[3:]


def _with_fourth_line_padded(golden_dir, pad: str) -> list[str]:
    lines = _golden_travel_lines(golden_dir)
    return lines[:3] + [pad + lines[3] + pad] + lines[4:]


@pytest.mark.parametrize(
    "extra", ["\u2028", "\x0b", "\x1c", "\u3000"], ids=["U+2028", "U+000B", "U+001C", "U+3000"]
)
def test_a_line_of_other_unicode_space_is_not_blank(golden_dir, tmp_path, extra):
    """Only JSON whitespace makes a line blank. A line of any other space is
    a line that is not JSON, in parse_trace and in read_trace's line count."""
    lines = _with_line_after_third(golden_dir, extra)
    with pytest.raises(MalformedTraceError, match="not valid JSON") as info:
        parse_trace("\n".join(lines))
    assert info.value.line_no == 4
    path = tmp_path / "trace.jsonl"
    path.write_bytes("\n".join(lines[:4] + [""]).encode("utf-8") + b"\xff" + lines[4].encode("utf-8"))
    with pytest.raises(MalformedTraceError, match="not UTF-8") as info:
        read_trace(path)
    assert info.value.line_no == 5


@pytest.mark.parametrize(
    "edit",
    [
        lambda golden_dir: _with_line_after_third(golden_dir, " \t"),
        lambda golden_dir: _with_line_after_third(golden_dir, "\r"),
        lambda golden_dir: _with_fourth_line_padded(golden_dir, " \t\r"),
    ],
    ids=["space-tab", "CR", "padded"],
)
def test_a_line_of_json_whitespace_is_skipped(golden_dir, edit):
    golden = parse_trace((golden_dir / "trace_travel_ca.jsonl").read_text(encoding="utf-8"))
    parsed = parse_trace("\n".join(edit(golden_dir)))
    assert len(parsed.events) == 32
    assert parsed.events == golden.events


@pytest.mark.parametrize("end", ["\r\n", " \t\n"], ids=["CRLF", "trailing-space-tab"])
def test_an_object_line_with_trailing_json_whitespace_is_scanned_not_decoded(
    golden_dir, monkeypatch, end
):
    """JSON whitespace after a line's object is accepted where the object
    is scanned, so a CRLF trace costs one scan per line, as an LF one does."""
    decoded = []

    class CountingDecoder(json.JSONDecoder):
        def decode(self, s, *args, **kwargs):
            decoded.append(s)
            return super().decode(s, *args, **kwargs)

    text = (golden_dir / "trace_travel_ca.jsonl").read_text(encoding="utf-8")
    golden = parse_trace(text)
    monkeypatch.setattr(
        runtime, "_TRACE_DECODER", CountingDecoder(parse_constant=runtime._reject_constant)
    )
    assert parse_trace(text.replace("\n", end)).events == golden.events
    assert decoded == []


# The parser as it was before a line holding one object was scanned directly,
# copied verbatim: it decodes each line on its own, and parse_trace must
# accept what it accepts, with equal events, and reject what it rejects,
# naming the same line and reason.
def _reference_parse_trace(text: str) -> Trace:
    """Strict parse of a serialized trace; raises :class:`MalformedTraceError`
    naming the offending line. Only "\\n" ends a line: JSON allows U+0085,
    U+2028 and U+2029 raw in a string, and a trailing "\\r" is whitespace. A
    line is blank, and skipped, when it holds only JSON whitespace."""
    events: list[TraceEvent] = []
    line_no = 0
    for raw in text.split("\n"):
        if not raw.strip(_JSON_SPACE):
            continue
        line_no += 1
        try:
            record = _TRACE_DECODER.decode(raw)
        except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
            raise MalformedTraceError(line_no, f"not valid JSON: {exc}") from exc
        if not isinstance(record, dict) or record.keys() != _RECORD_KEYS:
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
            row = KINDS.get(payload["kind"])
            if row is None:
                known = " or ".join(map(repr, KINDS))
                raise MalformedTraceError(line_no, f"run_start payload 'kind' must be {known}")
            _check_fields(
                line_no, "run_start payload", "constraints.", payload["constraints"], row.scored
            )
        if kind == STAGE_DONE and payload["outputs"].get("schedule") is not None:
            _reference_check_schedule(line_no, payload["outputs"]["schedule"])
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
    return Trace(events)


def _reference_check_schedule(line_no: int, schedule) -> None:
    """Check, in place, the shape of a wedding schedule that the scoring
    reads; raise :class:`MalformedTraceError` naming the first bad field.
    Parsed JSON holds exact types, so ``type(v) is int`` also rules out
    booleans."""
    where = "stage_done outputs.schedule"
    if type(schedule) is not dict:
        raise MalformedTraceError(line_no, f"{where} must be an object")
    if type(schedule.get("makespan_min")) is not int:
        raise _reference_field_error(line_no, where, schedule, "makespan_min", "an integer")
    trips = schedule.get("trips")
    if type(trips) is not list:
        raise _reference_field_error(line_no, where, schedule, "trips", "a list")
    for i, trip in enumerate(trips):
        if type(trip) is not dict:
            raise MalformedTraceError(line_no, f"{where}.trips[{i}] must be an object")
        for name in _TRIP_INTS:
            if type(trip.get(name)) is not int:
                raise _reference_field_error(line_no, f"{where}.trips[{i}]", trip, name, "an integer")
        requests = trip.get("requests")
        if type(requests) is not list:
            raise _reference_field_error(line_no, f"{where}.trips[{i}]", trip, "requests", "a list")
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


def _reference_field_error(line_no: int, where: str, obj: dict, name: str, description: str):
    if name not in obj:
        return MalformedTraceError(line_no, f"{where} missing {name!r}")
    return MalformedTraceError(line_no, f"{where} {name!r} must be {description}")


_EDIT_CHARS = ["\n", "\r", " ", "\t", ",", "{", "}", "[", "]", '"', "\\", "1"]


@pytest.fixture(scope="module")
def replay_texts(golden_dir, travel_scenario, wedding_scenario):
    """The golden traces, also with CRLF line ends, and both modes' seed-0
    traces of both shipped scenarios; the traditional wedding run's schedule
    has one request per trip."""
    texts = [(golden_dir / name).read_text(encoding="utf-8") for name in (
        "trace_travel_ca.jsonl", "trace_wedding_ca.jsonl"
    )]
    texts += [text.replace("\n", "\r\n") for text in texts]
    for scenario in (travel_scenario, wedding_scenario):
        texts += [serialize_trace(run(scenario, mode, 0)) for mode in (MODE_TRADITIONAL, MODE_CA)]
    return texts


def _parse_outcome(parse, text: str):
    try:
        return [event[:3] for event in parse(text).events]
    except MalformedTraceError as exc:
        return exc.line_no, exc.reason


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_parse_trace_agrees_with_the_reference_parser(replay_texts, data):
    """One to three edits, each inserting or deleting one character that
    matters to JSON or to line splitting, anywhere in a trace."""
    text = data.draw(st.sampled_from(replay_texts), label="trace")
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        char = data.draw(st.sampled_from(_EDIT_CHARS), label="char")
        at = [i for i, c in enumerate(text) if c == char]
        if at and data.draw(st.booleans(), label="delete"):
            i = data.draw(st.sampled_from(at), label="at")
            text = text[:i] + text[i + 1:]
        else:
            i = data.draw(st.integers(0, len(text)), label="at")
            text = text[:i] + char + text[i:]
    assert _parse_outcome(parse_trace, text) == _parse_outcome(_reference_parse_trace, text)


def test_parse_trace_requires_metric_fields(travel_scenario):
    lines = serialize_trace(run_context_aware(travel_scenario, 0)).splitlines()
    start = json.loads(lines[0])
    del start["payload"]["mode"]
    bad = "\n".join([json.dumps(start, separators=(",", ":"))] + lines[1:])
    with pytest.raises(MalformedTraceError, match="missing 'mode'"):
        parse_trace(bad)
