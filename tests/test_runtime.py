"""End-to-end runs: trace shape, call counts, determinism, protocol embedding."""
import dataclasses
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camcp import runtime, scenarios, store
from camcp.bench import compute_metrics
from camcp.planner import MockPlanner, PlanBlueprint
from camcp.protocol import decode, encode, validate_sequence
from camcp.runtime import (
    EVENT_KINDS,
    MalformedTraceError,
    Trace,
    TraceBuilder,
    TraceEvent,
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
from camcp.scenarios import MODE_CA, MODE_TRADITIONAL, WindowConfig
from camcp.store import ContextStore, canonicalize_value
from strategies import generated_wedding, json_values

ALL = [("travel", MODE_TRADITIONAL), ("travel", MODE_CA), ("wedding_p5", MODE_TRADITIONAL), ("wedding_p5", MODE_CA)]


def scenario_by_name(name, travel, wedding):
    return travel if name == "travel" else wedding


@pytest.fixture()
def windowed_travel(travel_scenario):
    def make(budget: int):
        return dataclasses.replace(
            travel_scenario, window=WindowConfig(True, budget)
        )

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


def test_run_dispatcher_accepts_aliases_and_rejects_unknown(travel_scenario):
    assert run(travel_scenario, "ca", 0).mode == MODE_CA
    assert run(travel_scenario, MODE_TRADITIONAL, 0).mode == MODE_TRADITIONAL
    with pytest.raises(ValueError):
        run(travel_scenario, "hybrid", 0)


# -- Call counts and latency ---------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 17])
def test_travel_call_counts(travel_scenario, seed):
    traditional = run_traditional(travel_scenario, seed)
    aware = run_context_aware(travel_scenario, seed)
    assert traditional.llm_call_count() == 5
    assert aware.llm_call_count() == 2
    assert [e.payload["role"] for e in aware.events_of("llm_call")] == ["plan", "summarize"]
    assert [e.payload["role"] for e in traditional.events_of("llm_call")] == [
        "step_decision"
    ] * 4 + ["summarize"]


@pytest.mark.parametrize("seed", [0, 5])
def test_wedding_call_counts(wedding_scenario, seed):
    traditional = run_traditional(wedding_scenario, seed)
    aware = run_context_aware(wedding_scenario, seed)
    assert traditional.llm_call_count() == 2
    assert aware.llm_call_count() == 1
    assert [e.payload["role"] for e in aware.events_of("llm_call")] == ["combined"]
    assert len(traditional.events_of("tool_exec")) == 13  # 2 trackers + 11 dispatches
    assert len(aware.events_of("tool_exec")) == 3


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
        llm = trace.events_of("llm_call")
        tools = trace.events_of("tool_exec")
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
    blueprint = PlanBlueprint(goals=(), constraints={}, stages=(), completion_key="done")
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
    assert query.params == travel_scenario.constraints
    assert "Seattle" in query.raw_text
    assert "$1500" in query.raw_text


def test_query_variations_stay_inside_tables(travel_scenario):
    destinations = set(travel_scenario.data_tables["destinations"])
    seen = set()
    for seed in range(1, 60):
        params = query_for_seed(travel_scenario, seed).params
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
    failed = trace.events_of("stage_failed")
    assert len(failed) == 1
    assert failed[0].payload["stage"] == "dining"
    assert "budget" in failed[0].payload["reason"]
    done = [e.payload["stage"] for e in trace.events_of("stage_done")]
    assert done == ["location", "weather", "hotel"]
    assert trace.events[-1].payload["completed"] is False
    assert trace.llm_call_count() == 5  # the orchestrator still pays every decision


@pytest.mark.parametrize("budget, expected_done", [(1, 0), (2, 0), (4, 4), (6, 4)])
def test_window_budget_thresholds(windowed_travel, budget, expected_done):
    trace = run_traditional(windowed_travel(budget), 0)
    assert len(trace.events_of("stage_done")) == expected_done


def test_context_aware_ignores_window(windowed_travel):
    trace = run_context_aware(windowed_travel(1), 0)
    assert len(trace.events_of("stage_done")) == 4
    assert trace.events[-1].payload["completed"] is True


@pytest.mark.parametrize("name", ["travel", "wedding_p5"])
def test_ca_run_out_of_steps_ends_incomplete(name, travel_scenario, wedding_scenario):
    scenario = dataclasses.replace(
        scenario_by_name(name, travel_scenario, wedding_scenario), max_steps=1
    )
    trace = run_context_aware(scenario, 0)
    assert trace.events[-1].payload["completed"] is False
    reasons = {e.payload["reason"] for e in trace.events_of("stage_failed")}
    assert reasons == {"not quiescent within 1 steps"}
    assert compute_metrics(parse_trace(serialize_trace(trace))) == compute_metrics(trace, scenario)


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
            commits = len(trace.events_of(runtime.SCS_WRITE))
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


def test_ca_run_spends_no_calls_between_seed_and_summary(travel_scenario):
    trace = run_context_aware(travel_scenario, 0)
    calls = [e.t for e in trace.events_of("llm_call")]
    assert len(calls) == 2
    between = [
        e.kind for e in trace.events if calls[0] < e.t < calls[1] and e.kind == "llm_call"
    ]
    assert between == []


# -- Context-aware run content ------------------------------------------------------------------


def test_ca_stage_done_outputs_are_scoped_to_own_stage(travel_scenario):
    trace = run_context_aware(travel_scenario, 0)
    for event in trace.events_of("stage_done"):
        assert list(event.payload["outputs"]) == [event.payload["stage"]]


def test_ca_trigger_fire_precedes_matching_tool_exec(travel_scenario):
    trace = run_context_aware(travel_scenario, 0)
    fires = trace.events_of("trigger_fire")
    assert len(fires) == 4
    for fire in fires:
        follower = trace.events[fire.t]  # trace.events is 0-indexed, t is 1-based
        assert follower.kind == "tool_exec"
        assert follower.payload["server"] == fire.payload["server"]


def test_wedding_ca_store_coordination(wedding_scenario):
    trace = run_context_aware(wedding_scenario, 0)
    writes = {e.payload["key"]: e.payload for e in trace.events_of("scs_write")}
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
    failed = {e.payload["stage"]: e.payload["reason"] for e in trace.events_of("stage_failed")}
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
    failed = {e.payload["stage"]: e.payload["reason"] for e in trace.events_of("stage_failed")}
    assert "hotel" in failed
    assert failed["hotel"].startswith("TypeError" if mode == MODE_CA else "ValueError")
    assert "hotel" not in {e.payload["stage"] for e in trace.events_of("stage_done")}
    assert trace.events[-1].payload["completed"] is False
    assert compute_metrics(parse_trace(serialize_trace(trace))) == compute_metrics(trace)


@pytest.mark.parametrize("mode", [MODE_TRADITIONAL, MODE_CA])
def test_crashing_schedule_tool_becomes_stage_failed(wedding_scenario, mode):
    tables = json.loads(json.dumps(wedding_scenario.data_tables))
    tables["guests"][0]["ready_time_min"] = "soon"
    broken = dataclasses.replace(wedding_scenario, data_tables=tables)
    trace = run(broken, mode, 0)
    failed = {e.payload["stage"]: e.payload["reason"] for e in trace.events_of("stage_failed")}
    assert list(failed) == ["schedule"]
    assert failed["schedule"].startswith("TypeError")
    assert trace.events[-1].payload["completed"] is False
    assert compute_metrics(parse_trace(serialize_trace(trace))) == compute_metrics(trace)


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
        mode=MODE_CA,
        seed=0,
        simulated_latency_s=0.0,
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


@pytest.mark.parametrize("mode", [MODE_TRADITIONAL, MODE_CA])
@pytest.mark.parametrize("which", ["travel", "wedding_p5", 1, 2, 3, 4, 5])
def test_every_line_of_a_run_equals_encoding_its_event(
    travel_scenario, wedding_scenario, which, mode
):
    """Both shipped scenarios, and five generated wedding scenarios: each
    serialized line, prebuilt or not, is the full encoding of its event, and
    every value-carrying line (scs_write, stage_done) was prebuilt."""
    if isinstance(which, int):
        scenario = generated_wedding(which)
    else:
        scenario = scenario_by_name(which, travel_scenario, wedding_scenario)
    trace = run(scenario, mode, 0)
    assert serialize_trace(trace).splitlines() == [_encoded_line(e) for e in trace.events]
    for event in trace.events:
        assert (event.line is not None) == (event.kind in ("scs_write", "stage_done"))


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


def test_trace_kinds_are_the_loaders_kinds():
    """parse_trace checks the scored constraints of each kind the loader
    accepts, and rejects any other kind."""
    assert set(runtime._CONSTRAINT_FIELDS) == set(scenarios._WIRING)


def test_parse_trace_requires_metric_fields(travel_scenario):
    lines = serialize_trace(run_context_aware(travel_scenario, 0)).splitlines()
    start = json.loads(lines[0])
    del start["payload"]["mode"]
    bad = "\n".join([json.dumps(start, separators=(",", ":"))] + lines[1:])
    with pytest.raises(MalformedTraceError, match="missing 'mode'"):
        parse_trace(bad)
