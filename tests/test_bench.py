"""Metric extraction, paired statistics, benchmark sweeps, and the CLI."""
import csv
import functools
import importlib.util
import json
import subprocess
import sys
from dataclasses import asdict
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from camcp import cli
from camcp.bench import (
    CSV_COLUMNS,
    InsufficientDataError,
    RunMetrics,
    compute_metrics,
    paired_stats,
    replay,
    run_bench,
)
from camcp.cli import EXIT_OK, EXIT_RUN_FAILURE, EXIT_USAGE, main
from camcp.runtime import (
    LLM_CALL,
    MalformedTraceError,
    Trace,
    TraceEvent,
    parse_trace,
    read_trace,
    run,
    serialize_trace,
    write_trace,
)
from camcp.scenarios import (
    MODE_CA,
    MODE_TRADITIONAL,
    MODES,
    ScenarioParseError,
    ScenarioValidationError,
    scenario_from_value,
)

from oracles import paired_recompute
from strategies import generated_wedding


# -- compute_metrics ------------------------------------------------------------


def test_travel_metrics_both_modes(travel_scenario):
    traditional = compute_metrics(run(travel_scenario, MODE_TRADITIONAL, 0), travel_scenario)
    aware = compute_metrics(run(travel_scenario, MODE_CA, 0), travel_scenario)
    assert (traditional.llm_calls, aware.llm_calls) == (5, 2)
    assert (traditional.simulated_latency_s, aware.simulated_latency_s) == (31.6, 13.6)
    for metrics in (traditional, aware):
        assert metrics.completeness == 1.0
        assert metrics.goal_satisfaction == 1.0
        assert metrics.constraint_satisfaction == 1.0
        assert metrics.makespan_min is None
        assert metrics.coordination is None


def test_wedding_metrics_both_modes(wedding_scenario):
    traditional = compute_metrics(run(wedding_scenario, MODE_TRADITIONAL, 0), wedding_scenario)
    aware = compute_metrics(run(wedding_scenario, MODE_CA, 0), wedding_scenario)
    assert (traditional.llm_calls, aware.llm_calls) == (2, 1)
    assert (traditional.simulated_latency_s, aware.simulated_latency_s) == (17.2, 7.2)
    assert (traditional.makespan_min, aware.makespan_min) == (330, 180)
    assert (traditional.coordination, aware.coordination) == (0, 1)
    for metrics in (traditional, aware):
        assert metrics.completeness == 1.0
        assert metrics.goal_satisfaction == 1.0
        assert metrics.constraint_satisfaction == 1.0


def test_metrics_match_frozen_golden_json(travel_scenario, wedding_scenario, golden_dir):
    for scenario, name in ((travel_scenario, "travel"), (wedding_scenario, "wedding")):
        live = compute_metrics(run(scenario, MODE_CA, 0), scenario)
        frozen = json.loads((golden_dir / f"metrics_{name}_ca.json").read_text())
        assert asdict(live) == frozen


def test_replay_of_golden_trace_equals_live_metrics(travel_scenario, wedding_scenario, golden_dir):
    for scenario, name in ((travel_scenario, "travel"), (wedding_scenario, "wedding")):
        live = compute_metrics(run(scenario, MODE_CA, 0), scenario)
        assert replay(golden_dir / f"trace_{name}_ca.jsonl") == live


def test_replay_purity_round_trip(tmp_path, wedding_scenario):
    trace = run(wedding_scenario, MODE_TRADITIONAL, 7)
    path = tmp_path / "w.jsonl"
    write_trace(trace, path)
    assert replay(path) == compute_metrics(trace)


def test_compute_metrics_rejects_cross_scenario_check(travel_scenario, wedding_scenario):
    trace = run(travel_scenario, MODE_CA, 0)
    with pytest.raises(ValueError, match="travel"):
        compute_metrics(trace, wedding_scenario)


# -- compute_metrics against the object-building reference -------------------------
#
# The wedding scoring once rebuilt trip and request objects from the trace's
# schedule value before reading them; that version is kept here, with
# test-local tuples, for wedding traces, as the reference the one-pass scorer
# must agree with.


class _Request(NamedTuple):
    request_id: str
    origin: str
    destination: str
    ready_time_min: int
    source: str


class _Trip(NamedTuple):
    trip_id: int
    requests: tuple[_Request, ...]
    start_min: int
    duration_min: int


def _reference_trips(schedule) -> list[_Trip]:
    return [
        _Trip(
            trip_id=t["trip_id"],
            requests=tuple(_Request(*(r[f] for f in _Request._fields)) for r in t["requests"]),
            start_min=t["start_min"],
            duration_min=t["duration_min"],
        )
        for t in schedule["trips"]
    ]


def _reference_metrics(trace: Trace) -> RunMetrics:
    start = trace.events[0].payload
    assert start["kind"] == "wedding"
    stage_ids = list(start["stage_ids"])
    constraints = start["constraints"]
    done = {e.payload["stage"] for e in trace.events if e.kind == "stage_done"}
    outputs = {}
    for event in trace.events:
        if event.kind == "stage_done":
            outputs.update(event.payload.get("outputs", {}))
    goal = (
        sum(1 for sid in stage_ids if outputs.get(sid) is not None) / len(stage_ids)
        if stage_ids
        else 1.0
    )
    capacity = constraints.get("vehicle_capacity")
    deadline = constraints.get("deadline_min")
    makespan = coordination = None
    if outputs.get("schedule") is None:
        checks = [False, False] + ([False] if deadline is not None else [])
    else:
        trips = _reference_trips(outputs["schedule"])
        makespan = outputs["schedule"]["makespan_min"]
        checks = [
            all(len(t.requests) <= capacity for t in trips),
            all(r.ready_time_min <= t.start_min for t in trips for r in t.requests),
        ]
        if deadline is not None:
            checks.append(makespan <= deadline)
        coordination = 1 if any(len(t.requests) >= 2 for t in trips) else 0
    return RunMetrics(
        mode=trace.mode,
        seed=trace.seed,
        llm_calls=len(trace.events_of(LLM_CALL)),
        completeness=(
            sum(1 for sid in stage_ids if sid in done) / len(stage_ids) if stage_ids else 1.0
        ),
        simulated_latency_s=trace.simulated_latency_s,
        makespan_min=makespan,
        coordination=coordination,
        goal_satisfaction=goal,
        constraint_satisfaction=1.0 if all(checks) else sum(checks) / len(checks),
    )


_minutes = st.integers(min_value=0, max_value=600)
_requests = st.fixed_dictionaries(
    {
        "request_id": st.sampled_from(["g1", "g2", "e1"]),
        "origin": st.just("venue"),
        "destination": st.just("venue"),
        "ready_time_min": _minutes,
        "source": st.sampled_from(["arrival", "errand"]),
    }
)
_schedules = st.fixed_dictionaries(
    {
        "trips": st.lists(
            st.fixed_dictionaries(
                {
                    "trip_id": st.integers(min_value=1, max_value=50),
                    "start_min": _minutes,
                    "duration_min": st.integers(min_value=1, max_value=60),
                    "requests": st.lists(_requests, max_size=4),
                }
            ),
            max_size=5,
        ),
        "makespan_min": st.integers(min_value=0, max_value=1200),
    }
)
_wedding_constraints = st.fixed_dictionaries(
    {"vehicle_capacity": st.integers(min_value=1, max_value=5)},
    optional={"deadline_min": st.none() | st.integers(min_value=0, max_value=1200)},
)


@given(
    schedule=st.none() | _schedules,
    constraints=_wedding_constraints,
    stage_ids=st.lists(st.sampled_from(["arrivals", "errands", "schedule"]), max_size=3),
    llm_calls=st.integers(min_value=0, max_value=3),
)
def test_compute_metrics_matches_reference_on_schedule_values(
    schedule, constraints, stage_ids, llm_calls
):
    events = [
        ("run_start", {
            "mode": MODE_CA, "seed": 0, "kind": "wedding", "scenario": "generated",
            "stage_ids": stage_ids, "constraints": constraints,
        }),
        *[("llm_call", {"role": "combined"})] * llm_calls,
        ("stage_done", {"stage": "arrivals", "outputs": {"arrivals": {"count": 0}}}),
        ("stage_done", {"stage": "schedule", "outputs": {"schedule": schedule}}),
        ("run_end", {"simulated_latency_s": 1.5}),
    ]
    trace = Trace(
        events=[TraceEvent(t, kind, payload) for t, (kind, payload) in enumerate(events, 1)],
        mode=MODE_CA,
        seed=0,
        simulated_latency_s=1.5,
    )
    parsed = parse_trace(serialize_trace(trace))  # the values are shape-valid
    assert compute_metrics(parsed) == compute_metrics(trace) == _reference_metrics(trace)


@pytest.mark.parametrize("seed", [None, 1, 2, 3, 4, 5])
@pytest.mark.parametrize("mode", [MODE_TRADITIONAL, MODE_CA])
def test_compute_metrics_matches_reference_on_runs(wedding_scenario, seed, mode):
    scenario = wedding_scenario if seed is None else generated_wedding(seed)
    trace = run(scenario, mode, seed or 0)
    expected = _reference_metrics(trace)
    assert compute_metrics(trace, scenario) == expected
    assert compute_metrics(parse_trace(serialize_trace(trace))) == expected


# -- paired statistics -----------------------------------------------------------


# -- perf trajectory script ---------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent


def _load_trajectory_script():
    spec = importlib.util.spec_from_file_location(
        "bench_trajectory", ROOT / "scripts" / "bench_trajectory.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_run(pair: int, side: str, workload: str, trace: int = 0, **values) -> dict:
    units = {"op_ms_best": "ms", "peak_rss_mb": "MB", "op_ok_frac": "fraction"}
    return {
        "pair": pair, "workload": workload, "seed": pair, "trace": trace, "side": side,
        "result": {
            "correct": True,
            "metrics": {k: {"value": v, "unit": units.get(k, "us")} for k, v in values.items()},
        },
    }


def test_trajectory_prints_every_end_to_end_metric_and_marks_bound_breaches(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for pair, best in enumerate([10.0, 12.0, 11.0]):
        runs.append(
            _bench_run(pair, "parent", "w", op_ms_best=best, peak_rss_mb=100.0, op_ok_frac=1.0)
        )
        runs.append(
            _bench_run(pair, "change", "w", op_ms_best=best * 1.2, peak_rss_mb=115.0,
                       op_ok_frac=1.0 - 0.02 * (pair != 1))
        )
    # A traced run carries per-layer numbers only and is left out.
    runs.append(_bench_run(9, "change", "w", trace=1, op_ms_best=0.001))
    (tmp_path / "BENCH_12.json").write_text(json.dumps({"runs": runs}))
    (tmp_path / "BENCH_3.json").write_text(json.dumps({"runs": runs[:2]}))
    lines = _load_trajectory_script().trajectory(tmp_path)
    assert [line.split()[0] for line in lines] == ["BENCH_3.json"] * 3 + ["BENCH_12.json"] * 3
    by_metric = {line.split()[2]: line for line in lines[3:]}
    assert list(by_metric) == ["op_ms_best", "peak_rss_mb", "op_ok_frac"]
    # op_ms_best: median 11 -> 13.2, +20%, inside its 0.25 bound.
    assert "11 ->       13.2 ms" in by_metric["op_ms_best"]
    assert "(+20.0%, change better in 0/3 pairs)" in by_metric["op_ms_best"]
    assert "WORSE" not in by_metric["op_ms_best"]
    # peak_rss_mb: +15% against a 0.1 bound.
    assert by_metric["peak_rss_mb"].endswith("WORSE THAN BOUND 0.1")
    # op_ok_frac is better higher: a 2% fall breaches its 0.01 bound.
    assert by_metric["op_ok_frac"].endswith("WORSE THAN BOUND 0.01")


def test_trajectory_covers_every_committed_bench_file():
    metrics = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    lines = _load_trajectory_script().trajectory(ROOT)
    for path in ROOT.glob("BENCH_*.json"):
        workloads = {r["workload"] for r in json.loads(path.read_text())["runs"] if r["trace"] == 0}
        for workload in workloads:
            printed = [l.split()[2] for l in lines if l.split()[:2] == [path.name, workload]]
            assert printed == metrics, (path.name, workload)


def test_paired_stats_pinned_example():
    stats = paired_stats([1.0, 2.0, 3.0])
    assert stats.mean_diff == 2.0
    assert stats.sd_diff == 1.0
    assert stats.t_stat == pytest.approx(3.4641, abs=1e-4)
    assert stats.n == 3
    assert stats.degenerate is False
    mean, sd, t = paired_recompute([1, 2, 3])
    assert (stats.mean_diff, stats.sd_diff) == (mean, sd)
    assert stats.t_stat == pytest.approx(t, rel=1e-12)


def test_paired_stats_zero_variance_is_degenerate():
    stats = paired_stats([3.0, 3.0, 3.0, 3.0])
    assert stats.degenerate is True
    assert stats.t_stat is None
    assert stats.mean_diff == 3.0
    assert stats.sd_diff == 0.0


@pytest.mark.parametrize("diffs", [[], [5.0]])
def test_paired_stats_needs_two_samples(diffs):
    with pytest.raises(InsufficientDataError) as info:
        paired_stats(diffs)
    assert info.value.n == len(diffs)


@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False).map(
            lambda x: round(x, 6)
        ),
        min_size=2,
        max_size=40,
    )
)
def test_paired_stats_agrees_with_exact_arithmetic(diffs):
    stats = paired_stats(diffs)
    mean, sd, t = paired_recompute(diffs)
    assert stats.mean_diff == pytest.approx(mean, rel=1e-9, abs=1e-9)
    assert stats.sd_diff == pytest.approx(sd, rel=1e-9, abs=1e-9)
    if t is None:
        assert stats.degenerate and stats.t_stat is None
    else:
        assert stats.t_stat == pytest.approx(t, rel=1e-9, abs=1e-9)


# -- run_bench ----------------------------------------------------------------------


def test_bench_sweep_writes_csv_and_summary(tmp_path, travel_scenario):
    out_csv = tmp_path / "travel.csv"
    out_summary = tmp_path / "travel_summary.json"
    report = run_bench(travel_scenario, 3, out_csv=out_csv, out_summary=out_summary)
    assert report.errors == []
    assert len(report.rows) == 6  # 3 seeds x 2 modes

    with open(out_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == CSV_COLUMNS
    assert [(r["mode"], r["seed"]) for r in rows] == [
        (m, str(s)) for s in range(3) for m in (MODE_TRADITIONAL, MODE_CA)
    ]
    assert all(r["makespan_min"] == "" for r in rows)  # travel has no schedule

    summary = json.loads(out_summary.read_text())
    assert summary == report.summary
    assert summary["n_paired"] == 3
    assert "makespan_min" not in summary["metrics"]
    assert summary["latency_ratio"] == pytest.approx(0.43038, abs=1e-5)
    calls = summary["metrics"]["llm_calls"]
    assert calls["degenerate"] is True  # always 5 vs 2
    assert calls["mean_diff"] == 3.0
    assert calls["t_stat"] is None
    assert summary["means"][MODE_TRADITIONAL]["llm_calls"] == 5.0
    assert summary["means"][MODE_CA]["llm_calls"] == 2.0


def test_bench_single_seed_reports_insufficient_data(wedding_scenario):
    report = run_bench(wedding_scenario, 1)
    assert len(report.rows) == 2
    makespan = report.summary["metrics"]["makespan_min"]
    assert makespan["insufficient_data"] is True
    assert makespan["mean_diff"] == 150  # 330 - 180 for the lone pair
    assert report.summary["n_paired"] == 1


def test_bench_validates_n(travel_scenario):
    with pytest.raises(ValueError):
        run_bench(travel_scenario, 0)


# -- CLI ----------------------------------------------------------------------------


def test_cli_run_prints_metrics_and_writes_trace(tmp_path, capsys):
    trace_path = tmp_path / "out.jsonl"
    code = main(
        ["run", "--scenario", "travel", "--mode", "ca", "--seed", "0", "--trace", str(trace_path)]
    )
    assert code == EXIT_OK
    printed = json.loads(capsys.readouterr().out)
    assert printed["llm_calls"] == 2
    assert printed["mode"] == MODE_CA
    assert trace_path.exists()

    code = main(["replay", "--trace", str(trace_path)])
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out) == printed


def test_cli_unknown_scenario_is_usage_error(capsys):
    assert main(["run", "--scenario", "cruise", "--mode", "ca"]) == EXIT_USAGE
    assert "cruise" in capsys.readouterr().err


def test_cli_replay_malformed_trace_fails(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    assert main(["replay", "--trace", str(bad)]) == EXIT_RUN_FAILURE
    assert "trace line 1" in capsys.readouterr().err


def test_cli_replay_rejects_a_number_that_overflows(golden_dir, tmp_path, capsys):
    """``1e400`` decodes to a float infinity, which the scoring would print
    as ``Infinity``, not JSON; replay names the field and exits 1."""
    text = (golden_dir / "trace_travel_ca.jsonl").read_text()
    assert text.count('"simulated_latency_s":13.6}') == 1
    bad = tmp_path / "overflow.jsonl"
    bad.write_text(text.replace('"simulated_latency_s":13.6}', '"simulated_latency_s":1e400}'))
    assert main(["replay", "--trace", str(bad)]) == EXIT_RUN_FAILURE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: trace line 32: run_end payload 'simulated_latency_s' must be finite\n"


@pytest.mark.parametrize(
    "old, new",
    [
        ('"simulated_latency_s":13.6}', '"simulated_latency_s":' + "9" * 401 + "}"),
        ('"budget":1500', '"budget":1' + "0" * 400),
    ],
    ids=["run-end-latency", "run-start-budget"],
)
def test_cli_replay_prints_an_integer_of_any_length(golden_dir, tmp_path, capsys, old, new):
    """A 401-digit integer is finite, though it overflows a float: replay
    scores the trace, exits 0 and prints the integer as it is."""
    text = (golden_dir / "trace_travel_ca.jsonl").read_text()
    assert text.count(old) == 1
    path = tmp_path / "long.jsonl"
    path.write_text(text.replace(old, new))
    assert main(["replay", "--trace", str(path)]) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out)["simulated_latency_s"] == (10**401 - 1 if "latency" in old else 13.6)


def test_cli_replay_of_a_trace_that_is_not_utf8_names_the_line(golden_dir, tmp_path, capsys):
    """A byte that is not UTF-8 is a trace failure (exit 1) on the line that
    holds it, numbered as parse_trace numbers lines: blank lines do not count."""
    lines = (golden_dir / "trace_travel_ca.jsonl").read_bytes().splitlines(keepends=True)
    lines[4] = lines[4].replace(b'"kind"', b'"k\xffind"', 1)
    bad = tmp_path / "latin1.jsonl"
    bad.write_bytes(b"\n" + b"".join(lines))
    assert main(["replay", "--trace", str(bad)]) == EXIT_RUN_FAILURE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: trace line 5: not UTF-8 text: invalid start byte\n"


_DEEP = "[" * 100_000 + "]" * 100_000  # nested past the interpreter's recursion limit


def test_cli_replay_of_a_trace_nested_too_deeply_names_the_line(golden_dir, tmp_path, capsys):
    lines = (golden_dir / "trace_travel_ca.jsonl").read_text().splitlines()
    lines[2] = lines[2][:-2] + ',"deep":' + _DEEP + "}}"
    bad = tmp_path / "deep.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["replay", "--trace", str(bad)]) == EXIT_RUN_FAILURE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: trace line 3: not valid JSON: ") and err.count("\n") == 1


def test_cli_run_of_a_scenario_nested_too_deeply_names_the_file(tmp_path, capsys):
    value = _builtin_value("travel")
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(value)[:-1] + ',"notes":' + _DEEP + "}")
    assert main(["run", "--scenario", str(path), "--mode", "ca"]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: scenario file {path} is not valid JSON: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "content",
    [
        b'{"kind": "wedding", "max_steps": ' + b"7" * 5001 + b"}",
        b'{"kind": "travel", "name": "caf\xe9"}',
    ],
    ids=["integer-past-digit-limit", "not-utf8"],
)
def test_cli_run_of_an_undecodable_scenario_names_the_file(tmp_path, capsys, content):
    path = tmp_path / "scenario.json"
    path.write_bytes(content)
    assert main(["run", "--scenario", str(path), "--mode", "ca"]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: scenario file {path} is not ") and err.count("\n") == 1


_MUTANTS = [None, True, False, 0, 1, -1, 2.5, 10**20, "", "two", [], [1], {}, {"a": 1}]
_DELETE = object()


def _paths(value, path=()):
    """Every field of a decoded JSON value: object keys and list indices."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _mutated(lines: list[str], index: int, path: tuple, new) -> str:
    """The trace text with the field at ``path`` of line ``index`` set to
    ``new``, or deleted when ``new`` is ``_DELETE``."""
    record = json.loads(lines[index])
    parent = record
    for key in path[:-1]:
        parent = parent[key]
    if new is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    edited = lines[:index] + [json.dumps(record, separators=(",", ":"))] + lines[index + 1 :]
    return "\n".join(edited) + "\n"


def _score_or_reject(text: str) -> RunMetrics | None:
    try:
        return compute_metrics(parse_trace(text))
    except MalformedTraceError:
        return None


@pytest.mark.parametrize("name", ["trace_travel_ca.jsonl", "trace_wedding_ca.jsonl"])
def test_every_field_mutation_of_a_golden_trace_scores_or_is_rejected(golden_dir, name):
    """Each field of each line, deleted or set to a value of each JSON type:
    parsing raises MalformedTraceError or the trace scores, never another
    exception."""
    lines = (golden_dir / name).read_text().splitlines()
    for index, line in enumerate(lines):
        for path in _paths(json.loads(line)):
            for new in (_DELETE, None, True, -1, 2.5, "two", [], {}):
                _score_or_reject(_mutated(lines, index, path, new))


@pytest.mark.parametrize("name", ["trace_travel_ca.jsonl", "trace_wedding_ca.jsonl"])
@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_replay_of_a_mutated_golden_trace_exits_0_or_1(golden_dir, tmp_path, capsys, name, data):
    """Change or delete one field of one line: ``camcp replay`` prints the
    metrics and exits 0, or prints one error line and exits 1."""
    lines = (golden_dir / name).read_text().splitlines()
    index = data.draw(st.integers(min_value=0, max_value=len(lines) - 1), label="line")
    path = data.draw(st.sampled_from(list(_paths(json.loads(lines[index])))), label="field")
    new = data.draw(st.sampled_from([_DELETE] + _MUTANTS), label="value")
    text = _mutated(lines, index, path, new)
    metrics = _score_or_reject(text)
    trace_path = tmp_path / name
    trace_path.write_text(text)
    capsys.readouterr()
    code = main(["replay", "--trace", str(trace_path)])
    out, err = capsys.readouterr()
    if metrics is None:
        assert code == EXIT_RUN_FAILURE
        assert err.startswith("error: trace line ") and err.count("\n") == 1
    else:
        assert code == EXIT_OK
        assert json.loads(out) == asdict(metrics)


# Huge integers included: every number a run's work grows with is bounded by
# the loader (travel ``days`` is at most 30), so each mutant is rejected or
# finishes quickly. ``1e308`` overflows a product (a hotel's nightly price
# times the nights) or a latency sum unless the run contains it.
_SCENARIO_MUTANTS = [
    None, True, False, 0, 1, -1, 2.5, 1e308, 10**30, -10**30, 10**400, "", "two", [], [1], {},
    {"a": 1},
]


def _trace_mutants(text: str):
    """Every single-field mutant of the payloads the scoring reads (each
    ``run_start``, ``stage_done`` and ``run_end``, envelopes aside): each
    field deleted or set to each of ``_SCENARIO_MUTANTS``."""
    lines = text.splitlines()
    for index, line in enumerate(lines):
        record = json.loads(line)
        if record["kind"] not in ("run_start", "stage_done", "run_end"):
            continue
        for path in _paths(record["payload"]):
            if path[0] != "envelope":
                for new in [_DELETE] + _SCENARIO_MUTANTS:
                    yield _mutated(lines, index, ("payload",) + path, new)


def test_every_scored_field_mutation_of_a_run_trace_is_rejected_or_scores_as_json(
    travel_scenario, wedding_scenario
):
    """Each field of each scored payload of both shipped scenarios' seed-0
    traces, in both modes, deleted or set to a value of each JSON type, huge
    integers included: parse_trace raises MalformedTraceError, or the trace
    scores to metrics that are JSON (no NaN or infinity)."""
    count = 0
    for scenario in (travel_scenario, wedding_scenario):
        for mode in MODES:
            for text in _trace_mutants(serialize_trace(run(scenario, mode, 0))):
                count += 1
                metrics = _score_or_reject(text)
                if metrics is not None:
                    json.dumps(asdict(metrics), allow_nan=False)
    assert count == 8136


def _builtin_value(name: str) -> dict:
    text = resources.files("camcp").joinpath("data", f"{name}.json").read_text("utf-8")
    return json.loads(text)


def _mutated_value(value: dict, path: tuple, new) -> dict:
    """A copy of ``value`` with the field at ``path`` set to ``new``, or
    deleted when ``new`` is ``_DELETE``."""
    data = json.loads(json.dumps(value))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    if new is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return data


def _mutants(name: str):
    """Every single-field mutant of a shipped scenario: each field deleted or
    set to each of ``_SCENARIO_MUTANTS``."""
    base = _builtin_value(name)
    for path in _paths(base):
        for new in [_DELETE] + _SCENARIO_MUTANTS:
            yield _mutated_value(base, path, new)


@pytest.mark.parametrize("name", ["travel", "wedding_p5"])
def test_every_field_mutation_of_a_builtin_scenario_is_rejected_or_replays(name):
    """Each field of a shipped scenario, deleted or set to a value of each
    JSON type: the loader raises its documented errors, or both modes run to
    a trace whose replayed metrics equal the live ones."""
    for value in _mutants(name):
        try:
            scenario = scenario_from_value(value)
        except (ScenarioParseError, ScenarioValidationError):
            continue
        for mode in MODES:
            trace = run(scenario, mode, 0)
            replayed = compute_metrics(parse_trace(serialize_trace(trace)))
            assert replayed == compute_metrics(trace, scenario), (value, mode)


@pytest.mark.parametrize("name", ["travel", "wedding_p5"])
def test_run_of_a_mutated_builtin_scenario_exits_0_or_2(tmp_path, capsys, monkeypatch, name):
    """Each field of a shipped scenario, deleted or set to a value of each
    JSON type, through ``camcp run`` in both modes at seeds 0 and 1: the run
    prints its metrics and exits 0, and its seed-0 trace replays to the same
    metrics; or the loader rejects the file with one error line naming a
    scenario field and exits 2. The loader reads the file before it looks at
    the mode or the seed, so a file it rejects once is not run again."""
    # One parser for the whole sweep; each call still parses its own arguments.
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser))
    scenario_path = tmp_path / "scenario.json"
    trace_path = tmp_path / "trace.jsonl"
    for value in _mutants(name):
        scenario_path.write_text(json.dumps(value))
        for mode, seed in (("ca", "0"), ("traditional", "0"), ("ca", "1"), ("traditional", "1")):
            args = ["run", "--scenario", str(scenario_path), "--mode", mode, "--seed", seed]
            code = main(args + (["--trace", str(trace_path)] if seed == "0" else []))
            out, err = capsys.readouterr()
            if code != EXIT_OK:
                assert code == EXIT_USAGE, (value, mode, seed, err)
                assert out == ""
                assert err.startswith("error: scenario field ") and err.count("\n") == 1
                break
            metrics = json.loads(out)
            assert err == ""
            assert metrics["mode"] == (MODE_CA if mode == "ca" else MODE_TRADITIONAL)
            if seed == "0":
                assert asdict(compute_metrics(read_trace(trace_path))) == metrics, (value, mode)


def test_run_and_replay_exit_cleanly_at_every_nesting_depth(
    golden_dir, tmp_path, capsys, monkeypatch
):
    """A travel constraint nested 1 to 1100 levels deep: ``camcp run`` in
    both modes prints its metrics and exits 0, or prints one error line and
    exits 2; ``camcp replay`` of a travel trace whose ``run_start``
    constraints carry the same value exits 0, or 1 with one error line.
    Depths up to the loader's cap run, deeper ones up to the interpreter's
    recursion limit meet the cap, and deeper still fail to decode."""
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser))
    scenario_text = json.dumps(_builtin_value("travel"))
    trace_lines = (golden_dir / "trace_travel_ca.jsonl").read_text().splitlines()
    scenario_path = tmp_path / "deep.json"
    trace_path = tmp_path / "deep.jsonl"
    outcomes = set()
    for depth in range(1, 1101):
        deep = "[" * depth + "]" * depth
        notes = f'"constraints": {{"notes": {deep}, '
        scenario_path.write_text(scenario_text.replace('"constraints": {', notes, 1))
        for mode in ("ca", "traditional"):
            code = main(["run", "--scenario", str(scenario_path), "--mode", mode])
            out, err = capsys.readouterr()
            outcomes.add(("run", code))
            if code != EXIT_OK:
                assert code == EXIT_USAGE, (depth, mode, err)
                assert out == "" and err.startswith("error: ") and err.count("\n") == 1
                break
            assert err == "" and json.loads(out)["completeness"] == 1.0
        start = trace_lines[0].replace('"constraints":{', f'"constraints":{{"notes":{deep},', 1)
        trace_path.write_text("\n".join([start] + trace_lines[1:]) + "\n")
        code = main(["replay", "--trace", str(trace_path)])
        out, err = capsys.readouterr()
        outcomes.add(("replay", code))
        if code != EXIT_OK:
            assert code == EXIT_RUN_FAILURE, (depth, err)
            assert out == "" and err.startswith("error: trace line 1: ") and err.count("\n") == 1
    assert outcomes == {
        ("run", EXIT_OK), ("run", EXIT_USAGE), ("replay", EXIT_OK), ("replay", EXIT_RUN_FAILURE)
    }


def test_cli_replay_missing_file_fails(tmp_path, capsys):
    assert main(["replay", "--trace", str(tmp_path / "nope.jsonl")]) == EXIT_RUN_FAILURE
    capsys.readouterr()


def test_cli_bench_writes_both_files(tmp_path, capsys):
    out = tmp_path / "b.csv"
    code = main(["bench", "--scenario", "wedding_p5", "--n", "2", "--out", str(out)])
    assert code == EXIT_OK
    assert out.exists()
    assert (tmp_path / "b_summary.json").exists()
    summary = json.loads(capsys.readouterr().out)
    assert summary["metrics"]["makespan_min"]["mean_diff"] == 150.0


def test_cli_bench_window_override_degrades_traditional(tmp_path, capsys):
    out = tmp_path / "w.csv"
    code = main(["bench", "--scenario", "travel", "--n", "2", "--out", str(out), "--window", "3"])
    assert code == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["means"][MODE_TRADITIONAL]["completeness"] == 0.75
    assert summary["means"][MODE_CA]["completeness"] == 1.0


def test_cli_bench_rejects_bad_window(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main(["bench", "--scenario", "travel", "--n", "1", "--out", str(out), "--window", "0"])
    assert code == EXIT_USAGE
    assert "window" in capsys.readouterr().err


def test_cli_bad_mode_is_argparse_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["run", "--scenario", "travel", "--mode", "psychic"])
    assert info.value.code == EXIT_USAGE
    capsys.readouterr()


def test_installed_entrypoint_smoke():
    result = subprocess.run(
        [sys.executable, "-m", "camcp.cli", "run", "--scenario", "travel", "--mode", "traditional"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == EXIT_OK, result.stderr
    assert json.loads(result.stdout)["llm_calls"] == 5
