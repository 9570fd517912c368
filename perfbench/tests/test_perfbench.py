"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import measure  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from camcp import bench, protocol, reactor, runtime, scenarios, store  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def small_inputs(workload: str, size: int = 2) -> workloads.Inputs:
    inputs = workloads.make_inputs(workload, 7)
    return dataclasses.replace(inputs, items=inputs.items[:size])


def test_wedding_generator_is_deterministic_and_valid():
    text = workloads.wedding_scenario_json(11)
    assert workloads.wedding_scenario_json(11) == text
    assert workloads.wedding_scenario_json(12) != text
    scenario = workloads.load_wedding(11)
    tables = scenario.data_tables
    rows = tables["guests"] + tables["errands"]
    assert len(rows) == workloads.WEDDING_REQUESTS
    assert 90 <= len(tables["guests"]) <= 110
    assert all(r["ready_time_min"] % workloads.READY_GRID_MIN == 0 for r in rows)
    assert tables["vehicle"] == scenarios.load_builtin("wedding_p5").data_tables["vehicle"]


def test_inputs_depend_only_on_the_seed():
    first = workloads.make_inputs(workloads.WEDDING_WIDE, 3)
    again = workloads.make_inputs(workloads.WEDDING_WIDE, 3)
    other = workloads.make_inputs(workloads.WEDDING_WIDE, 4)
    assert [s.name for s, _ in first.items] == [s.name for s, _ in again.items]
    assert [s.name for s, _ in first.items] != [s.name for s, _ in other.items]
    travel = workloads.make_inputs(workloads.TRAVEL_SWEEP, 3)
    assert [seed for _, seed in travel.items] == workloads.derive_seeds(3, len(travel.items))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_unchanged_program_passes_the_output_check(workload):
    inputs = small_inputs(workload)
    reference = workloads.build_reference(inputs)
    assert reference.problems == []
    loop = measure.Loop(inputs, reference)
    for index in range(len(inputs.items)):
        loop.op(index)
    assert (loop.attempted, loop.failed) == (2, 0)


def test_mutated_trace_fails_the_sweep_check(monkeypatch):
    inputs = small_inputs(workloads.TRAVEL_SWEEP)
    reference = workloads.build_reference(inputs)
    serialize = runtime.serialize_trace
    monkeypatch.setattr(
        runtime, "serialize_trace", lambda trace: serialize(trace).replace('"t":2,', '"t":2 ,')
    )
    loop = measure.Loop(inputs, reference)
    loop.op(0)
    assert (loop.attempted, loop.failed) == (1, 1)
    metrics = measure.end_to_end(loop, 0.01)
    assert metrics["op_ok_frac"][0] < 1.0


def test_mutated_corpus_fails_the_replay_check():
    inputs = small_inputs(workloads.REPLAY_CORPUS)
    reference = workloads.build_reference(inputs)
    traditional, context_aware = reference.texts[0]
    marker = '"simulated_latency_s":7.2'
    assert marker in context_aware
    reference.texts[0] = (traditional, context_aware.replace(marker, '"simulated_latency_s":7.3'))
    loop = measure.Loop(inputs, reference)
    loop.op(0)
    loop.op(1)
    assert (loop.attempted, loop.failed) == (2, 1)


def test_replay_mismatch_is_a_reference_problem():
    traditional = runtime.run(scenarios.load_builtin("travel"), scenarios.MODE_TRADITIONAL, 0)
    context_aware = runtime.run(scenarios.load_builtin("travel"), scenarios.MODE_CA, 0)
    rows = (bench.compute_metrics(traditional), bench.compute_metrics(context_aware))
    texts = (runtime.serialize_trace(traditional), runtime.serialize_trace(context_aware))
    assert workloads.check_sweep_output(texts, rows) == []
    swapped = (texts[1], texts[0])
    assert workloads.check_sweep_output(swapped, rows)


def test_self_time_subtracts_what_children_cover():
    tree = [
        spans.Span("op", 0.0, 10.0, -1),
        spans.Span("a", 1.0, 4.0, 0),
        spans.Span("b", 5.0, 9.0, 0),
        spans.Span("c", 6.0, 7.0, 2),
        spans.Span("d", 6.5, 8.0, 2),  # overlaps its sibling c: counted once
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 3.0, 2.0, 1.0, 1.5])
    totals = spans.Totals()
    totals.add(tree)
    totals.add(tree)
    assert totals.ops == 2
    assert totals.op_seconds == pytest.approx(20.0)
    assert totals.self_s["b"] == pytest.approx(4.0)
    assert totals.inclusive["b"] == pytest.approx(8.0)
    assert totals.calls["c"] == 2


def test_tracer_restores_every_original():
    def bindings():
        return [
            store.copy_value,
            runtime.canonicalize_value,
            protocol.copy_value,
            store.ContextStore.put_many,
            reactor.ReactorPool.__init__,
            scenarios.build_servers,
            runtime.build_servers,
        ]

    originals = bindings()
    tracer = spans.Tracer()
    tracer.install()
    assert all(now is not before for now, before in zip(bindings(), originals))
    tracer.remove()
    assert bindings() == originals


def test_traced_op_counts_each_layer():
    inputs = small_inputs(workloads.WEDDING_WIDE, 1)
    reference = workloads.build_reference(inputs)
    tracer = spans.Tracer()
    loop = measure.Loop(inputs, reference)
    loop.op(0, tracer)
    assert loop.failed == 0
    metrics = spans.layer_metrics(tracer.totals, tracer.counts)
    texts, _ = workloads.sweep_op(*inputs.items[0])
    assert metrics["runtime.events_per_op"][0] == sum(len(text.splitlines()) for text in texts)
    assert metrics["runtime.trace_bytes_per_op"][0] == sum(map(len, texts))
    assert metrics["reactor.fires_per_op"][0] == 3
    assert metrics["store.commits_per_op"][0] > workloads.WEDDING_REQUESTS
    assert metrics["store.copies_per_commit"][0] >= 1
    assert metrics["planner.calls_per_op"][0] == 3
    assert 0 <= metrics["trace.uncovered_frac"][0] < 1


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_one_command_prints_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace and workload == "replay_corpus":
        assert result["metrics"]["store.commits_per_op"]["value"] == 0
        assert result["metrics"]["protocol.envelopes_per_op"]["value"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "travel_sweep", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
