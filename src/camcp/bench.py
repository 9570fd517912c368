"""Benchmark harness: run both modes across seeds, score traces, compare.

All metrics are computed purely from traces, so replaying a serialized trace
yields byte-for-byte the same numbers as the live run that produced it. No
metric names a scenario kind: makespan and coordination come from a
``schedule`` stage's output, and a sweep's summary pairs the makespan only
for a scenario that has such a stage.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass

from .runtime import LLM_CALL, STAGE_DONE, Trace, read_trace, run
from .scenarios import (
    MODE_CA,
    MODE_TRADITIONAL,
    Scenario,
    coordination_score,
    evaluate_satisfaction,
)

CSV_COLUMNS = [
    "scenario",
    "mode",
    "seed",
    "llm_calls",
    "completeness",
    "simulated_latency_s",
    "wall_clock_s",
    "makespan_min",
    "coordination",
    "goal_sat",
    "constraint_sat",
]

# Aggregated metric -> which direction its paired difference is taken in.
# Costs shrink under the context-aware mode, quality grows.
DIFF_DIRECTIONS = {
    "llm_calls": "traditional_minus_context_aware",
    "simulated_latency_s": "traditional_minus_context_aware",
    "makespan_min": "traditional_minus_context_aware",
    "completeness": "context_aware_minus_traditional",
    "goal_satisfaction": "context_aware_minus_traditional",
    "constraint_satisfaction": "context_aware_minus_traditional",
}


class InsufficientDataError(Exception):
    def __init__(self, n: int):
        super().__init__(f"paired statistics need at least 2 samples, got {n}")
        self.n = n


@dataclass(frozen=True)
class RunMetrics:
    mode: str
    seed: int
    llm_calls: int
    completeness: float
    simulated_latency_s: float
    makespan_min: int | None
    coordination: int | None
    goal_satisfaction: float
    constraint_satisfaction: float


@dataclass(frozen=True)
class PairedStats:
    mean_diff: float
    sd_diff: float
    t_stat: float | None
    n: int
    degenerate: bool


def compute_metrics(trace: Trace, scenario: Scenario | None = None) -> RunMetrics:
    """Score one trace in one pass over its events. ``scenario`` is an
    optional cross-check only; every number comes out of the trace itself.
    Makespan and coordination are read from an ``outputs.schedule`` value,
    whose shape :func:`~camcp.runtime.parse_trace` checks whatever the kind,
    and are None for a trace with none."""
    start = trace.events[0].payload
    if scenario is not None and scenario.name != start.get("scenario"):
        raise ValueError(
            f"trace is for scenario {start.get('scenario')!r}, not {scenario.name!r}"
        )
    stage_ids = start["stage_ids"]

    done: set[str] = set()
    outputs: dict = {}  # per-stage outputs, last write wins
    llm_calls = 0
    for event in trace.events:
        if event.kind == STAGE_DONE:
            done.add(event.payload["stage"])
            outputs.update(event.payload["outputs"])
        elif event.kind == LLM_CALL:
            llm_calls += 1
    completeness = (
        sum(1 for sid in stage_ids if sid in done) / len(stage_ids) if stage_ids else 1.0
    )
    goal, constraint = evaluate_satisfaction(start["kind"], start["constraints"], stage_ids, outputs)
    schedule = outputs.get("schedule")

    return RunMetrics(
        mode=trace.mode,
        seed=trace.seed,
        llm_calls=llm_calls,
        completeness=completeness,
        simulated_latency_s=trace.simulated_latency_s,
        makespan_min=None if schedule is None else schedule["makespan_min"],
        coordination=None if schedule is None else coordination_score(schedule),
        goal_satisfaction=goal,
        constraint_satisfaction=constraint,
    )


def replay(trace_path) -> RunMetrics:
    """Recompute metrics from a serialized trace file alone."""
    return compute_metrics(read_trace(trace_path))


def paired_stats(diffs: list[float]) -> PairedStats:
    """Mean, sample standard deviation, and paired t statistic of per-seed
    differences. A zero-variance difference is flagged degenerate instead of
    dividing by zero."""
    n = len(diffs)
    if n < 2:
        raise InsufficientDataError(n)
    mean = math.fsum(diffs) / n
    # identical samples have zero variance by definition; computing it through
    # the rounded mean can leave a spurious epsilon, so it is taken as zero
    sd = 0.0 if min(diffs) == max(diffs) else math.sqrt(
        math.fsum((d - mean) ** 2 for d in diffs) / (n - 1)
    )
    if sd == 0.0:
        return PairedStats(mean_diff=mean, sd_diff=0.0, t_stat=None, n=n, degenerate=True)
    return PairedStats(
        mean_diff=mean, sd_diff=sd, t_stat=mean / (sd / math.sqrt(n)), n=n, degenerate=False
    )


def _summarize_metric(name: str, by_seed: dict[int, dict[str, RunMetrics]]) -> dict:
    """The paired statistics of one metric over the seeds where both modes
    have a value, or ``insufficient_data`` (with the lone difference as
    ``mean_diff``, if there is one) for fewer than two such seeds."""
    direction = DIFF_DIRECTIONS[name]
    diffs = []
    for seed in sorted(by_seed):
        ca = getattr(by_seed[seed][MODE_CA], name)
        traditional = getattr(by_seed[seed][MODE_TRADITIONAL], name)
        if ca is None or traditional is None:
            continue
        if direction == "traditional_minus_context_aware":
            diffs.append(traditional - ca)
        else:
            diffs.append(ca - traditional)
    entry: dict = {"direction": direction, "n": len(diffs)}
    if len(diffs) < 2:
        entry["insufficient_data"] = True
        if diffs:
            entry["mean_diff"] = diffs[0]
        return entry
    entry.update(asdict(paired_stats(diffs)))
    return entry


def _mode_means(metrics: list[RunMetrics]) -> dict:
    means: dict = {}
    for name in DIFF_DIRECTIONS:
        values = [getattr(m, name) for m in metrics if getattr(m, name) is not None]
        if values:
            means[name] = math.fsum(values) / len(values)
    return means


def csv_row(scenario_name: str, metrics: RunMetrics, wall_clock_s: float) -> dict:
    return {
        "scenario": scenario_name,
        "mode": metrics.mode,
        "seed": metrics.seed,
        "llm_calls": metrics.llm_calls,
        "completeness": metrics.completeness,
        "simulated_latency_s": metrics.simulated_latency_s,
        "wall_clock_s": wall_clock_s,
        "makespan_min": "" if metrics.makespan_min is None else metrics.makespan_min,
        "coordination": "" if metrics.coordination is None else metrics.coordination,
        "goal_sat": metrics.goal_satisfaction,
        "constraint_sat": metrics.constraint_satisfaction,
    }


def run_bench(
    scenario: Scenario, n: int, out_csv=None, out_summary=None
) -> tuple[list[dict], dict]:
    """Run both modes for seeds 0..n-1 and return the per-run CSV rows and
    a paired summary. A failed run is recorded in ``summary["errors"]`` and
    skipped; it never aborts the sweep."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    rows: list[dict] = []
    errors: list[str] = []
    by_seed: dict[int, dict[str, RunMetrics]] = {}
    by_mode: dict[str, list[RunMetrics]] = {MODE_TRADITIONAL: [], MODE_CA: []}

    for seed in range(n):
        for mode in (MODE_TRADITIONAL, MODE_CA):
            try:
                trace = run(scenario, mode, seed)
                metrics = compute_metrics(trace, scenario)
            except Exception as exc:
                errors.append(f"{mode} seed {seed}: {type(exc).__name__}: {exc}")
                continue
            rows.append(csv_row(scenario.name, metrics, trace.wall_clock_s))
            by_mode[mode].append(metrics)
            by_seed.setdefault(seed, {})[mode] = metrics

    paired = {seed: pair for seed, pair in by_seed.items() if len(pair) == 2}
    metric_names = list(DIFF_DIRECTIONS)
    if "schedule" not in scenario.stage_ids():
        metric_names.remove("makespan_min")
    summary = {
        "scenario": scenario.name,
        "kind": scenario.kind,
        "n_requested": n,
        "n_paired": len(paired),
        "metrics": {name: _summarize_metric(name, paired) for name in metric_names},
        "means": {
            MODE_TRADITIONAL: _mode_means(by_mode[MODE_TRADITIONAL]),
            MODE_CA: _mode_means(by_mode[MODE_CA]),
        },
        "errors": errors,
    }
    trad_latency = summary["means"][MODE_TRADITIONAL].get("simulated_latency_s")
    ca_latency = summary["means"][MODE_CA].get("simulated_latency_s")
    if trad_latency and ca_latency is not None:
        summary["latency_ratio"] = ca_latency / trad_latency

    if out_csv is not None:
        write_csv(rows, out_csv)
    if out_summary is not None:
        with open(out_summary, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return rows, summary


def write_csv(rows: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
