"""Metric extraction, paired statistics, benchmark sweeps, and the CLI."""
import csv
import json
import subprocess
import sys
from dataclasses import asdict

import pytest
from hypothesis import given
from hypothesis import strategies as st

from camcp.bench import (
    CSV_COLUMNS,
    InsufficientDataError,
    compute_metrics,
    paired_stats,
    replay,
    run_bench,
)
from camcp.cli import EXIT_OK, EXIT_RUN_FAILURE, EXIT_USAGE, main
from camcp.runtime import run, write_trace
from camcp.scenarios import MODE_CA, MODE_TRADITIONAL

from oracles import paired_recompute


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


# -- paired statistics -----------------------------------------------------------


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


@pytest.mark.parametrize("latency", ["nan", "inf", "-1"])
def test_cli_bench_rejects_bad_latency(tmp_path, capsys, latency):
    out = tmp_path / "l.csv"
    argv = ["bench", "--scenario", "travel", "--n", "2", "--out", str(out), "--latency", latency]
    assert main(argv) == EXIT_USAGE
    assert "scenario field 'latency': must be a finite number >= 0" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "l_summary.json").exists()


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
