#!/usr/bin/env python3
"""Print the seed-0 mode comparison tables for both shipped scenarios."""
import argparse

from camcp.bench import compute_metrics
from camcp.runtime import run
from camcp.scenarios import MODE_CA, MODE_TRADITIONAL, load_builtin


def cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def print_table(scenario_name: str, seed: int) -> None:
    scenario = load_builtin(scenario_name)
    columns = {
        mode: compute_metrics(run(scenario, mode, seed))
        for mode in (MODE_TRADITIONAL, MODE_CA)
    }
    rows = [
        ("llm calls", "llm_calls"),
        ("simulated latency (s)", "simulated_latency_s"),
        ("completeness", "completeness"),
        ("goal satisfaction", "goal_satisfaction"),
        ("constraint satisfaction", "constraint_satisfaction"),
    ]
    if "schedule" in scenario.stage_ids():
        rows += [("makespan (min)", "makespan_min"), ("coordination", "coordination")]

    print(f"\n{scenario.name} (seed {seed})")
    header = f"{'metric':<26} {'traditional':>12} {'context_aware':>14}"
    print(header)
    print("-" * len(header))
    for label, attr in rows:
        traditional = cell(getattr(columns[MODE_TRADITIONAL], attr))
        aware = cell(getattr(columns[MODE_CA], attr))
        print(f"{label:<26} {traditional:>12} {aware:>14}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    for name in ("travel", "wedding_p5"):
        print_table(name, args.seed)


if __name__ == "__main__":
    main()
