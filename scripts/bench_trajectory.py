#!/usr/bin/env python3
"""Print the performance trajectory recorded in the BENCH_<n>.json files at
the repository root.

For each file, in order of n, and each workload of its ``--trace 0`` runs,
one line per end-to-end metric that BENCHMARK.json names: the median over
the pairs, parent -> change, the relative change, and in how many pairs the
change was better. A metric that got worse by more than its ``bound`` (a
fraction of the parent's median) is marked ``WORSE THAN BOUND``. A metric
whose parent runs spread wider than its bound (the interquartile range, as a
fraction of their median) is marked ``UNRESOLVED``, because a difference
inside that spread says nothing either way, unless every change run beats
every parent run.

    python3 scripts/bench_trajectory.py
"""
import json
import re
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bench_number(path: Path) -> int:
    return int(re.fullmatch(r"BENCH_(\d+)\.json", path.name).group(1))


def worsening(parent: float, change: float, better: str) -> float:
    """How much worse *change* is than *parent*, as a fraction of *parent*;
    negative when it is better."""
    delta = change - parent if better == "lower" else parent - change
    if parent == 0:
        return 0.0 if delta == 0 else (float("inf") if delta > 0 else float("-inf"))
    return delta / abs(parent)


def spread(values: list[float]) -> float:
    """The interquartile range of *values* (``statistics.quantiles``'
    default, exclusive method) as a fraction of their median; 0 for one."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    if median == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(median)


def trajectory(root: Path = ROOT) -> list[str]:
    metrics = json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]
    lines = []
    for path in sorted(root.glob("BENCH_*.json"), key=bench_number):
        # workload -> pair -> side -> metric -> value
        runs: dict[str, dict[int, dict[str, dict[str, float]]]] = {}
        for run in json.loads(path.read_text())["runs"]:
            if run["trace"] == 0:
                pair = runs.setdefault(run["workload"], {}).setdefault(run["pair"], {})
                pair[run["side"]] = {k: v["value"] for k, v in run["result"]["metrics"].items()}
        for workload, pairs in runs.items():
            for metric in metrics:
                name, better = metric["name"], metric["better"]
                both = [
                    p for p in pairs.values()
                    if all(name in p.get(side, {}) for side in ("parent", "change"))
                ]
                if not both:
                    continue
                parent, change = (
                    statistics.median(p[s][name] for p in both) for s in ("parent", "change")
                )
                won = sum(
                    worsening(p["parent"][name], p["change"][name], better) < 0 for p in both
                )
                worse = worsening(parent, change, better)
                relative = f"{change / parent - 1:+.1%}" if parent else "n/a"
                line = (
                    f"{path.name}  {workload:<14} {name:<12} {parent:10.4g} -> {change:10.4g}"
                    f" {metric['unit']:<8} ({relative}, change better in {won}/{len(both)} pairs)"
                )
                if worse > metric["bound"]:
                    line += f"  WORSE THAN BOUND {metric['bound']:g}"
                parents, changes = ([p[s][name] for p in both] for s in ("parent", "change"))
                wide = spread(parents)
                separated = all(worsening(p, c, better) < 0 for p in parents for c in changes)
                if wide > metric["bound"] and not separated:
                    line += f"  UNRESOLVED (parent IQR {wide:.0%} of its median)"
                lines.append(line)
    return lines


def main() -> None:
    for line in trajectory():
        print(line)


if __name__ == "__main__":
    main()
