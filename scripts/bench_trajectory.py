#!/usr/bin/env python3
"""Print the performance trajectory recorded in the BENCH_<n>.json files at
the repository root: for each file, in order of n, the median ``op_ms_best``
of each workload's ``--trace 0`` runs, parent -> change.

    python3 scripts/bench_trajectory.py
"""
import json
import re
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bench_number(path: Path) -> int:
    return int(re.fullmatch(r"BENCH_(\d+)\.json", path.name).group(1))


def main() -> None:
    for path in sorted(ROOT.glob("BENCH_*.json"), key=bench_number):
        best: dict[str, dict[str, list[float]]] = {}
        for run in json.loads(path.read_text())["runs"]:
            if run["trace"] == 0:
                sides = best.setdefault(run["workload"], {"parent": [], "change": []})
                sides[run["side"]].append(run["result"]["metrics"]["op_ms_best"]["value"])
        for workload, sides in best.items():
            parent, change = (statistics.median(sides[s]) for s in ("parent", "change"))
            print(
                f"{path.name}  {workload:<14} op_ms_best {parent:8.3f} -> {change:8.3f} ms"
                f"  ({change / parent - 1:+.1%}, {len(sides['change'])} pairs)"
            )


if __name__ == "__main__":
    main()
