#!/usr/bin/env python3
"""Print the performance trajectory recorded in the BENCH_<n>.json files at
the repository root: for each file, in order of n, the median ``op_ms_best``
of each workload's ``--trace 0`` runs, parent -> change, and in how many of
its pairs the change ran faster.

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
        # workload -> pair -> side -> op_ms_best
        best: dict[str, dict[int, dict[str, float]]] = {}
        for run in json.loads(path.read_text())["runs"]:
            if run["trace"] == 0:
                pair = best.setdefault(run["workload"], {}).setdefault(run["pair"], {})
                pair[run["side"]] = run["result"]["metrics"]["op_ms_best"]["value"]
        for workload, pairs in best.items():
            parent, change = (
                statistics.median(p[s] for p in pairs.values()) for s in ("parent", "change")
            )
            won = sum(p["change"] < p["parent"] for p in pairs.values())
            print(
                f"{path.name}  {workload:<14} op_ms_best {parent:8.3f} -> {change:8.3f} ms"
                f"  ({change / parent - 1:+.1%}, change faster in {won}/{len(pairs)} pairs)"
            )


if __name__ == "__main__":
    main()
