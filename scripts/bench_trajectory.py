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

One more line per file judges the no-regression rule: ``REGRESSION CHECK
PASS`` when no end-to-end metric on any workload is worse than its bound
and no workload's share of failed operations rose from the parent's runs
to the change's; ``REGRESSION CHECK FAIL`` otherwise, naming each workload
and metric (or failed share) that broke the rule. Either way it says how
many metrics are ``UNRESOLVED``.

A file may carry ``"claim": {"metric": ..., "workload": ...}``, the gain
its change claims. One more line judges it: ``CLAIM MET`` when the change
is better in at least nine pairs of ten (a tie counts for neither side), the
gap between the two medians exceeds the interquartile range of the parent's
runs, and no larger share of the workload's operations failed in the
change's runs than in the parent's; ``CLAIM NOT MET`` otherwise, with the
numbers. A claim on a metric that BENCHMARK.json does not name is not met.

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


def iqr(values: list[float]) -> float:
    """The interquartile range of *values*, by ``statistics.quantiles``'
    default, exclusive method; 0 for one value."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def judge_claim(
    pairs: list[tuple[float, float]], better: str, unit: str, failed: tuple[float, float] = (0, 0)
) -> str:
    """Judge a claimed gain on the (parent, change) pairs of one metric;
    *failed* is the (parent, change) share of the workload's operations that
    failed."""
    if not pairs:
        return "CLAIM NOT MET (no pairs)"
    if failed[1] > failed[0]:
        return (
            f"CLAIM NOT MET (more operations failed: {failed[1]:.3%} of the change's,"
            f" {failed[0]:.3%} of the parent's)"
        )
    won = sum(worsening(parent, change, better) < 0 for parent, change in pairs)
    need = -(-9 * len(pairs) // 10)  # nine in ten, rounded up
    parents = [parent for parent, _ in pairs]
    gap = statistics.median(parents) - statistics.median(change for _, change in pairs)
    if better != "lower":
        gap = -gap
    width = iqr(parents)
    verdict = "CLAIM MET" if won >= need and gap > width else "CLAIM NOT MET"
    return (
        f"{verdict} (change better in {won}/{len(pairs)} pairs, {need} needed;"
        f" median gap {gap:.4g} {unit}, parent IQR {width:.4g} {unit})"
    )


def spread(values: list[float]) -> float:
    """The interquartile range of *values* as a fraction of their median."""
    width, median = iqr(values), statistics.median(values)
    if median == 0:
        return 0.0 if width == 0 else float("inf")
    return width / abs(median)


def paired(pairs: dict[int, dict[str, dict[str, float]]], name: str) -> list[tuple[float, float]]:
    """The (parent, change) values of metric *name* in the pairs that have both."""
    return [
        (p["parent"][name], p["change"][name]) for p in pairs.values()
        if all(name in p.get(side, {}) for side in ("parent", "change"))
    ]


def failed_shares(totals: dict[str, list[int]]) -> tuple[float, float]:
    """The (parent, change) share of operations that failed, from each
    side's [operations failed, operations attempted]."""
    return tuple(
        failed / attempted if attempted else 0.0
        for failed, attempted in (totals.get(side, (0, 0)) for side in ("parent", "change"))
    )


def trajectory(root: Path = ROOT) -> list[str]:
    metrics = json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]
    lines = []
    for path in sorted(root.glob("BENCH_*.json"), key=bench_number):
        data = json.loads(path.read_text())
        # workload -> pair -> side -> metric -> value
        runs: dict[str, dict[int, dict[str, dict[str, float]]]] = {}
        # workload -> side -> [operations failed, operations attempted]
        ops: dict[str, dict[str, list[int]]] = {}
        for run in data["runs"]:
            if run["trace"] == 0:
                result = run["result"]
                pair = runs.setdefault(run["workload"], {}).setdefault(run["pair"], {})
                pair[run["side"]] = {k: v["value"] for k, v in result["metrics"].items()}
                total = ops.setdefault(run["workload"], {}).setdefault(run["side"], [0, 0])
                total[0] += result.get("failed", 0)
                total[1] += result.get("attempted", 0)
        broken, unresolved = [], 0
        for workload, pairs in runs.items():
            for metric in metrics:
                name, better = metric["name"], metric["better"]
                both = paired(pairs, name)
                if not both:
                    continue
                parents, changes = ([p[i] for p in both] for i in (0, 1))
                parent, change = statistics.median(parents), statistics.median(changes)
                won = sum(worsening(p, c, better) < 0 for p, c in both)
                worse = worsening(parent, change, better)
                relative = f"{change / parent - 1:+.1%}" if parent else "n/a"
                line = (
                    f"{path.name}  {workload:<14} {name:<12} {parent:10.4g} -> {change:10.4g}"
                    f" {metric['unit']:<8} ({relative}, change better in {won}/{len(both)} pairs)"
                )
                if worse > metric["bound"]:
                    line += f"  WORSE THAN BOUND {metric['bound']:g}"
                    broken.append(f"{workload} {name}")
                wide = spread(parents)
                separated = all(worsening(p, c, better) < 0 for p in parents for c in changes)
                if wide > metric["bound"] and not separated:
                    line += f"  UNRESOLVED (parent IQR {wide:.0%} of its median)"
                    unresolved += 1
                lines.append(line)
            parent_failed, change_failed = failed_shares(ops.get(workload, {}))
            if change_failed > parent_failed:
                broken.append(
                    f"{workload} failed operations {parent_failed:.3%} -> {change_failed:.3%}"
                )
        verdict = "FAIL" if broken else "PASS"
        found = ", ".join(broken) or (
            "no metric worse than its bound, no workload failed more operations"
        )
        lines.append(f"{path.name}  REGRESSION CHECK {verdict} ({found}; {unresolved} UNRESOLVED)")
        claim = data.get("claim")
        if claim:
            head = f"{path.name}  claim {claim['metric']} on {claim['workload']}: "
            metric = next((m for m in metrics if m["name"] == claim["metric"]), None)
            if metric is None:
                lines.append(head + "CLAIM NOT MET (BENCHMARK.json names no such metric)")
                continue
            both = paired(runs.get(claim["workload"], {}), claim["metric"])
            failed = failed_shares(ops.get(claim["workload"], {}))
            lines.append(head + judge_claim(both, metric["better"], metric["unit"], failed))
    return lines


def main() -> None:
    for line in trajectory():
        print(line)


if __name__ == "__main__":
    main()
