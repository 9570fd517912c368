"""Pinned digests of whole run families, in both modes and under windows.

The golden traces pin one context-aware run per shipped scenario. These
digests pin the rest: traditional runs, windowed runs and many seeds. Each
line of ``golden/run_digests.txt`` is the sha256 over the serialized trace
and the live metrics of every run in one (family, mode, window). Regenerate
the file only for a deliberate change of trace bytes:

    PYTHONPATH=src python tests/test_run_digests.py > tests/golden/run_digests.txt
"""
from __future__ import annotations

import dataclasses
import hashlib
import json

from strategies import generated_wedding

from camcp.bench import compute_metrics
from camcp.runtime import run, serialize_trace
from camcp.scenarios import MODES, WindowConfig, load_builtin

WINDOWS = (None, 1, 2, 3)


def families():
    """(family name, [(scenario, seed), ...]) for each pinned family."""
    travel = load_builtin("travel")
    wedding = load_builtin("wedding_p5")
    return [
        ("travel", [(travel, seed) for seed in range(64)]),
        ("wedding_p5", [(wedding, seed) for seed in range(4)]),
        ("generated_wedding", [(generated_wedding(i), 0) for i in range(20)]),
    ]


def run_digests() -> list[str]:
    lines = []
    for family, runs in families():
        for mode in MODES:
            for window in WINDOWS:
                digest = hashlib.sha256()
                for scenario, seed in runs:
                    if window is not None:
                        scenario = dataclasses.replace(
                            scenario, window=WindowConfig(enabled=True, budget_entries=window)
                        )
                    trace = run(scenario, mode, seed)
                    metrics = compute_metrics(trace, scenario)
                    digest.update(serialize_trace(trace).encode())
                    digest.update(json.dumps(dataclasses.asdict(metrics), sort_keys=True).encode())
                lines.append(f"{family} {mode} {window or 'none'} {digest.hexdigest()}")
    return lines


def test_run_digests_match_the_pinned_file(golden_dir):
    pinned = (golden_dir / "run_digests.txt").read_text().splitlines()
    assert run_digests() == pinned


if __name__ == "__main__":
    print("\n".join(run_digests()))
