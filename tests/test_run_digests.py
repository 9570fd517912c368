"""Pinned digests of whole run families, in both modes and under windows.

The golden traces pin one context-aware run per shipped scenario. These
digests pin the rest: traditional runs, windowed runs and many seeds. Each
line of ``golden/run_digests.txt`` is the sha256 over the serialized trace
and the live metrics of every run in one (family, mode, window). The same
runs have every protocol line they write decoded here. Regenerate the file
only for a deliberate change of trace bytes:

    PYTHONPATH=src python tests/test_run_digests.py > tests/golden/run_digests.txt
"""
from __future__ import annotations

import dataclasses
import hashlib
import json

from strategies import generated_wedding

from camcp.bench import compute_metrics
from camcp.protocol import decode, encode, validate_sequence
from camcp.runtime import run, serialize_trace
from camcp.scenarios import MODES, load_builtin

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


def family_runs():
    """(family, mode, window, [(scenario, trace), ...]) for every run of
    every pinned family, in the digest file's order."""
    for family, runs in families():
        for mode in MODES:
            for window in WINDOWS:
                traces = []
                for scenario, seed in runs:
                    if window is not None:
                        scenario = dataclasses.replace(scenario, window=window)
                    traces.append((scenario, run(scenario, mode, seed)))
                yield family, mode, window, traces


def run_digests() -> list[str]:
    lines = []
    for family, mode, window, traces in family_runs():
        digest = hashlib.sha256()
        for scenario, trace in traces:
            metrics = compute_metrics(trace, scenario)
            digest.update(serialize_trace(trace).encode())
            digest.update(json.dumps(dataclasses.asdict(metrics), sort_keys=True).encode())
        lines.append(f"{family} {mode} {window or 'none'} {digest.hexdigest()}")
    return lines


def test_run_digests_match_the_pinned_file(golden_dir):
    pinned = (golden_dir / "run_digests.txt").read_text().splitlines()
    assert run_digests() == pinned


def test_every_protocol_line_of_every_pinned_run_decodes():
    """Runs write their protocol lines without checking them, so this is
    the check: every envelope decodes, re-encodes to the same line, and the
    run's messages form a valid sequence."""
    for family, mode, window, traces in family_runs():
        for _, trace in traces:
            lines = [e.payload["envelope"] for e in trace.events if "envelope" in e.payload]
            messages = [decode(line) for line in lines]
            assert [encode(m) for m in messages] == lines, (family, mode, window)
            validate_sequence(messages)


if __name__ == "__main__":
    print("\n".join(run_digests()))
