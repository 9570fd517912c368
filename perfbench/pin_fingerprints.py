"""Rewrite fingerprints.json from the current program.

Run only when a change to trace bytes or metrics is intended:
PYTHONPATH=src python3 perfbench/pin_fingerprints.py
"""
import json
from pathlib import Path

import workloads

pins = {
    workload: {str(seed): workloads.pinned_digest(workload, seed) for seed in seeds}
    for workload, seeds in workloads.PINNED.items()
}
path = Path(__file__).resolve().parent / "fingerprints.json"
path.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
