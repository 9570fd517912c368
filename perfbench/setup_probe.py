"""Set-up probe, run in a fresh interpreter by ``run.py``: import camcp,
generate, load and validate one workload's inputs, then print ``ready``.

Usage: PYTHONPATH=src python3 perfbench/setup_probe.py WORKLOAD SEED
"""
import sys

import workloads

workloads.make_inputs(sys.argv[1], int(sys.argv[2]))
print("ready", flush=True)
