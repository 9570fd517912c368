"""camcp benchmark: one command for every workload and metric.

Usage, from the root of a repository checkout:

    python3 perfbench/run.py --workload travel_sweep --seed 1 --seconds 20 --trace 0

Workloads: travel_sweep, wedding_wide, replay_corpus. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``. METRICS.md describes each metric.
"""
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

if __name__ == "__main__":
    if not (SRC / "camcp" / "__init__.py").is_file():
        print(f"error: no camcp sources under {SRC}; run from a repository checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import measure

    sys.exit(measure.main())
