"""Timing loops, cold-start probes and the result line of ``run.py``.

Each workload is one single-threaded closed-loop client in this process:
the next op starts when the previous one has returned. With ``--trace 0``
the result holds the end-to-end metrics; with ``--trace 1`` ops alternate
between plain and traced, and the result holds the per-layer metrics and
the tracing overhead instead. Every op's output is checked against a digest
taken before timing starts, and a few pinned inputs are checked against
digests committed in ``fingerprints.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_STARTS = 7
IMPORT_STARTS = 5


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def time_start(argv: list[str], until_ready: bool = False) -> tuple[float, str]:
    """Wall time of a fresh interpreter, from spawn until it exits or, with
    ``until_ready``, until it prints its ready line. Returns (seconds, stderr)."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *argv],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    if until_ready:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        _, err = proc.communicate()
        if line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: {err.strip()}")
    else:
        _, err = proc.communicate()
        elapsed = time.perf_counter() - started
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} exited with {proc.returncode}: {err.strip()}")
    return elapsed, err


def median_start(argv: list[str], starts: int, until_ready: bool = False) -> float:
    """Median of ``starts`` timed starts, after one untimed start that fills
    the bytecode cache."""
    time_start(argv, until_ready)
    return statistics.median(time_start(argv, until_ready)[0] for _ in range(starts))


def setup_seconds(workload: str, seed: int) -> float:
    probe = [str(HERE / "setup_probe.py"), workload, str(seed)]
    return median_start(probe, SETUP_STARTS, until_ready=True)


def import_ms() -> float:
    """``import camcp`` in a fresh interpreter, minus a bare interpreter start."""
    bare = median_start(["-c", "pass"], IMPORT_STARTS)
    full = median_start(["-c", "import camcp"], IMPORT_STARTS)
    return (full - bare) * 1e3


def import_requests_ms() -> float:
    """Cumulative import time of ``requests`` under ``import camcp``, from
    ``-X importtime`` (0 when camcp does not import it)."""
    samples = []
    for _ in range(IMPORT_STARTS):
        _, err = time_start(["-X", "importtime", "-c", "import camcp"])
        cumulative_us = 0
        for line in err.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "requests":
                cumulative_us = int(fields[1])
        samples.append(cumulative_us / 1e3)
    return statistics.median(samples)


def check_fingerprints(workload: str) -> list[str]:
    """Digests of pinned inputs must match the committed ones: a speedup may
    not change trace bytes or any metric."""
    pinned = json.loads((HERE / "fingerprints.json").read_text())[workload]
    problems = []
    for seed, expected in pinned.items():
        got = workloads.pinned_digest(workload, int(seed))
        if got != expected:
            problems.append(f"{workload} pinned input {seed}: digest {got} != {expected}")
    return problems


class Loop:
    """Closed-loop timing of ops over a run's input pool."""

    def __init__(self, inputs, reference):
        self.inputs = inputs
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, index: int, tracer=None) -> float:
        """Run and check one op; returns its wall time. Only the op itself
        is timed: hashing and comparing come after the clock stops."""
        self.attempted += 1
        if tracer is not None:
            tracer.install()
            tracer.begin_op()
        started = time.perf_counter()
        try:
            result = workloads.run_op(self.inputs, self.reference, index)
        except Exception as exc:  # a failing op is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - started
        if tracer is not None:
            tracer.end_op()
            tracer.remove()
        if result is not None:
            digest = workloads.op_digest(self.inputs.workload, result)
            expected = self.reference.digests[index]
            error = None if digest == expected else f"input {index}: output digest changed"
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(error)
        return elapsed


def end_to_end(loop: Loop, seconds: float) -> dict:
    pool = len(loop.inputs.items)
    times = []
    deadline = time.perf_counter() + seconds
    while len(times) < 2 or time.perf_counter() < deadline:
        times.append(loop.op(len(times) % pool))
    ms = [t * 1e3 for t in times]
    # Op k ran input k % pool; each input's fastest op is its cost when the
    # shared host interferes least.
    best = [min(ms[i::pool]) for i in range(min(pool, len(ms)))]
    return {
        "op_ms_best": (statistics.median(best), "ms"),
        "op_ms_p90": (statistics.quantiles(ms, n=10)[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "op_ok_frac": ((loop.attempted - loop.failed) / loop.attempted, "fraction"),
    }


def per_layer(loop: Loop, seconds: float, workload: str, seed: int) -> dict:
    """Alternate plain and traced ops, so both see the same inputs and the
    same machine state; every input runs both ways."""
    pool = len(loop.inputs.items)
    plain, traced = [], []
    tracer = spans.Tracer()
    deadline = time.perf_counter() + seconds
    k = 0
    while k < 2 or time.perf_counter() < deadline:
        index = (k // 2) % pool
        if k % 2:
            traced.append(loop.op(index, tracer))
        else:
            plain.append(loop.op(index))
        k += 1
    metrics = spans.layer_metrics(tracer.totals, tracer.counts)
    metrics["trace.overhead_frac"] = (
        (sum(traced) / len(traced)) / (sum(plain) / len(plain)) - 1,
        "fraction",
    )
    load = spans.Tracer()
    load.install()
    load.begin_op()
    try:
        workloads.make_inputs(workload, seed)
    finally:
        load.end_op()
        load.remove()
    name = "scenarios.scenario_from_value"
    metrics["scenarios.load_ms"] = (load.totals.inclusive[name] * 1e3 / load.totals.calls[name], "ms")
    metrics["cli.import_ms"] = (import_ms(), "ms")
    metrics["cli.import_requests_ms"] = (import_requests_ms(), "ms")
    return metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="camcp benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    inputs = workloads.make_inputs(args.workload, args.seed)
    reference = workloads.build_reference(inputs)
    problems = reference.problems + check_fingerprints(args.workload)
    loop = Loop(inputs, reference)
    if args.trace:
        metrics = per_layer(loop, args.seconds, args.workload, args.seed)
    else:
        metrics = end_to_end(loop, args.seconds)
        metrics["setup_s"] = (setup_seconds(args.workload, args.seed), "s")
    for line in problems + loop.errors:
        print(f"check failed: {line}", file=sys.stderr)
    result = {
        "correct": not problems and loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0
