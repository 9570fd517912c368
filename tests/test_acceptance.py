"""Acceptance gate: ten pinned claims, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Each criterion prints before asserting, so a red run still reports every line.
"""
import dataclasses
import random
import string
import time

import pytest

from camcp.bench import compute_metrics, paired_stats, replay, InsufficientDataError
from camcp.protocol import (
    COMPLETION_SIGNAL,
    CONTEXT_READ,
    CONTEXT_SEED,
    CONTEXT_WRITE,
    FINAL_RESPONSE,
    PLAN_REQUEST,
    SUMMARY_REQUEST,
    TOOL_DECLARATION,
    SequenceError,
    decode,
    encode,
    make_envelope,
    validate_sequence,
)
from camcp.runtime import read_trace, run, serialize_trace, write_trace
from camcp.scenarios import (
    MODE_CA,
    MODE_TRADITIONAL,
    batch_requests,
)
from camcp.store import And, CasConflict, ContextStore, Equals, Exists

from oracles import EdgeOracle, ModelStore, brute_force_min_trips, interleavings

SEEDS = range(100)


def report(number: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_01_travel_call_counts(travel_scenario):
    started = time.monotonic()
    counts = {
        mode: [compute_metrics(run(travel_scenario, mode, seed)).llm_calls for seed in SEEDS]
        for mode in (MODE_TRADITIONAL, MODE_CA)
    }
    elapsed = time.monotonic() - started
    ok = (
        all(c == 5 for c in counts[MODE_TRADITIONAL])
        and all(c == 2 for c in counts[MODE_CA])
        and elapsed < 10.0
    )
    report(
        1,
        ok,
        f"travel calls traditional/ca = "
        f"{sorted(set(counts[MODE_TRADITIONAL]))}/{sorted(set(counts[MODE_CA]))} "
        f"over {len(SEEDS)} seeds in {elapsed:.2f}s",
    )


def test_criterion_02_wedding_call_counts(wedding_scenario):
    started = time.monotonic()
    counts = {
        mode: [compute_metrics(run(wedding_scenario, mode, seed)).llm_calls for seed in SEEDS]
        for mode in (MODE_TRADITIONAL, MODE_CA)
    }
    elapsed = time.monotonic() - started
    ok = (
        all(c == 2 for c in counts[MODE_TRADITIONAL])
        and all(c == 1 for c in counts[MODE_CA])
        and elapsed < 10.0
    )
    report(
        2,
        ok,
        f"wedding calls traditional/ca = "
        f"{sorted(set(counts[MODE_TRADITIONAL]))}/{sorted(set(counts[MODE_CA]))} "
        f"over {len(SEEDS)} seeds in {elapsed:.2f}s",
    )


def test_criterion_03_wedding_makespan(wedding_scenario):
    traditional = compute_metrics(run(wedding_scenario, MODE_TRADITIONAL, 0))
    aware = compute_metrics(run(wedding_scenario, MODE_CA, 0))
    ok = (
        (traditional.makespan_min, aware.makespan_min) == (330, 180)
        and (traditional.coordination, aware.coordination) == (0, 1)
        and all(
            m.goal_satisfaction == 1.0 and m.constraint_satisfaction == 1.0
            for m in (traditional, aware)
        )
    )
    report(
        3,
        ok,
        f"makespan {traditional.makespan_min}/{aware.makespan_min} min, "
        f"coordination {traditional.coordination}/{aware.coordination}, "
        f"satisfaction {traditional.goal_satisfaction}/{aware.goal_satisfaction} both modes",
    )


def test_criterion_04_completeness(travel_scenario):
    ca_values = {
        compute_metrics(run(travel_scenario, MODE_CA, seed)).completeness for seed in SEEDS
    }
    windowed = dataclasses.replace(travel_scenario, window=3)
    degraded = compute_metrics(run(windowed, MODE_TRADITIONAL, 0)).completeness
    ok = ca_values == {1.0} and degraded < 1.0
    report(
        4,
        ok,
        f"ca completeness {sorted(ca_values)} over {len(SEEDS)} seeds; "
        f"traditional with window budget 3 drops to {degraded}",
    )


def test_criterion_05_latency_ratio(travel_scenario):
    ratios = [
        run(travel_scenario, MODE_CA, seed).simulated_latency_s
        / run(travel_scenario, MODE_TRADITIONAL, seed).simulated_latency_s
        for seed in SEEDS
    ]
    mean_ratio = sum(ratios) / len(ratios)
    ok = mean_ratio <= 0.45
    report(5, ok, f"mean simulated-latency ratio ca/traditional = {mean_ratio:.4f} <= 0.45")


def test_criterion_06_determinism(travel_scenario, wedding_scenario, tmp_path):
    combos = [
        (scenario, mode)
        for scenario in (travel_scenario, wedding_scenario)
        for mode in (MODE_TRADITIONAL, MODE_CA)
    ]
    identical = 0
    replays = 0
    for i, (scenario, mode) in enumerate(combos):
        first = run(scenario, mode, 0)
        second = run(scenario, mode, 0)
        if serialize_trace(first) == serialize_trace(second):
            identical += 1
        path = tmp_path / f"trace_{i}.jsonl"
        write_trace(first, path)
        if replay(path) == compute_metrics(first):
            replays += 1
    ok = identical == len(combos) and replays == len(combos)
    report(
        6,
        ok,
        f"{identical}/{len(combos)} repeat runs byte-identical; "
        f"{replays}/{len(combos)} trace replays reproduce exact metrics",
    )


def _check_version_density() -> int:
    rng = random.Random(7)
    sequences = 0
    for _ in range(30):
        store = ContextStore()
        per_key: dict[str, int] = {}
        for _ in range(40):
            key = rng.choice("abcde")
            if rng.random() < 0.3:
                entry = store.get(key)
                expected = 0 if entry is None else entry.version
                version = store.cas_put(key, rng.randrange(100), expected, "w")
            else:
                version = store.put(key, rng.randrange(100), "w")
            per_key[key] = per_key.get(key, 0) + 1
            assert version == per_key[key]
        for key, count in per_key.items():
            assert store.get(key).version == count
        assert store.last_logical_time() == sum(per_key.values())
        sequences += 1
    return sequences


def _check_rising_edges() -> int:
    rng = random.Random(1009)
    key_pool = "abcd"
    value_pool = [None, True, False, 0, 1, "x"]
    for _ in range(1000):
        store = ContextStore()
        oracle = EdgeOracle()
        for _ in range(rng.randint(1, 4)):
            key = rng.choice(key_pool)
            roll = rng.randrange(3)
            if roll == 0:
                condition = Exists(key)
            elif roll == 1:
                condition = Equals(key, rng.choice(value_pool))
            else:
                condition = And(
                    (Exists(key), Equals(rng.choice(key_pool), rng.choice(value_pool)))
                )
            store.subscribe(condition)
            oracle.subscribe(condition)
        for _ in range(rng.randint(4, 12)):
            if rng.random() < 0.2:
                assert store.drain_notifications() == oracle.drain()
            key = rng.choice(key_pool)
            value = rng.choice(value_pool)
            store.put(key, value, "w")
            oracle.commit(key, value)
        assert store.drain_notifications() == oracle.drain()
    return 1000


def _check_cas_interleavings() -> int:
    programs = [
        [("put", "a", 1), ("cas", "a", 11, 1), ("put", "b", 2)],
        [("cas", "a", 100, 0), ("put", "b", 3), ("cas", "b", 30, 2)],
        [("put", "a", 4), ("cas", "b", 40, 1), ("cas", "a", 50, 2)],
    ]
    checked = 0
    for order in interleavings(programs):
        store = ContextStore()
        model = ModelStore()
        for writer_index, op in order:
            writer = f"w{writer_index}"
            if op[0] == "put":
                _, key, value = op
                assert store.put(key, value, writer) == model.put(key, value, writer)
            else:
                _, key, value, expected = op
                want = model.cas_put(key, value, expected, writer)
                if want is None:
                    with pytest.raises(CasConflict):
                        store.cas_put(key, value, expected, writer)
                else:
                    assert store.cas_put(key, value, expected, writer) == want
        live = {k: (e.value, e.version) for k, e in store.snapshot().items()}
        assert live == model.entries
        assert store.last_logical_time() == model.t
        checked += 1
    return checked


def _check_concurrent_soak() -> int:
    import threading

    store = ContextStore()
    rounds = 1000

    def increment_loop():
        for _ in range(rounds):
            while True:
                entry = store.get("counter")
                expected = 0 if entry is None else entry.version
                current = 0 if entry is None else entry.value
                try:
                    store.cas_put("counter", current + 1, expected, "t")
                    break
                except CasConflict:
                    continue

    threads = [threading.Thread(target=increment_loop) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    entry = store.get("counter")
    assert entry.value == 4 * rounds
    assert entry.version == 4 * rounds
    return entry.value


def test_criterion_07_store_properties():
    density_sequences = _check_version_density()
    edge_sequences = _check_rising_edges()
    interleaving_count = _check_cas_interleavings()
    total = _check_concurrent_soak()
    ok = (
        density_sequences == 30
        and edge_sequences == 1000
        and interleaving_count == 1680
        and total == 4000
    )
    report(
        7,
        ok,
        f"version density over {density_sequences} sequences; rising edges match "
        f"oracle over {edge_sequences} sequences; cas linearizable across "
        f"{interleaving_count} interleavings; soak counter = {total}",
    )


def test_criterion_08_batching_oracle():
    cases = 0
    mismatches = []
    for capacity in range(1, 5):
        for n in range(0, 9):
            requests = [
                {
                    "request_id": f"r{i:02d}",
                    "origin": "a",
                    "destination": "b",
                    "ready_time_min": 0,
                    "source": "arrival",
                }
                for i in range(n)
            ]
            greedy = len(batch_requests(requests, capacity, 30)["trips"])
            optimal = brute_force_min_trips(n, capacity)
            if greedy != optimal:
                mismatches.append((n, capacity, greedy, optimal))
            cases += 1
    ok = cases == 36 and not mismatches
    report(
        8,
        ok,
        f"greedy trip count equals brute-force minimum for all {cases} "
        f"(size <= 8, capacity 1-4) cases" + (f"; mismatches {mismatches}" if mismatches else ""),
    )


def test_criterion_09_paired_stats():
    stats = paired_stats([1, 2, 3])
    pinned = (
        stats.mean_diff == 2.0
        and stats.sd_diff == 1.0
        and stats.t_stat == pytest.approx(3.4641, abs=1e-4)
    )
    flat = paired_stats([5.0, 5.0])
    degenerate = flat.degenerate and flat.t_stat is None and flat.sd_diff == 0.0
    try:
        paired_stats([1.0])
        short_raises = False
    except InsufficientDataError:
        short_raises = True
    ok = pinned and degenerate and short_raises
    report(
        9,
        ok,
        f"paired_stats([1,2,3]) = ({stats.mean_diff}, {stats.sd_diff}, "
        f"{stats.t_stat:.4f}); zero-variance degenerate; n<2 raises",
    )


def _random_word(rng: random.Random) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(1, 8)))


def _random_value(rng: random.Random, depth: int):
    roll = rng.randrange(8 if depth > 0 else 6)
    if roll == 0:
        return None
    if roll == 1:
        return rng.random() < 0.5
    if roll == 2:
        return rng.randint(-1000, 1000)
    if roll == 3:
        return rng.uniform(-1e6, 1e6)
    if roll in (4, 5):
        return _random_word(rng)
    if roll == 6:
        return [_random_value(rng, depth - 1) for _ in range(rng.randint(0, 3))]
    return _random_object(rng, depth - 1)


def _random_object(rng: random.Random, depth: int) -> dict:
    return {_random_word(rng): _random_value(rng, depth) for _ in range(rng.randint(0, 3))}


def _random_envelope(rng: random.Random):
    msg_type = rng.choice(
        (
            PLAN_REQUEST,
            TOOL_DECLARATION,
            CONTEXT_SEED,
            CONTEXT_WRITE,
            CONTEXT_READ,
            COMPLETION_SIGNAL,
            SUMMARY_REQUEST,
            FINAL_RESPONSE,
        )
    )
    if msg_type == PLAN_REQUEST:
        payload = {"query": _random_object(rng, 2)}
    elif msg_type == TOOL_DECLARATION:
        payload = {
            "server_id": _random_word(rng),
            "tools": [
                {
                    "name": _random_word(rng),
                    "description": _random_word(rng),
                    "param_schema": _random_object(rng, 1),
                }
                for _ in range(rng.randint(0, 2))
            ],
        }
    elif msg_type == CONTEXT_SEED:
        payload = {"blueprint": _random_object(rng, 2)}
    elif msg_type == CONTEXT_WRITE:
        payload = {"key": _random_word(rng), "value": _random_value(rng, 2)}
    elif msg_type == CONTEXT_READ:
        payload = {"key": _random_word(rng)}
    elif msg_type == COMPLETION_SIGNAL:
        payload = {"completion_key": _random_word(rng)}
    elif msg_type == SUMMARY_REQUEST:
        payload = {"snapshot": _random_object(rng, 2)}
    else:
        payload = {"text": _random_word(rng)}
    return make_envelope(msg_type, rng.randint(1, 10**9), payload)


def _swap_rejections(messages) -> tuple[int, int]:
    rejected = 0
    total = 0
    for i in range(len(messages)):
        for j in range(i + 1, len(messages)):
            swapped = list(messages)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            total += 1
            try:
                validate_sequence(swapped)
            except SequenceError:
                rejected += 1
    return rejected, total


def test_criterion_10_protocol_round_trip(golden_dir):
    rng = random.Random(20260816)
    round_trips = 0
    for _ in range(10000):
        envelope = _random_envelope(rng)
        if decode(encode(envelope)) == envelope:
            round_trips += 1

    details = []
    all_rejected = True
    for name in ("travel", "wedding"):
        messages = read_trace(golden_dir / f"trace_{name}_ca.jsonl").protocol_messages()
        validate_sequence(messages)  # golden trace must be accepted as recorded
        rejected, total = _swap_rejections(messages)
        all_rejected = all_rejected and rejected == total
        details.append(f"{name} {len(messages)} msgs, {rejected}/{total} swaps rejected")

    ok = round_trips == 10000 and all_rejected
    report(
        10,
        ok,
        f"{round_trips}/10000 random envelopes round-trip; " + "; ".join(details),
    )
