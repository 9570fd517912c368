"""Reactor lifecycle: edges, firing order, failure isolation, quiescence."""
import random

import pytest

from camcp.reactor import (
    BudgetExceededError,
    DuplicateServerError,
    ReactorPool,
    ReactorState,
    ServerSpec,
)
from camcp.store import And, ContextStore, Exists


def spec(server_id: str, trigger, action, done_key: str | None = None) -> ServerSpec:
    return ServerSpec(
        server_id=server_id,
        trigger=trigger,
        action=action,
        done_key=done_key or f"{server_id}_done",
    )


def write_output(key: str, value=1):
    def action(snapshot) -> list:
        return [(key, value)]

    return action


# -- Registration ---------------------------------------------------------------


def test_register_rejects_duplicate_server_id():
    pool = ReactorPool(ContextStore())
    pool.register(spec("a", Exists("x"), write_output("a_out")))
    with pytest.raises(DuplicateServerError, match="server_id"):
        pool.register(spec("a", Exists("y"), write_output("other"), done_key="other_done"))


def test_register_rejects_duplicate_done_key():
    pool = ReactorPool(ContextStore())
    pool.register(spec("a", Exists("x"), write_output("a_out"), done_key="shared"))
    with pytest.raises(DuplicateServerError, match="done_key"):
        pool.register(spec("b", Exists("x"), write_output("b_out"), done_key="shared"))


def test_registration_time_edge_fires_without_new_write():
    store = ContextStore()
    store.put("x", 1, "w")
    pool = ReactorPool(store)
    pool.register(spec("late", Exists("x"), write_output("late_out")))
    assert pool.run_until_quiescent(4) == 1
    assert store.get("late_out").value == 1
    assert store.get("late_done").value is True


# -- Firing ---------------------------------------------------------------------


def test_done_key_appended_exactly_once():
    store = ContextStore()
    store.put("go", 1, "w")
    pool = ReactorPool(store)
    pool.register(spec("implicit", Exists("go"), write_output("implicit_out")))

    def explicit_action(snapshot) -> list:
        return [("explicit_out", 2), ("explicit_done", True)]

    pool.register(spec("explicit", Exists("go"), explicit_action))
    pool.run_until_quiescent(4)
    assert store.get("implicit_done").version == 1
    assert store.get("explicit_done").version == 1


def test_fire_batch_triggers_conjunction_downstream_once():
    store = ContextStore()

    def action(snapshot) -> list:
        return [("out_a", 1), ("out_b", 2)]

    fired = []
    pool = ReactorPool(store, on_fired=lambda server, writes: fired.append(server))
    pool.register(spec("s", Exists("go"), action))
    pool.register(spec("joiner", And((Exists("out_a"), Exists("out_b"))), write_output("joined")))
    store.put("go", 1, "w")
    assert pool.run_until_quiescent(4) == 2
    assert fired == ["s", "joiner"]
    assert store.get("joiner_done").version == 1


def test_same_step_sibling_sees_earlier_sibling_commits():
    """Fires within one step take fresh snapshots, so the second sibling
    observes what the first just committed. The shared-flag handoff in the
    wedding build depends on this."""
    store = ContextStore()
    store.put("seed", True, "w")
    pool = ReactorPool(store)
    pool.register(spec("first", Exists("seed"), write_output("first_out")))

    def second_action(snapshot) -> list:
        saw = "first_done" in snapshot
        return [("saw_first", saw)]

    pool.register(spec("second", Exists("seed"), second_action))
    pool.run_until_quiescent(4)
    assert store.get("saw_first").value is True


def test_chain_fires_in_dependency_steps():
    store = ContextStore()
    pool = ReactorPool(store)
    pool.register(spec("root", Exists("seed"), write_output("root_out")))
    pool.register(spec("mid", Exists("root_done"), write_output("mid_out")))
    pool.register(spec("leaf", Exists("mid_done"), write_output("leaf_out")))
    store.put("seed", True, "w")
    assert pool.run_until_quiescent(10) == 3
    assert all(state is ReactorState.FIRED for state in pool.states().values())
    # each step's fires happen in registration order
    assert store.get("root_out").logical_time < store.get("mid_out").logical_time


def test_run_until_quiescent_returns_zero_when_nothing_ready():
    pool = ReactorPool(ContextStore())
    pool.register(spec("idle", Exists("never"), write_output("x")))
    assert pool.run_until_quiescent(4) == 0
    assert pool.states()["idle"] is ReactorState.IDLE


def test_budget_exceeded():
    store = ContextStore()
    pool = ReactorPool(store)
    pool.register(spec("a", Exists("seed"), write_output("a_out")))
    pool.register(spec("b", Exists("a_done"), write_output("b_out")))
    store.put("seed", True, "w")
    with pytest.raises(BudgetExceededError) as info:
        pool.run_until_quiescent(1)
    assert info.value.max_steps == 1
    # the first step's work is preserved
    assert store.get("a_out").value == 1


# -- Failure handling --------------------------------------------------------------


def test_failure_is_contained_and_reported():
    store = ContextStore()
    events = []
    pool = ReactorPool(
        store,
        on_failed=lambda server, reason: events.append((server, reason)),
    )

    def crash(snapshot) -> list:
        raise RuntimeError("tool blew up")

    pool.register(spec("broken", Exists("seed"), crash))
    pool.register(spec("healthy", Exists("seed"), write_output("ok_out")))
    pool.register(spec("downstream", Exists("broken_done"), write_output("never")))
    store.put("seed", True, "w")
    steps = pool.run_until_quiescent(8)
    assert steps == 1
    states = pool.states()
    assert states["broken"] is ReactorState.FAILED
    assert states["healthy"] is ReactorState.FIRED
    assert states["downstream"] is ReactorState.IDLE
    assert pool.failures() == {"broken": "RuntimeError: tool blew up"}
    assert events == [("broken", "RuntimeError: tool blew up")]
    assert store.get("broken_done") is None
    assert store.get("never") is None


def test_batch_the_store_rejects_fails_the_reactor_and_commits_nothing():
    store = ContextStore()
    store.put("seed", True, "w")
    failed = []
    pool = ReactorPool(store, on_failed=lambda server, reason: failed.append((server, reason)))
    pool.register(spec("overflow", Exists("seed"), lambda snap: [("out", 1), ("cost", float("inf"))]))
    pool.register(spec("downstream", Exists("overflow_done"), write_output("never")))
    pool.run_until_quiescent(4)
    assert failed == [("overflow", "TypeError: non-finite number at $")]
    assert pool.states() == {"overflow": ReactorState.FAILED, "downstream": ReactorState.IDLE}
    assert store.last_logical_time() == 1


def test_callbacks_fire_in_order():
    store = ContextStore()
    log = []
    pool = ReactorPool(
        store,
        on_firing=lambda server, edge: log.append(("firing", server, edge)),
        on_fired=lambda server, writes: log.append(("fired", server, [k for k, _ in writes])),
    )
    pool.register(spec("only", Exists("seed"), write_output("out")))
    store.put("seed", True, "w")
    pool.run_until_quiescent(4)
    assert log == [
        ("firing", "only", 1),
        ("fired", "only", ["out", "only_done"]),
    ]


# -- Random layered DAGs vs the step-count oracle -----------------------------------


def build_layered(pool_store, layers: list[list[str]], record):
    """Wire each node to require every node of the previous layer."""
    pool = ReactorPool(pool_store, on_fired=lambda server, writes: record.append(server))
    previous: list[str] = []
    for layer in layers:
        for node in layer:
            trigger = (
                Exists("seed")
                if not previous
                else And(tuple(Exists(f"{p}_done") for p in previous))
            )
            pool.register(spec(node, trigger, write_output(f"{node}_out")))
        previous = layer
    return pool


@pytest.mark.parametrize("seed", range(25))
def test_random_layered_dag_quiesces_in_depth_steps(seed):
    rng = random.Random(seed)
    layers = [
        [f"n{i}_{j}" for j in range(rng.randint(1, 3))] for i in range(rng.randint(1, 4))
    ]
    store = ContextStore()
    fired = []
    pool = build_layered(store, layers, fired)
    store.put("seed", True, "w")
    steps = pool.run_until_quiescent(16)
    assert steps == len(layers)
    assert all(state is ReactorState.FIRED for state in pool.states().values())
    # every node fired exactly once, layer by layer, registration order inside
    assert fired == [node for layer in layers for node in layer]
    for layer in layers:
        for node in layer:
            assert store.get(f"{node}_done").version == 1
