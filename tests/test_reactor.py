"""Reactor lifecycle: edges, firing order, failure isolation, quiescence."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import camcp.store
from camcp.planner import Stage
from camcp.reactor import DuplicateServerError, ReactorPool, ReactorState, ServerSpec
from camcp.store import And, ContextStore, Equals, Exists, Not, Or


def spec(server_id: str, trigger, action, done_key: str | None = None) -> ServerSpec:
    stage = Stage(
        stage_id=server_id,
        server_id=server_id,
        trigger=trigger,
        done_key=done_key or f"{server_id}_done",
        goal="",
    )
    return ServerSpec(stage, action)


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


@pytest.mark.parametrize(
    "trigger",
    ["seed", None, And((Exists("seed"), "seed")), Or((Exists("x"), Not(5))), Not(Exists)],
    ids=["text", "none", "in-and", "under-not-in-or", "class"],
)
def test_a_trigger_that_is_not_a_condition_leaves_the_pool_unchanged(trigger):
    """The register raises TypeError, even where evaluating the trigger would
    stop before the bad part, and takes no watch id, server id or done key:
    the same ids then register cleanly, and a true duplicate still names its
    field."""
    store = ContextStore()
    pool = ReactorPool(store)
    pool.register(spec("first", Exists("seed"), write_output("first_out")))
    with pytest.raises(TypeError, match="^not a watch condition: "):
        pool.register(spec("a", trigger, write_output("a_out")))
    assert pool.states() == {"first": ReactorState.IDLE}
    pool.register(spec("a", Exists("seed"), write_output("a_out")))
    with pytest.raises(DuplicateServerError, match="server_id 'a'"):
        pool.register(spec("a", Exists("seed"), write_output("b_out"), done_key="b_done"))
    with pytest.raises(DuplicateServerError, match="done_key 'a_done'"):
        pool.register(spec("b", Exists("seed"), write_output("b_out"), done_key="a_done"))
    assert store.subscribe(Exists("never")) == 3  # no failed register took a watch id
    store.put("seed", True, "w")
    assert pool.run_until_quiescent() == 1
    assert pool.states() == {"first": ReactorState.FIRED, "a": ReactorState.FIRED}


def test_registration_time_edge_fires_without_new_write():
    store = ContextStore()
    store.put("x", 1, "w")
    pool = ReactorPool(store)
    pool.register(spec("late", Exists("x"), write_output("late_out")))
    assert pool.run_until_quiescent() == 1
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

    def one_valued_action(snapshot) -> list:
        return [("one_out", 3), ("one_done", 1)]

    pool.register(spec("one", Exists("go"), one_valued_action))
    pool.run_until_quiescent()
    assert store.get("implicit_done").version == 1
    assert store.get("explicit_done").version == 1
    # a flag of 1 is not the done flag True, so True is still appended
    assert (store.get("one_done").version, store.get("one_done").value) == (2, True)


def test_fire_batch_triggers_conjunction_downstream_once():
    store = ContextStore()

    def action(snapshot) -> list:
        return [("out_a", 1), ("out_b", 2)]

    fired = []
    pool = ReactorPool(store, on_fired=lambda stage, writes: fired.append(stage.server_id))
    pool.register(spec("s", Exists("go"), action))
    pool.register(spec("joiner", And((Exists("out_a"), Exists("out_b"))), write_output("joined")))
    store.put("go", 1, "w")
    assert pool.run_until_quiescent() == 2
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
    pool.run_until_quiescent()
    assert store.get("saw_first").value is True


def test_chain_fires_in_dependency_steps():
    store = ContextStore()
    pool = ReactorPool(store)
    pool.register(spec("root", Exists("seed"), write_output("root_out")))
    pool.register(spec("mid", Exists("root_done"), write_output("mid_out")))
    pool.register(spec("leaf", Exists("mid_done"), write_output("leaf_out")))
    store.put("seed", True, "w")
    assert pool.run_until_quiescent() == 3
    assert all(state is ReactorState.FIRED for state in pool.states().values())
    # each step's fires happen in registration order
    assert store.get("root_out").logical_time < store.get("mid_out").logical_time


def test_run_until_quiescent_returns_zero_when_nothing_ready():
    pool = ReactorPool(ContextStore())
    pool.register(spec("idle", Exists("never"), write_output("x")))
    assert pool.run_until_quiescent() == 0
    assert pool.states()["idle"] is ReactorState.IDLE


# -- Failure handling --------------------------------------------------------------


def test_failure_is_contained_and_reported():
    store = ContextStore()
    events = []
    pool = ReactorPool(
        store,
        on_failed=lambda stage, reason: events.append((stage.server_id, reason)),
    )

    def crash(snapshot) -> list:
        raise RuntimeError("tool blew up")

    pool.register(spec("broken", Exists("seed"), crash))
    pool.register(spec("healthy", Exists("seed"), write_output("ok_out")))
    pool.register(spec("downstream", Exists("broken_done"), write_output("never")))
    store.put("seed", True, "w")
    steps = pool.run_until_quiescent()
    assert steps == 1
    states = pool.states()
    assert states["broken"] is ReactorState.FAILED
    assert states["healthy"] is ReactorState.FIRED
    assert states["downstream"] is ReactorState.IDLE
    assert events == [("broken", "RuntimeError: tool blew up")]
    assert store.get("broken_done") is None
    assert store.get("never") is None


def test_batch_the_store_rejects_fails_the_reactor_and_commits_nothing():
    store = ContextStore()
    store.put("seed", True, "w")
    failed = []
    pool = ReactorPool(
        store, on_failed=lambda stage, reason: failed.append((stage.server_id, reason))
    )
    pool.register(spec("overflow", Exists("seed"), lambda snap: [("out", 1), ("cost", float("inf"))]))
    pool.register(spec("downstream", Exists("overflow_done"), write_output("never")))
    pool.run_until_quiescent()
    assert failed == [("overflow", "TypeError: non-finite number at $")]
    assert pool.states() == {"overflow": ReactorState.FAILED, "downstream": ReactorState.IDLE}
    assert store.last_logical_time() == 1


def test_callbacks_fire_in_order():
    """Every callback is handed the registered Stage object itself; its
    stage_id differs from its server_id, so a swapped id shows."""
    store = ContextStore()
    log = []
    pool = ReactorPool(
        store,
        on_firing=lambda stage, edge: log.append(("firing", stage, edge)),
        on_fired=lambda stage, writes: log.append(("fired", stage, [k for k, _ in writes])),
        on_failed=lambda stage, reason: log.append(("failed", stage, reason)),
    )
    only = Stage("only_stage", "only_server", Exists("seed"), "only_done", "")
    broken = Stage("broken_stage", "broken_server", Exists("seed"), "broken_done", "")
    pool.register(ServerSpec(only, write_output("out")))
    pool.register(ServerSpec(broken, lambda snapshot: 1 / 0))
    store.put("seed", True, "w")
    pool.run_until_quiescent()
    assert log == [
        ("firing", only, 1),
        ("fired", only, ["out", "only_done"]),
        ("firing", broken, 1),
        ("failed", broken, "ZeroDivisionError: division by zero"),
    ]
    assert all(got is want for (_, got, _), want in zip(log, [only, only, broken, broken]))
    assert store.get("out").writer_id == "only_server"


@pytest.mark.parametrize("raising", ["on_firing", "on_fired", "on_failed"])
def test_a_callback_that_raises_leaves_the_rest_of_its_step_for_the_next_run(raising):
    """A callback raises on the first of three ready reactors. The next run
    fires each reactor still READY, once, in registration order, then goes on
    to what their fires raised; no reactor is READY at quiescence."""
    fired, raised = [], []

    def action(server_id: str):
        def run(snapshot) -> list:
            fired.append(server_id)
            if server_id == "a" and raising == "on_failed":
                raise RuntimeError("tool blew up")
            return [(f"{server_id}_out", 1)]

        return run

    def callback(stage, *args):
        if stage.server_id == "a" and not raised:
            raised.append(stage.server_id)
            raise RuntimeError("callback")

    store = ContextStore()
    pool = ReactorPool(store, **{raising: callback})
    for server_id in ("a", "b", "c"):
        pool.register(spec(server_id, Exists("seed"), action(server_id)))
    pool.register(spec("d", Exists("b_done"), action("d")))
    store.put("seed", True, "w")
    with pytest.raises(RuntimeError, match="^callback$"):
        pool.run_until_quiescent()
    assert pool.states()["b"] is pool.states()["c"] is ReactorState.READY
    assert pool.run_until_quiescent() == 2
    assert fired == ["a", "b", "c", "d"]
    states = pool.states()
    a_state = ReactorState.FAILED if raising == "on_failed" else ReactorState.FIRED
    assert states.pop("a") is a_state
    assert set(states.values()) == {ReactorState.FIRED}
    assert pool.run_until_quiescent() == 0


def test_a_step_fires_in_registration_order_not_edge_order():
    """B's edge rises first, but A registered first, so A fires first."""
    store = ContextStore()
    log = []
    pool = ReactorPool(store, on_firing=lambda stage, edge: log.append((stage.server_id, edge)))
    pool.register(spec("A", Exists("y"), write_output("a_out")))
    pool.register(spec("B", Exists("x"), write_output("b_out")))
    store.put("x", 1, "w")
    store.put("y", 1, "w")
    assert pool.run_until_quiescent() == 1
    assert log == [("A", 2), ("B", 1)]


@pytest.mark.parametrize("shape", ["chain", "fan-out"])
def test_a_pool_of_800_costs_at_most_four_evaluations_per_reactor(shape, monkeypatch):
    """Counted, not timed: from registration to quiescence, 800 reactors in
    a chain, or all waiting on one key, cost at most 4 condition evaluations
    each. Re-evaluating every watch on every commit costs about N^2 / 2."""
    n = 800
    evaluate, calls = camcp.store.evaluate, []

    def counting(condition, entries):
        calls.append(condition)
        return evaluate(condition, entries)

    monkeypatch.setattr(camcp.store, "evaluate", counting)
    store = ContextStore()
    fired = []
    pool = ReactorPool(store, on_fired=lambda stage, writes: fired.append(stage.server_id))
    for i in range(n):
        trigger = Exists(f"s{i - 1}_done") if shape == "chain" and i else Exists("seed")
        pool.register(spec(f"s{i}", trigger, lambda snapshot: []))
    store.put("seed", True, "w")
    steps = pool.run_until_quiescent()
    assert len(calls) <= 4 * n
    assert steps == (n if shape == "chain" else 1)
    assert fired == [f"s{i}" for i in range(n)]
    assert set(pool.states().values()) == {ReactorState.FIRED}


# -- Random layered DAGs vs the step-count oracle -----------------------------------


def build_layered(pool_store, layers: list[list[str]], record):
    """Wire each node to require every node of the previous layer."""
    pool = ReactorPool(pool_store, on_fired=lambda stage, writes: record.append(stage.server_id))
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
        [f"n{i}_{j}" for j in range(rng.randint(1, 3))] for i in range(rng.randint(1, 40))
    ]
    store = ContextStore()
    fired = []
    pool = build_layered(store, layers, fired)
    store.put("seed", True, "w")
    steps = pool.run_until_quiescent()
    assert steps == len(layers)
    assert all(state is ReactorState.FIRED for state in pool.states().values())
    # every node fired exactly once, layer by layer, registration order inside
    assert fired == [node for layer in layers for node in layer]
    for layer in layers:
        for node in layer:
            assert store.get(f"{node}_done").version == 1


# -- Random trigger graphs vs the one-step-per-reactor bound ------------------------


def crash(snapshot) -> list:
    raise RuntimeError("tool blew up")


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_random_trigger_graph_settles_within_one_step_per_reactor(data):
    """A chain deeper than 16, then reactors whose triggers join, fan out,
    wait on themselves or each other, or can never hold (a done flag equal
    to False, a key nothing writes), registered in any order. A reactor
    never returns to idle, so the pool settles within one step per reactor,
    after the whole chain has fired, leaves none ready, and writes each done
    flag at most once."""
    depth = data.draw(st.integers(0, 40), label="depth")
    names = [f"n{i}" for i in range(depth + data.draw(st.integers(1, 12), label="others"))]
    done_key = st.sampled_from([f"{n}_done" for n in names] + ["seed", "never"])
    leaf = st.one_of(
        st.builds(Exists, done_key),
        st.builds(Equals, done_key, st.just(False)),
        st.builds(lambda key: Not(Exists(key)), done_key),
    )
    triggers = st.recursive(
        leaf,
        lambda inner: st.one_of(
            st.builds(And, st.tuples(inner, inner)), st.builds(Or, st.tuples(inner, inner))
        ),
        max_leaves=4,
    )
    specs = [
        spec(name, Exists(f"n{i - 1}_done" if i else "seed"), write_output(f"{name}_out"))
        for i, name in enumerate(names[:depth])
    ] + [
        spec(name, data.draw(triggers), data.draw(st.sampled_from([crash, write_output(f"{name}_out")])))
        for name in names[depth:]
    ]
    store = ContextStore()
    pool = ReactorPool(store)
    for one in data.draw(st.permutations(specs), label="registration order"):
        pool.register(one)
    store.put("seed", True, "w")

    assert depth <= pool.run_until_quiescent() <= len(names)
    assert ReactorState.READY not in pool.states().values()
    assert all(store.get(f"{n}_done") is None or store.get(f"{n}_done").version <= 1 for n in names)
