"""Store behavior: versioning, snapshots, rising edges, commit listeners, cas."""
import copy
import json
import math
import random
import threading
from collections.abc import Mapping
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camcp.store import (
    MAX_VALUE_DEPTH,
    And,
    CasConflict,
    ContextEntry,
    ContextStore,
    Equals,
    Exists,
    Not,
    Or,
    _CANONICAL_ENCODER,
    canonical_dumps,
    canonical_object,
    canonicalize_value,
    condition_from_value,
    condition_to_value,
    copy_value,
    evaluate,
    values_equal,
)
from oracles import EdgeOracle, ModelStore, interleavings
from strategies import conditions, json_values, keys, scalars, small_values


# -- Values and equality -------------------------------------------------------


def test_copy_value_normalizes_tuples_and_isolates():
    source = {"a": (1, 2), "b": {"c": [3]}}
    copied = copy_value(source)
    assert copied == {"a": [1, 2], "b": {"c": [3]}}
    source["b"]["c"].append(4)
    assert copied["b"]["c"] == [3]


def test_copy_value_rejects_bad_data():
    with pytest.raises(TypeError, match="non-finite"):
        copy_value(float("nan"))
    with pytest.raises(TypeError, match="non-finite"):
        copy_value({"x": [float("inf")]})
    with pytest.raises(TypeError, match="non-text key"):
        copy_value({1: "x"})
    with pytest.raises(TypeError, match="unsupported"):
        copy_value(object())
    # An entry is a tuple, but writing one in place of its value is a mistake.
    entry = ContextEntry("k", 1, 1, "w", 1, "1")
    with pytest.raises(TypeError, match=r"unsupported value type at \$\[0\]: ContextEntry"):
        copy_value([entry])


def test_values_equal_numeric_and_bool_rules():
    assert values_equal(1, 1.0)
    assert values_equal(0, 0.0)
    assert not values_equal(True, 1)
    assert not values_equal(False, 0)
    assert values_equal(True, True)
    assert values_equal({"a": [1, 2.0]}, {"a": [1.0, 2]})
    assert not values_equal([1, 2], [1, 2, 3])
    assert not values_equal("1", 1)
    assert values_equal(None, None)
    # numbers compare exactly, past float precision and past float range
    assert not values_equal(2**53 + 1, 2**53)
    assert not values_equal(2**53 + 1, float(2**53))
    assert values_equal(10**400, 10**400)
    assert not values_equal(10**400, 1e308)


def test_canonical_dumps_sorts_keys_deeply():
    assert canonical_dumps({"b": 1, "a": {"d": 2, "c": 3}}) == '{"a":{"c":3,"d":2},"b":1}'
    assert canonical_dumps({"b": 1, "a": 2}) == canonical_dumps({"a": 2, "b": 1})


@given(json_values)
def test_canonical_dumps_round_trips(value):
    assert values_equal(json.loads(canonical_dumps(value)), copy_value(value))


@given(json_values)
@settings(max_examples=500)
def test_canonical_dumps_equals_dumping_the_sorted_rebuild(value):
    expected = json.dumps(canonicalize_value(value), separators=(",", ":"), allow_nan=False)
    assert canonical_dumps(value) == expected == _CANONICAL_ENCODER.encode(value)


@pytest.mark.parametrize(
    "bad",
    [float("nan"), float("inf"), 10**4400, object(), {1, 2}, b"x"],
    ids=["nan", "inf", "long-integer", "object", "set", "bytes"],
)
@pytest.mark.parametrize("where", ["bare", "in-list", "in-dict"])
def test_held_encoder_fails_as_the_stdlib_encoder(bad, where):
    value = {"bare": bad, "in-list": [1, bad], "in-dict": {"a": 1, "k": bad}}[where]
    with pytest.raises(Exception) as expected:
        _CANONICAL_ENCODER.encode(value)
    with pytest.raises(Exception) as got:
        canonical_dumps(value)
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)


@pytest.mark.skipif(json.encoder.c_make_encoder is None, reason="no C accelerator to count")
def test_canonical_dumps_builds_no_encoder_per_call(monkeypatch):
    """The C encoder is built once, at import; JSONEncoder.encode would
    build one for every value that is not text."""
    built = []
    make = json.encoder.c_make_encoder

    def counting_make(*args):
        built.append(args)
        return make(*args)

    monkeypatch.setattr(json.encoder, "c_make_encoder", counting_make)
    texts = [canonical_dumps(v) for v in ({"b": 1, "a": [2]}, [1, "x"], True, 2.5)]
    assert texts == ['{"a":[2],"b":1}', '[1,"x"]', "true", "2.5"]
    assert built == []


def _reference_copy(value, _path="$"):
    """copy_value as first written, building each element's path eagerly: the
    oracle for its results and its error texts."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise TypeError(f"non-finite number at {_path}")
        return value
    if isinstance(value, (list, tuple)):
        return [_reference_copy(v, f"{_path}[{i}]") for i, v in enumerate(value)]
    if isinstance(value, Mapping):
        out = {}
        for k, v in value.items():
            if not isinstance(k, str):
                raise TypeError(f"non-text key at {_path}: {k!r}")
            out[k] = _reference_copy(v, f"{_path}.{k}")
        return out
    raise TypeError(f"unsupported value type at {_path}: {type(value).__name__}")


def _containers(value) -> list:
    if isinstance(value, list):
        return [value] + [c for v in value for c in _containers(v)]
    if isinstance(value, dict):
        return [value] + [c for v in value.values() for c in _containers(v)]
    return []


non_text_keys = st.one_of(
    st.integers(-3, 3),
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False),
    st.tuples(st.integers()),
)


@st.composite
def poisoned_values(draw):
    """A json_values value with one unstorable thing planted in a random
    container at a random position: a non-finite number, a foreign object,
    or a map with a non-text key."""
    value = copy.deepcopy(draw(json_values))
    if not _containers(value):
        value = [value]
    target = draw(st.sampled_from(_containers(value)))
    poison = draw(st.sampled_from(["nan", "inf", "object", "key"]))
    if poison == "key":
        entry = (draw(non_text_keys), draw(json_values))
    else:
        bad = {"nan": float("nan"), "inf": float("-inf"), "object": object()}[poison]
        taken = target if isinstance(target, dict) else {}
        entry = (draw(st.text(max_size=6).filter(lambda k: k not in taken)), bad)
    if isinstance(target, list):
        planted = dict([entry]) if poison == "key" else entry[1]
        target.insert(draw(st.integers(0, len(target))), planted)
    else:
        items = list(target.items())
        items.insert(draw(st.integers(0, len(items))), entry)
        target.clear()
        target.update(items)
    return value


@given(poisoned_values())
@settings(max_examples=400)
def test_copy_value_error_text_equals_reference(value):
    with pytest.raises(TypeError) as expected:
        _reference_copy(value)
    with pytest.raises(TypeError) as got:
        copy_value(value)
    assert str(got.value) == str(expected.value)


@given(json_values)
def test_copy_value_equals_input_and_shares_no_container(value):
    copied = copy_value(value)
    assert copied == value
    assert not {id(c) for c in _containers(copied)} & {id(c) for c in _containers(value)}


class _Text(str):
    pass


class _Number(int):
    pass


loose_values = st.recursive(
    st.one_of(
        scalars, st.builds(_Text, st.text(max_size=4)), st.builds(_Number, st.integers(-5, 5))
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
        st.dictionaries(st.text(max_size=4), inner, max_size=3).map(MappingProxyType),
    ),
    max_leaves=10,
)


def _same_types(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, list):
        return len(a) == len(b) and all(_same_types(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_types(v, b[k]) for k, v in a.items())
    return a == b


@given(loose_values)
def test_copy_value_of_tuples_mappings_and_subclasses_equals_reference(value):
    assert _same_types(copy_value(value), _reference_copy(value))


# -- Conditions ------------------------------------------------------------------


def test_evaluate_examples():
    store = ContextStore()
    store.put("x", 1, "w")
    snap = store.snapshot()
    assert evaluate(Exists("x"), snap)
    assert not evaluate(Exists("y"), snap)
    assert evaluate(Equals("x", 1.0), snap)
    assert not evaluate(Equals("x", True), snap)
    assert not evaluate(Equals("y", None), snap)
    assert evaluate(And((Exists("x"), Not(Exists("y")))), snap)
    assert evaluate(Or((Exists("y"), Exists("x"))), snap)


@pytest.mark.parametrize(
    "convert",
    [lambda c: evaluate(c, {}), condition_to_value, lambda c: ContextStore().subscribe(c)],
    ids=["<lambda>", "condition_to_value", "subscribe"],
)
def test_a_value_that_is_not_a_condition_is_a_type_error(convert):
    with pytest.raises(TypeError, match="^not a watch condition: 'x'$"):
        convert("x")


def test_tombstone_keeps_key_visible():
    store = ContextStore()
    store.put("x", 1, "w")
    store.put("x", None, "w")
    snap = store.snapshot()
    assert evaluate(Exists("x"), snap)
    assert evaluate(Equals("x", None), snap)
    assert snap["x"].version == 2


@given(conditions())
def test_condition_value_round_trip(condition):
    assert condition_from_value(condition_to_value(condition)) == condition


@pytest.mark.parametrize(
    "value, message",
    [
        ([], "condition: expected an object"),
        ({"op": "exists"}, "condition field 'key': missing"),
        ({"op": "and", "children": 5}, "condition field 'children': expected a list"),
        ({"op": "or", "children": [{"op": "exists", "key": "a"}, {"op": "exists"}]},
         "condition field 'children[1].key': missing"),
        ({"op": "and", "children": [{"op": "exists", "key": 3}]},
         "condition field 'children[0].key': expected text"),
        ({"op": "not", "child": [{"op": "exists", "key": "a"}]},
         "condition field 'child': expected an object"),
        ({"op": "not", "child": {"op": "equals", "key": "a"}}, "condition field 'child.value': missing"),
        ({"op": "and", "children": [{"op": "nor"}]},
         "condition field 'children[0].op': unknown condition op 'nor'"),
        ({"op": "not", "child": {"op": "equals", "key": "a", "value": float("nan")}},
         "condition field 'child.value': non-finite number at $"),
    ],
    ids=[
        "list", "exists-no-key", "and-children-number", "or-child-no-key", "child-key-number",
        "not-child-list", "not-child-no-value", "child-op-unknown", "child-value-unstorable",
    ],
)
def test_condition_from_value_names_the_bad_field(value, message):
    with pytest.raises(ValueError) as info:
        condition_from_value(value)
    assert str(info.value) == message

@given(conditions(), st.dictionaries(keys, small_values, max_size=4))
def test_evaluate_total_and_pure(condition, entries):
    store = ContextStore()
    for k, v in entries.items():
        store.put(k, v, "w")
    snap = store.snapshot()
    first = evaluate(condition, snap)
    assert isinstance(first, bool)
    assert evaluate(condition, snap) is first


# -- Write operations ------------------------------------------------------------


def test_put_versions_and_logical_time():
    store = ContextStore()
    assert store.put("x", 1, "w") == 1
    assert store.put("x", 2, "w") == 2
    assert store.put("y", 1, "w") == 1
    assert store.get("x").version == 2
    assert store.get("x").logical_time == 2
    assert store.get("y").logical_time == 3
    assert store.last_logical_time() == 3


def test_put_rejects_bad_key_and_writer():
    store = ContextStore()
    with pytest.raises(TypeError):
        store.put("", 1, "w")
    with pytest.raises(TypeError):
        store.put("x", 1, "")


@given(json_values)
def test_entry_text_is_the_canonical_text_of_its_value(value):
    store = ContextStore()
    store.put("k", value, "w")
    entry = store.get("k")
    assert entry.text == canonical_dumps(entry.value) == canonical_dumps(copy_value(value))


@pytest.mark.parametrize(
    "value",
    [float("nan"), {"x": object()}, 10**5000, {"n": 10**4400}],
    ids=["nan", "object", "long-integer", "long-integer-member"],
)
def test_rejected_put_leaves_no_trace_in_the_store(value):
    """The value is copied and encoded before the clock ticks, so a value
    the store cannot hold (here an integer too long to write as text)
    changes nothing, and no listener hears of it. An encode error leaves no
    state behind: the next put commits."""
    store = ContextStore()
    store.put("k", 1, "w")
    heard = []
    store.add_commit_listener(heard.append)
    with pytest.raises(TypeError):
        store.put("k", value, "w")
    assert store.last_logical_time() == 1
    assert store.get("k").version == 1
    assert heard == []
    assert store.put("k", {"n": 1, "a": [2.5, None]}, "w") == 2
    assert [e.text for e in heard] == ['{"a":[2.5,null],"n":1}']


def test_canonical_object_equals_dumping_the_object():
    members = {"b": canonical_dumps([1, 1.0]), "é\n": canonical_dumps("%s"), "a": "{}"}
    value = {"b": [1, 1.0], "é\n": "%s", "a": {}}
    assert canonical_object(members) == canonical_dumps(value)


def test_cas_put_create_update_conflict():
    store = ContextStore()
    assert store.cas_put("x", 1, 0, "w") == 1
    assert store.cas_put("x", 2, 1, "w") == 2
    with pytest.raises(CasConflict) as info:
        store.cas_put("x", 9, 1, "w")
    assert info.value.key == "x"
    assert info.value.current_version == 2
    with pytest.raises(CasConflict) as info:
        store.cas_put("fresh", 9, 3, "w")
    assert info.value.current_version == 0


def test_snapshot_is_isolated_from_later_writes():
    """A snapshot is a read-only view of the entries as they stood when it
    was taken: later commits do not show in it, and it takes no writes."""
    store = ContextStore()
    store.put("x", 1, "w")
    snap = store.snapshot()
    store.put("x", 2, "w")
    store.put("y", 5, "w")
    assert snap["x"].value == 1
    assert "y" not in snap
    assert max(e.logical_time for e in snap.values()) == 1
    assert max(e.logical_time for e in store.snapshot().values()) == 3
    with pytest.raises(TypeError):
        snap["x"] = store.get("x")


def test_put_many_is_one_atomic_batch():
    store = ContextStore()
    sub = store.subscribe(And((Exists("a"), Exists("b"))))
    versions = store.put_many([("a", 1), ("b", 2), ("a", 3)], "w")
    assert versions == [1, 1, 2]
    # the conjunction rose exactly once, at the commit that completed it
    assert store.drain_notifications() == [(sub, 2)]


@pytest.mark.parametrize(
    "value", [float("inf"), {"x": object()}, 10**5000], ids=["inf", "object", "long-integer"]
)
def test_rejected_put_many_commits_none_of_its_batch(value):
    """Every write of a batch is checked and encoded before the first one
    commits, so one value the store cannot hold leaves the store as it was."""
    store = ContextStore()
    sub = store.subscribe(Exists("a"))
    heard = []
    store.add_commit_listener(heard.append)
    with pytest.raises(TypeError):
        store.put_many([("a", 1), ("b", value), ("c", 3)], "w")
    assert store.last_logical_time() == 0
    assert store.get("a") is None
    assert heard == []
    assert store.drain_notifications() == []
    store.put("a", 1, "w")  # the watch saw no commit, so this is its rising edge
    assert store.drain_notifications() == [(sub, 1)]


def test_copy_value_rejects_nesting_past_the_recursion_limit():
    deep = []
    for _ in range(100_000):
        deep = [deep]
    with pytest.raises(TypeError, match="nested too deeply"):
        copy_value({"k": deep})


def _nested(depth: int, leaf=0):
    value = leaf
    for i in range(depth):
        value = [value] if i % 2 else {"k": value}
    return value


def test_copy_value_caps_nesting_at_max_value_depth():
    """A value of exactly MAX_VALUE_DEPTH levels of lists and objects is
    copied; one more level is rejected, naming the element past the cap.
    The store reports that as its plain TypeError and commits nothing."""
    assert copy_value(_nested(MAX_VALUE_DEPTH)) == _nested(MAX_VALUE_DEPTH)
    with pytest.raises(TypeError, match=r"^nested too deeply at \$\.k\[0\]\.k") as info:
        copy_value(_nested(MAX_VALUE_DEPTH + 1))
    assert info.value.path.count(".k") + info.value.path.count("[0]") == MAX_VALUE_DEPTH
    store = ContextStore()
    store.put("ok", _nested(MAX_VALUE_DEPTH), "w")
    with pytest.raises(TypeError, match="nested too deeply") as info:
        store.put("deep", _nested(MAX_VALUE_DEPTH + 1), "w")
    assert type(info.value) is TypeError
    assert store.get("deep") is None and store.last_logical_time() == 1


# -- Rising-edge notifications -----------------------------------------------------


def test_drain_order_example():
    store = ContextStore()
    s1 = store.subscribe(Exists("x"))
    s2 = store.subscribe(Exists("y"))
    s3 = store.subscribe(Equals("x", 1))
    for i in range(4):
        store.put(f"dummy{i}", i, "w")  # t=1..4
    store.put("x", 1, "w")  # t=5, raises s1 and s3
    store.put("dummy4", 0, "w")  # t=6
    store.put("y", 2, "w")  # t=7, raises s2
    assert store.drain_notifications() == [
        (s1, 5),
        (s3, 5),
        (s2, 7),
    ]
    assert store.drain_notifications() == []


def test_subscribe_fires_registration_edge_when_already_true():
    store = ContextStore()
    store.put("x", 1, "w")
    store.put("pad", 0, "w")
    sub = store.subscribe(Exists("x"))
    assert store.drain_notifications() == [(sub, 2)]


def test_edge_requires_false_to_true_transition():
    store = ContextStore()
    sub = store.subscribe(Equals("x", 1))
    store.put("x", 1, "w")  # rises
    store.put("x", 1, "w")  # stays true, no edge
    store.put("x", 2, "w")  # falls silently
    store.put("x", 1, "w")  # rises again
    assert store.drain_notifications() == [
        (sub, 1),
        (sub, 4),
    ]


def test_equals_watch_compares_integers_exactly_on_commit():
    """An integer past float precision is not rounded to its neighbour, and
    one past float range is compared, not raised on mid-commit."""
    store = ContextStore()
    near = store.subscribe(Equals("n", 2**53 + 1))
    huge = store.subscribe(Equals("n", 10**400))
    store.put("n", 2**53, "w")
    store.put("n", 10**400, "w")
    store.put("n", 2**53 + 1, "w")
    assert store.drain_notifications() == [(huge, 2), (near, 3)]
    assert store.get("n").version == 3


def test_exists_does_not_refire_on_overwrite():
    store = ContextStore()
    sub = store.subscribe(Exists("x"))
    store.put("x", 1, "w")
    store.put("x", 2, "w")
    store.put("x", None, "w")
    assert store.drain_notifications() == [(sub, 1)]


def test_random_sequences_match_edge_oracle():
    rng = random.Random(42)
    for _ in range(100):
        store = ContextStore()
        oracle = EdgeOracle()
        key_pool = ["a", "b", "c", "d"]
        value_pool = [None, True, False, 0, 1, 2, "x"]
        for _ in range(rng.randint(2, 6)):
            kind = rng.randrange(3)
            key = rng.choice(key_pool)
            if kind == 0:
                condition = Exists(key)
            elif kind == 1:
                condition = Equals(key, rng.choice(value_pool))
            else:
                condition = And((Exists(key), Equals(rng.choice(key_pool), rng.choice(value_pool))))
            assert store.subscribe(condition) == oracle.subscribe(condition)
        for _ in range(rng.randint(5, 25)):
            if rng.random() < 0.2:
                assert store.drain_notifications() == oracle.drain()
            key = rng.choice(key_pool)
            value = rng.choice(value_pool)
            store.put(key, value, "w")
            oracle.commit(key, value)
        assert store.drain_notifications() == oracle.drain()


# Four keys that writes hit and one, "z", that none does.
_INDEX_KEYS = ("a", "b", "c", "d", "z")
_INDEX_VALUES = (None, True, False, 0, 1, 2, "x")


def _random_condition(rng: random.Random, depth: int):
    """A condition nested up to *depth* levels; And and Or take 0-3 children."""
    if depth == 0 or rng.random() < 0.3:
        key = rng.choice(_INDEX_KEYS)
        return Exists(key) if rng.random() < 0.5 else Equals(key, rng.choice(_INDEX_VALUES))
    op = rng.choice((And, Or, Not))
    if op is Not:
        return Not(_random_condition(rng, depth - 1))
    return op(tuple(_random_condition(rng, depth - 1) for _ in range(rng.randint(0, 3))))


@pytest.mark.parametrize("seed", range(12))
def test_key_indexed_watches_match_the_edge_oracle(seed):
    """Hundreds of watches over five keys, nested up to three levels, with
    empty joins, a key nothing writes, and an Equals that rises, falls and
    rises again. The store re-evaluates only the watches that read a
    commit's key; the oracle re-evaluates every watch after every commit.
    Subscriptions, puts, batches and drains interleave at random."""
    rng = random.Random(seed)
    store, oracle = ContextStore(), EdgeOracle()
    edges: list[tuple[int, int]] = []

    def subscribe(condition) -> int:
        sub = store.subscribe(condition)
        assert sub == oracle.subscribe(condition)
        return sub

    def drain() -> None:
        drained = store.drain_notifications()
        assert drained == oracle.drain()
        edges.extend(drained)

    for condition in (And(()), Or(()), Not(Or(())), Exists("z")):
        subscribe(condition)
    toggled = subscribe(Equals("a", 1))
    for _ in range(rng.randint(200, 300)):
        subscribe(_random_condition(rng, 3))
    writes = [("a", 1), ("a", 2), ("a", 1)]  # the Equals rises, falls, rises
    for _ in range(rng.randint(40, 80)):
        writes.append((rng.choice(_INDEX_KEYS[:4]), rng.choice(_INDEX_VALUES)))
    i = 0
    while i < len(writes):
        roll = rng.random()
        if roll < 0.15:
            drain()
        elif roll < 0.25:
            subscribe(_random_condition(rng, 3))
        batch = writes[i : i + (1 if roll < 0.7 else rng.randint(2, 4))]
        if len(batch) == 1:
            store.put(*batch[0], "w")
        else:
            store.put_many(batch, "w")
        for key, value in batch:
            oracle.commit(key, value)
        i += len(batch)
    drain()
    assert [t for sub, t in edges if sub == toggled][:2] == [1, 3]


# -- Commit listeners --------------------------------------------------------------


def test_commit_listener_sees_commits_in_order():
    store = ContextStore()
    seen = []
    store.add_commit_listener(lambda entry: seen.append((entry.logical_time, entry.key)))
    store.put("a", 1, "w")
    store.put_many([("b", 1), ("a", 2)], "w")
    assert seen == [(1, "a"), (2, "b"), (3, "a")]


# -- Properties over random operation sequences ---------------------------------------


@given(
    st.lists(
        st.tuples(keys, small_values),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=50)
def test_version_and_time_density(writes):
    store = ContextStore()
    commits = []
    store.add_commit_listener(commits.append)
    for key, value in writes:
        store.put(key, value, "w")
    assert [c.logical_time for c in commits] == list(range(1, len(writes) + 1))
    per_key: dict[str, list[int]] = {}
    for c in commits:
        per_key.setdefault(c.key, []).append(c.version)
    for versions in per_key.values():
        assert versions == list(range(1, len(versions) + 1))


# -- cas linearizability ----------------------------------------------------------------


def _apply_program(store_programs):
    """Run one interleaving against the live store and the sequential model."""
    for order in interleavings(store_programs):
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


def test_cas_exhaustive_interleavings_small():
    programs = [
        [("put", "a", 1), ("cas", "a", 10, 1)],
        [("cas", "a", 20, 0), ("put", "a", 2)],
    ]
    _apply_program(programs)


def test_cas_retry_threads_reach_exact_total():
    store = ContextStore()
    rounds = 100

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

    threads = [threading.Thread(target=increment_loop) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert store.get("counter").value == 2 * rounds
    assert store.get("counter").version == 2 * rounds
