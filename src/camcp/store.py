"""Versioned key/value blackboard with rising-edge watch subscriptions.

The store is the shared coordination surface: writers commit versioned
entries under a single store-wide logical clock, readers take consistent
snapshots, and subscribers are notified exactly once per false-to-true
transition of a watch condition evaluated over successive post-commit
states. Commit listeners see every commit in order; the runtime records
each one as a trace event.

Every stored value is a validated plain copy (:func:`copy_value`), made
once at commit; listeners and readers must not change it. Its canonical
text, compact JSON with map keys sorted by the C encoder
(:func:`canonical_dumps`), is also made once at commit and kept on the entry
as ``ContextEntry.text``. Every line that embeds a stored value (the
protocol's context-write and summary-request lines, the trace's
``scs_write`` and ``stage_done`` lines, the final summary) is assembled from
that text instead of encoding the value again.
"""
from __future__ import annotations

import json
import math
import threading
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Union

ContextValue = Union[None, bool, int, float, str, list, dict]


class CasConflict(Exception):
    """cas_put lost the version race; carries the version that is actually live."""

    def __init__(self, key: str, current_version: int):
        super().__init__(f"stale expected version for {key!r}; current={current_version}")
        self.key = key
        self.current_version = current_version


class _Rejected(Exception):
    """A value :func:`copy_value` cannot store. ``steps`` collects the path
    from the offending element outwards while the recursion unwinds, so no
    path text is built for values that are accepted."""

    def __init__(self, problem: str, detail: str = ""):
        self.problem = problem
        self.detail = detail
        self.steps: list[str] = []


_LEAVES = frozenset({type(None), bool, int, str})


def copy_value(value: Any, _path: str = "$") -> ContextValue:
    """Deep-copy *value* into plain JSON-shaped data, validating as it goes.

    Tuples are normalized to lists. Non-finite numbers, non-text map keys,
    foreign types and nesting too deep for the interpreter's recursion limit
    are rejected with ``TypeError``, so every stored value can round-trip
    through the canonical line encoding.
    """
    try:
        return _copy(value)
    except _Rejected as exc:
        path = _path + "".join(reversed(exc.steps))
        raise TypeError(f"{exc.problem} at {path}{exc.detail}") from None
    except RecursionError:
        raise TypeError(f"value at {_path} is nested too deeply") from None


def _copy(value: Any) -> ContextValue:
    cls = type(value)
    if cls in _LEAVES:
        return value
    if cls is not dict and cls is not list:
        # Floats and subclasses of the leaf types.
        if isinstance(value, (bool, int, str)):
            return value
        if isinstance(value, float):
            if not math.isfinite(value):
                raise _Rejected("non-finite number")
            return value
    if cls is list or isinstance(value, (list, tuple)):
        items: list[ContextValue] = []
        for i, item in enumerate(value):
            try:
                items.append(_copy(item))
            except _Rejected as exc:
                exc.steps.append(f"[{i}]")
                raise
        return items
    if cls is dict or isinstance(value, Mapping):
        out: dict[str, ContextValue] = {}
        for k, v in value.items():
            if not isinstance(k, str):
                raise _Rejected("non-text key", f": {k!r}")
            try:
                out[k] = _copy(v)
            except _Rejected as exc:
                exc.steps.append(f".{k}")
                raise
        return out
    raise _Rejected("unsupported value type", f": {cls.__name__}")


def values_equal(a: ContextValue, b: ContextValue) -> bool:
    """Structural equality: numbers compare by numeric value (1 == 1.0),
    booleans are distinct from numbers, containers compare element-wise."""
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool) and a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return float(a) == float(b)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(values_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(values_equal(v, b[k]) for k, v in a.items())
    if type(a) is not type(b):
        return False
    return a == b


def canonicalize_value(value: ContextValue) -> ContextValue:
    """Rebuild containers with map keys in sorted order (scalars unchanged).

    No run path calls this: it is the reference form that the tests hold
    :func:`canonical_dumps` to, and ``perfbench`` counts its calls."""
    if isinstance(value, list):
        return [canonicalize_value(v) for v in value]
    if isinstance(value, dict):
        return {k: canonicalize_value(value[k]) for k in sorted(value)}
    return value


# Built once: ``json.dumps`` with these arguments builds a new encoder per call.
_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def canonical_dumps(value: ContextValue) -> str:
    """Serialize an already-validated value to compact JSON with sorted map
    keys everywhere. The C encoder sorts the keys, so this is the same text
    as dumping :func:`canonicalize_value` of *value*, without the rebuild."""
    return _CANONICAL_ENCODER.encode(value)


def canonical_object(members: Mapping[str, str]) -> str:
    """The canonical text of an object, from the canonical texts of its
    member values: what :func:`canonical_dumps` gives for the object itself,
    without encoding any member value again."""
    return "{" + ",".join(f"{canonical_dumps(k)}:{members[k]}" for k in sorted(members)) + "}"


# -- Watch conditions --------------------------------------------------------


@dataclass(frozen=True)
class Exists:
    key: str


@dataclass(frozen=True)
class Equals:
    key: str
    value: ContextValue


@dataclass(frozen=True)
class And:
    children: tuple["WatchCondition", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))


@dataclass(frozen=True)
class Or:
    children: tuple["WatchCondition", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))


@dataclass(frozen=True)
class Not:
    child: "WatchCondition"


WatchCondition = Union[Exists, Equals, And, Or, Not]


def evaluate(condition: WatchCondition, entries: Mapping[str, "ContextEntry"]) -> bool:
    """Evaluate a condition against a snapshot. Total: missing keys make
    Exists/Equals false, never an error."""
    if isinstance(condition, Exists):
        return condition.key in entries
    if isinstance(condition, Equals):
        entry = entries.get(condition.key)
        return entry is not None and values_equal(entry.value, condition.value)
    if isinstance(condition, And):
        return all(evaluate(c, entries) for c in condition.children)
    if isinstance(condition, Or):
        return any(evaluate(c, entries) for c in condition.children)
    if isinstance(condition, Not):
        return not evaluate(condition.child, entries)
    raise TypeError(f"not a watch condition: {condition!r}")


def condition_to_value(condition: WatchCondition) -> dict:
    """Encode a condition as plain JSON-shaped data."""
    if isinstance(condition, Exists):
        return {"op": "exists", "key": condition.key}
    if isinstance(condition, Equals):
        return {"op": "equals", "key": condition.key, "value": copy_value(condition.value)}
    if isinstance(condition, And):
        return {"op": "and", "children": [condition_to_value(c) for c in condition.children]}
    if isinstance(condition, Or):
        return {"op": "or", "children": [condition_to_value(c) for c in condition.children]}
    if isinstance(condition, Not):
        return {"op": "not", "child": condition_to_value(condition.child)}
    raise TypeError(f"not a watch condition: {condition!r}")


def condition_from_value(data: Mapping) -> WatchCondition:
    op = data.get("op")
    if op == "exists":
        return Exists(data["key"])
    if op == "equals":
        return Equals(data["key"], copy_value(data["value"]))
    if op == "and":
        return And(tuple(condition_from_value(c) for c in data["children"]))
    if op == "or":
        return Or(tuple(condition_from_value(c) for c in data["children"]))
    if op == "not":
        return Not(condition_from_value(data["child"]))
    raise ValueError(f"unknown condition op: {op!r}")


# -- Entries, snapshots, subscriptions ---------------------------------------


@dataclass(frozen=True)
class ContextEntry:
    """One committed version of a key. ``text`` is ``canonical_dumps(value)``."""

    key: str
    value: ContextValue
    version: int
    writer_id: str
    logical_time: int
    text: str


class Snapshot(Mapping):
    """Immutable consistent view: all commits up to one logical time, no later ones."""

    __slots__ = ("_entries", "logical_time")

    def __init__(self, entries: dict[str, ContextEntry], logical_time: int):
        self._entries = entries
        self.logical_time = logical_time

    def __getitem__(self, key: str) -> ContextEntry:
        return self._entries[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def value(self, key: str, default: ContextValue = None) -> ContextValue:
        entry = self._entries.get(key)
        return default if entry is None else entry.value

    def values_map(self) -> dict[str, ContextValue]:
        return {k: e.value for k, e in self._entries.items()}

    def __repr__(self) -> str:
        return f"Snapshot(t={self.logical_time}, keys={sorted(self._entries)})"


@dataclass
class Subscription:
    subscription_id: int
    condition: WatchCondition
    last_state: bool


class ContextStore:
    """Shared watchable store.

    Notifications are delivered through :meth:`drain_notifications`, ordered
    by (logical_time, subscription_id). Commits are totally ordered by an
    internal lock, so concurrent writers stay linearizable.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: dict[str, ContextEntry] = {}
        self._logical_time = 0
        self._subscriptions: list[Subscription] = []
        self._pending: list[tuple[int, int]] = []  # (logical_time, subscription_id)
        self._listeners: list[Callable[[ContextEntry], None]] = []

    # -- Write operations --

    def put(self, key: str, value: ContextValue, writer_id: str) -> int:
        """Commit a new version of *key*; returns the committed version."""
        with self._lock:
            return self._commit(*self._prepare(key, value, writer_id)).version

    def cas_put(self, key: str, value: ContextValue, expected_version: int, writer_id: str) -> int:
        """Commit only if *key* is still at *expected_version* (0 = absent).

        Raises :class:`CasConflict` carrying the live version otherwise.
        """
        with self._lock:
            current = self._entries.get(key)
            current_version = 0 if current is None else current.version
            if current_version != expected_version:
                raise CasConflict(key, current_version)
            return self._commit(*self._prepare(key, value, writer_id)).version

    def put_many(self, writes: Iterable[tuple[str, ContextValue]], writer_id: str) -> list[int]:
        """Commit a batch atomically: no other writer or snapshot interleaves,
        and every write is checked, copied and encoded before any commits, so
        a rejected batch (``TypeError``) leaves the store unchanged.

        Each write still gets its own version and logical time, and
        subscriptions are re-evaluated after each one.
        """
        with self._lock:
            prepared = [self._prepare(k, v, writer_id) for k, v in writes]
            return [self._commit(*write).version for write in prepared]

    # -- Read operations --

    def get(self, key: str) -> ContextEntry | None:
        with self._lock:
            return self._entries.get(key)

    def snapshot(self) -> Snapshot:
        with self._lock:
            return Snapshot(dict(self._entries), self._logical_time)

    def last_logical_time(self) -> int:
        with self._lock:
            return self._logical_time

    # -- Subscriptions --

    def subscribe(self, condition: WatchCondition) -> Subscription:
        """Register a rising-edge watch. If the condition already holds, one
        notification is queued immediately so registration order never races
        seeding order."""
        with self._lock:
            sub = Subscription(
                subscription_id=len(self._subscriptions) + 1,
                condition=condition,
                last_state=evaluate(condition, self._entries),
            )
            self._subscriptions.append(sub)
            if sub.last_state:
                self._pending.append((self._logical_time, sub.subscription_id))
            return sub

    def drain_notifications(self) -> list[tuple[int, int]]:
        """Return and clear all pending notifications as
        (subscription_id, logical_time), ordered by (logical_time, id)."""
        with self._lock:
            items = sorted(self._pending)
            self._pending.clear()
            return [(sub_id, t) for t, sub_id in items]

    def add_commit_listener(self, listener: Callable[[ContextEntry], None]) -> None:
        """Register a callback invoked once per commit, in commit order.

        Called with the store lock held; listeners must not call back into
        the store.
        """
        self._listeners.append(listener)

    # -- Internals --

    def _prepare(self, key: str, value: ContextValue, writer_id: str):
        """Check one write and make its stored copy and canonical text."""
        if not isinstance(key, str) or not key:
            raise TypeError(f"key must be non-empty text, got {key!r}")
        if not isinstance(writer_id, str) or not writer_id:
            raise TypeError(f"writer_id must be non-empty text, got {writer_id!r}")
        value = copy_value(value)
        try:
            text = canonical_dumps(value)
        except (ValueError, RecursionError) as exc:  # a huge integer, or nesting too deep
            raise TypeError(f"value has no canonical text: {exc}") from None
        return key, value, writer_id, text

    def _commit(self, key: str, value: ContextValue, writer_id: str, text: str) -> ContextEntry:
        previous = self._entries.get(key)
        self._logical_time += 1
        entry = ContextEntry(
            key=key,
            value=value,
            version=1 if previous is None else previous.version + 1,
            writer_id=writer_id,
            logical_time=self._logical_time,
            text=text,
        )
        self._entries[key] = entry
        for listener in self._listeners:
            listener(entry)
        for sub in self._subscriptions:
            state = evaluate(sub.condition, self._entries)
            if state and not sub.last_state:
                self._pending.append((entry.logical_time, sub.subscription_id))
            sub.last_state = state
        return entry
