"""Versioned key/value blackboard with rising-edge watch subscriptions.

The store is the shared coordination surface: writers commit versioned
entries under a single store-wide logical clock, readers take snapshots,
and subscribers are notified exactly once per false-to-true transition of a
watch condition evaluated over successive post-commit states. A snapshot is
a read-only ``types.MappingProxyType`` of the entries by key, as they stood
at one instant; later commits do not show in it. Commit listeners see
every commit in order; the runtime records each one as a trace event.

Every stored value is a validated plain copy (:func:`copy_value`, which
also caps nesting at :data:`MAX_VALUE_DEPTH` levels), made once at commit;
listeners and readers must not change it. Its canonical text, compact JSON
with map keys sorted by the one C encoder built at import
(:func:`canonical_dumps`), is also made once at commit and kept on the
entry as ``ContextEntry.text``; an entry is a read-only tuple, built in one
call. Every line that embeds a stored value (the protocol's context-write
and summary-request lines, the trace's ``scs_write`` and ``stage_done``
lines, the final summary) is assembled from that text, with neither a
second encoding nor a second check.
"""
from __future__ import annotations

import json
import math
import threading
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from json.encoder import c_make_encoder, encode_basestring_ascii
from types import MappingProxyType
from typing import Any, Callable, NamedTuple, Union

ContextValue = Union[None, bool, int, float, str, list, dict]


class CasConflict(Exception):
    """cas_put lost the version race; carries the version that is actually live."""

    def __init__(self, key: str, current_version: int):
        super().__init__(f"stale expected version for {key!r}; current={current_version}")
        self.key = key
        self.current_version = current_version


# How many levels of lists and objects a value may nest. Every value boundary
# copies through copy_value, so no deeper value gets in, and the cap sits far
# enough below the interpreter's recursion limit that a run can always encode
# what a boundary let in.
MAX_VALUE_DEPTH = 64
_TOO_DEEP = f" (more than {MAX_VALUE_DEPTH} levels)"


class UnstorableValueError(TypeError):
    """A value :func:`copy_value` cannot store. ``path`` names the offending
    element (``$`` is the value itself, ``$.k[0]`` the first item of its
    member ``k``). ``steps`` collects that path from the element outwards
    while the recursion unwinds, so no path text is built for values that
    are accepted."""

    def __init__(self, problem: str, detail: str = ""):
        super().__init__(problem)
        self.problem = problem
        self.detail = detail
        self.steps: list[str] = []

    @property
    def path(self) -> str:
        return "$" + "".join(reversed(self.steps))

    def __str__(self) -> str:
        return f"{self.problem} at {self.path}{self.detail}"


_LEAVES = frozenset({type(None), bool, int, str})


def copy_value(value: Any) -> ContextValue:
    """Deep-copy *value* into plain JSON-shaped data, validating as it goes.

    Tuples are normalized to lists. Non-finite numbers, non-text map keys,
    foreign types and nesting of more than :data:`MAX_VALUE_DEPTH` levels
    are rejected with :class:`UnstorableValueError`, a ``TypeError``, so
    every stored value can round-trip through the canonical line encoding.
    """
    return _copy(value, 0)


def _copy(value: Any, depth: int) -> ContextValue:
    cls = type(value)
    if cls in _LEAVES:
        return value
    if cls is not dict and cls is not list:
        # Floats and subclasses of the leaf types.
        if isinstance(value, (bool, int, str)):
            return value
        if isinstance(value, float):
            if not math.isfinite(value):
                raise UnstorableValueError("non-finite number")
            return value
        if cls is ContextEntry:  # a tuple, but an entry is never a value itself
            raise UnstorableValueError("unsupported value type", ": ContextEntry")
    # An exact leaf item is taken inline, with no call; anything else recurses.
    if cls is list or (cls is not dict and isinstance(value, (list, tuple))):
        if depth == MAX_VALUE_DEPTH:
            raise UnstorableValueError("nested too deeply", _TOO_DEEP)
        items: list[ContextValue] = []
        for i, item in enumerate(value):
            if type(item) in _LEAVES:
                items.append(item)
                continue
            try:
                items.append(_copy(item, depth + 1))
            except UnstorableValueError as exc:
                exc.steps.append(f"[{i}]")
                raise
        return items
    if cls is dict or isinstance(value, Mapping):
        if depth == MAX_VALUE_DEPTH:
            raise UnstorableValueError("nested too deeply", _TOO_DEEP)
        out: dict[str, ContextValue] = {}
        for k, v in value.items():
            if type(k) is not str and not isinstance(k, str):
                raise UnstorableValueError("non-text key", f": {k!r}")
            if type(v) in _LEAVES:
                out[k] = v
                continue
            try:
                out[k] = _copy(v, depth + 1)
            except UnstorableValueError as exc:
                exc.steps.append(f".{k}")
                raise
        return out
    raise UnstorableValueError("unsupported value type", f": {cls.__name__}")


def values_equal(a: ContextValue, b: ContextValue) -> bool:
    """Structural equality: numbers compare by exact numeric value (1 == 1.0,
    but 2**53 + 1 != 2**53), booleans are distinct from numbers, containers
    compare element-wise."""
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool) and a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a == b
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


# Built once. ``JSONEncoder.encode`` builds a C encoder per call for a value
# that is not text, so one is held here, with no cycle check (markers=None).
_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)
_HELD = c_make_encoder and c_make_encoder(
    None, _CANONICAL_ENCODER.default, encode_basestring_ascii, None, ":", ",", True, False, False
)


def canonical_dumps(value: ContextValue) -> str:
    """Serialize an already-validated value to compact JSON with sorted map
    keys everywhere. The C encoder sorts the keys, so this is the same text
    as dumping :func:`canonicalize_value` of *value*, without the rebuild.
    *value* must be acyclic, as every :func:`copy_value` copy is: a cyclic
    value raises ``RecursionError``."""
    if type(value) is str:
        return encode_basestring_ascii(value)
    return "".join(_HELD(value, 0)) if _HELD else _CANONICAL_ENCODER.encode(value)


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
    """Inverse of :func:`condition_to_value`. Raises :class:`ValueError`
    naming the offending field by its path, such as ``children[0].key``."""
    return _condition_from(data, "")


def _condition_from(data, path: str) -> WatchCondition:
    def named(name: str) -> str:
        return f"{path}.{name}" if path else name

    def field(name: str, kind: type, description: str):
        if name not in data:
            raise ValueError(f"condition field {named(name)!r}: missing")
        if not isinstance(data[name], kind):
            raise ValueError(f"condition field {named(name)!r}: expected {description}")
        return data[name]

    if not isinstance(data, Mapping):
        where = f"condition field {path!r}" if path else "condition"
        raise ValueError(f"{where}: expected an object")
    op = data.get("op")
    if op == "exists":
        return Exists(field("key", str, "text"))
    if op == "equals":
        key, value = field("key", str, "text"), field("value", object, "a value")
        try:
            return Equals(key, copy_value(value))
        except TypeError as exc:
            raise ValueError(f"condition field {named('value')!r}: {exc}") from exc
    if op == "and" or op == "or":
        children = field("children", list, "a list")
        where = named("children")
        parts = tuple(_condition_from(c, f"{where}[{i}]") for i, c in enumerate(children))
        return And(parts) if op == "and" else Or(parts)
    if op == "not":
        return Not(_condition_from(field("child", object, "an object"), named("child")))
    raise ValueError(f"condition field {named('op')!r}: unknown condition op {op!r}")


# -- Entries, snapshots, subscriptions ---------------------------------------


class ContextEntry(NamedTuple):
    """One committed version of a key, a read-only tuple built once at commit.
    ``text`` is ``canonical_dumps(value)``."""

    key: str
    value: ContextValue
    version: int
    writer_id: str
    logical_time: int
    text: str


# What :meth:`ContextStore.snapshot` returns, and what actions read.
Snapshot = Mapping[str, ContextEntry]


class _Watch:
    __slots__ = ("watch_id", "condition", "held")  # held: its value after the last commit

    def __init__(self, watch_id: int, condition: WatchCondition, held: bool):
        self.watch_id, self.condition, self.held = watch_id, condition, held


class ContextStore:
    """Shared watchable store.

    Notifications are delivered through :meth:`drain_notifications`, ordered
    by (logical_time, watch id). Commits are totally ordered by an
    internal lock, so concurrent writers stay linearizable.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: dict[str, ContextEntry] = {}
        self._logical_time = 0
        self._watches: list[_Watch] = []
        self._pending: list[tuple[int, int]] = []  # (watch id, logical_time)
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
        """The entries by key, as a read-only ``types.MappingProxyType`` of a copy
        made under the lock: assignment raises ``TypeError``; later commits never show."""
        with self._lock:
            return MappingProxyType(dict(self._entries))

    def last_logical_time(self) -> int:
        with self._lock:
            return self._logical_time

    # -- Subscriptions --

    def subscribe(self, condition: WatchCondition) -> int:
        """Register a rising-edge watch; returns its id (1, 2, ...), which
        :meth:`drain_notifications` names its edges by. If the condition
        already holds, one notification is queued immediately so
        registration order never races seeding order."""
        with self._lock:
            watch = _Watch(len(self._watches) + 1, condition, evaluate(condition, self._entries))
            self._watches.append(watch)
            if watch.held:
                self._pending.append((watch.watch_id, self._logical_time))
            return watch.watch_id

    def drain_notifications(self) -> list[tuple[int, int]]:
        """Return and clear the pending notifications as (watch id,
        logical_time), in (logical_time, id) order, the order they were queued
        in: the clock never falls, and at one time ids queue in rising order."""
        with self._lock:
            items, self._pending = self._pending, []
            return items

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
        try:
            value = copy_value(value)
            text = canonical_dumps(value)
        except UnstorableValueError as exc:  # the store's error class is plain TypeError
            raise TypeError(str(exc)) from None
        except ValueError as exc:  # an integer past the interpreter's digit limit
            raise TypeError(f"value has no canonical text: {exc}") from None
        return key, value, writer_id, text

    def _commit(self, key: str, value: ContextValue, writer_id: str, text: str) -> ContextEntry:
        previous = self._entries.get(key)
        self._logical_time += 1
        version = 1 if previous is None else previous.version + 1
        entry = ContextEntry(key, value, version, writer_id, self._logical_time, text)
        self._entries[key] = entry
        for listener in self._listeners:
            listener(entry)
        for watch in self._watches:
            state = evaluate(watch.condition, self._entries)
            if state and not watch.held:
                self._pending.append((watch.watch_id, entry.logical_time))
            watch.held = state
        return entry
