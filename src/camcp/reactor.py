"""Stateful tool-server reactors driven by store watch edges.

A reactor serves one :class:`~camcp.planner.Stage`, which holds its wiring.
It idles until the stage's trigger rises, then fires once: it takes a fresh
consistent snapshot, runs its action, and commits the writes the action
returns as one atomic batch ending with its done flag. An action fails only
by raising; that failure, or a batch the store rejects, is contained per
reactor, and independent reactors keep running.

A reactor only moves IDLE -> READY -> FIRED or FAILED, never back, and each
step fires at least one ready reactor, so a pool settles within one step per
reactor, whatever its triggers. A cycle, or a trigger that can never hold,
leaves its reactors idle. Draining the store's edges lists each reactor they
make READY; a step fires that ready list in registration order, so no step
looks at an idle reactor, and the pool is quiescent when a drain lists none.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .planner import Stage
from .store import ContextStore, ContextValue, Snapshot


class ReactorState(Enum):
    IDLE = "idle"
    READY = "ready"
    FIRED = "fired"
    FAILED = "failed"


class DuplicateServerError(Exception):
    def __init__(self, what: str):
        super().__init__(f"duplicate registration: {what}")


# An action returns its ordered writes; the done flag is appended when the
# writes do not already end with it.
Action = Callable[[Snapshot], list[tuple[str, ContextValue]]]


@dataclass(frozen=True)
class ServerSpec:
    stage: Stage
    action: Action


class _Reactor:
    __slots__ = ("spec", "state", "edge_time")

    def __init__(self, spec: ServerSpec):
        self.spec = spec
        self.state = ReactorState.IDLE
        self.edge_time: int | None = None


class ReactorPool:
    """Registry and scheduler for reactors sharing one store.

    The optional callbacks let a caller trace activity. Each is handed the
    ``Stage`` of the reactor it reports on: ``on_firing(stage, edge_time)``
    right before an action runs, ``on_fired(stage, writes)`` after its batch
    commits, ``on_failed(stage, reason)`` when it fails.
    """

    def __init__(
        self,
        store: ContextStore,
        on_firing: Callable[[Stage, int], None] | None = None,
        on_fired: Callable[[Stage, list[tuple[str, ContextValue]]], None] | None = None,
        on_failed: Callable[[Stage, str], None] | None = None,
    ):
        self.store = store
        self._on_firing = on_firing
        self._on_fired = on_fired
        self._on_failed = on_failed
        self._reactors: dict[int, _Reactor] = {}  # by watch id, in registration order
        self._ready: list[int] = []  # watch ids of READY reactors, see _absorb

    def register(self, spec: ServerSpec) -> None:
        """Add a reactor. If its trigger already holds, the registration-time
        edge makes it ready on the next step, so seeding order never matters."""
        stage = spec.stage
        for reactor in self._reactors.values():
            if reactor.spec.stage.server_id == stage.server_id:
                raise DuplicateServerError(f"server_id {stage.server_id!r}")
            if reactor.spec.stage.done_key == stage.done_key:
                raise DuplicateServerError(f"done_key {stage.done_key!r}")
        self._reactors[self.store.subscribe(stage.trigger)] = _Reactor(spec)

    def states(self) -> dict[str, ReactorState]:
        return {r.spec.stage.server_id: r.state for r in self._reactors.values()}

    # -- Scheduling --

    def run_until_quiescent(self) -> int:
        """Step until no reactor is ready; returns the number of steps taken,
        at most one per registered reactor.

        Each step fires every ready reactor in registration order; edges
        risen by those fires are picked up by the next step.
        """
        steps = 0
        while ready := self._absorb():
            for watch_id in ready:
                self._fire_one(self._reactors[watch_id])
            ready.clear()
            steps += 1
        return steps

    def _absorb(self) -> list[int]:
        """Make READY each idle reactor whose edge rose, and return the ready
        list: every READY reactor's watch id, in registration order. The list
        keeps entries past a step only if a callback raised partway through
        it; the ones fired before that are dropped here."""
        for watch_id, logical_time in self.store.drain_notifications():
            reactor = self._reactors.get(watch_id)
            if reactor is not None and reactor.state is ReactorState.IDLE:
                reactor.state = ReactorState.READY
                reactor.edge_time = logical_time
                self._ready.append(watch_id)
        ready = [w for w in self._ready if self._reactors[w].state is ReactorState.READY]
        ready.sort()  # watch ids rise in registration order
        self._ready = ready
        return ready

    # -- One fire --

    def _fire_one(self, reactor: _Reactor) -> None:
        stage = reactor.spec.stage
        if self._on_firing is not None:
            self._on_firing(stage, reactor.edge_time)
        snapshot = self.store.snapshot()
        try:
            writes = list(reactor.spec.action(snapshot))
            done_key = stage.done_key
            if not (writes and writes[-1][0] == done_key and writes[-1][1] is True):
                writes.append((done_key, True))
            self.store.put_many(writes, writer_id=stage.server_id)
        except Exception as exc:  # a crash, or a batch the store rejected whole
            reactor.state = ReactorState.FAILED
            if self._on_failed is not None:
                self._on_failed(stage, f"{type(exc).__name__}: {exc}")
            return
        reactor.state = ReactorState.FIRED
        if self._on_fired is not None:
            self._on_fired(stage, writes)
