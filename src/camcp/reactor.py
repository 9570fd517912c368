"""Stateful tool-server reactors driven by store watch edges.

A reactor idles until its watch condition rises, then fires once: it takes
a fresh consistent snapshot, runs its action, and commits the writes the
action returns as one atomic batch ending with its done flag. An action
fails only by raising; that failure, or a batch the store rejects, is
contained per reactor, and independent reactors keep running.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .store import ContextStore, ContextValue, Snapshot, WatchCondition, values_equal


class ReactorState(Enum):
    IDLE = "idle"
    READY = "ready"
    FIRED = "fired"
    FAILED = "failed"


class DuplicateServerError(Exception):
    def __init__(self, what: str):
        super().__init__(f"duplicate registration: {what}")


class BudgetExceededError(Exception):
    def __init__(self, max_steps: int):
        super().__init__(f"not quiescent within {max_steps} steps")
        self.max_steps = max_steps


# An action returns its ordered writes; the done flag is appended when the
# writes do not already end with it.
Action = Callable[[Snapshot], list[tuple[str, ContextValue]]]


@dataclass(frozen=True)
class ServerSpec:
    server_id: str
    trigger: WatchCondition
    action: Action
    done_key: str


class _Reactor:
    __slots__ = ("spec", "state", "edge_time", "failure")

    def __init__(self, spec: ServerSpec):
        self.spec = spec
        self.state = ReactorState.IDLE
        self.edge_time: int | None = None
        self.failure: str | None = None


class ReactorPool:
    """Registry and scheduler for reactors sharing one store.

    The optional callbacks let a caller trace activity: ``on_firing(server,
    edge_time)`` right before an action runs, ``on_fired(server, writes)``
    after its batch commits, ``on_failed(server, reason)`` when it fails.
    """

    def __init__(
        self,
        store: ContextStore,
        on_firing: Callable[[str, int], None] | None = None,
        on_fired: Callable[[str, list[tuple[str, ContextValue]]], None] | None = None,
        on_failed: Callable[[str, str], None] | None = None,
    ):
        self.store = store
        self._on_firing = on_firing
        self._on_fired = on_fired
        self._on_failed = on_failed
        self._reactors: list[_Reactor] = []
        self._by_subscription: dict[int, _Reactor] = {}

    def register(self, spec: ServerSpec) -> None:
        """Add a reactor. If its trigger already holds, the registration-time
        edge makes it ready on the next step, so seeding order never matters."""
        for reactor in self._reactors:
            if reactor.spec.server_id == spec.server_id:
                raise DuplicateServerError(f"server_id {spec.server_id!r}")
            if reactor.spec.done_key == spec.done_key:
                raise DuplicateServerError(f"done_key {spec.done_key!r}")
        subscription = self.store.subscribe(spec.trigger)
        reactor = _Reactor(spec)
        self._reactors.append(reactor)
        self._by_subscription[subscription.subscription_id] = reactor

    def states(self) -> dict[str, ReactorState]:
        return {r.spec.server_id: r.state for r in self._reactors}

    def failures(self) -> dict[str, str]:
        return {r.spec.server_id: r.failure for r in self._reactors if r.failure}

    # -- Scheduling --

    def run_until_quiescent(self, max_steps: int) -> int:
        """Step until no reactor is ready; returns the number of steps taken.

        Each step fires every ready reactor in registration order; edges
        risen by those fires are picked up by the next step.

        Raises :class:`BudgetExceededError` if quiescence is not reached
        within ``max_steps``.
        """
        steps = 0
        while True:
            self._absorb()
            if not any(r.state is ReactorState.READY for r in self._reactors):
                return steps
            if steps >= max_steps:
                raise BudgetExceededError(max_steps)
            for reactor in self._reactors:
                if reactor.state is ReactorState.READY:
                    self._fire_one(reactor)
            steps += 1

    def _absorb(self) -> None:
        for subscription_id, logical_time in self.store.drain_notifications():
            reactor = self._by_subscription.get(subscription_id)
            if reactor is not None and reactor.state is ReactorState.IDLE:
                reactor.state = ReactorState.READY
                reactor.edge_time = logical_time

    # -- One fire --

    def _fire_one(self, reactor: _Reactor) -> None:
        spec = reactor.spec
        if self._on_firing is not None:
            self._on_firing(spec.server_id, reactor.edge_time or 0)
        snapshot = self.store.snapshot()
        try:
            writes = list(spec.action(snapshot))
            if not (writes and writes[-1][0] == spec.done_key and values_equal(writes[-1][1], True)):
                writes.append((spec.done_key, True))
            self.store.put_many(writes, writer_id=spec.server_id)
        except Exception as exc:  # a crash, or a batch the store rejected whole
            reactor.state = ReactorState.FAILED
            reactor.failure = f"{type(exc).__name__}: {exc}"
            if self._on_failed is not None:
                self._on_failed(spec.server_id, reactor.failure)
            return
        reactor.state = ReactorState.FIRED
        if self._on_fired is not None:
            self._on_fired(spec.server_id, writes)
