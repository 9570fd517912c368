"""Planning and summarizing seat.

The planner is a deterministic template mock so runs are cheap and
reproducible; the runtime records each of its calls as an ``llm_call``
trace event, which is what the benchmark counts.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from .store import (
    And,
    ContextEntry,
    ContextValue,
    Exists,
    WatchCondition,
    canonical_dumps,
    condition_to_value,
    copy_value,
)

KIND_TRAVEL = "travel"
KIND_WEDDING = "wedding"
KINDS = (KIND_TRAVEL, KIND_WEDDING)


class UnsupportedKindError(Exception):
    def __init__(self, kind):
        super().__init__(f"unsupported query kind: {kind!r}")
        self.kind = kind


class IncompleteContextError(Exception):
    """Summarization was asked for before the completion flag was written."""

    def __init__(self, completion_key: str):
        super().__init__(f"completion key {completion_key!r} absent from snapshot")
        self.completion_key = completion_key


@dataclass(frozen=True)
class Query:
    raw_text: str
    kind: str
    params: dict


@dataclass(frozen=True)
class Stage:
    """One stage's wiring: which server serves it, what edge wakes it, which
    flag it raises when done, its goal text, and the context keys the
    traditional orchestrator must still hold to run it."""

    stage_id: str
    server_id: str
    trigger: WatchCondition
    done_key: str
    goal: str
    required: tuple[str, ...] = ()


@dataclass(frozen=True)
class PlanBlueprint:
    goals: tuple[str, ...]
    constraints: dict
    stages: tuple[Stage, ...]
    completion_key: str


@dataclass(frozen=True)
class CostModel:
    per_call_latency_s: float = 6.0
    per_tool_latency_s: float = 0.4


_REQUIRED_PARAMS = {
    KIND_TRAVEL: ("destination", "days", "budget"),
    KIND_WEDDING: ("scenario",),
}

# Fixed per-kind stage wiring. A scenario file restates the (stage_id,
# server_id) list and adds each stage's required keys.
_OUTLINES = {
    KIND_TRAVEL: (
        Stage("location", "location_server", Exists("goals_seeded"), "location_done",
              "shortlist places to visit"),
        Stage("weather", "weather_server", Exists("location_done"), "weather_done",
              "forecast the weather"),
        Stage("hotel", "hotel_server", Exists("location_done"), "hotel_done", "book a hotel"),
        Stage("dining", "dining_server", Exists("hotel_done"), "dining_done", "plan the dining"),
    ),
    KIND_WEDDING: (
        Stage("arrivals", "arrival_tracker", Exists("goals_seeded"), "arrivals_done",
              "track guest arrivals"),
        Stage("errands", "errand_tracker", Exists("goals_seeded"), "errands_done",
              "track errand pickups"),
        Stage("schedule", "transport", Exists("requests_posted"), "schedule_done",
              "produce the shared-vehicle schedule"),
    ),
}

_COMPLETION_KEYS = {KIND_TRAVEL: "itinerary_complete", KIND_WEDDING: "logistics_complete"}


def stage_outline(kind: str) -> tuple[Stage, ...]:
    if kind not in _OUTLINES:
        raise UnsupportedKindError(kind)
    return _OUTLINES[kind]


def completion_condition(blueprint: PlanBlueprint) -> WatchCondition:
    """The completion flag is implied by the conjunction of all done keys."""
    return And(tuple(Exists(stage.done_key) for stage in blueprint.stages))


def blueprint_to_value(blueprint: PlanBlueprint) -> dict:
    return {
        "goals": list(blueprint.goals),
        "constraints": blueprint.constraints,
        "stages": [
            {
                "stage_id": s.stage_id,
                "server_id": s.server_id,
                "trigger": condition_to_value(s.trigger),
                "done_key": s.done_key,
            }
            for s in blueprint.stages
        ],
        "completion_key": blueprint.completion_key,
    }


def rendered(value: ContextValue) -> str:
    """How a summary shows a value: text as it is, anything else as its
    canonical JSON."""
    return value if isinstance(value, str) else canonical_dumps(value)


def render_summary(entries: Mapping[str, ContextEntry], blueprint: PlanBlueprint) -> str:
    """Render the final answer from context entries with a fixed template.

    Pure and deterministic: echoes every constraint verbatim and one line
    per stage output, so nothing the servers produced can silently drop out.
    Each output is shown as the canonical text its entry got at commit.
    """
    lines = ["=== final response ==="]
    lines.append("goals: " + "; ".join(blueprint.goals))
    for name, value in blueprint.constraints.items():
        lines.append(f"constraint {name}: {rendered(value)}")
    for stage in blueprint.stages:
        entry = entries.get(stage.stage_id)
        lines.append(f"{stage.stage_id}: {'null' if entry is None else entry.text}")
    done = entries.get(blueprint.completion_key)
    lines.append(f"complete: {str(done is not None and bool(done.value)).lower()}")
    return "\n".join(lines)


class MockPlanner:
    """Deterministic stand-in for the central model.

    Stateless: plan() is a pure function of the query; summarize() is a pure
    function of (snapshot, blueprint).
    """

    # -- Planning --

    def plan(self, query: Query) -> PlanBlueprint:
        """Turn a query into a blueprint: goals, constraints, stage wiring,
        completion key."""
        if query.kind not in KINDS:
            raise UnsupportedKindError(query.kind)
        missing = [p for p in _REQUIRED_PARAMS[query.kind] if p not in query.params]
        if missing:
            raise ValueError(f"query params missing {missing[0]!r} for kind {query.kind!r}")
        constraints = {
            k: copy_value(v) for k, v in query.params.items() if k != "scenario"
        }
        return PlanBlueprint(
            goals=tuple(s.goal for s in _OUTLINES[query.kind]),
            constraints=constraints,
            stages=_OUTLINES[query.kind],
            completion_key=_COMPLETION_KEYS[query.kind],
        )

    # -- Summarization --

    def summarize(self, snapshot: Mapping[str, ContextEntry], blueprint: PlanBlueprint) -> str:
        """Summarize a completed run from the shared snapshot.

        Raises :class:`IncompleteContextError` when the completion key has
        not been written yet.
        """
        if blueprint.completion_key not in snapshot:
            raise IncompleteContextError(blueprint.completion_key)
        return render_summary(snapshot, blueprint)

    def step_decision(self, stage_id: str, visible_keys: list[str]) -> str:
        """One orchestration decision in the centrally driven baseline."""
        return f"run stage {stage_id} with context [{', '.join(visible_keys)}]"

    def synthesize(self, entries: list[tuple[str, str]]) -> str:
        """Final synthesis over the orchestrator's private history, given as
        (key, :func:`rendered` value) pairs."""
        lines = ["=== final response ==="]
        lines.extend(f"{key}: {text}" for key, text in entries)
        return "\n".join(lines)

