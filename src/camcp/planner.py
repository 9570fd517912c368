"""Planning and summarizing seat.

The planner is a deterministic template mock so runs are cheap and
reproducible; the runtime records each of its calls as an ``llm_call``
trace event, which is what the benchmark counts. It holds no per-kind rule:
a plan restates the stages and completion key of the scenario it is given,
and takes the query's constraints as the loader checked them.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .store import (
    And,
    ContextEntry,
    ContextValue,
    Exists,
    WatchCondition,
    canonical_dumps,
    condition_to_value,
)

if TYPE_CHECKING:
    from .scenarios import Scenario


@dataclass(frozen=True)
class Query:
    raw_text: str
    kind: str
    params: dict

    def constraints(self) -> dict:
        """The params without ``scenario``, which routes the query and
        constrains nothing."""
        return {k: v for k, v in self.params.items() if k != "scenario"}


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

    Stateless: plan() is a pure function of (query, scenario); summarize() is
    a pure function of (snapshot, blueprint).
    """

    # -- Planning --

    def plan(self, query: Query, scenario: Scenario) -> PlanBlueprint:
        """Turn a query into a blueprint: the goals, stage wiring and
        completion key the scenario declares, and the query's constraints,
        uncopied: the store copies each one when it is seeded."""
        return PlanBlueprint(
            goals=tuple(s.goal for s in scenario.stages),
            constraints=query.constraints(),
            stages=scenario.stages,
            completion_key=scenario.completion_key,
        )

    # -- Summarization --

    def summarize(self, snapshot: Mapping[str, ContextEntry], blueprint: PlanBlueprint) -> str:
        """Summarize a run from the shared snapshot. The context-aware run
        calls it once its completion flag is written; the summary's last
        line reports that flag either way."""
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

