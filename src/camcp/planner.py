"""Planning and summarizing seat.

The default planner is a deterministic template mock so runs are cheap and
reproducible; the runtime records each of its calls as an ``llm_call``
trace event, which is what the benchmark counts. A thin HTTP adapter
defines the contract for plugging in a hosted model; it imports
``requests`` only when it sends a request.
"""
from __future__ import annotations

import os
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

ROLE_PLAN = "plan"


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
        "constraints": copy_value(blueprint.constraints),
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


def render_summary(values: Mapping[str, ContextValue], blueprint: PlanBlueprint) -> str:
    """Render the final answer from context values with a fixed template.

    Pure and deterministic: echoes every constraint verbatim and one line
    per stage output, so nothing the servers produced can silently drop out.
    """
    lines = ["=== final response ==="]
    lines.append("goals: " + "; ".join(blueprint.goals))
    for name, value in blueprint.constraints.items():
        rendered = value if isinstance(value, str) else canonical_dumps(value)
        lines.append(f"constraint {name}: {rendered}")
    for stage in blueprint.stages:
        output = values.get(stage.stage_id)
        lines.append(f"{stage.stage_id}: {canonical_dumps(output)}")
    lines.append(f"complete: {str(bool(values.get(blueprint.completion_key))).lower()}")
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
        values = {k: e.value for k, e in snapshot.items()}
        return render_summary(values, blueprint)

    def step_decision(self, stage_id: str, visible_keys: list[str]) -> str:
        """One orchestration decision in the centrally driven baseline."""
        return f"run stage {stage_id} with context [{', '.join(visible_keys)}]"

    def synthesize(self, entries: list[tuple[str, ContextValue]]) -> str:
        """Final synthesis over the orchestrator's private history."""
        lines = ["=== final response ==="]
        for key, value in entries:
            rendered = value if isinstance(value, str) else canonical_dumps(value)
            lines.append(f"{key}: {rendered}")
        return "\n".join(lines)


# -- HTTP adapter seat --------------------------------------------------------


class AdapterError(Exception):
    pass


class AdapterConfigurationError(AdapterError):
    """The adapter is not configured; raised before any network activity."""


class AdapterNetworkError(AdapterError):
    pass


class AdapterTimeoutError(AdapterNetworkError):
    pass


class AdapterStatusError(AdapterError):
    def __init__(self, status_code: int, body: str):
        super().__init__(f"model endpoint returned status {status_code}")
        self.status_code = status_code
        self.body = body


class AdapterResponseError(AdapterError):
    """The endpoint answered 2xx but not with the expected JSON shape."""


ENV_URL = "CA_MCP_LLM_URL"
ENV_TOKEN = "CA_MCP_LLM_TOKEN"
DEFAULT_TIMEOUT_S = 60.0


@dataclass
class LlmAdapter:
    """POSTs ``{"messages": [...], "tools": [...]}`` and expects ``{"text": ...}``.

    ``recorder`` receives the verbatim request and response bodies, so a run
    can log them into its trace; ``on_call(role)`` is invoked once per
    request, so :meth:`camcp.runtime.TraceBuilder.llm_call` can count adapter
    calls identically to mock calls.
    """

    url: str
    token: str | None = None
    timeout_s: float = DEFAULT_TIMEOUT_S
    recorder: list | None = None
    on_call: object = None

    @classmethod
    def from_env(cls, env: Mapping[str, str] | None = None, **kwargs) -> "LlmAdapter":
        env = os.environ if env is None else env
        url = env.get(ENV_URL)
        if not url:
            raise AdapterConfigurationError(f"{ENV_URL} is not set")
        return cls(url=url, token=env.get(ENV_TOKEN), **kwargs)

    def request(self, messages: list, tools: list) -> str:
        if not self.url:
            raise AdapterConfigurationError("adapter has no endpoint URL")
        import requests  # imported here so that `import camcp` does not load it

        body = {"messages": copy_value(messages), "tools": copy_value(tools)}
        headers = {"content-type": "application/json"}
        if self.token:
            headers["authorization"] = f"Bearer {self.token}"
        if callable(self.on_call):
            self.on_call(ROLE_PLAN)
        try:
            response = requests.post(
                self.url, json=body, headers=headers, timeout=self.timeout_s
            )
        except requests.Timeout as exc:
            raise AdapterTimeoutError(f"model endpoint timed out: {exc}") from exc
        except requests.RequestException as exc:
            raise AdapterNetworkError(f"model endpoint unreachable: {exc}") from exc
        if not 200 <= response.status_code < 300:
            raise AdapterStatusError(response.status_code, response.text)
        if self.recorder is not None:
            self.recorder.append({"request": body, "response": response.text})
        try:
            data = response.json()
        except ValueError as exc:
            raise AdapterResponseError(f"response body is not JSON: {exc}") from exc
        if not isinstance(data, dict) or not isinstance(data.get("text"), str):
            raise AdapterResponseError('response JSON must carry a text field under "text"')
        return data["text"]
