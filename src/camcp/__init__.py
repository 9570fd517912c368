"""Context-aware coordination runtime for multi-tool jobs.

Tool servers watch a shared context store and fire on rising edges instead of
waiting on a central orchestrator; a benchmark harness compares that against
the traditional centrally driven baseline on the shipped scenarios.
"""
from .bench import (
    CSV_COLUMNS,
    InsufficientDataError,
    PairedStats,
    RunMetrics,
    compute_metrics,
    paired_stats,
    replay,
    run_bench,
)
from .planner import (
    CostModel,
    MockPlanner,
    Stage,
    completion_condition,
    render_summary,
)
from .protocol import Envelope, ProtocolError, decode, encode, make_envelope, validate_sequence
from .reactor import ReactorPool, ReactorState, ServerSpec
from .runtime import (
    MalformedTraceError,
    Trace,
    TraceEvent,
    parse_trace,
    query_for_seed,
    read_trace,
    run,
    run_context_aware,
    run_traditional,
    seed_context,
    serialize_trace,
    write_trace,
)
from .scenarios import (
    MODE_CA,
    MODE_TRADITIONAL,
    Scenario,
    ScenarioParseError,
    ScenarioValidationError,
    batch_requests,
    build_servers,
    coordination_score,
    evaluate_satisfaction,
    load_builtin,
    load_scenario,
    resolve_scenario,
)
from .store import (
    And,
    CasConflict,
    ContextEntry,
    ContextStore,
    Equals,
    Exists,
    Not,
    Or,
    Snapshot,
    evaluate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
