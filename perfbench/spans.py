"""Spans and counters recorded from outside the program, for the traced run.

:class:`Tracer` wraps public functions and methods of the ``camcp`` modules
while it is installed and restores the originals when it is removed; the
package itself is never edited. Each wrapped call records a span (name,
start, end, parent). Spans of one op stay in memory until :meth:`Tracer.end_op`
folds them into per-name totals, from which :func:`layer_metrics` derives
the per-layer numbers.
"""
from __future__ import annotations

import dataclasses
import sys
import time
from collections import Counter

from camcp import bench, planner, protocol, reactor, runtime, scenarios, store

OP = "op"
COMMIT = "store.commit"

# Spans whose self time makes up a layer's own work, where a metric sums them.
_PLANNER = ("planner.model_call", "planner.render_summary", "planner.blueprint")
_REACTOR = ("reactor.register", "reactor.run_until_quiescent")
_RUN_SELF = (
    "runtime.run_context_aware",
    "runtime.run_traditional",
    "runtime.commit_listener",
    "runtime.reactor_callback",
)
_TOOL = ("scenarios.action", "scenarios.tool", "scenarios.batching")


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the same op, -1 at the top


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover."""
    children: list[list[Span]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    result = []
    for span, kids in zip(spans, children):
        covered = 0.0
        reach = span.start
        for kid in sorted(kids, key=lambda s: s.start):
            lo, hi = max(kid.start, reach), min(kid.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(span.end - span.start - covered)
    return result


class Totals:
    """Per-name sums over the folded ops: inclusive and self seconds, and
    call counts."""

    def __init__(self) -> None:
        self.ops = 0
        self.op_seconds = 0.0
        self.inclusive: Counter = Counter()
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()

    def add(self, spans: list[Span]) -> None:
        for span, own in zip(spans, self_times(spans)):
            self.inclusive[span.name] += span.end - span.start
            self.self_s[span.name] += own
            self.calls[span.name] += 1
            if span.name == OP:
                self.ops += 1
                self.op_seconds += span.end - span.start


def _camcp_modules():
    return [m for name, m in sys.modules.items() if name == "camcp" or name.startswith("camcp.")]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.totals = Totals()
        self._patches: list[tuple[object, str, object, object]] = []
        self._plan()

    # -- Recording --

    def _span(self, name: str, fn, on_result=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _outermost(self, counter: str, fn, inside: str | None = None):
        """Count calls of a recursive function once per outermost call, and
        with ``inside`` only calls made directly within a span of that name.
        For the duration of the call the function's own module name points
        back at the original, so the recursion runs unwrapped and uncounted."""
        home, attr = fn.__globals__, fn.__name__

        def wrapper(*args, **kwargs):
            if inside is None or (self.stack and self.spans[self.stack[-1]].name == inside):
                self.counts[counter] += 1
            home[attr] = fn
            try:
                return fn(*args, **kwargs)
            finally:
                home[attr] = wrapper

        return wrapper

    def begin_op(self) -> None:
        span = Span(OP, 0.0, 0.0, -1)
        self.stack.append(0)
        self.spans.append(span)
        span.start = time.perf_counter()

    def end_op(self) -> None:
        self.spans[0].end = time.perf_counter()
        self.stack.clear()
        self.totals.add(self.spans)
        self.spans.clear()

    # -- Installing the wrappers --

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr), value))

    def _replace_function(self, fn, wrapper) -> None:
        """Point every camcp module's binding of ``fn`` at ``wrapper``."""
        for module in _camcp_modules():
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)

    def _wrap_method(self, cls, attr: str, name: str, on_result=None) -> None:
        self._set(cls, attr, self._span(name, getattr(cls, attr), on_result))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def _plan(self) -> None:
        """Build every wrapper once; install and remove only rebind names."""
        count = self.counts
        span = self._span

        def count_bytes(key):
            def on_result(args, text):
                count[key] += len(text)

            return on_result

        def count_events(args, trace):
            count["runtime.events"] += len(trace.events)

        functions = [
            (runtime.run_context_aware, "runtime.run_context_aware", count_events),
            (runtime.run_traditional, "runtime.run_traditional", count_events),
            (runtime.serialize_trace, "runtime.serialize_trace", count_bytes("runtime.trace_bytes")),
            (runtime.parse_trace, "runtime.parse_trace", None),
            (bench.compute_metrics, "bench.compute_metrics", None),
            (protocol.make_envelope, "protocol.make_envelope", None),
            (protocol.encode, "protocol.encode", count_bytes("protocol.encoded_bytes")),
            (planner.render_summary, "planner.render_summary", None),
            (planner.blueprint_to_value, "planner.blueprint", None),
            (planner.completion_condition, "planner.blueprint", None),
            (scenarios.batch_requests, "scenarios.batching", None),
            (scenarios.append_single_trip, "scenarios.batching", None),
            (scenarios.collect_window_requests, "scenarios.batching", None),
            (scenarios.scenario_from_value, "scenarios.scenario_from_value", None),
        ]
        for fn, name, on_result in functions:
            self._replace_function(fn, span(name, fn, on_result))
        for fn, counter, inside in (
            (store.copy_value, "store.copies", None),
            (store.canonicalize_value, "store.canonicalizations", None),
            (store.evaluate, "store.evals", COMMIT),
        ):
            self._replace_function(fn, self._outermost(counter, fn, inside))

        def wrap_servers(args, servers):
            for i, server in enumerate(servers):
                if isinstance(server, reactor.ServerSpec):
                    servers[i] = dataclasses.replace(
                        server, action=span("scenarios.action", server.action)
                    )
                else:
                    servers[i] = dataclasses.replace(server, run=span("scenarios.tool", server.run))

        self._replace_function(
            scenarios.build_servers,
            span("scenarios.build_servers", scenarios.build_servers, wrap_servers),
        )

        def commit_wrapper(fn):
            def wrapper(self_store, *args, **kwargs):
                before = self_store.last_logical_time()
                try:
                    return traced(self_store, *args, **kwargs)
                finally:
                    count["store.commits"] += self_store.last_logical_time() - before

            traced = span(COMMIT, fn)
            return wrapper

        for attr in ("put", "put_many", "cas_put"):
            self._set(store.ContextStore, attr, commit_wrapper(getattr(store.ContextStore, attr)))
        self._wrap_method(store.ContextStore, "snapshot", "store.snapshot")
        self._wrap_method(store.ContextStore, "subscribe", "store.subscribe")
        add_listener = store.ContextStore.add_commit_listener
        self._set(
            store.ContextStore,
            "add_commit_listener",
            lambda s, listener: add_listener(s, span("runtime.commit_listener", listener)),
        )

        def count_steps(args, steps):
            count["reactor.steps"] += steps

        self._wrap_method(reactor.ReactorPool, "register", "reactor.register")
        self._wrap_method(
            reactor.ReactorPool, "run_until_quiescent", "reactor.run_until_quiescent", count_steps
        )
        pool_init = reactor.ReactorPool.__init__

        def init(pool, pool_store, on_firing=None, on_fired=None, on_failed=None):
            wrap = lambda cb: None if cb is None else span("runtime.reactor_callback", cb)
            pool_init(pool, pool_store, wrap(on_firing), wrap(on_fired), wrap(on_failed))

        self._set(reactor.ReactorPool, "__init__", init)
        for attr in ("plan", "summarize", "step_decision", "synthesize"):
            self._wrap_method(planner.MockPlanner, attr, "planner.model_call")


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(totals: Totals, counts: Counter) -> dict[str, tuple[float, str]]:
    """Per-layer numbers from the traced ops: name -> (value, unit)."""
    ops = totals.ops
    inc, own, calls = totals.inclusive, totals.self_s, totals.calls
    commits = counts["store.commits"]
    fires = calls["scenarios.action"]
    steps = counts["reactor.steps"]

    us = 1e6

    def self_us(names) -> float:
        return sum(own[name] for name in names) * us

    return {
        "store.commits_per_op": (_per(commits, ops), "count"),
        "store.commit_us": (_per(own[COMMIT] * us, commits), "us"),
        "store.copies_per_commit": (_per(counts["store.copies"], commits), "count"),
        "store.canonicalizations_per_commit": (
            _per(counts["store.canonicalizations"], commits),
            "count",
        ),
        "store.evals_per_commit": (_per(counts["store.evals"], commits), "count"),
        "store.snapshot_us": (_per(inc["store.snapshot"] * us, calls["store.snapshot"]), "us"),
        "store.snapshots_per_op": (_per(calls["store.snapshot"], ops), "count"),
        "protocol.envelopes_per_op": (_per(calls["protocol.make_envelope"], ops), "count"),
        "protocol.make_envelope_us": (
            _per(inc["protocol.make_envelope"] * us, calls["protocol.make_envelope"]),
            "us",
        ),
        "protocol.encode_us": (_per(inc["protocol.encode"] * us, calls["protocol.encode"]), "us"),
        "protocol.encoded_bytes_per_op": (_per(counts["protocol.encoded_bytes"], ops), "bytes"),
        "planner.calls_per_op": (_per(calls["planner.model_call"], ops), "count"),
        "planner.self_us_per_op": (_per(self_us(_PLANNER), ops), "us"),
        "reactor.fires_per_op": (_per(fires, ops), "count"),
        "reactor.steps_per_op": (_per(steps, ops), "count"),
        "reactor.fires_per_step": (_per(fires, steps), "count"),
        "reactor.self_us_per_op": (_per(self_us(_REACTOR), ops), "us"),
        "scenarios.build_servers_us_per_op": (
            _per(inc["scenarios.build_servers"] * us, ops),
            "us",
        ),
        "scenarios.tool_us_per_op": (_per(self_us(_TOOL), ops), "us"),
        "runtime.run_ca_us_per_op": (_per(inc["runtime.run_context_aware"] * us, ops), "us"),
        "runtime.run_traditional_us_per_op": (
            _per(inc["runtime.run_traditional"] * us, ops),
            "us",
        ),
        "runtime.run_self_us_per_op": (_per(self_us(_RUN_SELF), ops), "us"),
        "runtime.events_per_op": (_per(counts["runtime.events"], ops), "count"),
        "runtime.serialize_us_per_op": (_per(inc["runtime.serialize_trace"] * us, ops), "us"),
        "runtime.trace_bytes_per_op": (_per(counts["runtime.trace_bytes"], ops), "bytes"),
        "runtime.parse_us_per_op": (_per(inc["runtime.parse_trace"] * us, ops), "us"),
        "bench.compute_metrics_us_per_op": (_per(inc["bench.compute_metrics"] * us, ops), "us"),
        "trace.uncovered_frac": (_per(own[OP], totals.op_seconds), "fraction"),
    }
