"""The online generation loop: select, fill, dispatch, check, update, repeat.

Requests are generated one after another as an unbounded stream; the loop
stops when the wall-clock budget expires (verdict ``passed``), when the first
error-grade finding appears under ``stop_on_error`` (verdict ``failed``), or
on a request cap or Ctrl-C (stop reason ``operator-stop``).  The first few
selections create prerequisite resources in dependency order so the state
store populates quickly; after that, selection is purely weight-driven.

One loop serves both modes; its window is ``max_in_flight``, and a
dispatcher of that many threads sends every request.  At window 1
(sequential mode) each request completes before the next is generated,
which makes a seeded run deterministic against a deterministic SUT.  A
wider window keeps that many exchanges open and applies effects in
completion order.  The loop is a generator that :meth:`Dispatcher.drive`
resumes with the answers of each wait: at window 1 on the dispatcher's one
thread, which also runs each ``execute`` there, and above it on the thread
that called :func:`run`, while the window's threads run ``execute``.  The
loop runs on one thread at a time and no call touches the state store, so
the loop is the store's single reader and writer and reads it live.
"""

from __future__ import annotations

import json
import tempfile
import time
import types
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, get_args, get_type_hints

from .checker import (
    GRADE_ERROR,
    GRADE_WARNING,
    Finding,
    check_exchange,
)
from .http_driver import (
    DEFAULT_TIMEOUT,
    Dispatcher,
    NetworkTarget,
    execute,
    probe,
    render_url,
    wire_str,
)
from .sampling import (
    KIND_REFERENCE,
    ParameterSamplerSet,
    SamplingSpec,
    WeightTable,
    check_selectable,
    sample_value,
    select_operation,
)
from .semantic_model import (
    OperationBinding,
    SemanticModel,
    serialize_model,
    topological_order,
)
from .state_tracker import (
    DEFAULT_STORE_CAP,
    IdExtractionFailure,
    StateStore,
    StatusPrediction,
    apply_effect,
    predict_status,
)
from .trace_recreate import (
    SinkWriteError,
    TraceSink,
    make_trace_event,
)
from random import Random


class EndpointUnreachable(Exception):
    """The startup probe got no HTTP answer from the endpoint."""


# A run's first plans cycle through the dependency-ordered creates.
WARMUP_PLANS = 20
# Seconds between two progress events of a run.
PROGRESS_INTERVAL = 5.0


@dataclass
class RequestPlan:
    """One filled request.  Its wire form, as traced, keeps only what
    ``bind_symbols`` and ``apifuzz report`` read: the plan id, the
    operation, the body and the non-empty headers, path parameters and
    query.  The rest serves the run itself: ``predict_status`` reads the
    value tags, references and declared statuses, and ``apply_effect`` the
    binding, the id fields and ``target_id_param``."""
    binding: OperationBinding
    method: str
    concrete_url: str
    headers: dict[str, str]
    body: Any
    value_tags: dict[str, str]
    plan_id: int
    path_param_values: dict[str, Any] = field(default_factory=dict)
    query_values: dict[str, Any] = field(default_factory=dict)
    reference_values: dict[str, tuple[str, tuple[str, ...]]] = field(default_factory=dict)
    target_id_param: str | None = None
    resource_id_fields: tuple[str, ...] = ()
    declared_status_patterns: tuple[str, ...] = ()

    def to_wire_dict(self) -> dict:
        wire: dict[str, Any] = {"plan_id": self.plan_id,
                                "operation": self.binding.operation_id,
                                "body": self.body}
        if self.headers:
            wire["headers"] = self.headers
        if self.path_param_values:
            wire["path_params"] = self.path_param_values
        if self.query_values:
            wire["query"] = self.query_values
        return wire


@dataclass
class RunConfig:
    mode: str = "sequential"
    max_in_flight: int = 1
    duration_limit: float | None = None
    stop_on_error: bool = True
    master_seed: int = 0
    endpoint: str | None = None
    max_requests: int | None = None
    request_timeout: float = DEFAULT_TIMEOUT
    store_cap: int = DEFAULT_STORE_CAP
    path_excludes: tuple[str, ...] = ("/_admin",)

    def __post_init__(self):
        for name, hint in _RUN_CONFIG_TYPES.items():
            value = getattr(self, name)
            if not _fits(value, hint):
                kind = hint.__name__ if isinstance(hint, type) else hint
                raise TypeError(f"run-config {name} must be {kind}, "
                                f"not {value!r}")
        if self.mode not in ("sequential", "concurrent"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if self.mode == "sequential":
            self.max_in_flight = 1
        self.path_excludes = tuple(self.path_excludes)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown run-config keys: {sorted(unknown)}")
        return cls(**data)

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["path_excludes"] = list(self.path_excludes)
        return out


_RUN_CONFIG_TYPES = get_type_hints(RunConfig)


def _fits(value, hint) -> bool:
    """Whether ``value`` has the type ``hint`` declares: an int fits a
    float, a bool fits no number, and a list fits a tuple of its items."""
    if isinstance(hint, types.UnionType):
        return any(_fits(value, h) for h in get_args(hint))
    if hint is type(None):
        return value is None
    if isinstance(hint, types.GenericAlias):  # tuple[str, ...]
        return isinstance(value, (list, tuple)) \
            and all(_fits(v, get_args(hint)[0]) for v in value)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


@dataclass
class ProgressEvent:
    requests_sent: int
    elapsed: float
    findings_total: int
    error_findings: int
    requests_per_second: float
    in_flight: int


@dataclass
class RunResult:
    verdict: str  # passed | failed
    stop_reason: str  # timeout | error-detected | operator-stop
    counters: dict[str, Any]
    trace_ref: str | None
    findings: list[Finding] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "stop_reason": self.stop_reason,
            "counters": self.counters,
            "trace_ref": self.trace_ref,
            "findings": [f.to_dict() for f in self.findings],
            "notes": self.notes,
        }


# --- request generation --------------------------------------------------------

def generate_request(model: SemanticModel, sampling_spec: SamplingSpec,
                     store, rng: Random, plan_id: int = 1,
                     warmup_bindings: list[OperationBinding] | None = None
                     ) -> RequestPlan:
    """Select an operation and fill every parameter into a concrete plan;
    given ``warmup_bindings``, the first :data:`WARMUP_PLANS` plans cycle
    through them instead of selecting."""
    if warmup_bindings and plan_id <= WARMUP_PLANS:
        binding = warmup_bindings[(plan_id - 1) % len(warmup_bindings)]
    else:
        binding = select_operation(model, sampling_spec.weights, rng)

    op = model.operation_def(binding)
    sampler_set = sampling_spec.sampler_set(binding.operation_id)

    path_values: dict[str, Any] = {}
    query_values: dict[str, Any] = {}
    header_values: dict[str, str] = {}
    body_fields: dict[str, Any] = {}
    tags: dict[str, str] = {}
    references: dict[str, tuple[str, tuple[str, ...]]] = {}
    target_id_param: str | None = None

    taken: set[str] = set()
    for param in op.parameters:
        key = ParameterSamplerSet.key_for(param, taken)
        taken.add(key)
        domain = sampler_set.per_parameter[key]
        sampled = sample_value(domain, store, rng)
        tags[key] = sampled.tag
        if domain.kind == KIND_REFERENCE:
            ids = sampled.value if isinstance(sampled.value, list) \
                else [sampled.value]
            references[key] = (domain.target_resource,
                               tuple(str(i) for i in ids))
            if param.location == "path" \
                    and domain.target_resource == binding.resource \
                    and target_id_param is None:
                target_id_param = key
        if param.location == "path":
            path_values[param.name] = sampled.value
        elif param.location == "query":
            query_values[param.name] = sampled.value
        elif param.location == "header":
            header_values[param.name] = wire_str(sampled.value)
        else:
            body_fields[param.name] = sampled.value

    body: Any = None
    if body_fields:
        body = body_fields
    elif "__body__" in sampler_set.per_parameter:
        sampled = sample_value(sampler_set.per_parameter["__body__"], store, rng)
        tags["__body__"] = sampled.tag
        body = sampled.value

    resource_id_fields: tuple[str, ...] = ()
    try:
        resource_id_fields = model.resource(binding.resource).id_field_names
    except KeyError:
        pass

    return RequestPlan(
        binding=binding,
        method=op.method,
        concrete_url=render_url(op.path_template, path_values, query_values),
        headers=header_values,
        body=body,
        value_tags=tags,
        plan_id=plan_id,
        path_param_values={k: wire_str(v) for k, v in path_values.items()},
        query_values=query_values,
        reference_values=references,
        target_id_param=target_id_param,
        resource_id_fields=resource_id_fields,
        declared_status_patterns=tuple(p for p, _ in op.responses),
    )


# --- run scaffolding --------------------------------------------------------------

def fuzzed_model(config: RunConfig, model: SemanticModel,
                 weights: WeightTable) -> SemanticModel:
    """The model a run draws from: ``model`` without the operations under
    the config's path excludes.  :class:`ValueError` when none is left, or
    none that ``weights`` can select."""
    kept = [b for b in model.bindings
            if not any(b.operation_id.split(" ", 1)[1].startswith(prefix)
                       for prefix in config.path_excludes)]
    if not kept:
        raise ValueError("no operations left to fuzz after path excludes")
    if len(kept) < len(model.bindings):
        model = replace(model, bindings=kept)
    check_selectable(model, weights)
    return model


def _warmup_bindings(model: SemanticModel) -> list[OperationBinding]:
    """Create operations of prerequisite resources first, in dependency order."""
    order = topological_order(model)
    out: list[OperationBinding] = []
    for name in order:
        for binding in sorted(model.bindings_for_resource(name),
                              key=lambda b: b.operation_id):
            if binding.crud_kind == "create":
                out.append(binding)
                break
    return out


class _RunState:
    def __init__(self, config: RunConfig, model: SemanticModel,
                 weights: WeightTable, target, trace_sink):
        if model.spec is None:
            raise ValueError("model has no attached spec; load it with one")
        self.config = config
        self.model = fuzzed_model(config, model, weights)
        self.rng = Random(config.master_seed)
        self.store = StateStore(config.store_cap)
        self.warmup = _warmup_bindings(self.model)
        self.ops_by_id = model.spec.operations_by_id()
        # The rule ``minimize`` binds with: the header's model.
        self.is_id_key = model.id_key_predicate()

        if target is None:
            if not config.endpoint:
                raise ValueError("config.endpoint is required without an explicit target")
            target = NetworkTarget(config.endpoint)
        self.target = target
        if not probe(target, min(config.request_timeout, 5.0)):
            raise EndpointUnreachable(
                f"no HTTP answer from {getattr(target, 'base_url', target)!r}")

        self.own_sink = trace_sink is None
        if self.own_sink:
            fd = tempfile.NamedTemporaryFile(
                mode="w", suffix=".trace.jsonl", prefix="apifuzz-",
                delete=False, encoding="utf-8")
            self.sink = TraceSink(fd, fd.name, trace_header(config, model))
        else:
            self.sink = trace_sink

        self.counters: dict[str, Any] = {
            "requests_sent": 0,
            "per_operation": {},
            "findings_total": 0,
            "error_findings": 0,
            "warning_findings": 0,
            "info_findings": 0,
            "peak_in_flight": 0,
            "id_extraction_failures": 0,
        }
        self.findings: list[Finding] = []
        self.notes: list[str] = []
        self.started = time.monotonic()
        self.last_progress = self.started

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def note_findings(self, findings: list[Finding]) -> None:
        for f in findings:
            self.counters["findings_total"] += 1
            self.counters[f"{f.grade}_findings"] += 1
            if f.grade == GRADE_ERROR or (
                    f.grade == GRADE_WARNING
                    and self.counters["warning_findings"] <= 200):
                self.findings.append(f)

    def complete(self, plan: RequestPlan, prediction: StatusPrediction,
                 dispatch_epoch: int, result) -> str | None:
        """Check, apply, trace and count one finished exchange; returns the
        stop reason it causes, if any.  Events are numbered in completion
        order (at window 1 the plan order); that count is the trace's clock.
        The exchange is counted only once its event is appended (or the
        sink failed), so an interrupt before that leaves the report and the
        trace agreeing."""
        counters = self.counters
        event_id = counters["requests_sent"] + 1
        op_id = plan.binding.operation_id
        findings = check_exchange(plan, result, self.ops_by_id[op_id],
                                  prediction, exchange_ref=event_id)
        try:
            apply_effect(plan, result, self.store, self.model.threshold)
        except IdExtractionFailure as exc:
            counters["id_extraction_failures"] += 1
            if counters["id_extraction_failures"] <= 20:
                self.notes.append(f"id extraction failed for {op_id} "
                                  f"(plan {plan.plan_id}): {exc}")
        event = make_trace_event(
            event_id, plan.to_wire_dict(), result, findings,
            dispatch_epoch=dispatch_epoch, is_id_key=self.is_id_key)
        stop = None
        try:
            self.sink.append(event)
        except SinkWriteError as exc:
            self.notes.append(f"trace sink failed: {exc}")
            stop = "operator-stop"
        counters["requests_sent"] = event_id
        per_op = counters["per_operation"]
        per_op[op_id] = per_op.get(op_id, 0) + 1
        self.note_findings(findings)
        if stop is None and self.config.stop_on_error \
                and any(f.grade == GRADE_ERROR for f in findings):
            stop = "error-detected"
        return stop

    def emit_progress(self, progress: Callable | None, in_flight: int) -> None:
        if progress is None:
            return
        now = time.monotonic()
        if now - self.last_progress < PROGRESS_INTERVAL:
            return
        self.last_progress = now
        elapsed = self.elapsed()
        progress(ProgressEvent(
            requests_sent=self.counters["requests_sent"],
            elapsed=elapsed,
            findings_total=self.counters["findings_total"],
            error_findings=self.counters["error_findings"],
            requests_per_second=(self.counters["requests_sent"] / elapsed
                                 if elapsed > 0 else 0.0),
            in_flight=in_flight))

    def finish(self, stop_reason: str) -> RunResult:
        elapsed = self.elapsed()
        self.counters["duration_seconds"] = round(elapsed, 3)
        self.counters["requests_per_second"] = round(
            self.counters["requests_sent"] / elapsed, 2) if elapsed > 0 else 0.0
        if self.own_sink:
            try:
                self.sink.close()
            except SinkWriteError as exc:
                self.notes.append(f"trace sink failed: {exc}")
        verdict = "failed" if self.counters["error_findings"] > 0 else "passed"
        return RunResult(verdict=verdict, stop_reason=stop_reason,
                         counters=self.counters, trace_ref=self.sink.path,
                         findings=self.findings, notes=self.notes)


def trace_header(config: RunConfig, model: SemanticModel) -> dict:
    return {
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config": {**config.to_dict(), "match_threshold": model.threshold},
        "spec": model.spec.document,
        "model": json.loads(serialize_model(model).decode("utf-8")),
    }


def _should_stop(state: _RunState, dispatched: int) -> str | None:
    config = state.config
    if config.duration_limit is not None and state.elapsed() >= config.duration_limit:
        return "timeout"
    if config.max_requests is not None and dispatched >= config.max_requests:
        return "operator-stop"
    return None


# --- the run loop -------------------------------------------------------------------

def run(config: RunConfig, model: SemanticModel, sampling_spec: SamplingSpec,
        target=None, trace_sink: TraceSink | None = None,
        progress: Callable | None = None) -> RunResult:
    """Fuzz until a stop condition holds, ``config.max_in_flight`` at a time.

    Ctrl-C stops the run as ``operator-stop``; exchanges still in flight
    then go untraced.  A config that leaves nothing to draw
    (:func:`fuzzed_model`) raises :class:`ValueError` before any request.
    """
    state = _RunState(config, model, sampling_spec.weights, target, trace_sink)
    dispatcher = Dispatcher(config.max_in_flight, config.request_timeout)
    try:
        stop_reason = dispatcher.drive(
            _loop(state, sampling_spec, dispatcher, progress))
    finally:
        dispatcher.close()
    return state.finish(stop_reason)


def _loop(state: _RunState, sampling_spec: SamplingSpec,
          dispatcher: Dispatcher, progress: Callable | None):
    """The run loop, resumed by ``dispatcher.drive`` with the answers of
    each wait; returns the stop reason."""
    config = state.config
    window = config.max_in_flight
    in_flight: dict[int, tuple[RequestPlan, StatusPrediction, int]] = {}
    dispatched = 0
    stop_reason: str | None = None
    try:
        while True:
            if stop_reason is None:
                stop_reason = _should_stop(state, dispatched)
            if stop_reason is None and len(in_flight) < window:
                dispatched += 1
                plan = generate_request(state.model, sampling_spec, state.store,
                                        state.rng, plan_id=dispatched,
                                        warmup_bindings=state.warmup)
                in_flight[dispatched] = (
                    plan, predict_status(plan, state.store, window > 1),
                    state.counters["requests_sent"])
                dispatcher.send(dispatched, execute, plan, state.target,
                                config.request_timeout)
                state.counters["peak_in_flight"] = max(
                    state.counters["peak_in_flight"], len(in_flight))
                if len(in_flight) < window:
                    continue
            elif not in_flight:
                break
            # A batch comes sorted by plan id: of two exchanges that finish
            # together, the one dispatched first gets the lower event id.
            for plan_id, result in (yield wait):
                stop_reason = state.complete(*in_flight.pop(plan_id),
                                             result) or stop_reason
            state.emit_progress(progress, in_flight=len(in_flight))
    except KeyboardInterrupt:
        stop_reason = "operator-stop"
    return stop_reason or "operator-stop"


# The loop looks ``execute`` and ``wait`` up here on every request, so the
# benchmark can time both by replacing them (perfbench/tracing.py); the
# dispatcher calls the ``wait`` the loop yields.
wait = Dispatcher.wait

# Both names are imported by the benchmark's workloads (perfbench/workloads.py).
run_sequential = run_concurrent = run
