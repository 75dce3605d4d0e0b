"""Trace persistence, failure minimization, and re-runnable recreate scripts.

Every exchange of a run is appended to a JSON Lines trace (one version header
line, then one event per line).  When a run fails, the failing prefix is
reduced with a delta-debugging loop against a replay oracle, producer/consumer
data flows are lifted into symbolic variables (so replays survive a SUT that
assigns different ids), and the result is emitted as a script that either
reproduces the original finding (exit 0 in the CLI), does not (exit 1), or
cannot be evaluated (exit 2).

A script's window (``max_in_flight``, taken from the run) is the one switch
on the replay side.  At 1 the steps are sent one after another, once by
default, and a symbol that does not resolve ends the replay.  Above 1 they are
sent overlapped up to the window, :data:`DEFAULT_RACE_ATTEMPTS` times by
default, and a symbol that does not resolve only fails that attempt.

The minimizer treats symbolic producers and their consumers as atomic: when a
candidate removal would orphan a consumer of a removed producer, the consumer
is cascaded out as well instead of wasting an oracle call on a sequence that
can only fail to resolve.
"""

from __future__ import annotations

import base64
import functools
import hashlib
import json
import math
import re
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from .checker import Finding, validate_value
from .http_driver import DEFAULT_TIMEOUT, execute, render_url
from .naming import DEFAULT_MATCH_THRESHOLD, tokenize
from .semantic_model import SemanticModel
from .spec_ingest import (
    ApiSpecIR,
    any_pattern_matches,
    status_pattern_matches,
    _schema_from_jsonable,
    _schema_jsonable,
)

TRACE_VERSION = 1
SCRIPT_VERSION = 1

DEFAULT_ORACLE_BUDGET = 500
DEFAULT_RACE_ATTEMPTS = 20


class SinkWriteError(Exception):
    """The trace sink could not durably append an event."""


class NotReproducible(Exception):
    """The replay oracle never re-observed the finding on the full prefix."""


class SymbolResolutionFailure(Exception):
    """A producer response did not yield the value a symbol is bound to."""


# --- trace events and sink ------------------------------------------------------

@dataclass
class TraceEvent:
    event_id: int
    plan: dict
    status: int | None = None
    headers: dict = field(default_factory=dict)
    body_json: Any = None
    body_text: str | None = None
    body_b64: str | None = None
    transport_error: str | None = None
    latency: float = 0.0
    findings: list[Finding] = field(default_factory=list)
    prediction: dict | None = None
    dispatch_epoch: int = 0
    completion_epoch: int = 0

    def to_dict(self) -> dict:
        out: dict[str, Any] = {
            "event_id": self.event_id,
            "plan": self.plan,
            "status": self.status,
            "headers": self.headers,
            "latency": round(self.latency, 6),
            "findings": [f.to_dict() for f in self.findings],
            "dispatch_epoch": self.dispatch_epoch,
            "completion_epoch": self.completion_epoch,
        }
        if self.body_json is not None:
            out["body_json"] = self.body_json
        if self.body_text is not None:
            out["body_text"] = self.body_text
        if self.body_b64 is not None:
            out["body_b64"] = self.body_b64
        if self.transport_error is not None:
            out["transport_error"] = self.transport_error
        if self.prediction is not None:
            out["prediction"] = self.prediction
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "TraceEvent":
        return cls(
            event_id=data["event_id"],
            plan=data["plan"],
            status=data.get("status"),
            headers=data.get("headers", {}),
            body_json=data.get("body_json"),
            body_text=data.get("body_text"),
            body_b64=data.get("body_b64"),
            transport_error=data.get("transport_error"),
            latency=data.get("latency", 0.0),
            findings=[Finding.from_dict(f) for f in data.get("findings", [])],
            prediction=data.get("prediction"),
            dispatch_epoch=data.get("dispatch_epoch", 0),
            completion_epoch=data.get("completion_epoch", 0),
        )


def make_trace_event(event_id: int, plan_wire: dict, result, findings,
                     prediction=None, dispatch_epoch: int = 0,
                     completion_epoch: int = 0,
                     body_limit: int = 4096) -> TraceEvent:
    """Build the persisted form of one exchange.

    Bodies above ``body_limit`` bytes are replaced by a size+digest marker;
    non-UTF-8 bodies are base64-encoded.
    """
    body_json = body_text = body_b64 = None
    if result.body:
        if len(result.body) > body_limit:
            body_json = {"__truncated__": True,
                         "sha256": hashlib.sha256(result.body).hexdigest(),
                         "bytes": len(result.body)}
        elif result.json_body is not None:
            body_json = result.json_body
        else:
            try:
                body_text = result.body.decode("utf-8")
            except UnicodeDecodeError:
                body_b64 = base64.b64encode(result.body).decode("ascii")
    prediction_dict = None
    if prediction is not None:
        prediction_dict = {"expected": sorted(prediction.expected_classes),
                           "basis": prediction.basis,
                           "rationale": prediction.rationale}
    return TraceEvent(
        event_id=event_id, plan=plan_wire, status=result.status,
        headers=dict(result.headers), body_json=body_json,
        body_text=body_text, body_b64=body_b64,
        transport_error=result.transport_error, latency=result.latency,
        findings=list(findings), prediction=prediction_dict,
        dispatch_epoch=dispatch_epoch, completion_epoch=completion_epoch)


class TraceSink:
    """Append-only JSON Lines writer; the header line is written on open."""

    def __init__(self, fh, path: str | None, header: dict):
        self._fh = fh
        self.path = path
        header = {"trace_version": TRACE_VERSION, **header}
        try:
            self._fh.write(json.dumps(header, sort_keys=True) + "\n")
            self._fh.flush()
        except OSError as exc:
            raise SinkWriteError(f"cannot write trace header: {exc}") from exc

    @classmethod
    def to_path(cls, path: str, header: dict | None = None) -> "TraceSink":
        try:
            fh = open(path, "w", encoding="utf-8")
        except OSError as exc:
            raise SinkWriteError(f"cannot open trace file {path}: {exc}") from exc
        return cls(fh, path, header or {})

    def append(self, event: TraceEvent) -> None:
        try:
            self._fh.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
            self._fh.flush()
        except (OSError, ValueError) as exc:
            raise SinkWriteError(f"cannot append event {event.event_id}: {exc}") \
                from exc

    def close(self) -> None:
        try:
            self._fh.close()
        except OSError:
            pass


def read_trace(path: str) -> tuple[dict, list[TraceEvent]]:
    """Load a trace file: (header, events).

    A last line without its newline that does not parse was torn by an
    interrupted write; it is skipped with a warning.  A malformed line
    anywhere else raises :class:`ValueError`.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header_line = fh.readline()
        if not header_line:
            raise ValueError(f"trace file {path} is empty")
        header = json.loads(header_line)
        if header.get("trace_version") != TRACE_VERSION:
            raise ValueError(
                f"unsupported trace_version {header.get('trace_version')!r}")
        events = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                if line.endswith("\n"):
                    raise ValueError(
                        f"trace file {path} line {lineno}: {exc}") from exc
                warnings.warn(f"trace file {path}: skipped torn last line "
                              f"{lineno}", stacklevel=2)
                break
            events.append(TraceEvent.from_dict(record))
    return header, events


# --- symbolic binding --------------------------------------------------------------

_SYM_KEY = "$sym"

_PATH_TOKEN = re.compile(r"\.([^.\[\]]+)|\[(\d+)\]")


def walk_json_path(value: Any, path: str) -> Any:
    """Follow a path like ``$.bookIds[0]`` into a JSON structure."""
    if not path.startswith("$"):
        raise SymbolResolutionFailure(f"malformed JSON path {path!r}")
    for m in _PATH_TOKEN.finditer(path, 1):
        key, index = m.group(1), m.group(2)
        try:
            value = value[key] if key is not None else value[int(index)]
        except (KeyError, IndexError, TypeError) as exc:
            raise SymbolResolutionFailure(
                f"response has no value at {path!r}: {exc}") from exc
    return value


def _symbol_marker(variable: str) -> dict:
    return {_SYM_KEY: variable}


def _is_marker(value: Any) -> bool:
    return isinstance(value, dict) and set(value) == {_SYM_KEY}


def _iter_produced_ids(body: Any, is_id_key: Callable[[str], bool],
                       path: str = "$"):
    """Yield (json_path, key, value) for id-like scalar fields in a response."""
    if isinstance(body, dict):
        for key, value in body.items():
            sub = f"{path}.{key}"
            if isinstance(value, (str, int)) and not isinstance(value, bool):
                if is_id_key(key):
                    yield sub, key, value
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    if isinstance(item, (str, int)) and not isinstance(item, bool):
                        if is_id_key(key):
                            yield f"{sub}[{i}]", key, item
                    else:
                        yield from _iter_produced_ids(
                            item, is_id_key, f"{sub}[{i}]")
            elif isinstance(value, dict):
                yield from _iter_produced_ids(value, is_id_key, sub)
    elif isinstance(body, list):
        for i, item in enumerate(body):
            yield from _iter_produced_ids(item, is_id_key, f"{path}[{i}]")


class _ProducerRegistry:
    """Produced id values with enough ordering data to judge true data flow.

    A producer is eligible for a consumer when it completed no later than the
    consumer was generated (its value could have been in the state store) and
    it completed strictly earlier; among eligible producers the latest one
    wins.
    """

    def __init__(self):
        self._by_value: dict[str, list[tuple[int, int, str, str]]] = {}

    def add(self, value, event_id: int, completion_epoch: int,
            json_path: str, key: str) -> None:
        self._by_value.setdefault(str(value), []).append(
            (completion_epoch, event_id, json_path, key))

    def latest_before(self, value, consumer_event_id: int,
                      consumer_dispatch_epoch: int):
        entries = self._by_value.get(str(value))
        if not entries:
            return None
        eligible = [e for e in entries
                    if e[0] <= consumer_dispatch_epoch
                    and e[1] < consumer_event_id]
        if not eligible:
            return None
        _, event_id, json_path, key = max(eligible)
        return event_id, json_path, key


def _id_key_predicate(model: SemanticModel,
                      threshold: float) -> Callable[[str], bool]:
    """Whether a response key holds an id: a bare ``id``, or a name that
    matches some resource's id fields.  Memoized for the caller's lifetime,
    so one ``bind_symbols`` call judges each distinct key once."""
    @functools.cache
    def is_id_key(key: str) -> bool:
        return tokenize(key) == ["id"] \
            or model.id_resource(key, threshold) is not None

    return is_id_key


@dataclass
class RecreateScript:
    steps: list[dict]
    bindings: list[dict]
    expected_failure: dict
    max_in_flight: int = 1
    attempts: int = 1

    def to_json(self) -> bytes:
        doc = {"script_version": SCRIPT_VERSION,
               "max_in_flight": self.max_in_flight, "attempts": self.attempts,
               "steps": self.steps, "bindings": self.bindings,
               "expected_failure": self.expected_failure}
        return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")

    @classmethod
    def from_json(cls, document: bytes | str) -> "RecreateScript":
        if isinstance(document, bytes):
            document = document.decode("utf-8")
        doc = json.loads(document)
        if doc.get("script_version") != SCRIPT_VERSION:
            raise ValueError(
                f"unsupported script_version {doc.get('script_version')!r}")
        script = cls(steps=doc["steps"], bindings=doc.get("bindings", []),
                     expected_failure=doc.get("expected_failure", {}),
                     max_in_flight=doc.get("max_in_flight", 1),
                     attempts=doc.get("attempts", 1))
        script.validate()
        return script

    def validate(self) -> None:
        producer_step = {b["variable"]: b["producer_step"] for b in self.bindings}
        for idx, step in enumerate(self.steps):
            for variable in sorted(_variables_in_step(step)):
                if variable not in producer_step:
                    raise ValueError(f"step {idx} consumes unbound {variable}")
                if producer_step[variable] >= idx:
                    raise ValueError(
                        f"step {idx} consumes {variable} produced at later "
                        f"step {producer_step[variable]}")


def _substitute(value: Any, registry: _ProducerRegistry, consumer_eid: int,
                dispatch_epoch: int, symbols: dict[tuple[int, str], str],
                names_taken: dict[str, int], consumers_out: dict[str, list],
                location: str):
    """Replace literals that equal an earlier produced id with symbol markers."""
    if isinstance(value, dict):
        return {k: _substitute(v, registry, consumer_eid, dispatch_epoch,
                               symbols, names_taken, consumers_out,
                               f"{location}.{k}")
                for k, v in value.items()}
    if isinstance(value, list):
        return [_substitute(v, registry, consumer_eid, dispatch_epoch,
                            symbols, names_taken, consumers_out,
                            f"{location}[{i}]")
                for i, v in enumerate(value)]
    if isinstance(value, (str, int)) and not isinstance(value, bool):
        hit = registry.latest_before(value, consumer_eid, dispatch_epoch)
        if hit is not None:
            event_id, json_path, key = hit
            sym_key = (event_id, json_path)
            if sym_key not in symbols:
                base = "$" + "_".join(tokenize(key))
                names_taken[base] = names_taken.get(base, 0) + 1
                name = base if names_taken[base] == 1 \
                    else f"{base}_{names_taken[base]}"
                symbols[sym_key] = name
                consumers_out[name] = []
            name = symbols[sym_key]
            consumers_out[name].append([consumer_eid, location])
            return _symbol_marker(name)
    return value


def bind_symbols(trace: Sequence[TraceEvent], model: SemanticModel,
                 expected_failure: dict | None = None,
                 threshold: float = DEFAULT_MATCH_THRESHOLD,
                 max_in_flight: int = 1,
                 attempts: int | None = None) -> RecreateScript:
    """Lift cross-request id flows into symbols and emit a replayable script.

    A literal in a request that equals a value observed at an id field of a
    success response that completed before the request was generated is bound
    to that producer (the latest one when several produced the same value).
    Remaining literals stay concrete.  Script steps follow dispatch order
    (plan ids), so concurrent windows replay the way they were issued.  When
    ``expected_failure`` is omitted it is derived from the last event's first
    error-grade finding.  A window (``max_in_flight``) above 1 replays
    concurrently, and then ``attempts`` defaults to
    :data:`DEFAULT_RACE_ATTEMPTS`.
    """
    completion_order = sorted(trace, key=lambda e: e.event_id)
    is_id_key = _id_key_predicate(model, threshold)

    # pass 1: collect every produced id with its completion epoch
    registry = _ProducerRegistry()
    for event in completion_order:
        if event.status is None or not 200 <= event.status < 300 \
                or event.body_json is None \
                or (isinstance(event.body_json, dict)
                    and event.body_json.get("__truncated__")):
            continue
        for json_path, key, value in _iter_produced_ids(event.body_json,
                                                        is_id_key):
            registry.add(value, event.event_id, event.completion_epoch,
                         json_path, key)

    # pass 2: emit steps in dispatch order, substituting eligible producers
    dispatch_order = sorted(
        completion_order,
        key=lambda e: (e.plan.get("plan_id", e.event_id), e.event_id))
    event_step = {e.event_id: i for i, e in enumerate(dispatch_order)}

    symbols: dict[tuple[int, str], str] = {}
    names_taken: dict[str, int] = {}
    consumers: dict[str, list] = {}
    steps: list[dict] = []
    for idx, event in enumerate(dispatch_order):
        plan = event.plan
        substitute = lambda value, where: _substitute(  # noqa: E731
            value, registry, event.event_id, event.dispatch_epoch,
            symbols, names_taken, consumers, where)
        steps.append({
            "step": idx,
            "source_event": event.event_id,
            "operation": plan.get("operation"),
            "method": plan["method"],
            "path_template": plan["path_template"],
            "path_params": substitute(plan.get("path_params", {}), "path"),
            "query": substitute(plan.get("query", {}), "query"),
            "headers": plan.get("headers", {}),
            "body": substitute(plan.get("body"), "body"),
        })

    bindings = []
    for (event_id, json_path), variable in symbols.items():
        bindings.append({
            "variable": variable,
            "producer": [event_id, json_path],
            "producer_step": event_step[event_id],
            "consumers": consumers[variable],
        })
    bindings.sort(key=lambda b: (b["producer_step"], b["variable"]))

    if expected_failure is None:
        expected_failure = expected_failure_for(completion_order[-1],
                                                model.spec)

    script = RecreateScript(
        steps=steps, bindings=bindings, expected_failure=expected_failure,
        max_in_flight=max_in_flight,
        attempts=attempts if attempts is not None
        else (DEFAULT_RACE_ATTEMPTS if max_in_flight > 1 else 1))
    script.validate()
    return script


def expected_failure_for(event: TraceEvent, spec: ApiSpecIR | None) -> dict:
    """Self-contained predicate recognizing the event's finding on replay."""
    finding = next((f for f in event.findings if f.grade == "error"),
                   event.findings[0] if event.findings else None)
    if finding is None:
        raise ValueError(f"event {event.event_id} carries no findings")
    predicate: dict[str, Any] = {"kind": finding.kind}
    if finding.kind == "server-error-5xx":
        predicate["status_class"] = "5XX"
    elif finding.kind == "undefined-status":
        predicate["status_not_in"] = list(
            event.plan.get("declared_status_patterns", []))
    elif finding.kind == "semantic-mismatch":
        predicate["status_not_in"] = list(finding.expected)
    elif finding.kind == "schema-violation":
        predicate["constraint"] = finding.constraint
        if finding.json_path:
            segment = re.split(r"[.\[]", finding.json_path.rstrip("]"))[-1]
            predicate["field"] = segment or None
        if spec is not None and event.status is not None:
            op = spec.operation(event.plan["operation"])
            for pattern, resp in op.responses:
                if status_pattern_matches(pattern, event.status) \
                        and resp.body_schema is not None:
                    predicate["schema"] = _schema_jsonable(resp.body_schema)
                    break
    elif finding.kind == "no-response":
        predicate["transport_error"] = event.transport_error or "timeout"
    return predicate


def _variables_in_step(step: dict) -> set[str]:
    out: set[str] = set()

    def walk(value):
        if _is_marker(value):
            out.add(value[_SYM_KEY])
        elif isinstance(value, dict):
            for v in value.values():
                walk(v)
        elif isinstance(value, list):
            for v in value:
                walk(v)

    walk(step.get("path_params"))
    walk(step.get("query"))
    walk(step.get("body"))
    return out


# --- replay ---------------------------------------------------------------------

@dataclass
class _ReplayPlan:
    method: str
    concrete_url: str
    headers: dict
    body: Any


@dataclass
class ReplayOutcome:
    outcome: str  # reproduced | not-reproduced | error
    detail: str = ""
    attempts_used: int = 0

    EXIT_CODES = {"reproduced": 0, "not-reproduced": 1, "error": 2}

    @property
    def exit_code(self) -> int:
        return self.EXIT_CODES[self.outcome]


def _resolve(value: Any, symbols: dict[str, Any]) -> Any:
    if _is_marker(value):
        name = value[_SYM_KEY]
        if name not in symbols:
            raise SymbolResolutionFailure(f"symbol {name} has no value yet")
        return symbols[name]
    if isinstance(value, dict):
        return {k: _resolve(v, symbols) for k, v in value.items()}
    if isinstance(value, list):
        return [_resolve(v, symbols) for v in value]
    return value


def _build_replay_plan(step: dict, symbols: dict[str, Any]) -> _ReplayPlan:
    path_params = _resolve(step.get("path_params", {}), symbols)
    query = _resolve(step.get("query", {}), symbols)
    body = _resolve(step.get("body"), symbols)
    url = render_url(step["path_template"], path_params, query)
    return _ReplayPlan(step["method"], url, dict(step.get("headers", {})), body)


def _extract_step_symbols(script: RecreateScript, step_idx: int, result,
                          symbols: dict[str, Any]) -> None:
    for binding in script.bindings:
        if binding["producer_step"] != step_idx:
            continue
        if result.transport_error or result.json_body is None:
            raise SymbolResolutionFailure(
                f"producer step {step_idx} returned no JSON body "
                f"(status={result.status}, transport={result.transport_error})")
        symbols[binding["variable"]] = walk_json_path(result.json_body,
                                                      binding["producer"][1])


def _predicate_matches(predicate: dict, result) -> bool:
    if "transport_error" in predicate:
        return bool(result.transport_error) and \
            result.transport_error.startswith(predicate["transport_error"])
    if result.status is None:
        return False
    if "status_class" in predicate:
        return status_pattern_matches(predicate["status_class"], result.status)
    if "status_not_in" in predicate:
        patterns = predicate["status_not_in"]
        return not any_pattern_matches(patterns, result.status)
    if "schema" in predicate:
        if result.json_body is None:
            return True  # schema declared but body unparseable: still violated
        schema = _schema_from_jsonable(predicate["schema"])
        for violation in validate_value(result.json_body, schema):
            if predicate.get("constraint") \
                    and violation.constraint != predicate["constraint"]:
                continue
            fld = predicate.get("field")
            if fld:
                segment = re.split(r"[.\[]", violation.json_path.rstrip("]"))[-1]
                if segment != fld:
                    continue
            return True
        return False
    return False


def _replay_once_sequential(script: RecreateScript, target,
                            timeout: float) -> bool:
    symbols: dict[str, Any] = {}
    result = None
    for idx, step in enumerate(script.steps):
        plan = _build_replay_plan(step, symbols)
        result = execute(plan, target, timeout)
        _extract_step_symbols(script, idx, result, symbols)
    if result is None:
        return False
    return _predicate_matches(script.expected_failure, result)


def _replay_once_concurrent(script: RecreateScript, target,
                            timeout: float) -> bool:
    symbols: dict[str, Any] = {}
    results: dict[int, Any] = {}
    pending: dict[int, Any] = {}

    def complete(idx: int) -> None:
        result = pending.pop(idx).result()
        results[idx] = result
        _extract_step_symbols(script, idx, result, symbols)

    producer_step = {b["variable"]: b["producer_step"] for b in script.bindings}
    with ThreadPoolExecutor(max_workers=max(script.max_in_flight, 1)) as pool:
        for idx, step in enumerate(script.steps):
            for variable in sorted(_variables_in_step(step)):
                pstep = producer_step[variable]
                if pstep in pending:
                    complete(pstep)
            while len(pending) >= script.max_in_flight:
                complete(next(iter(pending)))
            plan = _build_replay_plan(step, symbols)
            pending[idx] = pool.submit(execute, plan, target, timeout)
        while pending:
            complete(next(iter(pending)))
    return any(_predicate_matches(script.expected_failure, r)
               for r in results.values())


def replay(script: RecreateScript, target,
           timeout: float = DEFAULT_TIMEOUT,
           attempts: int | None = None) -> ReplayOutcome:
    """Execute a recreate script and judge whether the failure reproduced.

    Raises :class:`SymbolResolutionFailure` when a producer response does not
    yield a bound symbol (the CLI maps this to exit code 2).  With a window
    above 1 the steps replay concurrently, and what a producer returns
    depends on how the window overlapped, so such an attempt only counts as
    not reproducing, and the failure is raised when no attempt resolved
    every symbol.
    """
    attempts = attempts if attempts is not None else script.attempts
    concurrent = script.max_in_flight > 1
    runner = _replay_once_concurrent if concurrent else _replay_once_sequential
    unresolved: SymbolResolutionFailure | None = None
    resolved = False
    for attempt in range(1, max(attempts, 1) + 1):
        try:
            reproduced = runner(script, target, timeout)
        except SymbolResolutionFailure as exc:
            if not concurrent:
                raise
            unresolved = exc
            continue
        if reproduced:
            return ReplayOutcome("reproduced",
                                 f"reproduced on attempt {attempt}/{attempts}",
                                 attempts_used=attempt)
        resolved = True
    if unresolved is not None and not resolved:
        raise unresolved
    return ReplayOutcome("not-reproduced",
                         f"no reproduction in {attempts} attempt(s)",
                         attempts_used=max(attempts, 1))


# --- minimization ------------------------------------------------------------------

@dataclass
class MinimizeResult:
    events: list[TraceEvent]
    oracle_calls: int
    proven_minimal: bool
    reduced_from: int


class _BudgetExhausted(Exception):
    pass


def producer_dependencies(events: Sequence[TraceEvent], model: SemanticModel,
                          threshold: float = DEFAULT_MATCH_THRESHOLD
                          ) -> dict[int, set[int]]:
    """Direct producer event ids required by each consumer event."""
    script = bind_symbols(events, model, expected_failure={"kind": "analysis"},
                          threshold=threshold)
    deps: dict[int, set[int]] = {}
    for binding in script.bindings:
        producer_eid = binding["producer"][0]
        for consumer_eid, _location in binding["consumers"]:
            deps.setdefault(consumer_eid, set()).add(producer_eid)
    return deps


def minimize(trace: Sequence[TraceEvent], failing_event: int,
             oracle: Callable[[Sequence[TraceEvent]], bool],
             dependencies: dict[int, set[int]] | None = None,
             max_oracle_calls: int = DEFAULT_ORACLE_BUDGET,
             initial_attempts: int = 3) -> MinimizeResult:
    """Reduce the prefix ending at ``failing_event`` to a 1-minimal subsequence.

    ``oracle(events)`` replays a candidate subsequence and reports whether the
    original finding re-occurred.  The full prefix must reproduce at least
    once in ``initial_attempts`` tries, else :class:`NotReproducible`.  When
    ``dependencies`` (consumer -> producer event ids) is given, removing a
    producer cascades its transitive consumers out of the candidate instead
    of spending an oracle call on an unresolvable sequence.  A delta-debugging
    pass shrinks in chunks, then exhaustive single removals run until fixpoint;
    if the call budget runs out first, the best reduction so far is returned
    flagged not proven minimal.
    """
    prefix = sorted((e for e in trace if e.event_id <= failing_event),
                    key=lambda e: e.event_id)
    if not prefix or prefix[-1].event_id != failing_event:
        raise ValueError(f"trace has no event {failing_event}")
    failing = prefix[-1]
    dependencies = dependencies or {}

    consumers_of: dict[int, set[int]] = {}
    for consumer, producers in dependencies.items():
        for producer in producers:
            consumers_of.setdefault(producer, set()).add(consumer)

    def cascade(removed: set[int]) -> set[int]:
        out = set(removed)
        frontier = list(removed)
        while frontier:
            eid = frontier.pop()
            for consumer in consumers_of.get(eid, ()):
                if consumer not in out:
                    out.add(consumer)
                    frontier.append(consumer)
        return out

    calls = 0

    def test(candidate: list[TraceEvent]) -> bool:
        nonlocal calls
        if calls >= max_oracle_calls:
            raise _BudgetExhausted
        calls += 1
        return oracle(candidate)

    for _ in range(initial_attempts):
        if test(prefix):
            break
    else:
        raise NotReproducible(
            f"finding at event {failing_event} did not reproduce in "
            f"{initial_attempts} replays of the full {len(prefix)}-event prefix")

    kept = [e for e in prefix if e.event_id != failing_event]
    proven = True
    try:
        # chunked delta-debugging pass
        granularity = 2
        while kept and granularity >= 2:
            chunk_size = math.ceil(len(kept) / granularity)
            reduced = False
            for start in range(0, len(kept), chunk_size):
                chunk = {e.event_id for e in kept[start:start + chunk_size]}
                removed = cascade(chunk)
                if failing_event in removed:
                    continue
                trial_kept = [e for e in kept if e.event_id not in removed]
                if len(trial_kept) == len(kept):
                    continue
                if test(trial_kept + [failing]):
                    kept = trial_kept
                    granularity = max(granularity - 1, 2)
                    reduced = True
                    break
            if not reduced:
                if granularity >= len(kept):
                    break
                granularity = min(len(kept), granularity * 2)

        # exhaustive single removals until fixpoint: 1-minimality
        changed = True
        while changed:
            changed = False
            for event in list(kept):
                trial = [e for e in kept if e.event_id != event.event_id]
                if test(trial + [failing]):
                    kept = trial
                    changed = True
                    break
    except _BudgetExhausted:
        proven = False

    return MinimizeResult(
        events=kept + [failing],
        oracle_calls=calls,
        proven_minimal=proven,
        reduced_from=len(prefix))


def build_replay_oracle(model: SemanticModel, expected_failure: dict,
                        target_factory: Callable[[], Any],
                        max_in_flight: int = 1,
                        attempts: int | None = None,
                        timeout: float = DEFAULT_TIMEOUT,
                        threshold: float = DEFAULT_MATCH_THRESHOLD
                        ) -> Callable[[Sequence[TraceEvent]], bool]:
    """Oracle that replays candidate subsequences against fresh SUT targets.

    ``target_factory`` must return a target whose state is fresh (an
    in-process fixture instance, or an endpoint reset beforehand); a candidate
    whose symbols cannot be resolved counts as not reproducing.
    """
    def oracle(events: Sequence[TraceEvent]) -> bool:
        script = bind_symbols(events, model, expected_failure=expected_failure,
                              threshold=threshold,
                              max_in_flight=max_in_flight, attempts=attempts)
        target = target_factory()
        try:
            outcome = replay(script, target, timeout=timeout)
        except SymbolResolutionFailure:
            return False
        finally:
            close = getattr(target, "close", None)
            if close is not None:
                close()
        return outcome.outcome == "reproduced"

    return oracle


# --- run-length estimation -----------------------------------------------------------

def estimate_run_length(op_count: int, miss_probability: float) -> int:
    """Smallest N with ``k * (1 - 1/k)**N <= eps``.

    Union bound on "some of the k operations was never drawn" after N uniform
    selections; a budgeting heuristic for regression-by-regeneration runs.
    """
    if op_count < 1:
        raise ValueError("op_count must be >= 1")
    if not 0.0 < miss_probability < 1.0:
        raise ValueError("miss_probability must be in (0, 1)")
    if op_count == 1:
        return 1
    ratio = 1.0 - 1.0 / op_count
    estimate = math.ceil(math.log(miss_probability / op_count) / math.log(ratio))
    n = max(estimate, 1)
    while op_count * ratio ** n > miss_probability:
        n += 1
    while n > 1 and op_count * ratio ** (n - 1) <= miss_probability:
        n -= 1
    return n
