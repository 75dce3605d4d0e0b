"""Trace persistence, failure minimization, and re-runnable recreate scripts.

Every exchange of a run is appended to a JSON Lines trace (one version header
line, then one event per line).  An event keeps what replay needs: one with a
finding keeps its exchange whole, and otherwise a response keeps only the ids
it produced.  An event completes at its own id, the run's count of completed
exchanges, and its ``dispatch_epoch`` is that count when its plan was
generated.  When a run fails, the failing prefix is reduced with a
delta-debugging loop against a replay oracle, producer/consumer data flows are
lifted into symbolic variables (so replays survive a SUT that assigns
different ids), and the result is emitted as a script that either reproduces
the original finding (exit 0 in the CLI), does not (exit 1), or cannot be
evaluated (exit 2).

Replay is one loop that sends the steps in order through a dispatcher and
binds a producer's symbols when its answer is collected.  A script's window
(``max_in_flight``, taken from the run) is the one switch on the replay
side.  At 1 each step is answered before the next one is built, the last
answer is judged, a script runs once by default, and a symbol that does not
resolve ends the replay.  Above 1 the steps are sent overlapped up to the
window, a step first collects the producers it consumes, any answer counts,
a script runs :data:`DEFAULT_RACE_ATTEMPTS` times by default, and a symbol
that does not resolve only fails that attempt, unless an answer already
showed the failure.

The minimizer treats symbolic producers and their consumers as atomic: when a
candidate removal would orphan a consumer of a removed producer, the consumer
is cascaded out as well instead of wasting an oracle call on a sequence that
can only fail to resolve.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import re
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from .checker import GRADE_ERROR, Finding, check_body, matching_response
from .http_driver import DEFAULT_TIMEOUT, Dispatcher, execute, render_url
from .naming import tokenize
from .semantic_model import SemanticModel
from .spec_ingest import (
    ANY_KIND,
    SCHEMA_VALUE_RULES,
    ApiSpecIR,
    ResponseDef,
    SchemaNode,
    any_pattern_matches,
    status_pattern_matches,
)

TRACE_VERSION = 4
SCRIPT_VERSION = 1

DEFAULT_ORACLE_BUDGET = 500
DEFAULT_RACE_ATTEMPTS = 20
# Replays of the full prefix before a finding counts as not reproducible.
INITIAL_ATTEMPTS = 3
# Bodies above this many bytes are traced as a size (and, when the event is
# kept whole, a SHA-256), never as ids.
TRACE_BODY_LIMIT = 4096
# The sink flushes its file when this many seconds have passed since the last
# flush, and on close.
FLUSH_INTERVAL = 1.0

# One compact line per record.  A record is a tree of parsed JSON and fresh
# dicts, never a cycle, so the encoder skips the cycle check.
_COMPACT = json.JSONEncoder(separators=(",", ":"), check_circular=False)


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
    dispatch_epoch: int = 0

    def to_dict(self) -> dict:
        out: dict[str, Any] = {
            "event_id": self.event_id,
            "plan": self.plan,
            "status": self.status,
            "latency": round(self.latency, 6),
            "dispatch_epoch": self.dispatch_epoch,
        }
        if self.headers:
            out["headers"] = self.headers
        if self.findings:
            out["findings"] = [f.to_dict() for f in self.findings]
        if self.body_json is not None:
            out["body_json"] = self.body_json
        if self.body_text is not None:
            out["body_text"] = self.body_text
        if self.body_b64 is not None:
            out["body_b64"] = self.body_b64
        if self.transport_error is not None:
            out["transport_error"] = self.transport_error
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "TraceEvent":
        if not isinstance(data, dict) or type(data.get("event_id")) is not int \
                or not isinstance(data.get("plan"), dict) \
                or type(data["plan"].get("plan_id")) is not int \
                or not isinstance(data["plan"].get("operation"), str):
            raise ValueError("not an object with an integer event_id and "
                             "a plan object with an integer plan_id and "
                             "a string operation")
        if type(data.get("status")) not in (int, type(None)) \
                or type(data.get("dispatch_epoch", 0)) is not int:
            raise ValueError("a status that is not an integer or null, or "
                             "a dispatch_epoch that is not an integer")
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
            dispatch_epoch=data.get("dispatch_epoch", 0),
        )


def make_trace_event(event_id: int, plan_wire: dict, result, findings,
                     is_id_key: Callable[[str], bool],
                     dispatch_epoch: int = 0) -> TraceEvent:
    """Build the persisted form of one exchange.

    An event with no finding keeps only what replay reads: of a 2XX JSON
    body the ids :func:`bind_symbols` registers (:func:`_project_ids`, by
    ``is_id_key``, the run's ``SemanticModel.id_key_predicate``), of any
    other body nothing.  It leaves out the response headers.  An event with a
    finding is kept whole, and then a non-UTF-8 body is base64-encoded.
    Either way a body above :data:`TRACE_BODY_LIMIT` bytes, judged before
    projecting, is replaced by a size marker.
    """
    whole = bool(findings)
    body = result.body
    body_json = body_text = body_b64 = None
    if body:
        if len(body) > TRACE_BODY_LIMIT:
            body_json = {"__truncated__": True, "bytes": len(body)}
            if whole:
                body_json["sha256"] = hashlib.sha256(body).hexdigest()
        elif not whole:
            if result.json_body is not None and 200 <= result.status < 300:
                body_json = _project_ids(result.json_body, is_id_key)
        elif result.json_body is not None:
            body_json = result.json_body
        else:
            try:
                body_text = body.decode("utf-8")
            except UnicodeDecodeError:
                body_b64 = base64.b64encode(body).decode("ascii")
    return TraceEvent(
        event_id=event_id, plan=plan_wire, status=result.status,
        headers=dict(result.headers) if whole else {}, body_json=body_json,
        body_text=body_text, body_b64=body_b64,
        transport_error=result.transport_error, latency=result.latency,
        findings=list(findings), dispatch_epoch=dispatch_epoch)


def _project_ids(body: Any, is_id_key: Callable[[str], bool]) -> Any:
    """The part of a JSON body that :func:`_iter_produced_ids` reads.

    It keeps each id that function yields at the same path: a dict keeps
    only the keys that lead to one, and a list keeps its length, with
    ``None`` for an item that holds none.  ``None`` when the body holds no
    id.  Types are compared exactly, which for parsed JSON is what the
    ``isinstance`` tests there decide (a ``bool`` is not an ``int``).
    """
    kind = type(body)
    if kind is list:
        return _project_list(body, False, is_id_key)
    if kind is not dict:
        return None
    out = None
    for key, value in body.items():
        kind = type(value)
        if kind is str or kind is int:
            if not is_id_key(key):
                continue
        elif kind is list:
            value = _project_list(value, is_id_key(key), is_id_key)
            if value is None:
                continue
        elif kind is dict:
            value = _project_ids(value, is_id_key)
            if value is None:
                continue
        else:
            continue
        if out is None:
            out = {}
        out[key] = value
    return out


def _project_list(items: list, ids_here: bool,
                  is_id_key: Callable[[str], bool]) -> list | None:
    """:func:`_project_ids` of a list; ``ids_here`` when the key the list
    sits under names ids, so its string and integer items are ids."""
    out = None
    for i, item in enumerate(items):
        kind = type(item)
        if kind is str or kind is int:
            if not ids_here:
                continue
        else:
            item = _project_ids(item, is_id_key)
            if item is None:
                continue
        if out is None:
            out = [None] * len(items)
        out[i] = item
    return out


class TraceSink:
    """Append-only JSON Lines writer; the header line is written and
    flushed on open.

    Each event is one compact line and one ``write``.  An append flushes
    the file once :data:`FLUSH_INTERVAL` seconds have passed since the last
    flush, and :meth:`close` flushes it, so a killed run loses at most the
    events appended within that interval, or what the file object buffers;
    :func:`read_trace` skips a torn last line.
    """

    def __init__(self, fh, path: str | None, header: dict):
        self._fh = fh
        self.path = path
        header = {"trace_version": TRACE_VERSION, **header}
        try:
            self._fh.write(_COMPACT.encode(header) + "\n")
            self._fh.flush()
        except OSError as exc:
            raise SinkWriteError(f"cannot write trace header: {exc}") from exc
        self._flushed = time.monotonic()

    @classmethod
    def to_path(cls, path: str, header: dict | None = None) -> "TraceSink":
        try:
            fh = open(path, "w", encoding="utf-8")
        except OSError as exc:
            raise SinkWriteError(f"cannot open trace file {path}: {exc}") from exc
        return cls(fh, path, header or {})

    def append(self, event: TraceEvent) -> None:
        try:
            self._fh.write(_COMPACT.encode(event.to_dict()) + "\n")
            now = time.monotonic()
            if now - self._flushed >= FLUSH_INTERVAL:
                self._fh.flush()
                self._flushed = now
        except (OSError, ValueError) as exc:
            raise SinkWriteError(f"cannot append event {event.event_id}: {exc}") \
                from exc

    def close(self) -> None:
        """Flush and close the file; a failed flush, which loses the
        unflushed tail, raises :class:`SinkWriteError`."""
        try:
            self._fh.flush()
        except (OSError, ValueError) as exc:
            raise SinkWriteError(f"cannot flush the trace tail: {exc}") from exc
        finally:
            try:
                self._fh.close()
            except OSError:
                pass


def read_trace(path: str) -> tuple[dict, list[TraceEvent]]:
    """Load a trace file of version :data:`TRACE_VERSION`: (header, events).

    A last line without its newline that does not parse was torn by an
    interrupted write; it is skipped with a warning.  A malformed line
    anywhere else raises :class:`ValueError` naming it: one that does not
    parse, a header that is not an object, an event without an integer
    ``event_id``, ``dispatch_epoch`` and ``status`` (or a null one) or a
    ``plan`` with an integer ``plan_id`` and a string ``operation``, a
    finding without a ``grade``, ``kind`` or ``detail``.  So does any other
    version: an older trace runs on another clock, and the recreate script,
    not the trace, is what a regression keeps.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header_line = fh.readline()
        if not header_line:
            raise ValueError(f"trace file {path} is empty")
        header = json.loads(header_line)
        if not isinstance(header, dict):
            raise ValueError(f"trace file {path} line 1: the header is not "
                             f"an object")
        if header.get("trace_version") != TRACE_VERSION:
            raise ValueError(
                f"unsupported trace_version {header.get('trace_version')!r}: "
                f"only version-{TRACE_VERSION} traces are read")
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
            try:
                events.append(TraceEvent.from_dict(record))
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"trace file {path} line {lineno}: malformed "
                                 f"event ({type(exc).__name__}: {exc})") from exc
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
    consumer was generated (its value could have been in the state store):
    its event id is at most the consumer's ``dispatch_epoch``, and so below
    the consumer's own event id.  Among eligible producers one whose JSON
    path holds no list index (a create's or a single read's ``$.customerId``)
    wins over a list read's ``$[1].customerId``, whose position only holds
    while every item before it is replayed too; among equals the latest
    wins.
    """

    def __init__(self):
        self._by_value: dict[str, list[tuple[int, str, str]]] = {}

    def add(self, value, event_id: int, json_path: str, key: str) -> None:
        self._by_value.setdefault(str(value), []).append(
            (event_id, json_path, key))

    def producer_before(self, value, consumer_dispatch_epoch: int):
        entries = self._by_value.get(str(value))
        if not entries:
            return None
        eligible = [e for e in entries if e[0] <= consumer_dispatch_epoch]
        if not eligible:
            return None
        return max(eligible, key=lambda e: ("[" not in e[1], e))


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
        """Load a script; :class:`ValueError` when the document is not one."""
        if isinstance(document, bytes):
            document = document.decode("utf-8")
        doc = json.loads(document)
        if not isinstance(doc, dict):
            raise ValueError("script root is not an object")
        if doc.get("script_version") != SCRIPT_VERSION:
            raise ValueError(
                f"unsupported script_version {doc.get('script_version')!r}")
        expected_failure = doc.get("expected_failure", {})
        if not isinstance(expected_failure, dict):
            raise ValueError("script 'expected_failure' is not an object")
        for key in ("max_in_flight", "attempts"):
            value = doc.get(key, 1)
            if type(value) is not int or value < 1:
                raise ValueError(f"script {key!r} is not a positive integer")
        steps = _script_entries(doc.get("steps"), "steps",
                                {"method": str, "path_template": str},
                                {"path_params": dict, "query": dict,
                                 "headers": dict})
        if not all(type(v) is str for step in steps
                   for v in step.get("headers", {}).values()):
            raise ValueError("script step header values must be strings")
        bindings = _script_entries(
            doc.get("bindings", []), "bindings",
            {"variable": str, "producer": list, "producer_step": int})
        if not all(len(b["producer"]) == 2 and type(b["producer"][0]) is int
                   and type(b["producer"][1]) is str for b in bindings):
            raise ValueError("script binding 'producer' is not an "
                             "[event id, JSON path] pair")
        _check_predicate(expected_failure)
        script = cls(steps=steps, bindings=bindings,
                     expected_failure=expected_failure,
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


def _script_entries(entries: Any, section: str, keys: dict[str, type],
                    optional: dict[str, type] | None = None) -> list[dict]:
    """``entries`` when it is a list of objects, each with ``keys`` of
    their types, and the ``optional`` keys it has of theirs; else
    :class:`ValueError`."""
    optional = optional or {}
    if not isinstance(entries, list) or not all(
            isinstance(e, dict) and all(isinstance(e.get(k), kind)
                                        for k, kind in keys.items())
            and all(isinstance(e[k], kind) for k, kind in optional.items()
                    if k in e)
            for e in entries):
        raise ValueError(f"script {section!r} is not a list of objects with "
                         + " and ".join(f"a {kind.__name__} {k!r}"
                                        for k, kind in keys.items())
                         + "".join(f", an optional {kind.__name__} {k!r}"
                                   for k, kind in optional.items()))
    return entries


def _schema_jsonable(s: SchemaNode) -> dict:
    """A schema as a script's predicate writes it."""
    out: dict[str, Any] = {"kind": s.kind}
    if s.nullable:
        out["nullable"] = True
    for key in ("minimum", "maximum", "pattern", "min_length", "max_length",
                "format", "min_items", "max_items"):
        val = getattr(s, key)
        if val is not None:
            out[key] = val
    if s.enum_values:
        out["enum_values"] = list(s.enum_values)
    if s.items is not None:
        out["items"] = _schema_jsonable(s.items)
    if s.required_fields:
        out["required_fields"] = list(s.required_fields)
    if s.properties:
        out["properties"] = [[n, _schema_jsonable(p)] for n, p in s.properties]
    return out


def _schema_from_jsonable(data: dict) -> SchemaNode:
    """Inverse of :func:`_schema_jsonable`; :class:`ValueError` for a value
    that ``SCHEMA_VALUE_RULES`` refuses, as ``load_spec`` ignores one."""
    for name, (_, what, fits) in SCHEMA_VALUE_RULES.items():
        if name in data and not fits(data[name]):
            raise ValueError(f"{name} {data[name]!r} is not {what}")
    return SchemaNode(
        kind=data.get("kind", ANY_KIND),
        nullable=data.get("nullable", False),
        enum_values=tuple(data.get("enum_values", ())),
        minimum=data.get("minimum"),
        maximum=data.get("maximum"),
        pattern=data.get("pattern"),
        min_length=data.get("min_length"),
        max_length=data.get("max_length"),
        format=data.get("format"),
        min_items=data.get("min_items"),
        max_items=data.get("max_items"),
        items=_schema_from_jsonable(data["items"]) if "items" in data else None,
        required_fields=tuple(data.get("required_fields", ())),
        properties=tuple(
            (n, _schema_from_jsonable(p)) for n, p in data.get("properties", [])),
    )


# What the replay matcher reads of a predicate, by type; ``constraint`` and
# ``field`` may be null.
_PREDICATE_TYPES = {"status_class": str, "transport_error": str,
                    "constraint": (str, type(None)),
                    "field": (str, type(None)), "schema": dict}


def _check_predicate(predicate: dict) -> None:
    """:class:`ValueError` when a value of the script's ``expected_failure``
    that replay reads has the wrong type, or its schema does not build and
    compile as replay builds it."""
    for key, kind in _PREDICATE_TYPES.items():
        if key in predicate and not isinstance(predicate[key], kind):
            raise ValueError(f"script expected_failure {key!r} has the wrong "
                             f"type: {predicate[key]!r}")
    if "schema" in predicate:
        try:
            _schema_from_jsonable(predicate["schema"]).validator
        except (TypeError, AttributeError, KeyError, ValueError,
                re.error) as exc:
            raise ValueError(f"script expected_failure 'schema' does not "
                             f"build ({type(exc).__name__}: {exc})") from exc
    patterns = predicate.get("status_not_in", [])
    if not isinstance(patterns, list) \
            or not all(type(p) is str for p in patterns):
        raise ValueError("script expected_failure 'status_not_in' is not a "
                         "list of strings")


def _substitute(value: Any, registry: _ProducerRegistry, dispatch_epoch: int,
                symbols: dict[tuple[int, str], str],
                names_taken: dict[str, int]):
    """Replace literals that equal an earlier produced id with symbol markers."""
    if isinstance(value, dict):
        return {k: _substitute(v, registry, dispatch_epoch, symbols,
                               names_taken)
                for k, v in value.items()}
    if isinstance(value, list):
        return [_substitute(v, registry, dispatch_epoch, symbols, names_taken)
                for v in value]
    if isinstance(value, (str, int)) and not isinstance(value, bool):
        hit = registry.producer_before(value, dispatch_epoch)
        if hit is not None:
            event_id, json_path, key = hit
            sym_key = (event_id, json_path)
            if sym_key not in symbols:
                base = "$" + "_".join(tokenize(key))
                names_taken[base] = names_taken.get(base, 0) + 1
                name = base if names_taken[base] == 1 \
                    else f"{base}_{names_taken[base]}"
                symbols[sym_key] = name
            return _symbol_marker(symbols[sym_key])
    return value


def bind_symbols(trace: Sequence[TraceEvent], model: SemanticModel,
                 expected_failure: dict | None = None,
                 max_in_flight: int = 1,
                 attempts: int | None = None) -> RecreateScript:
    """Lift cross-request id flows into symbols and emit a replayable script.

    A literal in a request that equals a value observed at an id field of a
    success response that completed before the request was generated is bound
    to that producer.  When several produced the same value, one outside a
    list (a create's id) wins over a list item, and then the latest wins.
    Remaining literals stay concrete.  Script steps follow dispatch order
    (plan ids), so concurrent windows replay the way they were issued, and
    take their method and path template from the operation in the model's
    spec.  When
    ``expected_failure`` is omitted it is derived from the last event's first
    error-grade finding.  A window (``max_in_flight``) above 1 replays
    concurrently, and then ``attempts`` defaults to
    :data:`DEFAULT_RACE_ATTEMPTS`.
    """
    completion_order = sorted(trace, key=lambda e: e.event_id)
    is_id_key = model.id_key_predicate()

    # pass 1: collect every produced id with its completion time
    registry = _ProducerRegistry()
    for event in completion_order:
        if event.status is None or not 200 <= event.status < 300 \
                or event.body_json is None \
                or (isinstance(event.body_json, dict)
                    and event.body_json.get("__truncated__")):
            continue
        for json_path, key, value in _iter_produced_ids(event.body_json,
                                                        is_id_key):
            registry.add(value, event.event_id, json_path, key)

    # pass 2: emit steps in dispatch order, substituting eligible producers
    dispatch_order = sorted(completion_order,
                            key=lambda e: (e.plan["plan_id"], e.event_id))
    event_step = {e.event_id: i for i, e in enumerate(dispatch_order)}

    operations = model.spec.operations_by_id()
    symbols: dict[tuple[int, str], str] = {}
    names_taken: dict[str, int] = {}
    steps: list[dict] = []
    for idx, event in enumerate(dispatch_order):
        plan = event.plan
        op = operations[plan["operation"]]
        substitute = lambda value: _substitute(  # noqa: E731
            value, registry, event.dispatch_epoch, symbols, names_taken)
        steps.append({
            "step": idx,
            "source_event": event.event_id,
            "operation": op.operation_id,
            "method": op.method,
            "path_template": op.path_template,
            "path_params": substitute(plan.get("path_params", {})),
            "query": substitute(plan.get("query", {})),
            "headers": plan.get("headers", {}),
            "body": substitute(plan.get("body")),
        })

    bindings = []
    for (event_id, json_path), variable in symbols.items():
        bindings.append({
            "variable": variable,
            "producer": [event_id, json_path],
            "producer_step": event_step[event_id],
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


def _last_segment(json_path: str) -> str:
    """The field a JSON path ends in: ``$.items[0].price`` -> ``price``."""
    return re.split(r"[.\[]", json_path.rstrip("]"))[-1]


def expected_failure_for(event: TraceEvent, spec: ApiSpecIR | None) -> dict:
    """Self-contained predicate recognizing the event's finding on replay."""
    finding = next((f for f in event.findings if f.grade == "error"),
                   event.findings[0] if event.findings else None)
    if finding is None:
        raise ValueError(f"event {event.event_id} carries no findings")
    predicate: dict[str, Any] = {"kind": finding.kind}
    if finding.kind == "server-error-5xx":
        predicate["status_class"] = "5XX"
    elif finding.kind in ("undefined-status", "semantic-mismatch"):
        predicate["status_not_in"] = list(finding.expected)
    elif finding.kind == "schema-violation":
        predicate["constraint"] = finding.constraint
        if finding.json_path:
            predicate["field"] = _last_segment(finding.json_path) or None
        if spec is not None and event.status is not None:
            resp = matching_response(spec.operation(event.plan["operation"]),
                                     event.status)
            if resp is not None and resp.body_schema is not None:
                predicate["schema"] = _schema_jsonable(resp.body_schema)
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


def _predicate_matcher(predicate: dict) -> Callable[[Any], bool]:
    """The script's failure predicate as a test of one answer.  A schema in
    it is built once per matcher and judged by the checker's body check: an
    answer matches when that check flags an error of the predicate's
    ``constraint`` at its ``field``, each where the predicate sets it."""
    declared = ResponseDef(_schema_from_jsonable(predicate["schema"])) \
        if "schema" in predicate else None
    constraint, fld = predicate.get("constraint"), predicate.get("field")

    def matches(result) -> bool:
        if "transport_error" in predicate:
            return bool(result.transport_error) and \
                result.transport_error.startswith(predicate["transport_error"])
        if result.status is None:
            return False
        if "status_class" in predicate:
            return status_pattern_matches(predicate["status_class"],
                                          result.status)
        if "status_not_in" in predicate:
            patterns = predicate["status_not_in"]
            return not any_pattern_matches(patterns, result.status)
        if declared is not None:
            return any(f.grade == GRADE_ERROR
                       and (not constraint or f.constraint == constraint)
                       and (not fld or _last_segment(f.json_path) == fld)
                       for f in check_body(result, "replay", declared))
        return False
    return matches


def _replay_once(script: RecreateScript, target, dispatcher,
                 matches: Callable[[Any], bool]) -> bool:
    """One attempt at the script's window.

    A full window first collects whatever is answered, and a step then
    collects the steps it takes symbols from.  At window 1 each step is
    answered before the next one is built, and the last answer is judged;
    above it, any answer counts, also one from a producer that then yields
    no symbol (the failure itself can be what keeps its id out).
    """
    window = script.max_in_flight
    first_judged = 0 if window > 1 else len(script.steps) - 1
    producer_step: dict[str, int] = {}
    bound_by_step: dict[int, list[tuple[str, str]]] = {}
    for binding in script.bindings:
        producer_step[binding["variable"]] = binding["producer_step"]
        bound_by_step.setdefault(binding["producer_step"], []).append(
            (binding["variable"], binding["producer"][1]))
    symbols: dict[str, Any] = {}
    pending: set[int] = set()
    reproduced = False

    def collect() -> None:
        nonlocal reproduced
        answers = dispatcher.wait()
        pending.difference_update(idx for idx, _ in answers)
        for idx, result in answers:
            if idx >= first_judged and not reproduced:
                reproduced = matches(result)
            for variable, json_path in bound_by_step.get(idx, ()):
                if result.transport_error or result.json_body is None:
                    raise SymbolResolutionFailure(
                        f"producer step {idx} returned no JSON body "
                        f"(status={result.status}, "
                        f"transport={result.transport_error})")
                symbols[variable] = walk_json_path(result.json_body, json_path)

    try:
        for idx, step in enumerate(script.steps):
            while len(pending) >= window:
                collect()
            if pending:  # never at window 1: the last step was collected
                for variable in _variables_in_step(step):
                    while producer_step[variable] in pending:
                        collect()
            dispatcher.send(idx, execute, _build_replay_plan(step, symbols),
                            target, dispatcher.timeout)
            pending.add(idx)
        while pending:
            collect()
    except SymbolResolutionFailure:
        while pending:  # the next attempt sends under the same tags
            pending.difference_update(idx for idx, _ in dispatcher.wait())
        if not reproduced:
            raise
    return reproduced


def replay(script: RecreateScript, target,
           timeout: float = DEFAULT_TIMEOUT,
           attempts: int | None = None) -> ReplayOutcome:
    """Execute a recreate script and judge whether the failure reproduced.

    Every attempt sends through one dispatcher of the script's window.  Raises
    :class:`SymbolResolutionFailure` when a producer response does not yield
    a bound symbol (the CLI maps this to exit code 2).  With a window
    above 1 the steps replay concurrently, and what a producer returns
    depends on how the window overlapped, so such an attempt only counts as
    not reproducing, and the failure is raised when no attempt resolved
    every symbol.
    """
    attempts = attempts if attempts is not None else script.attempts
    concurrent = script.max_in_flight > 1
    unresolved: SymbolResolutionFailure | None = None
    resolved = False
    matches = _predicate_matcher(script.expected_failure)
    dispatcher = Dispatcher(script.max_in_flight, timeout)
    try:
        for attempt in range(1, max(attempts, 1) + 1):
            try:
                reproduced = _replay_once(script, target, dispatcher, matches)
            except SymbolResolutionFailure as exc:
                if not concurrent:
                    raise
                unresolved = exc
                continue
            if reproduced:
                return ReplayOutcome(
                    "reproduced", f"reproduced on attempt {attempt}/{attempts}",
                    attempts_used=attempt)
            resolved = True
    finally:
        dispatcher.close()
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


def producer_dependencies(events: Sequence[TraceEvent],
                          model: SemanticModel) -> dict[int, set[int]]:
    """Direct producer event ids required by each consumer event, read from
    the symbol markers of the script :func:`bind_symbols` writes."""
    script = bind_symbols(events, model, expected_failure={"kind": "analysis"})
    producer_eid = {b["variable"]: b["producer"][0] for b in script.bindings}
    deps: dict[int, set[int]] = {}
    for step in script.steps:
        for variable in _variables_in_step(step):
            deps.setdefault(step["source_event"], set()).add(
                producer_eid[variable])
    return deps


def minimize(trace: Sequence[TraceEvent], failing_event: int,
             oracle: Callable[[Sequence[TraceEvent]], bool],
             dependencies: dict[int, set[int]] | None = None,
             max_oracle_calls: int = DEFAULT_ORACLE_BUDGET) -> MinimizeResult:
    """Reduce the prefix ending at ``failing_event`` to a 1-minimal subsequence.

    ``oracle(events)`` replays a candidate subsequence and reports whether the
    original finding re-occurred.  The full prefix must reproduce at least
    once in :data:`INITIAL_ATTEMPTS` tries, or in the whole budget when that
    is smaller, else :class:`NotReproducible`.  When
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

    for _ in range(min(INITIAL_ATTEMPTS, max_oracle_calls)):
        if test(prefix):
            break
    else:
        raise NotReproducible(
            f"finding at event {failing_event} did not reproduce in "
            f"{calls} replays of the full {len(prefix)}-event prefix")

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
                        timeout: float = DEFAULT_TIMEOUT
                        ) -> Callable[[Sequence[TraceEvent]], bool]:
    """Oracle that replays candidate subsequences against fresh SUT targets.

    ``target_factory`` must return a target whose state is fresh (an
    in-process fixture instance, or an endpoint reset beforehand); a candidate
    whose symbols cannot be resolved counts as not reproducing.
    """
    def oracle(events: Sequence[TraceEvent]) -> bool:
        script = bind_symbols(events, model, expected_failure=expected_failure,
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
