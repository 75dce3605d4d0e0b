"""Response checking: syntactic, server-error, and semantic.

:func:`check_exchange` runs three pure checks over every completed exchange:

* status — the observed status must be declared, and any 5XX is an error,
  declared or not (:func:`verdict`).
* syntactic — the body must validate against the schema declared for the
  matched status, constraint by constraint (:func:`check_body`, which also
  judges a recreate script's schema predicate).  A body is JSON by the rule of
  :func:`~apifuzz.spec_ingest.media_type`, which counts a missing
  ``Content-Type`` as JSON.
* semantic — the observed status must fall in the predicted set
  (:func:`check_semantic`).

Findings are graded ``error`` for schema violations, undefined statuses,
server errors, and exact-state semantic mismatches.  Two documented
exceptions keep concurrent runs and under-specified APIs trustworthy:
semantic mismatches predicted on a stale-possible basis grade ``warning``,
and a declared-but-unvalidatable content type grades ``info``.  Transport
failures surface as a ``no-response`` warning.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Any, Callable, NamedTuple, Sequence

from .http_driver import content_type
from .spec_ingest import (
    ANY_KIND,
    OperationDef,
    ResponseDef,
    SchemaNode,
    any_pattern_matches,
    media_type,
    status_pattern_matches,
)
from .state_tracker import StatusPrediction

GRADE_ERROR = "error"
GRADE_WARNING = "warning"
GRADE_INFO = "info"

KIND_SCHEMA = "schema-violation"
KIND_UNDEFINED = "undefined-status"
KIND_5XX = "server-error-5xx"
KIND_SEMANTIC = "semantic-mismatch"
KIND_NO_RESPONSE = "no-response"

_MAX_SCHEMA_FINDINGS = 50


@dataclass(frozen=True)
class Finding:
    grade: str
    kind: str
    detail: str
    exchange_ref: int | None = None
    json_path: str | None = None
    constraint: str | None = None
    expected: tuple[str, ...] = ()
    observed: int | None = None
    basis: str | None = None

    def to_dict(self) -> dict:
        out: dict[str, Any] = {"grade": self.grade, "kind": self.kind,
                               "detail": self.detail}
        if self.exchange_ref is not None:
            out["exchange_ref"] = self.exchange_ref
        if self.json_path is not None:
            out["json_path"] = self.json_path
        if self.constraint is not None:
            out["constraint"] = self.constraint
        if self.expected:
            out["expected"] = list(self.expected)
        if self.observed is not None:
            out["observed"] = self.observed
        if self.basis is not None:
            out["basis"] = self.basis
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Finding":
        return cls(
            grade=data["grade"], kind=data["kind"], detail=data["detail"],
            exchange_ref=data.get("exchange_ref"),
            json_path=data.get("json_path"),
            constraint=data.get("constraint"),
            expected=tuple(data.get("expected", [])),
            observed=data.get("observed"),
            basis=data.get("basis"),
        )


# --- schema validation -----------------------------------------------------------

@dataclass(frozen=True)
class SchemaViolation:
    json_path: str
    constraint: str
    message: str


# A compiled check returns ``()`` for a valid value, else its violations as
# (path relative to the node, constraint, message) in report order.  A parent
# prefixes its ``.field`` or ``[i]`` only to what a child returns, so the
# path strings are built for violations alone.
Violations = Sequence[tuple[str, str, str]]

_TYPES = {"string": str, "integer": int, "number": (int, float),
          "boolean": bool, "object": dict, "array": list}
_NULL = (("", "nullable", "null where the schema does not allow it"),)


def _under(prefix: str, inner: Violations) -> list[tuple[str, str, str]]:
    """A child's violations, their paths under the child's ``prefix``."""
    return [(prefix + path, constraint, message)
            for path, constraint, message in inner]


@lru_cache(maxsize=None)
def _kind_checks(kind: str, nullable: bool) -> tuple[Callable, Callable]:
    """What a kind alone decides, shared by every node of that kind and
    nullability: the violations of a value that is not of the kind, and
    the whole check of a node with no other constraint."""
    on_null = () if nullable else _NULL
    if kind == ANY_KIND:
        def check_any(value):
            return on_null if value is None else ()
        return check_any, check_any
    types = _TYPES[kind]

    def wrong(value) -> Violations:
        if value is None:
            return on_null
        return (("", "type", f"expected {kind}, got {type(value).__name__}"),)

    def check_type(value):
        return () if isinstance(value, types) else wrong(value)
    return wrong, check_type


def compile_schema(schema: SchemaNode) -> Callable[[Any], Violations]:
    """``schema`` as one function of a value.  :func:`validate_value` reads
    it through :attr:`SchemaNode.validator`, which compiles each node once;
    a child is reached through its own node's validator."""
    kind = schema.kind
    wrong, check_type = _kind_checks(kind, schema.nullable)
    if kind == ANY_KIND:
        return check_type
    types = _TYPES[kind]
    enum = schema.enum_values

    def not_in_enum(value) -> tuple[str, str, str]:
        return ("", "enum", f"{value!r} not among {list(enum)}")

    if kind == "string":
        pattern = schema.pattern
        search = re.compile(pattern).search if pattern else None
        lo, hi = schema.min_length, schema.max_length

        def check_string(value):
            if not isinstance(value, str):
                return wrong(value)
            out = ()
            if enum and value not in enum:
                out = [not_in_enum(value)]
            if search is not None and search(value) is None:
                out = [*out, ("", "pattern",
                              f"{value!r} does not match {pattern!r}")]
            if lo is not None and len(value) < lo:
                out = [*out, ("", "min_length",
                              f"length {len(value)} < minLength {lo}")]
            if hi is not None and len(value) > hi:
                out = [*out, ("", "max_length",
                              f"length {len(value)} > maxLength {hi}")]
            return out

        # A pattern alone or lengths alone get an accept test: a value that
        # passes it is valid, and any other is judged by the full check,
        # which alone builds violations.
        bounded = (lo, hi) != (None, None)
        if enum or (search is not None and bounded):
            return check_string
        if not bounded and search is None:
            return check_type
        if search is not None:
            def accept_pattern(value):
                if isinstance(value, str) and search(value) is not None:
                    return ()
                return check_string(value)
            return accept_pattern
        low = 0 if lo is None else lo
        high = sys.maxsize if hi is None else hi

        def accept_length(value):
            if isinstance(value, str) and low <= len(value) <= high:
                return ()
            return check_string(value)
        return accept_length

    if kind in ("integer", "number"):
        lo, hi = schema.minimum, schema.maximum
        exact = (int,) if kind == "integer" else (int, float)

        def check_number(value):
            if not isinstance(value, types) or isinstance(value, bool):
                return wrong(value)
            out = ()
            if enum and value not in enum:
                out = [not_in_enum(value)]
            if lo is not None and value < lo:
                out = [*out, ("", "minimum", f"{value} < minimum {lo}")]
            if hi is not None and value > hi:
                out = [*out, ("", "maximum", f"{value} > maximum {hi}")]
            return out

        if enum:
            return check_number

        def accept_range(value):
            if type(value) in exact and (lo is None or value >= lo) \
                    and (hi is None or value <= hi):
                return ()
            return check_number(value)
        return accept_range

    if kind == "array":
        lo, hi = schema.min_items, schema.max_items
        item_check = schema.items.validator if schema.items is not None \
            else None

        def check_array(value):
            if not isinstance(value, list):
                return wrong(value)
            out = ()
            if enum and value not in enum:
                out = [not_in_enum(value)]
            if lo is not None and len(value) < lo:
                out = [*out, ("", "min_items",
                              f"{len(value)} items < minItems {lo}")]
            if hi is not None and len(value) > hi:
                out = [*out, ("", "max_items",
                              f"{len(value)} items > maxItems {hi}")]
            if item_check is not None:
                for i, item in enumerate(value):
                    inner = item_check(item)
                    if inner:
                        out = out or []
                        out += _under(f"[{i}]", inner)
            return out
        return check_array

    if kind == "object":
        required = schema.required_fields
        check_of = {name: node.validator
                    for name, node in schema.properties}.get

        def check_object(value):
            if not isinstance(value, dict):
                return wrong(value)
            out = ()
            if enum and value not in enum:
                out = [not_in_enum(value)]
            for name in required:
                if name not in value:
                    out = [*out, (f".{name}", "required",
                                  f"required field {name!r} is missing")]
            for name, item in value.items():
                check = check_of(name)
                if check is not None:
                    inner = check(item)
                    if inner:
                        out = out or []
                        out += _under(f".{name}", inner)
            return out
        return check_object

    if not enum:
        return check_type

    def check_boolean(value):
        if not isinstance(value, types):
            return wrong(value)
        return [not_in_enum(value)] if value not in enum else ()
    return check_boolean


def validate_value(value: Any, schema: SchemaNode,
                   path: str = "$") -> list[SchemaViolation]:
    """All constraint violations of ``value`` against ``schema``, in order."""
    return [SchemaViolation(path + suffix, constraint, message)
            for suffix, constraint, message in schema.validator(value)]


# --- individual checks -------------------------------------------------------------

class Verdict(NamedTuple):
    """What an operation and a status alone decide: the declared response
    the status falls under, and the status finding it gives."""
    response: ResponseDef | None
    status_finding: Finding | None


def verdict(op: OperationDef, status: int) -> Verdict:
    """The verdict for ``status``, resolved once per operation and status and
    kept on the operation (:attr:`OperationDef.status_verdicts`)."""
    verdicts = op.status_verdicts
    found = verdicts.get(status)
    if found is None:
        found = verdicts[status] = Verdict(_matching_response(op, status),
                                           _status_finding(op, status))
    return found


def _matching_response(op: OperationDef, status: int) -> ResponseDef | None:
    exact, by_class, wildcard = None, None, None
    for pattern, resp in op.responses:
        if pattern == str(status):
            exact = resp
        elif pattern == "XXX":
            wildcard = wildcard or resp
        elif status_pattern_matches(pattern, status) and by_class is None:
            by_class = resp
    return exact or by_class or wildcard


def _status_finding(operation: OperationDef, status: int) -> Finding | None:
    declared = [pattern for pattern, _ in operation.responses]
    if status >= 500:
        qualifier = "declared" if str(status) in declared else "not declared"
        return Finding(
            GRADE_ERROR, KIND_5XX,
            f"{operation.operation_id} returned {status} ({qualifier}); "
            f"declared statuses: {declared}",
            observed=status)
    if not any_pattern_matches(declared, status):
        return Finding(
            GRADE_ERROR, KIND_UNDEFINED,
            f"{operation.operation_id} returned {status}, which matches none of "
            f"the declared statuses {declared}",
            expected=tuple(declared), observed=status)
    return None


def matching_response(op: OperationDef, status: int) -> ResponseDef | None:
    """The declared response a status falls under: the exact code, else the
    first class (``2XX``) that matches, else ``default``."""
    return verdict(op, status).response


def check_body(response, operation_id: str,
               resp: ResponseDef) -> list[Finding]:
    """The syntactic check: ``response``'s body against the declared
    ``resp``.  ``operation_id`` only names the operation in details."""
    status = response.status
    if resp.body_schema is None:
        if resp.content_types and response.body:
            return [Finding(
                GRADE_INFO, KIND_SCHEMA,
                f"{operation_id} response {status} declares content "
                f"types {list(resp.content_types)} without a JSON schema; "
                "body not validated")]
        return []

    if not response.body:
        return [Finding(
            GRADE_ERROR, KIND_SCHEMA,
            f"{operation_id} response {status} declares a body "
            "schema but the body is empty",
            json_path="$", constraint="required", observed=status)]

    ctype, is_json = media_type(content_type(response.headers))
    if not is_json:
        return [Finding(
            GRADE_INFO, KIND_SCHEMA,
            f"{operation_id} response {status} has content type "
            f"{ctype!r}; schema declared for JSON only, body not validated")]

    if response.json_body is None and response.json_error:
        return [Finding(
            GRADE_ERROR, KIND_SCHEMA,
            f"{operation_id} response {status} body is not parseable "
            f"JSON: {response.json_error}",
            json_path="$", constraint="malformed-body", observed=status)]

    violations = resp.body_schema.validator(response.json_body)
    if not violations:
        return []
    return [Finding(
        GRADE_ERROR, KIND_SCHEMA,
        f"{operation_id} response {status} violates the declared "
        f"schema at ${path} ({constraint}): {message}",
        json_path=f"${path}", constraint=constraint, observed=status)
        for path, constraint, message in violations[:_MAX_SCHEMA_FINDINGS]]


def check_semantic(response, prediction: StatusPrediction) -> Finding | None:
    """Compare the observed status against the state-based prediction."""
    status = response.status
    if prediction.matches(status):
        return None
    grade = GRADE_ERROR if prediction.basis == "exact-state" else GRADE_WARNING
    return Finding(
        grade, KIND_SEMANTIC,
        f"expected one of {sorted(prediction.expected_classes)} but observed "
        f"{status} (basis: {prediction.basis}; {prediction.rationale})",
        expected=tuple(sorted(prediction.expected_classes)), observed=status,
        basis=prediction.basis)


def check_exchange(plan, response, operation: OperationDef,
                   prediction: StatusPrediction | None,
                   exchange_ref: int | None = None) -> list[Finding]:
    """Run every applicable check on one exchange; pure, order-stable."""
    if response.transport_error:
        return [Finding(GRADE_WARNING, KIND_NO_RESPONSE,
                        f"no response for {plan.binding.operation_id}: "
                        f"{response.transport_error}",
                        exchange_ref=exchange_ref)]
    resp, status_finding = verdict(operation, response.status)
    findings = [] if status_finding is None else [status_finding]
    if resp is not None:
        findings.extend(check_body(response, operation.operation_id, resp))
    if prediction is not None:
        semantic = check_semantic(response, prediction)
        if semantic:
            findings.append(semantic)
    if exchange_ref is not None and findings:
        findings = [replace(f, exchange_ref=exchange_ref) for f in findings]
    return findings
