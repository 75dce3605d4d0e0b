"""Response checking: syntactic, server-error, and semantic.

Three pure checks run over every completed exchange:

* ``check_status``   — the observed status must be declared, and any 5XX is
  an error, declared or not.
* ``check_syntactic``— the body must validate against the schema declared for
  the matched status, constraint by constraint.  A body is JSON by the rule
  of :func:`~apifuzz.spec_ingest.media_type`, which counts a missing
  ``Content-Type`` as JSON.
* ``check_semantic`` — the observed status must fall in the predicted set.

Findings are graded ``error`` for schema violations, undefined statuses,
server errors, and exact-state semantic mismatches.  Two documented
exceptions keep concurrent runs and under-specified APIs trustworthy:
semantic mismatches predicted on a stale-possible basis grade ``warning``,
and a declared-but-unvalidatable content type grades ``info``.  Transport
failures surface as a ``no-response`` warning.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Any

from .http_driver import content_type
from .spec_ingest import (
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


_TYPE_CHECKS = {
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
}


def validate_value(value: Any, schema: SchemaNode,
                   path: str = "$") -> list[SchemaViolation]:
    """All constraint violations of ``value`` against ``schema``."""
    out: list[SchemaViolation] = []
    if value is None:
        if not schema.nullable:
            out.append(SchemaViolation(path, "nullable",
                                       "null where the schema does not allow it"))
        return out
    if schema.kind == "any":
        return out

    type_ok = _TYPE_CHECKS[schema.kind](value)
    if not type_ok:
        out.append(SchemaViolation(
            path, "type",
            f"expected {schema.kind}, got {type(value).__name__}"))
        return out

    if schema.enum_values and value not in schema.enum_values:
        out.append(SchemaViolation(
            path, "enum", f"{value!r} not among {list(schema.enum_values)}"))

    if schema.kind == "string":
        if schema.pattern and not re.search(schema.pattern, value):
            out.append(SchemaViolation(
                path, "pattern", f"{value!r} does not match {schema.pattern!r}"))
        if schema.min_length is not None and len(value) < schema.min_length:
            out.append(SchemaViolation(
                path, "min_length",
                f"length {len(value)} < minLength {schema.min_length}"))
        if schema.max_length is not None and len(value) > schema.max_length:
            out.append(SchemaViolation(
                path, "max_length",
                f"length {len(value)} > maxLength {schema.max_length}"))
    elif schema.kind in ("integer", "number"):
        if schema.minimum is not None and value < schema.minimum:
            out.append(SchemaViolation(
                path, "minimum", f"{value} < minimum {schema.minimum}"))
        if schema.maximum is not None and value > schema.maximum:
            out.append(SchemaViolation(
                path, "maximum", f"{value} > maximum {schema.maximum}"))
    elif schema.kind == "array":
        if schema.min_items is not None and len(value) < schema.min_items:
            out.append(SchemaViolation(
                path, "min_items",
                f"{len(value)} items < minItems {schema.min_items}"))
        if schema.max_items is not None and len(value) > schema.max_items:
            out.append(SchemaViolation(
                path, "max_items",
                f"{len(value)} items > maxItems {schema.max_items}"))
        if schema.items is not None:
            for i, item in enumerate(value):
                out.extend(validate_value(item, schema.items, f"{path}[{i}]"))
    elif schema.kind == "object":
        for fname in schema.required_fields:
            if fname not in value:
                out.append(SchemaViolation(
                    f"{path}.{fname}", "required",
                    f"required field {fname!r} is missing"))
        props = schema.property_map()
        for fname, fvalue in value.items():
            if fname in props:
                out.extend(validate_value(fvalue, props[fname],
                                          f"{path}.{fname}"))
    return out


# --- individual checks -------------------------------------------------------------

def matching_response(op: OperationDef, status: int) -> ResponseDef | None:
    """The declared response a status falls under: the exact code, else the
    first class (``2XX``) that matches, else ``default``."""
    exact, by_class, wildcard = None, None, None
    for pattern, resp in op.responses:
        if pattern == str(status):
            exact = resp
        elif pattern == "XXX":
            wildcard = wildcard or resp
        elif status_pattern_matches(pattern, status) and by_class is None:
            by_class = resp
    return exact or by_class or wildcard


def check_status(response, operation: OperationDef) -> Finding | None:
    """Flag undeclared statuses and every server error."""
    status = response.status
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


def check_syntactic(response, operation: OperationDef) -> list[Finding]:
    """Validate the response body against the schema declared for its status."""
    status = response.status
    resp = matching_response(operation, status)
    if resp is None:
        return []  # undeclared status; check_status already flags it
    if resp.body_schema is None:
        if resp.content_types and response.body:
            return [Finding(
                GRADE_INFO, KIND_SCHEMA,
                f"{operation.operation_id} response {status} declares content "
                f"types {list(resp.content_types)} without a JSON schema; "
                "body not validated")]
        return []

    if not response.body:
        return [Finding(
            GRADE_ERROR, KIND_SCHEMA,
            f"{operation.operation_id} response {status} declares a body "
            "schema but the body is empty",
            json_path="$", constraint="required", observed=status)]

    ctype, is_json = media_type(content_type(response.headers))
    if not is_json:
        return [Finding(
            GRADE_INFO, KIND_SCHEMA,
            f"{operation.operation_id} response {status} has content type "
            f"{ctype!r}; schema declared for JSON only, body not validated")]

    if response.json_body is None and response.json_error:
        return [Finding(
            GRADE_ERROR, KIND_SCHEMA,
            f"{operation.operation_id} response {status} body is not parseable "
            f"JSON: {response.json_error}",
            json_path="$", constraint="malformed-body", observed=status)]

    findings = []
    for violation in validate_value(response.json_body,
                                    resp.body_schema)[:_MAX_SCHEMA_FINDINGS]:
        findings.append(Finding(
            GRADE_ERROR, KIND_SCHEMA,
            f"{operation.operation_id} response {status} violates the declared "
            f"schema at {violation.json_path} ({violation.constraint}): "
            f"{violation.message}",
            json_path=violation.json_path, constraint=violation.constraint,
            observed=status))
    return findings


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
    findings: list[Finding] = []
    status_finding = check_status(response, operation)
    if status_finding:
        findings.append(status_finding)
    findings.extend(check_syntactic(response, operation))
    if prediction is not None:
        semantic = check_semantic(response, prediction)
        if semantic:
            findings.append(semantic)
    if exchange_ref is not None:
        findings = [replace(f, exchange_ref=exchange_ref) for f in findings]
    return findings
