import gc
import json
import re
import weakref
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from apifuzz.bookshop import bookshop_spec_document
from apifuzz.checker import (
    SchemaViolation,
    check_exchange,
    check_semantic,
    matching_response,
    validate_value,
    verdict,
)
from apifuzz.http_driver import HttpExchangeResult, execute
from apifuzz.spec_ingest import SchemaNode, load_spec
from apifuzz.state_tracker import StatusPrediction

from test_state_tracker import make_plan, make_result


def _op(bookshop_ir, op_id="GET /customers/{customerId}"):
    return bookshop_ir.operation(op_id)


def prediction(expected, basis="exact-state"):
    return StatusPrediction(frozenset(expected), basis, "test")


def _checked(result, op):
    """What a run finds in one exchange, with no status prediction."""
    return check_exchange(make_plan(), result, op, None)


# --- status checking ------------------------------------------------------------

def test_undeclared_500_is_error(bookshop_ir):
    finding = verdict(_op(bookshop_ir), 500).status_finding
    assert finding.kind == "server-error-5xx"
    assert finding.grade == "error"


def test_declared_matching_status_is_clean(bookshop_ir):
    assert verdict(_op(bookshop_ir), 200).status_finding is None
    assert verdict(_op(bookshop_ir), 404).status_finding is None


def test_undeclared_status_is_flagged(bookshop_ir):
    finding = verdict(_op(bookshop_ir), 302).status_finding
    assert finding.kind == "undefined-status"
    assert finding.observed == 302


def test_declared_5xx_is_still_an_error():
    from conftest import json_response, minimal_spec_doc
    from apifuzz.spec_ingest import load_spec

    ir = load_spec(minimal_spec_doc({
        "/busy": {"get": {"responses": {
            "200": json_response({"type": "object", "properties": {}}),
            "503": {"description": "declared overload"}}}},
    }))
    op = ir.operation("GET /busy")
    declared = verdict(op, 503).status_finding
    assert declared is not None and declared.kind == "server-error-5xx"
    assert declared.grade == "error"
    undeclared = verdict(op, 500).status_finding
    assert undeclared is not None and undeclared.kind == "server-error-5xx"


# --- syntactic checking -----------------------------------------------------------

def _customer_body(**overrides):
    body = {"customerId": "c1", "name": "Ada", "email": "",
            "creationTimestamp": "2024-01-01T00:00:01Z"}
    body.update(overrides)
    return body


def test_conforming_body_has_no_findings(bookshop_ir):
    result = make_result(200, _customer_body())
    assert _checked(result, _op(bookshop_ir)) == []


def test_null_in_non_nullable_field_is_flagged(bookshop_ir):
    result = make_result(200, _customer_body(creationTimestamp=None))
    findings = _checked(result, _op(bookshop_ir))
    assert len(findings) == 1
    assert findings[0].kind == "schema-violation"
    assert findings[0].grade == "error"
    assert findings[0].json_path == "$.creationTimestamp"
    assert findings[0].constraint == "nullable"


def test_missing_required_field_names_the_field(bookshop_ir):
    body = _customer_body()
    del body["name"]
    findings = _checked(make_result(200, body), _op(bookshop_ir))
    assert any(f.constraint == "required" and f.json_path == "$.name"
               for f in findings)


def test_malformed_body_yields_single_finding(bookshop_ir):
    result = HttpExchangeResult(
        status=200, headers={"Content-Type": "application/json"},
        body=b"{nope", json_body=None, json_error="bad json")
    findings = _checked(result, _op(bookshop_ir))
    assert len(findings) == 1
    assert findings[0].constraint == "malformed-body"


def test_empty_body_where_schema_declared(bookshop_ir):
    result = HttpExchangeResult(status=200, headers={}, body=b"")
    findings = _checked(result, _op(bookshop_ir))
    assert len(findings) == 1 and findings[0].grade == "error"


def test_non_json_content_type_gets_info_finding(bookshop_ir):
    result = HttpExchangeResult(
        status=200, headers={"Content-Type": "text/html"},
        body=b"<html></html>")
    findings = _checked(result, _op(bookshop_ir))
    assert len(findings) == 1
    assert findings[0].grade == "info"


class _HeaderlessTarget:
    """Answers every request with a 200, the given body and no headers."""

    def __init__(self, body: bytes):
        self.body = body

    def request(self, method, url_path, headers, body, timeout):
        return 200, {}, self.body


def test_body_without_content_type_is_checked_as_json(bookshop_ir):
    plan = SimpleNamespace(method="GET", concrete_url="/customers/c1",
                           headers={}, body=None)
    valid = execute(plan, _HeaderlessTarget(
        json.dumps(_customer_body()).encode()))
    assert _checked(valid, _op(bookshop_ir)) == []

    unparseable = execute(plan, _HeaderlessTarget(b"{nope"))
    findings = _checked(unparseable, _op(bookshop_ir))
    assert [(f.grade, f.constraint) for f in findings] == \
        [("error", "malformed-body")]


def test_undeclared_status_skips_syntactic_check(bookshop_ir):
    result = make_result(302, {"weird": True})
    assert [f.kind for f in _checked(result, _op(bookshop_ir))] == \
        ["undefined-status"]


def test_list_response_items_are_validated(bookshop_ir):
    op = bookshop_ir.operation("GET /customers")
    good = make_result(200, [_customer_body()])
    assert _checked(good, op) == []
    bad = make_result(200, [_customer_body(), _customer_body(name=7)])
    findings = _checked(bad, op)
    assert any(f.json_path == "$[1].name" and f.constraint == "type"
               for f in findings)


# --- semantic checking -------------------------------------------------------------

def test_deleted_instance_returning_200_is_error():
    finding = check_semantic(make_result(200, {}), prediction({"404"}))
    assert finding.kind == "semantic-mismatch"
    assert finding.grade == "error"
    assert finding.observed == 200 and "404" in finding.expected


def test_matching_prediction_is_clean():
    assert check_semantic(make_result(200, {}), prediction({"2XX"})) is None
    assert check_semantic(make_result(404, {}), prediction({"404"})) is None


def test_invalid_param_accepted_with_2xx_is_error():
    finding = check_semantic(make_result(204), prediction({"400"}))
    assert finding is not None and finding.grade == "error"


def test_stale_possible_mismatch_grades_warning():
    finding = check_semantic(make_result(200, {}),
                             prediction({"404"}, basis="stale-possible"))
    assert finding.grade == "warning"


# --- orchestration -----------------------------------------------------------------

def test_transport_error_yields_no_response_warning(bookshop_ir):
    plan = make_plan("read")
    result = HttpExchangeResult(status=None, transport_error="timeout")
    findings = check_exchange(plan, result, _op(bookshop_ir),
                              prediction({"2XX"}), exchange_ref=9)
    assert [f.kind for f in findings] == ["no-response"]
    assert findings[0].grade == "warning"
    assert findings[0].exchange_ref == 9


def test_checks_are_pure_and_repeatable(bookshop_ir):
    plan = make_plan("read")
    result = make_result(500, {"error": "x"})
    op = _op(bookshop_ir)
    first = check_exchange(plan, result, op, prediction({"2XX"}))
    second = check_exchange(plan, result, op, prediction({"2XX"}))
    assert first == second
    assert {f.kind for f in first} == {"server-error-5xx", "semantic-mismatch"}


def test_grade_mapping_under_default_policy(bookshop_ir):
    # every kind grades error, with the two documented exceptions:
    # stale-possible semantic mismatches and unchecked content
    plan = make_plan("read")
    result = make_result(500, {"error": "x"})
    findings = check_exchange(plan, result, _op(bookshop_ir),
                              prediction({"2XX"}))
    for f in findings:
        assert f.grade == "error"
    stale = check_semantic(make_result(200, {}),
                           prediction({"404"}, basis="stale-possible"))
    assert stale.grade == "warning"


# --- schema validator ------------------------------------------------------------------

def test_validate_value_constraint_coverage():
    schema = SchemaNode(
        kind="object",
        required_fields=("name",),
        properties=(
            ("name", SchemaNode(kind="string", min_length=1, max_length=4)),
            ("kind", SchemaNode(kind="string", enum_values=("a", "b"))),
            ("num", SchemaNode(kind="integer", minimum=0, maximum=10)),
            ("tags", SchemaNode(kind="array", min_items=1, max_items=2,
                                items=SchemaNode(kind="string"))),
            ("opt", SchemaNode(kind="string", nullable=True)),
        ))
    ok = {"name": "ab", "kind": "a", "num": 5, "tags": ["x"], "opt": None}
    assert validate_value(ok, schema) == []

    bad = {"kind": "z", "num": 11, "tags": [], "opt": 3,
           "name": "toolong"}
    constraints = {(v.json_path, v.constraint) for v in validate_value(bad, schema)}
    assert ("$.kind", "enum") in constraints
    assert ("$.num", "maximum") in constraints
    assert ("$.tags", "min_items") in constraints
    assert ("$.name", "max_length") in constraints
    assert ("$.opt", "type") in constraints

    assert validate_value(None, SchemaNode(kind="string"))[0].constraint == "nullable"
    assert validate_value(True, SchemaNode(kind="integer"))[0].constraint == "type"
    assert validate_value("ab", SchemaNode(kind="string", pattern="^x"))[0] \
        .constraint == "pattern"
    assert validate_value({"x": 1}, SchemaNode(kind="any")) == []


# --- the compiled validator against the walk it replaced -----------------------------

_REFERENCE_TYPE_CHECKS = {
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
}


def reference_validate(value, schema, path="$"):
    """The interpretive walk ``validate_value`` was before each schema was
    compiled, kept verbatim as the oracle for the compiled form."""
    out = []
    if value is None:
        if not schema.nullable:
            out.append(SchemaViolation(path, "nullable",
                                       "null where the schema does not allow it"))
        return out
    if schema.kind == "any":
        return out

    type_ok = _REFERENCE_TYPE_CHECKS[schema.kind](value)
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
                out.extend(reference_validate(item, schema.items, f"{path}[{i}]"))
    elif schema.kind == "object":
        for fname in schema.required_fields:
            if fname not in value:
                out.append(SchemaViolation(
                    f"{path}.{fname}", "required",
                    f"required field {fname!r} is missing"))
        props = schema.property_map()
        for fname, fvalue in value.items():
            if fname in props:
                out.extend(reference_validate(fvalue, props[fname],
                                              f"{path}.{fname}"))
    return out


_NAMES = st.sampled_from(["a", "b", "c", "d"])
_SMALL_INTS = st.integers(-3, 6)
_BOUND = st.none() | _SMALL_INTS
_LENGTH = st.none() | st.integers(0, 3)
_SCALARS = (st.none() | st.booleans() | _SMALL_INTS
            | st.floats(-4, 7, allow_nan=False) | st.text("ab1", max_size=4))
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_NAMES, inner, max_size=4),
    max_leaves=12)


def _node(kind, **fields):
    return st.builds(SchemaNode, kind=st.just(kind), nullable=st.booleans(),
                     **fields)


_ENUMS = st.just(()) | st.lists(_SCALARS, max_size=3).map(tuple)
_LEAF_SCHEMAS = st.one_of(
    _node("any", enum_values=_ENUMS),
    _node("string", enum_values=st.lists(st.text("ab1", max_size=3),
                                         max_size=3).map(tuple) | _ENUMS
          | st.just(()),
          pattern=st.sampled_from([None, "", "^a", "b$", "^[ab]+$", "1|^b",
                                   "a{2}"]),
          min_length=_LENGTH, max_length=_LENGTH),
    _node("integer", enum_values=_ENUMS, minimum=_BOUND, maximum=_BOUND),
    _node("number", enum_values=_ENUMS,
          minimum=_BOUND | st.floats(-3, 6, allow_nan=False),
          maximum=_BOUND | st.floats(-3, 6, allow_nan=False)),
    _node("boolean", enum_values=_ENUMS))
_SCHEMAS = st.recursive(
    _LEAF_SCHEMAS,
    lambda inner: st.one_of(
        _node("array", items=st.none() | inner, min_items=_LENGTH,
              max_items=_LENGTH,
              enum_values=st.lists(st.lists(_SCALARS, max_size=2),
                                   max_size=2).map(tuple)),
        _node("object",
              properties=st.lists(st.tuples(_NAMES, inner),
                                  max_size=4).map(tuple),
              required_fields=st.lists(_NAMES, max_size=3).map(tuple),
              enum_values=st.lists(st.dictionaries(_NAMES, _SCALARS,
                                                   max_size=2),
                                   max_size=2).map(tuple))),
    max_leaves=8)


def _value_like(schema):
    """Values near the schema's own shape, so that most draws pass some
    checks and fail others."""
    if schema.kind == "object":
        return st.fixed_dictionaries(
            {}, optional={name: _value_like(node)
                          for name, node in schema.properties}) | _VALUES
    if schema.kind == "array" and schema.items is not None:
        return st.lists(_value_like(schema.items), max_size=4) | _VALUES
    of_kind = _OF_KIND.get(schema.kind, st.nothing())
    return of_kind | of_kind | _VALUES


_OF_KIND = {"string": st.text("ab1", max_size=5), "integer": _SMALL_INTS,
            "number": _SMALL_INTS | st.floats(-4, 7, allow_nan=False),
            "boolean": st.booleans()}


@settings(max_examples=600, deadline=None)
@given(st.data())
def test_compiled_validator_equals_the_reference_walk(data):
    schema = data.draw(_LEAF_SCHEMAS | _SCHEMAS)
    value = data.draw(_value_like(schema))
    path = data.draw(st.sampled_from(["$", "$.body"]))
    assert validate_value(value, schema, path) \
        == reference_validate(value, schema, path)


def test_check_syntactic_keeps_the_first_fifty_violations(bookshop_ir):
    op = bookshop_ir.operation("GET /customers")
    body = [_customer_body(name=7, customerId="X") for _ in range(30)]
    findings = _checked(make_result(200, body), op)
    expected = reference_validate(body, matching_response(op, 200).body_schema)
    assert len(expected) == 60
    assert [(f.json_path, f.constraint) for f in findings] \
        == [(v.json_path, v.constraint) for v in expected[:50]]
    assert findings[0].detail.endswith(expected[0].message)


def test_compiled_forms_are_freed_with_their_spec():
    spec = load_spec(bookshop_spec_document())
    op = spec.operation("GET /customers")
    assert _checked(make_result(200, [_customer_body()]), op) == []
    schema = matching_response(op, 200).body_schema
    assert "validator" in vars(schema) and 200 in op.status_verdicts
    alive, schema = weakref.ref(spec), weakref.ref(schema)
    del spec, op
    gc.collect()
    assert alive() is None and schema() is None
