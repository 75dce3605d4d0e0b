import json
from types import SimpleNamespace

from apifuzz.checker import (
    check_exchange,
    check_semantic,
    check_status,
    check_syntactic,
    validate_value,
)
from apifuzz.http_driver import HttpExchangeResult, execute
from apifuzz.spec_ingest import SchemaNode
from apifuzz.state_tracker import StatusPrediction

from test_state_tracker import make_plan, make_result


def _op(bookshop_ir, op_id="GET /customers/{customerId}"):
    return bookshop_ir.operation(op_id)


def prediction(expected, basis="exact-state"):
    return StatusPrediction(frozenset(expected), basis, "test")


# --- status checking ------------------------------------------------------------

def test_undeclared_500_is_error(bookshop_ir):
    finding = check_status(make_result(500, {"error": "boom"}),
                           _op(bookshop_ir))
    assert finding.kind == "server-error-5xx"
    assert finding.grade == "error"


def test_declared_matching_status_is_clean(bookshop_ir):
    assert check_status(make_result(200, {}), _op(bookshop_ir)) is None
    assert check_status(make_result(404, {"error": "x"}), _op(bookshop_ir)) is None


def test_undeclared_status_is_flagged(bookshop_ir):
    finding = check_status(make_result(302, {}), _op(bookshop_ir))
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
    declared = check_status(make_result(503), op)
    assert declared is not None and declared.kind == "server-error-5xx"
    assert declared.grade == "error"
    undeclared = check_status(make_result(500), op)
    assert undeclared is not None and undeclared.kind == "server-error-5xx"


# --- syntactic checking -----------------------------------------------------------

def _customer_body(**overrides):
    body = {"customerId": "c1", "name": "Ada", "email": "",
            "creationTimestamp": "2024-01-01T00:00:01Z"}
    body.update(overrides)
    return body


def test_conforming_body_has_no_findings(bookshop_ir):
    result = make_result(200, _customer_body())
    assert check_syntactic(result, _op(bookshop_ir)) == []


def test_null_in_non_nullable_field_is_flagged(bookshop_ir):
    result = make_result(200, _customer_body(creationTimestamp=None))
    findings = check_syntactic(result, _op(bookshop_ir))
    assert len(findings) == 1
    assert findings[0].kind == "schema-violation"
    assert findings[0].grade == "error"
    assert findings[0].json_path == "$.creationTimestamp"
    assert findings[0].constraint == "nullable"


def test_missing_required_field_names_the_field(bookshop_ir):
    body = _customer_body()
    del body["name"]
    findings = check_syntactic(make_result(200, body), _op(bookshop_ir))
    assert any(f.constraint == "required" and f.json_path == "$.name"
               for f in findings)


def test_malformed_body_yields_single_finding(bookshop_ir):
    result = HttpExchangeResult(
        status=200, headers={"Content-Type": "application/json"},
        body=b"{nope", json_body=None, json_error="bad json")
    findings = check_syntactic(result, _op(bookshop_ir))
    assert len(findings) == 1
    assert findings[0].constraint == "malformed-body"


def test_empty_body_where_schema_declared(bookshop_ir):
    result = HttpExchangeResult(status=200, headers={}, body=b"")
    findings = check_syntactic(result, _op(bookshop_ir))
    assert len(findings) == 1 and findings[0].grade == "error"


def test_non_json_content_type_gets_info_finding(bookshop_ir):
    result = HttpExchangeResult(
        status=200, headers={"Content-Type": "text/html"},
        body=b"<html></html>")
    findings = check_syntactic(result, _op(bookshop_ir))
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
    assert check_syntactic(valid, _op(bookshop_ir)) == []

    unparseable = execute(plan, _HeaderlessTarget(b"{nope"))
    findings = check_syntactic(unparseable, _op(bookshop_ir))
    assert [(f.grade, f.constraint) for f in findings] == \
        [("error", "malformed-body")]


def test_undeclared_status_skips_syntactic_check(bookshop_ir):
    result = make_result(302, {"weird": True})
    assert check_syntactic(result, _op(bookshop_ir)) == []


def test_list_response_items_are_validated(bookshop_ir):
    op = bookshop_ir.operation("GET /customers")
    good = make_result(200, [_customer_body()])
    assert check_syntactic(good, op) == []
    bad = make_result(200, [_customer_body(), _customer_body(name=7)])
    findings = check_syntactic(bad, op)
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


def test_status_and_syntactic_findings_commute(bookshop_ir):
    op = _op(bookshop_ir)
    result = make_result(200, _customer_body(creationTimestamp=None))
    status_first = [check_status(result, op)] + check_syntactic(result, op)
    syntactic_first = check_syntactic(result, op) + [check_status(result, op)]
    assert {(f.kind, f.detail) for f in status_first if f is not None} == \
        {(f.kind, f.detail) for f in syntactic_first if f is not None}


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
