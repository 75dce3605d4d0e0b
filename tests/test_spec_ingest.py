import copy
import io
import json
import re
from random import Random

import pytest
import yaml

from apifuzz.bookshop import BookshopApp, bookshop_spec_document
from apifuzz.checker import check_exchange
from apifuzz.generator import RunConfig, run, trace_header
from apifuzz.http_driver import HttpExchangeResult, InProcessTarget
from apifuzz.sampling import build_sampling_spec
from apifuzz.semantic_model import infer_model
from apifuzz.spec_ingest import (
    ParseError,
    SchemaNode,
    SpecError,
    UnresolvedRef,
    UnsupportedVersion,
    lint_spec,
    load_spec,
    resolve_refs,
    status_pattern_matches,
    validate_status_pattern,
)
from apifuzz.trace_recreate import TraceSink

from conftest import bookshop_yaml_document, json_response, minimal_spec_doc
from test_state_tracker import make_plan


# --- loading -------------------------------------------------------------------

def test_bookshop_fixture_loads_with_expected_operations(bookshop_ir):
    ops = {op.operation_id for op in bookshop_ir.operations}
    assert len(ops) == 17
    assert len(ops) >= 8  # covers /customers, /customers/{id}, /books, /authors, /orders
    for path in ("/customers", "/customers/{customerId}", "/books",
                 "/authors", "/orders"):
        assert any(op.path_template == path or op.path_template.startswith(path)
                   for op in bookshop_ir.operations)
    assert bookshop_ir.title == "Bookshop"
    assert not bookshop_ir.load_warnings


def test_zero_paths_yields_empty_operations():
    ir = load_spec(minimal_spec_doc({}))
    assert ir.operations == []
    assert ir.base_paths == []


def test_dangling_ref_is_rejected_never_partially_loaded():
    doc = minimal_spec_doc({
        "/books": {"post": {"responses": {
            "201": {"description": "ok", "content": {"application/json": {
                "schema": {"$ref": "#/components/schemas/Missing"}}}}}}},
    })
    with pytest.raises(UnresolvedRef):
        load_spec(doc)


def test_external_ref_is_rejected():
    doc = minimal_spec_doc({
        "/x": {"get": {"responses": {
            "200": {"description": "ok", "content": {"application/json": {
                "schema": {"$ref": "other.json#/Thing"}}}}}}},
    })
    with pytest.raises(UnresolvedRef):
        load_spec(doc)


def test_swagger2_rejected_with_clear_error():
    doc = json.dumps({"swagger": "2.0", "info": {}, "paths": {}}).encode()
    with pytest.raises(UnsupportedVersion, match="OpenAPI 3"):
        load_spec(doc)


def test_non_3x_version_rejected():
    doc = json.dumps({"openapi": "4.0.0", "paths": {}}).encode()
    with pytest.raises(UnsupportedVersion):
        load_spec(doc)


def test_malformed_document_raises_parse_error():
    with pytest.raises(ParseError):
        load_spec(b"{not json")
    with pytest.raises(ParseError):
        load_spec(b"- [unclosed", fmt="yaml")
    with pytest.raises(ValueError):
        load_spec(b"{}", fmt="xml")


def test_yaml_document_loads_equal_to_json():
    raw = bookshop_spec_document()
    as_yaml = yaml.safe_dump(json.loads(raw), sort_keys=False).encode()
    assert load_spec(as_yaml, fmt="yaml") == load_spec(raw, fmt="json")


def test_load_spec_file_autodetects_format_by_extension(tmp_path):
    from apifuzz.spec_ingest import load_spec_file

    raw = bookshop_spec_document()
    json_path = tmp_path / "spec.json"
    json_path.write_bytes(raw)
    yaml_path = tmp_path / "spec.yaml"
    yaml_path.write_text(yaml.safe_dump(json.loads(raw), sort_keys=False))
    assert load_spec_file(str(json_path)) == load_spec_file(str(yaml_path))
    # explicit override beats the extension
    ambiguous = tmp_path / "spec.txt"
    ambiguous.write_bytes(raw)
    assert load_spec_file(str(ambiguous), fmt="json").title == "Bookshop"


def test_path_params_always_have_parameter_defs(bookshop_ir):
    for op in bookshop_ir.operations:
        declared = {p.name for p in op.path_parameters()}
        for segment in op.path_template.split("/"):
            if segment.startswith("{"):
                assert segment[1:-1] in declared


def test_undeclared_path_parameter_is_synthesized_with_warning():
    ir = load_spec(minimal_spec_doc({
        "/things/{thingId}": {"get": {"responses": {"200": {"description": "x"}}}},
    }))
    (op,) = ir.operations
    assert [p.name for p in op.path_parameters()] == ["thingId"]
    assert any(w.rule_id == "undeclared-path-parameter"
               for w in ir.load_warnings)


def test_body_object_fields_become_body_field_parameters(bookshop_ir):
    op = bookshop_ir.operation("POST /books")
    body_fields = {p.name: p for p in op.parameters_in("body-field")}
    assert set(body_fields) == {"title", "authorId", "inventory", "format"}
    assert body_fields["title"].required
    assert not body_fields["inventory"].required
    assert body_fields["format"].schema.enum_values == ("paperback", "hardcover")


def test_unsupported_keywords_degrade_with_warning():
    ir = load_spec(minimal_spec_doc({
        "/x": {"get": {"responses": {"200": json_response(
            {"type": "object", "properties": {
                "v": {"multipleOf": 3, "type": "integer"}}})}}},
    }))
    assert any(w.rule_id == "unsupported-schema-keyword"
               for w in ir.load_warnings)


def test_multi_branch_oneof_picks_first_with_warning():
    ir = load_spec(minimal_spec_doc({
        "/x": {"get": {"responses": {"200": json_response(
            {"oneOf": [{"type": "string"}, {"type": "integer"}]})}}},
    }))
    (op,) = ir.operations
    schema = dict(op.responses)["200"].body_schema
    assert schema.kind == "string"
    assert any(w.rule_id == "composition-branch-chosen"
               for w in ir.load_warnings)


def test_allof_merges_object_branches():
    ir = load_spec(minimal_spec_doc({
        "/x": {"get": {"responses": {"200": json_response({
            "allOf": [
                {"type": "object", "properties": {"a": {"type": "string"}},
                 "required": ["a"]},
                {"type": "object", "properties": {"b": {"type": "integer"}}},
            ]})}}},
    }))
    schema = dict(ir.operations[0].responses)["200"].body_schema
    assert set(schema.property_map()) == {"a", "b"}
    assert schema.required_fields == ("a",)


def test_schema_cycle_degrades_to_any_with_warning():
    ir = load_spec(minimal_spec_doc(
        {"/x": {"get": {"responses": {"200": json_response(
            {"$ref": "#/components/schemas/Node"})}}}},
        schemas={"Node": {"type": "object", "properties": {
            "next": {"$ref": "#/components/schemas/Node"}}}},
    ))
    assert any(w.rule_id == "schema-cycle-degraded" for w in ir.load_warnings)
    schema = dict(ir.operations[0].responses)["200"].body_schema
    assert schema.property_map()["next"].kind == "any"


# --- resolution & round trip ------------------------------------------------------

def test_resolution_is_idempotent():
    doc = json.loads(bookshop_spec_document())
    once = resolve_refs(doc)
    twice = resolve_refs(once)
    assert once == twice


@pytest.mark.parametrize("document, fmt", [
    (bookshop_spec_document(), "json"),
    (bookshop_yaml_document(), "yaml"),
], ids=["bookshop", "yaml"])
def test_the_header_spec_reloads_to_an_equal_ir(document, fmt):
    ir = load_spec(document, fmt)
    header = json.loads(json.dumps(trace_header(RunConfig(), infer_model(ir))))
    assert load_spec(json.dumps(header["spec"])) == ir


def test_yaml_reads_as_the_json_it_stands_for():
    ir = load_spec(bookshop_yaml_document(), fmt="yaml")
    edition = ir.schemas["Book"].property_map()["edition"]
    assert edition.enum_values == ("2020-01-01", "2021-06-30")
    assert ir.document["components"]["schemas"]["Book"]["properties"][
        "edition"]["example"] == "2020-01-01"
    assert dict(ir.operation("GET /books").responses).keys() == {"200"}


@pytest.mark.parametrize("value", ["!!set {a: null}", "!!binary aGk=", ".nan"],
                         ids=["set", "binary", "nan"])
def test_a_yaml_value_json_cannot_hold_is_a_parse_error(value):
    document = ("openapi: 3.0.3\ninfo: {title: t, version: '1'}\n"
                f"paths: {{}}\nx-value: {value}\n")
    with pytest.raises(ParseError, match="YAML that JSON cannot hold"):
        load_spec(document, fmt="yaml")


# --- status patterns -----------------------------------------------------------------

@pytest.mark.parametrize("pattern", ["200", "404", "2XX", "5XX", "XXX"])
def test_valid_status_patterns(pattern):
    assert validate_status_pattern(pattern)


@pytest.mark.parametrize("pattern", ["", "6XX", "20", "abc", "2xx"])
def test_invalid_status_patterns(pattern):
    assert not validate_status_pattern(pattern)


def test_status_pattern_matching():
    assert status_pattern_matches("2XX", 204)
    assert status_pattern_matches("200", 200)
    assert status_pattern_matches("XXX", 512)
    assert not status_pattern_matches("2XX", 404)
    assert not status_pattern_matches("404", 400)


# --- lint -------------------------------------------------------------------------

def test_lint_clean_fixture_is_empty(bookshop_ir):
    assert lint_spec(bookshop_ir) == []


def test_lint_missing_response_schema():
    ir = load_spec(minimal_spec_doc({
        "/books/{bookId}": {
            "parameters": [{"name": "bookId", "in": "path", "required": True,
                            "schema": {"type": "string"}}],
            "get": {"responses": {"200": {"description": "no schema"},
                                  "404": {"description": "gone"}}},
        },
        "/books": {"post": {"responses": {
            "201": json_response({"type": "object", "properties": {
                "bookId": {"type": "string"}}}),
            "400": {"description": "bad"}}}},
    }))
    findings = lint_spec(ir)
    assert any(f.rule_id == "missing-response-schema"
               and "GET /books/{bookId}" in f.location for f in findings)


def test_lint_orphan_path_parameter():
    # {orderId} appears in a path but nothing ever produces an orderId field
    ir = load_spec(minimal_spec_doc({
        "/orders/{orderId}": {
            "parameters": [{"name": "orderId", "in": "path", "required": True,
                            "schema": {"type": "string"}}],
            "get": {"responses": {
                "200": json_response({"type": "object", "properties": {
                    "status": {"type": "string"}}}),
                "404": {"description": "gone"}}},
        },
    }))
    findings = lint_spec(ir)
    orphans = [f for f in findings if f.rule_id == "orphan-path-parameter"]
    assert orphans and orphans[0].severity == "error"
    assert "orderId" in orphans[0].message


def test_lint_no_4xx_declared_only_for_operations_with_input():
    ir = load_spec(minimal_spec_doc({
        "/widgets/{widgetId}": {
            "parameters": [{"name": "widgetId", "in": "path", "required": True,
                            "schema": {"type": "string"}}],
            "get": {"responses": {"200": json_response(
                {"type": "object", "properties": {"widgetId": {"type": "string"}}})}},
        },
        "/widgets": {"get": {"responses": {"200": json_response(
            {"type": "array", "items": {"type": "object", "properties": {
                "widgetId": {"type": "string"}}}})}}},
    }))
    findings = lint_spec(ir)
    flagged = {f.location for f in findings if f.rule_id == "no-4xx-declared"}
    assert "GET /widgets/{widgetId}" in flagged  # has input, no 4XX
    assert "GET /widgets" not in flagged  # parameterless list is exempt


def test_lint_delete_without_id():
    ir = load_spec(minimal_spec_doc({
        "/cache": {"delete": {"responses": {"204": {"description": "gone"},
                                            "400": {"description": "bad"}}}},
    }))
    findings = lint_spec(ir)
    assert any(f.rule_id == "delete-without-id" for f in findings)


def test_lint_deterministic_order(bookshop_ir):
    doc = minimal_spec_doc({
        "/cache": {"delete": {"responses": {"204": {"description": "x"}}}},
        "/orders/{orderId}": {
            "parameters": [{"name": "orderId", "in": "path", "required": True,
                            "schema": {"type": "string"}}],
            "get": {"responses": {"200": {"description": "no schema"}}},
        },
    })
    first = lint_spec(load_spec(doc))
    second = lint_spec(load_spec(doc))
    assert first == second and len(first) >= 3


# --- patterns Python cannot compile ----------------------------------------------

def _pattern_spec(pattern: str) -> bytes:
    return minimal_spec_doc({"/items": {"get": {
        "parameters": [{"name": "q", "in": "query",
                        "schema": {"type": "string", "pattern": pattern}}],
        "responses": {
            "200": json_response({"type": "object", "properties": {
                "code": {"type": "string", "pattern": pattern}}}),
            "400": json_response({"type": "object"})}}}})


@pytest.mark.parametrize("pattern", ["([a-z", r"^\p{L}+$"])
def test_a_pattern_python_cannot_compile_is_dropped_with_a_warning(pattern):
    ir = load_spec(_pattern_spec(pattern))
    op = ir.operation("GET /items")
    assert op.parameters[0].schema.pattern is None
    assert op.responses[0][1].body_schema.property_map()["code"].pattern \
        is None
    dropped = [f for f in lint_spec(ir) if f.rule_id == "unsupported-pattern"]
    assert [f.location for f in dropped] == [
        "GET /items#q", "GET /items#response[200].properties.code"]
    assert all(repr(pattern) in f.message for f in dropped)


def test_an_invalid_pattern_neither_stops_sampling_nor_checking():
    """The query side used to raise in ``build_sampling_spec`` and the
    response side on the first answer carrying the field."""
    ir = load_spec(_pattern_spec("([a-z"))
    model = infer_model(ir)
    build_sampling_spec(ir, model)
    op = ir.operation("GET /items")
    answer = HttpExchangeResult(status=200,
                                headers={"Content-Type": "application/json"},
                                body=b'{"code": "x"}', json_body={"code": "x"})
    assert check_exchange(make_plan(), answer, op, None) == []


# --- parts of the wrong shape -------------------------------------------------------

@pytest.mark.parametrize("paths, message", [
    ({"/x": 5}, "path '/x' is not an object"),
    ({"/x": {"parameters": {}}}, "path '/x' parameters is not a list"),
    ({"/x": {"get": "oops"}}, "GET /x is not an object"),
    ({"/x": {"get": {"parameters": 5}}}, "GET /x parameters is not a list"),
    ({"/x": {"get": {"parameters": [5]}}},
     "a parameter of GET /x is not an object"),
    ({"/x": {"get": {"parameters": [{"name": 5, "in": "query"}]}}},
     "parameter without a name at GET /x"),
    ({"/x": {"get": {"parameters": [{"name": "q", "in": []}]}}},
     "parameter 'q' at GET /x: 'in' is not a string"),
    ({"/x": {"get": {"requestBody": "x"}}}, "GET /x requestBody is not an object"),
    ({"/x": {"get": {"requestBody": {"content": []}}}},
     "GET /x#requestBody content is not an object"),
    ({"/x": {"get": {"requestBody": {"content": {"application/json": 5}}}}},
     "GET /x#requestBody content 'application/json' is not an object"),
    ({"/x": {"get": {"responses": []}}}, "GET /x responses is not an object"),
    ({"/x": {"get": {"responses": {"200": 5}}}},
     "GET /x#response[200] is not an object"),
], ids=["path-item", "path-parameters", "operation", "parameters",
        "parameter", "parameter-name", "parameter-in", "request-body",
        "request-content", "media-type", "responses", "response"])
def test_a_part_of_the_wrong_shape_is_a_parse_error_naming_it(paths, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        load_spec(minimal_spec_doc(paths))


@pytest.mark.parametrize("key, value", [
    ("info", "x"), ("components", 5), ("paths", [])],
    ids=["info", "components", "paths"])
def test_a_top_level_part_of_the_wrong_shape_is_a_parse_error(key, value):
    doc = json.loads(minimal_spec_doc({}))
    doc[key] = value
    with pytest.raises(ParseError, match=f"'{key}' is not an object"):
        load_spec(json.dumps(doc))


# --- schema values of the wrong type -------------------------------------------------

@pytest.mark.parametrize("keyword, value", [
    ("minLength", "1"), ("maxLength", "64"), ("minLength", -3),
    ("minItems", 1.5), ("maxItems", True), ("minimum", "0"),
    ("maximum", True), ("enum", "x"), ("required", [1]), ("required", "id"),
    ("properties", []), ("nullable", "false"), ("allOf", {}),
], ids=["min-length-a-string", "max-length-a-string", "min-length-negative",
        "min-items-a-float", "max-items-a-bool", "minimum-a-string",
        "maximum-a-bool", "enum-a-string", "required-of-ints",
        "required-a-string", "properties-a-list", "nullable-a-string",
        "all-of-an-object"])
def test_a_schema_value_of_the_wrong_type_is_ignored_with_a_warning(keyword,
                                                                    value):
    ir = load_spec(minimal_spec_doc({"/x": {"get": {
        "parameters": [{"name": "q", "in": "query",
                        "schema": {"type": "string", keyword: value}}],
        "responses": {"200": {"description": "ok"}}}}}))
    assert ir.operation("GET /x").parameters[0].schema == \
        SchemaNode(kind="string")
    [ignored] = [f for f in lint_spec(ir) if f.rule_id == "invalid-schema-value"]
    assert ignored.location == "GET /x#q"
    assert ignored.message.startswith(f"{keyword} {value!r} is not ")
    assert ignored.message.endswith("; ignored")


@pytest.mark.parametrize("schema, keyword, value", [
    ("NewAuthor", "minLength", "1"), ("NewAuthor", "maxLength", "64"),
    ("Book", "minimum", "0"),
])
def test_a_schema_value_of_the_wrong_type_no_longer_stops_a_run(
        schema, keyword, value):
    """``fuzz`` used to raise a TypeError in ``build_sampling_spec``, in the
    run, or in the checker."""
    doc = json.loads(bookshop_spec_document())
    prop = "inventory" if schema == "Book" else "name"
    doc["components"]["schemas"][schema]["properties"][prop][keyword] = value
    ir = load_spec(json.dumps(doc))
    assert any(f.rule_id == "invalid-schema-value" for f in ir.load_warnings)
    _run_briefly(ir, seed=1)


# --- a seeded sweep of one-node mutations ---------------------------------------------

SWEEP_VALUES = (5, "x", "1", True, None, [], {}, [1], -3, 1.5)


def _node_paths(node, prefix=()):
    """The path of every node under ``node``, depth first."""
    children = node.items() if isinstance(node, dict) \
        else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from _node_paths(child, prefix + (key,))


def _run_briefly(ir, seed):
    model = infer_model(ir)
    target = InProcessTarget(BookshopApp())
    try:
        run(RunConfig(master_seed=seed, max_requests=60, stop_on_error=False),
            model, build_sampling_spec(ir, model), target=target,
            trace_sink=TraceSink(io.StringIO(), None, {}))
    finally:
        target.close()


def test_each_one_node_mutation_of_the_bookshop_loads_or_is_a_spec_error():
    """400 seeded mutations, each one node of the bookshop document replaced
    by one of :data:`SWEEP_VALUES`.  Each either fails to load with a
    :class:`SpecError` or reloads from its JSON form to an equal IR that
    infers a model, builds a sampling spec and runs 60 requests."""
    doc = json.loads(bookshop_spec_document())
    paths = list(_node_paths(doc))
    rng = Random(0)
    loaded = 0
    for i in range(400):
        path, value = rng.choice(paths), rng.choice(SWEEP_VALUES)
        mutated = copy.deepcopy(doc)
        parent = mutated
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = copy.deepcopy(value)
        try:
            ir = load_spec(json.dumps(mutated))
        except SpecError:
            continue
        loaded += 1
        assert load_spec(json.dumps(ir.document)) == ir, path
        _run_briefly(ir, seed=i)
    assert 0 < loaded < 400
