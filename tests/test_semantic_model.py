import dataclasses
import json
import string

import pytest
from hypothesis import given, settings, strategies as st

from apifuzz.bookshop import bookshop_spec
from apifuzz.naming import match_names, tokenize
from apifuzz.semantic_model import (
    DanglingReference,
    ModelSchemaError,
    classify_crud,
    infer_model,
    load_model,
    merge_overrides,
    serialize_model,
    topological_order,
)
from apifuzz.spec_ingest import LintFinding, load_spec

from conftest import edge_set, json_response, minimal_spec_doc

GOLDEN_EDGES = {("book", "author"), ("order", "customer"), ("order", "book")}


def binding_for(model, operation_id):
    return next(b for b in model.bindings if b.operation_id == operation_id)


def test_match_names_is_part_of_the_model_surface():
    from apifuzz import semantic_model

    assert semantic_model.match_names("authorId", "Author") == 1.0


# --- inference ----------------------------------------------------------------

def test_bookshop_edges_are_exactly_the_golden_set(bookshop_model):
    assert edge_set(bookshop_model) == GOLDEN_EDGES
    by_pair = {(e.dependent, e.prerequisite): e for e in bookshop_model.edges}
    assert by_pair[("book", "author")].via_parameter == "authorId"
    assert by_pair[("order", "customer")].via_parameter == "customerId"
    assert by_pair[("order", "book")].via_parameter == "bookIds"
    assert all(e.confidence == 1.0 for e in bookshop_model.edges)


def test_every_inferred_edge_is_justified_by_an_id_field(bookshop_model):
    for edge in bookshop_model.edges:
        prereq = bookshop_model.resource(edge.prerequisite)
        assert any(match_names(edge.via_parameter, idf) >= 0.8
                   for idf in prereq.id_field_names)


def test_binding_totality(bookshop_ir, bookshop_model):
    assert len(bookshop_model.bindings) == len(bookshop_ir.operations)
    bound = {b.operation_id for b in bookshop_model.bindings}
    assert bound == set(bookshop_ir.operations_by_id())


def test_crud_classification(bookshop_ir, bookshop_model):
    kinds = {b.operation_id: b.crud_kind for b in bookshop_model.bindings}
    assert kinds["POST /books"] == "create"
    assert kinds["GET /books"] == "read-list"
    assert kinds["GET /books/{bookId}"] == "read"
    assert kinds["PUT /books/{bookId}"] == "update"
    assert kinds["DELETE /books/{bookId}"] == "delete"
    assert all(k != "other" for k in kinds.values())


def test_classify_crud_other_for_odd_shapes():
    ir = load_spec(minimal_spec_doc({
        "/jobs/{jobId}": {
            "parameters": [{"name": "jobId", "in": "path", "required": True,
                            "schema": {"type": "string"}}],
            "post": {"responses": {"202": {"description": "queued"},
                                   "400": {"description": "bad"}}},
        },
    }))
    assert classify_crud(ir.operations[0]) == "other"


def test_resources_are_normalized_singular_and_unique(bookshop_model):
    names = [r.name for r in bookshop_model.resources]
    assert names == sorted(names) == ["author", "book", "customer", "order"]
    assert bookshop_model.resource("book").id_field_names == ("bookId",)


def test_empty_spec_yields_empty_model():
    model = infer_model(load_spec(minimal_spec_doc({})))
    assert model.resources == [] and model.bindings == [] and model.edges == []


def test_schema_only_resource_requires_own_id_field():
    ir = load_spec(minimal_spec_doc(
        {"/misc": {"get": {"responses": {"200": json_response(
            {"type": "object", "properties": {"note": {"type": "string"}}})}}}},
        schemas={
            "Widget": {"type": "object", "properties": {
                "widgetId": {"type": "string"}}},
            "Error": {"type": "object", "properties": {
                "error": {"type": "string"}}},
        },
    ))
    model = infer_model(ir)
    names = {r.name for r in model.resources}
    assert "widget" in names  # carries widgetId
    assert "error" not in names  # 'error' field is not an id marker


def test_order_topological_prerequisites_first(bookshop_model):
    order = topological_order(bookshop_model)
    assert order.index("author") < order.index("book")
    assert order.index("book") < order.index("order")
    assert order.index("customer") < order.index("order")


def test_cycle_is_broken_at_lowest_confidence_edge():
    # a requires bId, b requires aId: inference would produce a 2-cycle
    ir = load_spec(minimal_spec_doc({
        "/alphas": {"post": {
            "requestBody": {"content": {"application/json": {"schema": {
                "type": "object", "properties": {"betaId": {"type": "string"}},
                "required": ["betaId"]}}}},
            "responses": {"201": json_response({"type": "object", "properties": {
                "alphaId": {"type": "string"}}}),
                "400": {"description": "bad"}}}},
        "/betas": {"post": {
            "requestBody": {"content": {"application/json": {"schema": {
                "type": "object", "properties": {"alphaId": {"type": "string"}},
                "required": ["alphaId"]}}}},
            "responses": {"201": json_response({"type": "object", "properties": {
                "betaId": {"type": "string"}}}),
                "400": {"description": "bad"}}}},
    }))
    model = infer_model(ir)
    assert len(model.edges) == 1  # one edge of the 2-cycle dropped
    assert any(w.rule_id == "dependency-cycle-broken" for w in model.warnings)
    order = topological_order(model)
    assert set(order) == {"alpha", "beta"}


# --- serialization -----------------------------------------------------------------

def test_serialization_is_deterministic(bookshop_ir):
    a = serialize_model(infer_model(bookshop_ir))
    b = serialize_model(infer_model(bookshop_ir))
    assert a == b


def test_model_file_round_trip(bookshop_ir, bookshop_model):
    data = serialize_model(bookshop_model)
    loaded = load_model(data, bookshop_ir)
    assert loaded == bookshop_model
    assert all(p == "inferred" for p in loaded.provenance.values())
    assert serialize_model(loaded) == data


def test_empty_model_serializes_with_empty_sections():
    model = infer_model(load_spec(minimal_spec_doc({})))
    doc = json.loads(serialize_model(model))
    assert doc == {"model_version": 1, "resources": [], "bindings": [],
                   "edges": []}


def test_model_file_has_documented_shape(bookshop_model):
    doc = json.loads(serialize_model(bookshop_model))
    assert doc["model_version"] == 1
    assert set(doc) == {"model_version", "resources", "bindings", "edges"}
    for section in ("resources", "bindings", "edges"):
        assert all("provenance" in entry for entry in doc[section])


def test_user_added_edge_is_tagged_user_edited(bookshop_ir, bookshop_model):
    doc = json.loads(serialize_model(bookshop_model))
    doc["edges"].append({"dependent": "book", "prerequisite": "customer",
                         "via_parameter": "customerId", "confidence": 0.9,
                         "provenance": "inferred"})
    loaded = load_model(json.dumps(doc), bookshop_ir)
    assert ("book", "customer") in edge_set(loaded)
    assert loaded.provenance["edge:book->customer:customerId"] == "user-edited"
    # untouched edges stay inferred
    assert loaded.provenance["edge:book->author:authorId"] == "inferred"


def test_reclassified_crud_kind_is_user_edited(bookshop_ir, bookshop_model):
    doc = json.loads(serialize_model(bookshop_model))
    for entry in doc["bindings"]:
        if entry["operation"] == "PUT /books/{bookId}":
            entry["crud_kind"] = "other"
    loaded = load_model(json.dumps(doc), bookshop_ir)
    assert binding_for(loaded, "PUT /books/{bookId}").crud_kind == "other"
    assert loaded.provenance["binding:PUT /books/{bookId}"] == "user-edited"


def test_missing_bindings_are_restored_from_inference(bookshop_ir, bookshop_model):
    doc = json.loads(serialize_model(bookshop_model))
    doc["bindings"] = [b for b in doc["bindings"]
                       if b["operation"] != "GET /books"]
    loaded = load_model(json.dumps(doc), bookshop_ir)
    assert binding_for(loaded, "GET /books").crud_kind == "read-list"
    assert len(loaded.bindings) == len(bookshop_ir.operations)


def test_dangling_operation_reference_rejected(bookshop_ir, bookshop_model):
    doc = json.loads(serialize_model(bookshop_model))
    doc["bindings"].append({"operation": "PATCH /nothing", "resource": "book",
                            "crud_kind": "other", "provenance": "inferred"})
    with pytest.raises(DanglingReference):
        load_model(json.dumps(doc), bookshop_ir)


def test_dangling_edge_resource_rejected(bookshop_ir, bookshop_model):
    doc = json.loads(serialize_model(bookshop_model))
    doc["edges"].append({"dependent": "book", "prerequisite": "warehouse",
                         "via_parameter": "warehouseId"})
    with pytest.raises(DanglingReference):
        load_model(json.dumps(doc), bookshop_ir)


@pytest.mark.parametrize("mutation", [
    lambda doc: doc.update(model_version=7),
    lambda doc: doc["edges"].append({"dependent": "book"}),
    lambda doc: doc["edges"].append(
        {"dependent": "book", "prerequisite": "author",
         "via_parameter": "x", "confidence": 3.0}),
    lambda doc: doc["bindings"].append(
        {"operation": "GET /books", "resource": "book", "crud_kind": "zap"}),
    lambda doc: doc["edges"].append(
        {"dependent": "book", "prerequisite": "book", "via_parameter": "x"}),
    lambda doc: doc["resources"][1].update(id_field_names=5),
    lambda doc: doc["resources"][1].update(id_field_names="bookId"),
    lambda doc: doc["resources"][1].update(id_field_names=[1]),
])
def test_model_schema_errors(bookshop_ir, bookshop_model, mutation):
    doc = json.loads(serialize_model(bookshop_model))
    mutation(doc)
    with pytest.raises(ModelSchemaError):
        load_model(json.dumps(doc), bookshop_ir)


def test_model_file_not_json_rejected(bookshop_ir):
    with pytest.raises(ModelSchemaError):
        load_model(b"{nope", bookshop_ir)


# --- overrides --------------------------------------------------------------------

def test_merge_overrides_adds_and_removes(bookshop_ir, bookshop_model):
    overrides = json.dumps({
        "edges": [
            {"dependent": "book", "prerequisite": "customer",
             "via_parameter": "customerId"},
            {"dependent": "order", "prerequisite": "book",
             "via_parameter": "bookIds", "remove": True},
        ],
        "bindings": [
            {"operation": "GET /orders", "resource": "order",
             "crud_kind": "other"},
        ],
    })
    merged = merge_overrides(bookshop_model, overrides, bookshop_ir)
    assert ("book", "customer") in edge_set(merged)
    assert ("order", "book") not in edge_set(merged)
    assert binding_for(merged, "GET /orders").crud_kind == "other"
    assert merged.provenance["edge:book->customer:customerId"] == "user-edited"
    assert merged.provenance["binding:GET /orders"] == "user-edited"
    # base model untouched
    assert ("order", "book") in edge_set(bookshop_model)


def test_merge_overrides_rejects_unknown_operation(bookshop_ir, bookshop_model):
    overrides = json.dumps({"bindings": [
        {"operation": "PATCH /nothing", "resource": "book", "crud_kind": "other"}]})
    with pytest.raises(DanglingReference):
        merge_overrides(bookshop_model, overrides, bookshop_ir)


@pytest.mark.parametrize("overrides", [
    {"bindings": [{"operation": "GET /orders", "resource": "warehouse",
                   "crud_kind": "read-list"}]},
    {"resources": [{"name": "customer", "remove": True}]},
    {"edges": [{"dependent": "book", "prerequisite": "warehouse",
                "via_parameter": "warehouseId"}]},
], ids=["binding-to-unknown-resource", "resource-still-bound",
        "edge-to-unknown-resource"])
def test_merge_overrides_refuses_a_dangling_reference(bookshop_ir,
                                                      bookshop_model,
                                                      overrides):
    with pytest.raises(DanglingReference):
        merge_overrides(bookshop_model, json.dumps(overrides), bookshop_ir)


def test_merge_overrides_reads_the_result_back_as_a_model_file(
        bookshop_ir, bookshop_model):
    base = dataclasses.replace(bookshop_model, warnings=[
        LintFinding("dependency-cycle-broken", "warning", "edge:x", "kept")])
    overrides = json.dumps({
        "resources": [{"name": "book", "id_field_names": ["bookId"]},
                      {"name": "author", "id_field_names": ["authorId", "pen"]}],
        "edges": [{"dependent": "order", "prerequisite": "book",
                   "via_parameter": "bookIds", "confidence": 0.5}]})
    merged = merge_overrides(base, overrides, bookshop_ir)
    assert merged == load_model(serialize_model(merged), bookshop_ir)
    assert merged.warnings == base.warnings
    # an entry equal to the inferred one stays inferred
    assert merged.provenance["resource:book"] == "inferred"
    assert merged.provenance["resource:author"] == "user-edited"
    # an entry updates by key: the edge keeps its place, with a new confidence
    edge = next(e for e in merged.edges if e.via_parameter == "bookIds")
    assert edge.confidence == 0.5
    assert merged.provenance["edge:order->book:bookIds"] == "user-edited"
    assert len(merged.edges) == len(bookshop_model.edges)


# --- id fields: one rule for sampling and replay ---------------------------------

def _reference_target(name, model, threshold):
    """Verbatim copy of the sampling rule that ``id_resource`` replaced."""
    best_score, best_name = 0.0, None
    for resource in sorted(model.resources, key=lambda r: r.name):
        if not resource.id_field_names:
            continue
        score = max(match_names(name, idf)
                    for idf in resource.id_field_names)
        if score > best_score:
            best_score, best_name = score, resource.name
    if best_score >= threshold:
        return best_name
    return None


def _make_id_key_matcher(model, binding_resource, threshold):
    """Verbatim copy of the replay matcher that ``id_key_predicate`` replaced."""
    resources = sorted(model.resources, key=lambda r: r.name)

    def matcher(key):
        if tokenize(key) == ["id"]:
            return binding_resource
        for resource in resources:
            for idf in resource.id_field_names:
                if match_names(key, idf) >= threshold:
                    return resource.name
        return None

    return matcher


def _overlapping_ids_model():
    """Resources whose id fields share tokens, so names tie and near-miss."""
    def item(path_param, props):
        return {"get": {
            "parameters": [{"name": path_param, "in": "path", "required": True,
                            "schema": {"type": "string"}}],
            "responses": {"200": json_response({
                "type": "object",
                "properties": {p: {"type": "string"} for p in props}})}}}
    ir = load_spec(minimal_spec_doc({
        "/users/{userId}": item("userId", ["userId", "name", "groupRef"]),
        "/user-groups/{userGroupId}": item(
            "userGroupId", ["userGroupId", "ownerId", "user_group_ids"]),
        "/groups/{groupId}": item("groupId", ["groupId", "id", "groupIds"]),
        "/items": {"get": {
            "parameters": [{"name": "ownerRef", "in": "query",
                            "schema": {"type": "string"}}],
            "responses": {"200": json_response({"type": "array", "items": {
                "type": "object", "properties": {
                    "itemId": {"type": "string"},
                    "nested": {"type": "object", "properties": {
                        "itemRef": {"type": "string"}}}}}})}}},
    }))
    return infer_model(ir)


_ID_RULE_MODELS = (infer_model(bookshop_spec()), _overlapping_ids_model())


def _schema_names(schema):
    if schema is None:
        return
    for name, sub in schema.properties:
        yield name
        yield from _schema_names(sub)
    yield from _schema_names(schema.items)


def _spec_names(model):
    names = set()
    for op in model.spec.operations:
        names.update(p.name for p in op.parameters)
        names.update(_schema_names(op.request_body_schema))
        for _, response in op.responses:
            names.update(_schema_names(response.body_schema))
    return sorted(names)


_ID_THRESHOLDS = (0.5, 0.8, 1.0)


def _assert_one_id_rule(model, names):
    for threshold in _ID_THRESHOLDS:
        at = dataclasses.replace(model, threshold=threshold)
        is_id_key = at.id_key_predicate()
        matcher = _make_id_key_matcher(model, "binding", threshold)
        for name in names:
            assert at.id_resource(name) == \
                _reference_target(name, model, threshold), (name, threshold)
            assert is_id_key(name) == (matcher(name) is not None), \
                (name, threshold)


def test_id_rule_matches_both_old_copies_on_spec_names():
    for model in _ID_RULE_MODELS:
        assert len([r for r in model.resources if r.id_field_names]) >= 3
        names = _spec_names(model)
        assert names
        _assert_one_id_rule(model, names)


_ID_FRAGMENTS = ("id", "Id", "ID", "ids", "Ids", "ref", "Ref", "_", "-", "s",
                 "book", "Book", "author", "customer", "order", "user",
                 "User", "group", "Group", "item", "owner", "x")


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.lists(st.sampled_from(_ID_FRAGMENTS), min_size=1, max_size=4)
    .map("".join)
    | st.text(alphabet=string.ascii_letters + string.digits + "_-",
              max_size=12),
    min_size=1, max_size=8))
def test_id_rule_matches_both_old_copies_on_any_identifier(names):
    for model in _ID_RULE_MODELS:
        _assert_one_id_rule(model, names)
