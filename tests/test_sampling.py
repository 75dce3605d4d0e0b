import re
from random import Random

import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from apifuzz.checker import validate_value
from apifuzz.sampling import (
    KIND_ENUM,
    KIND_INT,
    KIND_REFERENCE,
    MixtureConfig,
    NoSelectableOperation,
    TAG_BOUNDARY,
    TAG_INVALID,
    TAG_STATE,
    TAG_VALID,
    WeightTable,
    build_sampling_spec,
    sample_value,
    select_operation,
    synthesize_from_pattern,
)
from apifuzz.semantic_model import infer_model
from apifuzz.spec_ingest import load_spec
from apifuzz.state_tracker import StateStore

from conftest import json_response, minimal_spec_doc


def domain_for(sampler_set, name, location=None):
    if location is not None and f"{location}:{name}" in sampler_set.per_parameter:
        return sampler_set.per_parameter[f"{location}:{name}"]
    return sampler_set.per_parameter[name]


def _mix(**kwargs):
    base = {"valid_random": 0.0, "from_state": 0.0, "boundary": 0.0,
            "invalid_typed": 0.0}
    base.update(kwargs)
    return MixtureConfig(**base)


@pytest.fixture(scope="module")
def put_get_model():
    ir = load_spec(minimal_spec_doc({
        "/things": {"get": {"responses": {"200": json_response(
            {"type": "array", "items": {"type": "object", "properties": {
                "thingId": {"type": "string"}}}})}}},
        "/things/{thingId}": {
            "parameters": [{"name": "thingId", "in": "path", "required": True,
                            "schema": {"type": "string"}}],
            "put": {"responses": {
                "200": json_response({"type": "object", "properties": {
                    "thingId": {"type": "string"}}}),
                "400": {"description": "bad"}}},
        },
    }))
    return infer_model(ir)


# --- domain construction -------------------------------------------------------

def test_reference_domain_for_author_id(bookshop_ir, bookshop_model,
                                        bookshop_sampling):
    domain = domain_for(bookshop_sampling.sampler_set("POST /books"), "authorId")
    assert domain.kind == KIND_REFERENCE
    assert domain.target_resource == "author"
    assert not domain.many


def test_reference_domain_for_book_ids_is_many(bookshop_sampling):
    domain = domain_for(bookshop_sampling.sampler_set("POST /orders"), "bookIds")
    assert domain.kind == KIND_REFERENCE
    assert domain.target_resource == "book"
    assert domain.many


def test_item_path_parameter_references_own_resource(bookshop_sampling):
    domain = domain_for(bookshop_sampling.sampler_set(
        "GET /books/{bookId}"), "bookId")
    assert domain.kind == KIND_REFERENCE
    assert domain.target_resource == "book"


def test_references_follow_the_threshold_the_model_was_inferred_at():
    """``bookAuthorNameId`` scores 0.667 against ``bookAuthorId``: a model
    inferred at 0.6 makes it an edge, and sampling reads that model's
    threshold, so it is drawn as a reference too."""
    ir = load_spec(minimal_spec_doc({
        "/book-authors": {"post": {"responses": {"201": json_response({
            "type": "object", "properties": {
                "bookAuthorId": {"type": "string"},
                "name": {"type": "string"}}})}}},
        "/things": {"post": {
            "requestBody": {"content": {"application/json": {"schema": {
                "type": "object", "properties": {
                    "bookAuthorNameId": {"type": "string"}}}}}},
            "responses": {"201": json_response({
                "type": "object", "properties": {
                    "thingId": {"type": "string"}}})}}},
    }))
    model = infer_model(ir, 0.6)
    assert [(e.dependent, e.prerequisite, e.via_parameter)
            for e in model.edges] == \
        [("thing", "book_author", "bookAuthorNameId")]
    domain = domain_for(build_sampling_spec(ir, model).sampler_set(
        "POST /things"), "bookAuthorNameId")
    assert domain.kind == KIND_REFERENCE
    assert domain.target_resource == "book_author"


def test_every_operation_and_parameter_has_a_domain(bookshop_ir,
                                                    bookshop_model,
                                                    bookshop_sampling):
    for op in bookshop_ir.operations:
        sampler = bookshop_sampling.sampler_set(op.operation_id)
        for param in op.parameters:
            assert domain_for(sampler, param.name, param.location) is not None


def test_mixture_weights_normalized(bookshop_sampling):
    for sampler in bookshop_sampling.per_operation.values():
        for domain in sampler.per_parameter.values():
            total = sum(domain.mixture.values())
            assert abs(total - 1.0) < 1e-9
            assert all(w > 0 for w in domain.mixture.values())


def test_integer_range_with_bounds_yields_boundary_values():
    ir = load_spec(minimal_spec_doc({
        "/x": {"get": {
            "parameters": [{"name": "count", "in": "query", "required": True,
                            "schema": {"type": "integer", "minimum": 1,
                                       "maximum": 10}}],
            "responses": {"200": json_response({"type": "array",
                                                "items": {"type": "integer"}}),
                          "400": {"description": "bad"}}}},
    }))
    model = infer_model(ir)
    spec = build_sampling_spec(ir, model, mixture=_mix(boundary=1.0))
    domain = domain_for(spec.sampler_set("GET /x"), "count")
    assert domain.kind == KIND_INT
    rng = Random(0)
    seen = {sample_value(domain, None, rng).value for _ in range(50)}
    assert seen == {1, 10}
    assert all(sample_value(domain, None, rng).tag == TAG_BOUNDARY
               for _ in range(5))


def test_enum_domain_samples_exactly_declared_values(bookshop_ir, bookshop_model):
    spec = build_sampling_spec(bookshop_ir, bookshop_model,
                               mixture=_mix(valid_random=1.0))
    domain = domain_for(spec.sampler_set("POST /books"), "format")
    assert domain.kind == KIND_ENUM
    rng = Random(1)
    seen = {sample_value(domain, None, rng).value for _ in range(40)}
    assert seen == {"paperback", "hardcover"}


# --- selection -------------------------------------------------------------------

def test_single_operation_always_selected():
    ir = load_spec(minimal_spec_doc({
        "/pings": {"get": {"responses": {"200": json_response(
            {"type": "array", "items": {"type": "string"}})}}},
    }))
    model = infer_model(ir)
    rng = Random(3)
    for _ in range(20):
        assert select_operation(model, WeightTable(), rng).operation_id == "GET /pings"


def test_zero_weight_resource_never_selected(bookshop_model):
    weights = WeightTable(per_resource={"book": 0.0, "author": 0.0,
                                        "order": 0.0})
    rng = Random(5)
    for _ in range(300):
        binding = select_operation(bookshop_model, weights, rng)
        assert binding.resource == "customer"


def test_all_zero_weights_raise(bookshop_model):
    weights = WeightTable(per_resource={r.name: 0.0
                                        for r in bookshop_model.resources})
    with pytest.raises(NoSelectableOperation):
        select_operation(bookshop_model, weights, Random(0))


def test_negative_weight_rejected():
    with pytest.raises(ValueError):
        WeightTable.from_dict({"per_method": {"PUT": -1}})


def test_put_twice_get_once_chi_square(put_get_model):
    weights = WeightTable(per_method={"PUT": 2.0, "GET": 1.0})
    rng = Random(99)  # frozen; Monte Carlo with a pinned seed
    draws = 10_000
    puts = sum(1 for _ in range(draws)
               if select_operation(put_get_model, weights, rng)
               .operation_id.startswith("PUT"))
    result = stats.chisquare([puts, draws - puts],
                             [draws * 2 / 3, draws / 3])
    assert result.pvalue > 0.01, f"puts={puts}, p={result.pvalue}"


def test_weight_monotonicity(put_get_model):
    def put_count(weight: float, seed: int) -> int:
        rng = Random(seed)
        weights = WeightTable(per_method={"PUT": weight})
        return sum(1 for _ in range(10_000)
                   if select_operation(put_get_model, weights, rng)
                   .operation_id.startswith("PUT"))

    for seed in (1, 7, 42):
        low, high = put_count(1.0, seed), put_count(2.0, seed)
        assert high >= low


def test_selection_deterministic_for_seed(bookshop_model):
    def draw(seed):
        rng = Random(seed)
        return [select_operation(bookshop_model, WeightTable(), rng).operation_id
                for _ in range(200)]

    assert draw(11) == draw(11)
    assert draw(11) != draw(12)


def _reference_icdf_pick(pairs, u):
    total = sum(w for _, w in pairs)
    threshold = u * total
    acc = 0.0
    for item, w in pairs:
        acc += w
        if threshold < acc:
            return item
    return pairs[-1][0]


def _reference_select_operation(model, weights, rng):
    """Reference for select_operation with nothing kept between calls:
    every call sorts and sums the whole walk again."""
    entries = []
    for resource in sorted(model.resources, key=lambda r: r.name):
        rweight = weights.resource_weight(resource.name)
        if rweight <= 0:
            continue
        ops = [(b, weights.operation_weight(b.operation_id, b.operation_id.split(" ")[0]))
               for b in sorted(model.bindings_for_resource(resource.name),
                               key=lambda b: b.operation_id)]
        ops = [(b, w) for b, w in ops if w > 0]
        if ops:
            entries.append(((resource.name, ops), rweight))
    u1, u2 = rng.random(), rng.random()
    if not entries:
        raise NoSelectableOperation(
            "no resource has a positively weighted operation")
    _, ops = _reference_icdf_pick(entries, u1)
    return _reference_icdf_pick(ops, u2)


_WEIGHT = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=50.0),
                    st.sampled_from([1e-300, 1e-12, 1.0, 3.0]))
_BOOKSHOP_RESOURCES = ("author", "book", "customer", "order")
_BOOKSHOP_OPERATIONS = ("GET /books", "POST /books", "GET /books/{bookId}",
                        "DELETE /customers/{customerId}", "POST /orders",
                        "GET /authors")


@settings(max_examples=150, deadline=None)
@given(per_method=st.dictionaries(
           st.sampled_from(("GET", "POST", "PUT", "DELETE")), _WEIGHT),
       per_operation=st.dictionaries(st.sampled_from(_BOOKSHOP_OPERATIONS),
                                     _WEIGHT),
       per_resource=st.dictionaries(st.sampled_from(_BOOKSHOP_RESOURCES),
                                    _WEIGHT),
       seed=st.integers(0, 2**32 - 1))
def test_selection_matches_the_per_call_walk(bookshop_model, per_method,
                                             per_operation, per_resource, seed):
    weights = WeightTable(per_method=per_method, per_operation=per_operation,
                          per_resource=per_resource)
    fast, slow = Random(seed), Random(seed)
    for _ in range(8):
        try:
            expected = _reference_select_operation(bookshop_model, weights, slow)
        except NoSelectableOperation:
            with pytest.raises(NoSelectableOperation):
                select_operation(bookshop_model, weights, fast)
        else:
            assert select_operation(bookshop_model, weights, fast) is expected
        assert fast.getstate() == slow.getstate()


def test_changed_weight_applies_to_the_next_draw(bookshop_model):
    weights = WeightTable()
    rng = Random(8)
    first = {select_operation(bookshop_model, weights, rng).resource
             for _ in range(200)}
    assert first == set(_BOOKSHOP_RESOURCES)
    for name in ("author", "book", "order"):
        weights.per_resource[name] = 0.0
    assert {select_operation(bookshop_model, weights, rng).resource
            for _ in range(200)} == {"customer"}
    weights.per_resource["book"] = 1.0
    assert {select_operation(bookshop_model, weights, rng).resource
            for _ in range(200)} == {"book", "customer"}


# --- value sampling -----------------------------------------------------------------

def test_valid_random_samples_satisfy_schema(bookshop_ir, bookshop_model):
    spec = build_sampling_spec(bookshop_ir, bookshop_model,
                               mixture=_mix(valid_random=1.0))
    rng = Random(7)
    store = StateStore()
    for op_id, sampler in spec.per_operation.items():
        for key, domain in sampler.per_parameter.items():
            for _ in range(40):
                sampled = sample_value(domain, store, rng)
                assert sampled.tag == TAG_VALID, (op_id, key)
                schema = domain.item_schema if (
                    domain.kind == KIND_REFERENCE and not domain.many) \
                    else domain.schema
                assert validate_value(sampled.value, schema) == [], \
                    (op_id, key, sampled.value)


def test_invalid_samples_violate_recorded_constraint(bookshop_ir, bookshop_model):
    spec = build_sampling_spec(bookshop_ir, bookshop_model,
                               mixture=_mix(invalid_typed=1.0))
    rng = Random(13)
    store = StateStore()
    checked = 0
    for op_id, sampler in spec.per_operation.items():
        for key, domain in sampler.per_parameter.items():
            if TAG_INVALID not in domain.mixture:
                continue
            for _ in range(25):
                sampled = sample_value(domain, store, rng)
                assert sampled.tag == TAG_INVALID
                assert sampled.violated is not None
                if domain.kind == KIND_REFERENCE:
                    value = sampled.value[0] if domain.many else sampled.value
                    violations = validate_value(value, domain.item_schema)
                else:
                    violations = validate_value(sampled.value, domain.schema)
                assert sampled.violated in {v.constraint for v in violations}, \
                    (op_id, key, sampled.value, sampled.violated, violations)
                checked += 1
    assert checked > 0


def test_path_parameters_never_sample_empty_invalid(bookshop_ir, bookshop_model):
    spec = build_sampling_spec(bookshop_ir, bookshop_model,
                               mixture=_mix(invalid_typed=1.0))
    rng = Random(23)
    domain = domain_for(spec.sampler_set("GET /books/{bookId}"), "bookId")
    for _ in range(100):
        sampled = sample_value(domain, StateStore(), rng)
        assert sampled.value != ""
        assert "/" not in str(sampled.value)


def test_reference_from_state_picks_live_id(bookshop_sampling):
    store = StateStore()
    store.upsert_live("customer", "c1")
    store.upsert_live("customer", "c2")
    store.upsert_live("customer", "c3")
    store.mark_deleted("customer", "c3")
    domain = domain_for(bookshop_sampling.sampler_set(
        "GET /customers/{customerId}"), "customerId")
    rng = Random(2)
    seen = set()
    for _ in range(60):
        sampled = sample_value(domain, store, rng)
        if sampled.tag == TAG_STATE:
            seen.add(sampled.value)
    assert seen and seen <= {"c1", "c2"}


def test_reference_empty_state_falls_back_to_synthesized(bookshop_ir,
                                                         bookshop_model):
    spec = build_sampling_spec(bookshop_ir, bookshop_model,
                               mixture=_mix(from_state=1.0))
    domain = domain_for(spec.sampler_set("POST /books"), "authorId")
    rng = Random(3)
    sampled = sample_value(domain, StateStore(), rng)
    assert sampled.tag == TAG_VALID  # fallback keeps the stream going
    assert re.fullmatch(r"[a-z][0-9]{1,12}", sampled.value)
    assert sampled.value.startswith("z")  # reserved prefix avoids collisions


def test_many_reference_from_state_nonempty_subset(bookshop_sampling):
    store = StateStore()
    for i in range(1, 6):
        store.upsert_live("book", f"b{i}")
    domain = domain_for(bookshop_sampling.sampler_set("POST /orders"), "bookIds")
    rng = Random(9)
    for _ in range(50):
        sampled = sample_value(domain, store, rng)
        if sampled.tag == TAG_STATE:
            assert sampled.value
            assert set(sampled.value) <= {f"b{i}" for i in range(1, 6)}
            assert len(set(sampled.value)) == len(sampled.value)


# --- pattern synthesis ---------------------------------------------------------------

@pytest.mark.parametrize("pattern", [
    r"^[a-z][0-9]{1,12}$",
    r"^[A-Z]{2,4}-\d+$",
    r"^v\d+\.\d+$",
    r"[abc]+x?",
])
def test_synthesized_strings_match_their_pattern(pattern):
    rng = Random(4)
    for _ in range(30):
        value = synthesize_from_pattern(pattern, rng)
        assert value is not None
        assert re.fullmatch(pattern, value)


@pytest.mark.parametrize("pattern", [r"(ab|cd)+", r"^[^a-z]+$", r"a{2"])
def test_unsupported_patterns_report_none(pattern):
    assert synthesize_from_pattern(pattern, Random(0)) is None
