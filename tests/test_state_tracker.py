import json
from random import Random

import pytest

from apifuzz.generator import RequestPlan
from apifuzz.http_driver import HttpExchangeResult
from apifuzz.semantic_model import OperationBinding
from apifuzz.state_tracker import (
    IdExtractionFailure,
    StateStore,
    apply_effect,
    extract_id,
    predict_status,
)


def make_result(status=200, body=None, transport_error=None):
    if transport_error:
        return HttpExchangeResult(status=None, transport_error=transport_error)
    raw = json.dumps(body).encode() if body is not None else b""
    return HttpExchangeResult(status=status,
                              headers={"Content-Type": "application/json"},
                              body=raw, json_body=body)


def make_plan(crud="read", resource="customer", *, tags=None, path_params=None,
              target="customerId", refs=None, id_fields=("customerId",),
              declared=("200", "201", "204", "400", "404"), plan_id=1):
    binding = OperationBinding(f"OP /{resource}", resource, crud)
    return RequestPlan(
        binding=binding, method="GET", path_template=f"/{resource}s",
        concrete_url=f"/{resource}s", headers={}, body=None,
        value_tags=tags or {}, violated={}, plan_id=plan_id,
        path_param_values=path_params or {},
        reference_values=refs or {},
        target_id_param=target if (path_params and target in path_params) else None,
        resource_id_fields=tuple(id_fields),
        declared_status_patterns=tuple(declared))


# --- store basics -----------------------------------------------------------------

def test_epoch_strictly_increases_per_mutation():
    store = StateStore()
    assert store.epoch == 0
    store.upsert_live("customer", "c1", {})
    e1 = store.epoch
    store.mark_deleted("customer", "c1")
    assert store.epoch > e1


def test_query_ids_insertion_order_and_filters():
    store = StateStore()
    for cid in ("c1", "c2", "c3"):
        store.upsert_live("customer", cid, {})
    store.mark_deleted("customer", "c3")
    assert store.query_ids("customer", ("live",)) == ["c1", "c2"]
    assert store.query_ids("customer", ("deleted",)) == ["c3"]
    assert store.query_ids("book", ("live",)) == []
    assert StateStore().query_ids("customer") == []


def test_no_resurrection_after_delete():
    store = StateStore()
    store.upsert_live("book", "b1", {})
    store.mark_deleted("book", "b1")
    assert not store.upsert_live("book", "b1", {"again": True})
    assert store.lifecycle_of("book", "b1") == "deleted"
    assert store.resurrections_skipped == 1


def test_eviction_prefers_oldest_deleted():
    store = StateStore(cap=4)
    for i in range(4):
        store.upsert_live("c", f"x{i}", {})
    store.mark_deleted("c", "x1")
    store.upsert_live("c", "x4", {})  # exceeds cap; x1 (deleted) evicted
    assert len(store) == 4
    assert store.get("c", "x1") is None
    assert store.lifecycle_of("c", "x0") == "live"


def test_eviction_falls_back_to_oldest_live():
    store = StateStore(cap=3)
    for i in range(5):
        store.upsert_live("c", f"x{i}", {})
    assert len(store) == 3
    assert store.get("c", "x0") is None and store.get("c", "x1") is None
    assert store.lifecycle_of("c", "x4") == "live"


def _scanned_live_ids(store, resource):
    """Reference answer: a full scan of the store in insertion order."""
    return [inst["id"] for inst in json.loads(store.dump_snapshot())["instances"]
            if inst["resource"] == resource and inst["lifecycle"] == "live"]


@pytest.mark.parametrize("seed", range(5))
def test_live_id_index_matches_a_full_scan(seed):
    rng = Random(seed)
    store = StateStore(cap=6)
    resources = ("book", "customer")
    untracked = iter(range(10**6))
    for _ in range(600):
        resource = rng.choice(resources)
        action = rng.random()
        if action < 0.5:  # new id, or a re-upsert of a tracked one
            store.upsert_live(resource, f"i{rng.randrange(12)}", {})
        elif action < 0.85:
            store.mark_deleted(resource, f"i{rng.randrange(12)}")
        else:
            store.mark_deleted(resource, f"untracked{next(untracked)}")
        assert len(store) <= 6
        for name in resources:
            assert store.query_ids(name) == _scanned_live_ids(store, name)


def test_dump_snapshot_is_json_keyed_by_epoch():
    store = StateStore()
    store.upsert_live("customer", "c1", {})
    dump = json.loads(store.dump_snapshot())
    assert dump["epoch"] == store.epoch
    assert dump["instances"][0]["id"] == "c1"


# --- id extraction ------------------------------------------------------------------

def test_extract_id_prefers_declared_fields():
    assert extract_id({"customerId": "c9", "id": "zz"}, ("customerId",)) == "c9"
    assert extract_id({"id": 12}, ("customerId",)) == "12"
    assert extract_id({"customer_id": "c3"}, ("customerId",)) == "c3"


def test_extract_id_failure():
    with pytest.raises(IdExtractionFailure):
        extract_id({"name": "x"}, ("customerId",))
    with pytest.raises(IdExtractionFailure):
        extract_id(["not-an-object"], ("customerId",))


# --- effects -----------------------------------------------------------------------

def test_create_inserts_live_instance():
    store = StateStore()
    plan = make_plan("create", plan_id=42)
    apply_effect(plan, make_result(201, {"customerId": "c9"}), store)
    assert store.query_ids("customer") == ["c9"]
    inst = store.get("customer", "c9")
    assert inst.lifecycle == "live"
    assert inst.created_by == 42
    assert inst.last_representation == {"customerId": "c9"}


def test_create_without_id_raises_and_leaves_store_unchanged():
    store = StateStore()
    plan = make_plan("create")
    with pytest.raises(IdExtractionFailure):
        apply_effect(plan, make_result(201, {"fullName": "x"}), store)
    assert len(store) == 0


def test_delete_marks_deleted():
    store = StateStore()
    store.upsert_live("customer", "c9", {})
    plan = make_plan("delete", path_params={"customerId": "c9"})
    epoch = store.epoch
    apply_effect(plan, make_result(204), store)
    assert store.epoch == epoch + 1
    assert store.lifecycle_of("customer", "c9") == "deleted"


def test_failed_request_has_no_effect():
    store = StateStore()
    plan = make_plan("read", path_params={"customerId": "cX"})
    apply_effect(plan, make_result(404, {"error": "nope"}), store)
    assert store.epoch == 0
    assert len(store) == 0
    apply_effect(plan, make_result(transport_error="timeout"), store)
    assert store.epoch == 0


def test_read_discovers_instance():
    store = StateStore()
    plan = make_plan("read", path_params={"customerId": "c5"})
    apply_effect(plan, make_result(200, {"customerId": "c5", "name": "n"}), store)
    assert store.lifecycle_of("customer", "c5") == "live"


def test_read_list_upserts_each_item():
    store = StateStore()
    plan = make_plan("read-list", target=None)
    body = [{"customerId": "c1"}, {"customerId": "c2"}, {"oops": True}]
    apply_effect(plan, make_result(200, body), store)
    assert store.query_ids("customer") == ["c1", "c2"]
    assert store.epoch == 2  # the un-iddable element is skipped


def test_replay_equivalence_same_effects_same_store():
    def run():
        store = StateStore()
        rng = Random(0)
        for i in range(200):
            cid = f"c{rng.randint(1, 40)}"
            if rng.random() < 0.6:
                apply_effect(make_plan("create", plan_id=i),
                             make_result(201, {"customerId": cid}), store)
            else:
                apply_effect(
                    make_plan("delete", path_params={"customerId": cid}),
                    make_result(204), store)
        return store.dump_snapshot()

    assert run() == run()


# --- predictions ---------------------------------------------------------------------

def _store_with(live=(), deleted=()):
    store = StateStore()
    for rid in live:
        store.upsert_live("customer", rid, {})
    for rid in deleted:
        store.upsert_live("customer", rid, {})
        store.mark_deleted("customer", rid)
    return store


def test_read_live_id_expects_2xx():
    store = _store_with(live=["c1"])
    plan = make_plan("read", path_params={"customerId": "c1"},
                     tags={"customerId": "from-state"},
                     refs={"customerId": ("customer", ("c1",))})
    pred = predict_status(plan, store, "sequential")
    assert pred.expected_classes == frozenset({"2XX"})
    assert pred.basis == "exact-state"
    assert pred.matches(200) and not pred.matches(404)


@pytest.mark.parametrize("store", [
    _store_with(),                 # never seen
    _store_with(deleted=["c1"]),   # deleted
])
def test_read_missing_or_deleted_expects_404(store):
    plan = make_plan("read", path_params={"customerId": "c1"},
                     tags={"customerId": "valid-random"},
                     refs={"customerId": ("customer", ("c1",))})
    pred = predict_status(plan, store, "sequential")
    assert pred.expected_classes == frozenset({"404"})
    # observed 500 must be flagged; observed 200 on a deleted id must be flagged
    assert not pred.matches(500)
    assert not pred.matches(200)


def test_invalid_path_parameter_expects_400():
    plan = make_plan("delete", path_params={"customerId": "!!!"},
                     tags={"customerId": "invalid-typed"},
                     refs={"customerId": ("customer", ("!!!",))})
    pred = predict_status(plan, _store_with(live=["c1"]), "sequential")
    assert pred.expected_classes == frozenset({"400"})
    assert not pred.matches(204)  # a 2XX answer is a semantic violation


def test_create_with_live_prerequisites_expects_2xx():
    store = StateStore()
    store.upsert_live("author", "a1", {})
    plan = make_plan("create", resource="book", target=None,
                     refs={"authorId": ("author", ("a1",))},
                     tags={"authorId": "from-state"})
    pred = predict_status(plan, store, "sequential")
    assert pred.expected_classes == frozenset({"2XX"})


def test_create_with_missing_prerequisite_expects_404():
    plan = make_plan("create", resource="book", target=None,
                     refs={"authorId": ("author", ("z123",))},
                     tags={"authorId": "valid-random"})
    pred = predict_status(plan, StateStore(), "sequential")
    assert pred.expected_classes == frozenset({"404"})


def test_create_with_invalid_body_field_expects_400():
    plan = make_plan("create", resource="book", target=None,
                     refs={"authorId": ("author", ("a1",))},
                     tags={"title": "invalid-typed", "authorId": "from-state"})
    pred = predict_status(plan, StateStore(), "sequential")
    assert pred.expected_classes == frozenset({"400"})


def test_update_live_with_invalid_body_expects_400():
    store = _store_with(live=["c1"])
    plan = make_plan("update", path_params={"customerId": "c1"},
                     tags={"customerId": "from-state", "name": "invalid-typed"},
                     refs={"customerId": ("customer", ("c1",))})
    pred = predict_status(plan, store, "sequential")
    assert pred.expected_classes == frozenset({"400"})


def test_concurrent_mode_widens_live_predictions_to_stale_possible():
    store = _store_with(live=["c1"])
    plan = make_plan("read", path_params={"customerId": "c1"},
                     tags={"customerId": "from-state"},
                     refs={"customerId": ("customer", ("c1",))})
    pred = predict_status(plan, store, "concurrent")
    assert pred.expected_classes == frozenset({"2XX", "404"})
    assert pred.basis == "stale-possible"


def test_concurrent_mode_keeps_state_free_predictions_exact():
    plan = make_plan("read-list", target=None)
    pred = predict_status(plan, StateStore(), "concurrent")
    assert pred.basis == "exact-state"
    assert pred.expected_classes == frozenset({"2XX"})


def test_other_crud_accepts_declared_non_5xx():
    plan = make_plan("other", target=None, declared=("202", "400", "5XX"))
    pred = predict_status(plan, StateStore(), "sequential")
    assert pred.expected_classes == frozenset({"202", "400"})
    assert pred.matches(202) and not pred.matches(500)
