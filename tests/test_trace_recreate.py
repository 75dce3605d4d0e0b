import json
import os
import pathlib
import threading
import time
from random import Random

import pytest

from apifuzz import generator, trace_recreate
from apifuzz.bookshop import BookshopApp
from apifuzz.checker import Finding
from apifuzz.generator import RunConfig, generate_request, run
from apifuzz.http_driver import (
    Dispatcher,
    HttpExchangeResult,
    InProcessTarget,
    execute,
)
from apifuzz.sampling import TAG_VALID, SampledValue, build_sampling_spec
from apifuzz.semantic_model import infer_model
from apifuzz.spec_ingest import load_spec
from apifuzz.state_tracker import StateStore
from apifuzz.trace_recreate import (
    DEFAULT_RACE_ATTEMPTS,
    NotReproducible,
    RecreateScript,
    SinkWriteError,
    SymbolResolutionFailure,
    TRACE_VERSION,
    TraceEvent,
    TraceSink,
    _schema_jsonable,
    bind_symbols,
    build_replay_oracle,
    estimate_run_length,
    expected_failure_for,
    make_trace_event,
    minimize,
    producer_dependencies,
    read_trace,
    replay,
    walk_json_path,
)

from conftest import json_response, minimal_spec_doc

REGRESSIONS = pathlib.Path(__file__).resolve().parent / "data" / "regressions"


# --- helpers ----------------------------------------------------------------------

def plan_dict(op, path_params=None, body=None, query=None, plan_id=1):
    """A plan as a run traces it (``RequestPlan.to_wire_dict``)."""
    plan = {"plan_id": plan_id, "operation": op, "body": body}
    if path_params:
        plan["path_params"] = path_params
    if query:
        plan["query"] = query
    return plan


def event(event_id, plan, status=200, body=None, findings=(),
          dispatch_epoch=None):
    """An event of a window-1 run unless ``dispatch_epoch`` says otherwise:
    its plan was generated once the ``event_id - 1`` exchanges before it
    completed."""
    return TraceEvent(event_id=event_id, plan=plan, status=status,
                      headers={"Content-Type": "application/json"},
                      body_json=body, findings=list(findings),
                      dispatch_epoch=event_id - 1 if dispatch_epoch is None
                      else dispatch_epoch)


def error_finding(kind="server-error-5xx", **kwargs):
    return Finding("error", kind, "boom", **kwargs)


def _no_ids(key):
    """An id predicate for events whose bodies are never projected."""
    return False


# --- sink & reading ------------------------------------------------------------------

def test_record_single_event(tmp_path):
    path = str(tmp_path / "t.jsonl")
    sink = TraceSink.to_path(path, {"note": "test"})
    sink.append(event(1, plan_dict("GET /books")))
    sink.close()
    lines = open(path).read().splitlines()
    assert len(lines) == 2  # header + one record
    header = json.loads(lines[0])
    assert header["trace_version"] == TRACE_VERSION and header["note"] == "test"


def test_record_thousand_events(tmp_path):
    path = str(tmp_path / "t.jsonl")
    sink = TraceSink.to_path(path, {})
    for i in range(1, 1001):
        sink.append(event(i, plan_dict("GET /books")))
    sink.close()
    header, events = read_trace(path)
    assert len(events) == 1000
    assert [e.event_id for e in events] == list(range(1, 1001))


def test_sink_write_error_on_failing_volume(tmp_path):
    class FullVolume:
        def write(self, data):
            raise OSError(28, "No space left on device")

        def flush(self):
            pass

        def close(self):
            pass

    with pytest.raises(SinkWriteError):
        TraceSink(FullVolume(), "x", {})


def test_trace_round_trip_preserves_events(tmp_path):
    path = str(tmp_path / "t.jsonl")
    sink = TraceSink.to_path(path, {})
    original = event(1, plan_dict("GET /books"),
                     status=500, body={"error": "x"},
                     findings=[error_finding(exchange_ref=1, observed=500)])
    sink.append(original)
    sink.close()
    _, events = read_trace(path)
    assert events == [original]


def _trace_with_two_events(path):
    sink = TraceSink.to_path(path, {})
    for eid in (1, 2):
        sink.append(event(eid, plan_dict("GET /books")))
    sink.close()


def test_read_trace_skips_a_torn_last_line(tmp_path):
    path = str(tmp_path / "t.jsonl")
    _trace_with_two_events(path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"event_id": 3, "plan": {"meth')  # write cut short
    with pytest.warns(UserWarning, match=r"t\.jsonl: skipped torn last line 4"):
        _, events = read_trace(path)
    assert [e.event_id for e in events] == [1, 2]


def test_read_trace_rejects_a_malformed_inner_line(tmp_path):
    path = str(tmp_path / "t.jsonl")
    _trace_with_two_events(path)
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    lines.insert(2, '{"event_id": 9, "pl\n')
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    with pytest.raises(ValueError, match="line 3"):
        read_trace(path)


def test_oversized_bodies_are_truncated():
    big = json.dumps({"data": "x" * 10000}).encode()
    result = HttpExchangeResult(status=200,
                                headers={"Content-Type": "application/json"},
                                body=big, json_body=json.loads(big))
    ev = make_trace_event(1, plan_dict("GET /books"),
                          result, [error_finding()], is_id_key=_no_ids)
    assert ev.body_json["__truncated__"] is True
    assert ev.body_json["bytes"] == len(big)
    assert len(ev.body_json["sha256"]) == 64


def test_non_utf8_bodies_are_base64():
    result = HttpExchangeResult(status=200, headers={}, body=b"\xff\xfe\x01")
    ev = make_trace_event(1, plan_dict("GET /x"), result,
                          [error_finding()], is_id_key=_no_ids)
    assert ev.body_b64 is not None and ev.body_json is None


HEADER_KEYS = ("resource", "crud_kind", "resource_id_fields",
               "declared_status_patterns")


def _with_header_keys(plan, model):
    """``plan`` in the older trace form, which repeats four header facts."""
    binding = next(b for b in model.bindings
                   if b.operation_id == plan["operation"])
    try:
        id_fields = model.resource(binding.resource).id_field_names
    except KeyError:
        id_fields = ()
    return {**plan, "resource": binding.resource,
            "crud_kind": binding.crud_kind,
            "resource_id_fields": list(id_fields),
            "declared_status_patterns": [
                p for p, _ in model.spec.operation(plan["operation"]).responses]}


def test_events_leave_out_what_the_header_gives(tmp_path, bookshop_ir,
                                                bookshop_model):
    """A seeded run's events carry none of the keys that follow from the
    operation and the header; a trace that still carries them yields the
    same script and predicate."""
    sampling = build_sampling_spec(bookshop_ir, bookshop_model)
    target = InProcessTarget(BookshopApp(toggles=["delete-customer-500"]))
    try:
        fuzzed = run(RunConfig(master_seed=1, max_requests=2000),
                     bookshop_model, sampling, target=target)
    finally:
        target.close()
    assert fuzzed.stop_reason == "error-detected"
    _, events = read_trace(fuzzed.trace_ref)
    os.unlink(fuzzed.trace_ref)
    assert not any(key in e.plan for e in events for key in HEADER_KEYS)

    path = str(tmp_path / "older.jsonl")
    sink = TraceSink.to_path(path, {})
    for e in events:
        sink.append(TraceEvent.from_dict(
            {**e.to_dict(), "plan": _with_header_keys(e.plan, bookshop_model)}))
    sink.close()
    _, older = read_trace(path)
    assert all(key in e.plan for e in older for key in HEADER_KEYS)

    assert expected_failure_for(older[-1], bookshop_ir) == \
        expected_failure_for(events[-1], bookshop_ir)
    script = bind_symbols(events, bookshop_model)
    assert script.bindings
    assert bind_symbols(older, bookshop_model).to_json() == script.to_json()


# --- json path walking ----------------------------------------------------------------

def test_walk_json_path():
    body = {"a": {"b": [10, {"c": "deep"}]}}
    assert walk_json_path(body, "$") == body
    assert walk_json_path(body, "$.a.b[0]") == 10
    assert walk_json_path(body, "$.a.b[1].c") == "deep"
    with pytest.raises(SymbolResolutionFailure):
        walk_json_path(body, "$.missing")
    with pytest.raises(SymbolResolutionFailure):
        walk_json_path(body, "$.a.b[9]")


# --- symbol binding ---------------------------------------------------------------------

def test_bind_symbols_create_then_get(bookshop_model):
    events = [
        event(1, plan_dict("POST /customers", body={"name": "Ada"}),
              status=201, body={"customerId": "c7", "name": "Ada"}),
        event(2, plan_dict("GET /customers/{customerId}",
                           path_params={"customerId": "c7"}),
              status=500, body={"error": "boom"},
              findings=[error_finding(observed=500)]),
    ]
    script = bind_symbols(events, bookshop_model)
    assert len(script.bindings) == 1
    binding = script.bindings[0]
    assert binding["variable"] == "$customer_id"
    assert binding["producer"] == [1, "$.customerId"]
    assert binding["producer_step"] == 0
    assert script.steps[1]["path_params"]["customerId"] == {"$sym": "$customer_id"}
    assert script.expected_failure["kind"] == "server-error-5xx"


def test_bind_symbols_no_cross_literals_means_no_bindings(bookshop_model):
    events = [
        event(1, plan_dict("GET /books"), status=200, body=[]),
        event(2, plan_dict("GET /customers/{customerId}",
                           path_params={"customerId": "z42"}),
              status=500, body={"error": "x"},
              findings=[error_finding()]),
    ]
    script = bind_symbols(events, bookshop_model)
    assert script.bindings == []
    assert script.steps[1]["path_params"]["customerId"] == "z42"


def _producer_of_c1(bookshop_model, producers, read_dispatch_epoch=None):
    """The producer the read of ``c1`` after ``producers`` binds to, each
    producer given as (operation, 2XX body)."""
    events = [event(i, plan_dict(op, plan_id=i), status=201, body=body)
              for i, (op, body) in enumerate(producers, start=1)]
    read = len(events) + 1
    events.append(event(read, plan_dict("GET /customers/{customerId}",
                                        path_params={"customerId": "c1"},
                                        plan_id=read),
                        status=500, body={"error": "x"},
                        findings=[error_finding()],
                        dispatch_epoch=read_dispatch_epoch))
    (binding,) = bind_symbols(events, bookshop_model).bindings
    return binding["producer"]


def test_bind_symbols_prefers_a_create_to_a_later_list_read(bookshop_model):
    """A list item's position holds only while every earlier item is
    replayed too, so the create wins although the list read is later."""
    assert _producer_of_c1(bookshop_model, [
        ("POST /customers", {"customerId": "c1"}),
        ("GET /customers", [{"customerId": "c0"}, {"customerId": "c1"}]),
    ]) == [1, "$.customerId"]


@pytest.mark.parametrize(("producers", "expected"), [
    ([("POST /customers", {"customerId": "c1"}),
      ("GET /customers/{customerId}", {"customerId": "c1"})],
     [2, "$.customerId"]),
    ([("GET /customers", [{"customerId": "c1"}]),
      ("GET /customers", [{"customerId": "c0"}, {"customerId": "c1"}])],
     [2, "$[1].customerId"]),
], ids=["two-outside-a-list", "two-list-reads"])
def test_bind_symbols_of_two_equals_binds_the_later(bookshop_model, producers,
                                                    expected):
    assert _producer_of_c1(bookshop_model, producers) == expected


def test_bind_symbols_binds_a_list_read_when_no_create_is_eligible(
        bookshop_model):
    """The create completed after the read was generated (window 2), so
    only the list read could have given the read its id."""
    assert _producer_of_c1(bookshop_model, [
        ("GET /customers", [{"customerId": "c1"}]),
        ("POST /customers", {"customerId": "c1"}),
    ], read_dispatch_epoch=1) == [1, "$[0].customerId"]


def test_producer_dependencies_maps_a_consumer_to_its_create(bookshop_model):
    events = [
        event(1, plan_dict("POST /customers"),
              status=201, body={"customerId": "c1"}),
        event(2, plan_dict("GET /customers"),
              status=200, body=[{"customerId": "c1"}]),
        event(3, plan_dict("GET /customers/{customerId}",
                           path_params={"customerId": "c1"}),
              status=500, body={"error": "x"}, findings=[error_finding()]),
    ]
    assert producer_dependencies(events, bookshop_model) == {3: {1}}


def test_a_subsequence_without_a_sibling_create_still_resolves(
        bookshop_model):
    """Bound to the list read, the read of ``c1`` would take the list's
    second item, and the list has one once ``c2``'s create is dropped."""
    events = [
        event(1, plan_dict("POST /customers", body={"name": "Ada"}, plan_id=1),
              status=201, body={"customerId": "c1"}),
        event(2, plan_dict("POST /customers", body={"name": "Bo"}, plan_id=2),
              status=201, body={"customerId": "c2"}),
        event(3, plan_dict("GET /customers", plan_id=3),
              body=[{"customerId": "c2"}, {"customerId": "c1"}]),
        event(4, plan_dict("GET /customers/{customerId}",
                           path_params={"customerId": "c1"}, plan_id=4),
              status=500, body={"error": "x"}, findings=[error_finding()]),
    ]
    script = bind_symbols([events[0], events[2], events[3]], bookshop_model)
    target = InProcessTarget(BookshopApp(randomize_ids=True))
    try:
        assert replay(script, target).outcome == "not-reproduced"
    finally:
        target.close()
    assert [b["producer"] for b in script.bindings] == [[1, "$.customerId"]]


def test_bind_symbols_skips_a_producer_that_completed_after_generation(
        bookshop_model):
    """Events as a window-2 run writes them: the read was generated once one
    exchange had completed, so the create, which completed second, cannot
    have given it its id."""
    create = plan_dict("POST /customers", body={"name": "Ada"}, plan_id=2)
    read = plan_dict("GET /customers/{customerId}",
                     path_params={"customerId": "c7"},
                     plan_id=3)

    def trace(read_dispatch_epoch):
        records = [
            event(1, plan_dict("GET /books"), body=[],
                  dispatch_epoch=0),
            event(2, create, status=201, body={"customerId": "c7"},
                  dispatch_epoch=0),
            event(3, read, status=500, body={"error": "x"},
                  findings=[error_finding()],
                  dispatch_epoch=read_dispatch_epoch)]
        return [TraceEvent.from_dict(e.to_dict()) for e in records]

    assert all("completion_epoch" not in e.to_dict() for e in trace(1))
    script = bind_symbols(trace(1), bookshop_model)
    assert script.bindings == []
    assert script.steps[2]["path_params"]["customerId"] == "c7"
    (binding,) = bind_symbols(trace(2), bookshop_model).bindings
    assert binding["producer"] == [2, "$.customerId"]


def test_bind_symbols_binds_body_array_elements(bookshop_model):
    events = [
        event(1, plan_dict("POST /books"),
              status=201, body={"bookId": "b3"}),
        event(2, plan_dict("POST /orders",
                           body={"customerId": "z1", "bookIds": ["b3"]}),
              status=500, body={"error": "x"},
              findings=[error_finding()]),
    ]
    script = bind_symbols(events, bookshop_model)
    (binding,) = script.bindings
    assert binding["variable"] == "$book_id"
    assert script.steps[1]["body"]["bookIds"] == [{"$sym": "$book_id"}]
    assert script.steps[1]["body"]["customerId"] == "z1"


def test_script_json_round_trip(bookshop_model):
    events = [
        event(1, plan_dict("POST /customers"),
              status=201, body={"customerId": "c7"}),
        event(2, plan_dict("DELETE /customers/{customerId}",
                           path_params={"customerId": "c7"}),
              status=500, body={"error": "x"},
              findings=[error_finding()]),
    ]
    script = bind_symbols(events, bookshop_model)
    reloaded = RecreateScript.from_json(script.to_json())
    assert reloaded.steps == script.steps
    assert reloaded.bindings == script.bindings
    assert reloaded.expected_failure == script.expected_failure


def test_script_validation_rejects_symbol_before_producer():
    script = RecreateScript(
        steps=[{"step": 0, "method": "GET",
                "path_template": "/customers/{customerId}",
                "path_params": {"customerId": {"$sym": "$customer_id"}},
                "query": {}, "headers": {}, "body": None}],
        bindings=[{"variable": "$customer_id", "producer": [2, "$.customerId"],
                   "producer_step": 0, "consumers": [[1, "path.customerId"]]}],
        expected_failure={"kind": "server-error-5xx", "status_class": "5XX"})
    with pytest.raises(ValueError):
        script.validate()
    with pytest.raises(ValueError):
        RecreateScript.from_json(json.dumps(
            {"script_version": 99, "steps": [], "bindings": [],
             "expected_failure": {}}))


def test_schema_predicate_takes_the_response_the_checker_matched():
    """``default`` and ``2XX`` declared before ``200``: the checker validates
    a 200 against the exact code, so the predicate carries that schema."""
    item = {"type": "object", "required": ["thingId"],
            "properties": {"thingId": {"type": "string"}}}
    error = {"type": "object", "properties": {"message": {"type": "string"}}}
    ir = load_spec(minimal_spec_doc({"/things/{thingId}": {"get": {
        "parameters": [{"name": "thingId", "in": "path", "required": True,
                        "schema": {"type": "string"}}],
        "responses": {"default": json_response(error),
                      "2XX": json_response(error),
                      "200": json_response(item)}}}}))
    failing = event(1, plan_dict("GET /things/{thingId}",
                                 path_params={"thingId": "t1"}),
                    status=200, body={},
                    findings=[error_finding("schema-violation",
                                            json_path="$.thingId",
                                            constraint="required")])
    predicate = expected_failure_for(failing, ir)
    assert predicate["schema"] == _schema_jsonable(
        dict(ir.operation("GET /things/{thingId}").responses)["200"].body_schema)
    assert predicate["schema"]["required_fields"] == ["thingId"]


class _FixedStatusApp:
    """Answers every request with one status, ``headers`` and ``body``."""

    def __init__(self, status, headers=None, body=b""):
        self.status, self.headers, self.body = status, headers or {}, body

    def handle(self, method, path, query="", headers=None, body=b""):
        return self.status, self.headers, self.body


def test_undefined_status_predicate_comes_from_the_finding():
    """An undeclared status replays from the declared patterns the checker
    recorded, whether or not the plan carries them."""
    ir = load_spec(minimal_spec_doc({"/things": {"get": {"responses": {
        "200": json_response({"type": "array"}),
        "4XX": {"description": "rejected"}}}}}))
    model = infer_model(ir)
    target = InProcessTarget(_FixedStatusApp(302))
    try:
        fuzzed = run(RunConfig(master_seed=1, max_requests=5), model,
                     build_sampling_spec(ir, model), target=target)
    finally:
        target.close()
    _, events = read_trace(fuzzed.trace_ref)
    os.unlink(fuzzed.trace_ref)
    failing = events[-1]
    assert failing.status == 302
    assert "declared_status_patterns" not in failing.plan

    expected = {"kind": "undefined-status", "status_not_in": ["200", "4XX"]}
    assert expected_failure_for(failing, ir) == expected
    older = TraceEvent.from_dict({**failing.to_dict(),
                                  "plan": _with_header_keys(failing.plan, model)})
    assert expected_failure_for(older, ir) == expected

    script = bind_symbols([failing], model)
    assert script.max_in_flight == 1
    for status, outcome in ((302, "reproduced"), (200, "not-reproduced"),
                            (404, "not-reproduced")):
        target = InProcessTarget(_FixedStatusApp(status))
        try:
            assert replay(script, target).outcome == outcome, status
        finally:
            target.close()


# --- replay -----------------------------------------------------------------------------

def _two_step_script(bookshop_model):
    events = [
        event(1, plan_dict("POST /customers", body={"name": "Ada"}),
              status=201, body={"customerId": "c1", "name": "Ada"}),
        event(2, plan_dict("DELETE /customers/{customerId}",
                           path_params={"customerId": "c1"}),
              status=500, body={"error": "boom"},
              findings=[error_finding(observed=500)]),
    ]
    return bind_symbols(events, bookshop_model)


def test_replay_reproduces_on_fresh_fixture_with_random_ids(bookshop_model):
    script = _two_step_script(bookshop_model)
    target = InProcessTarget(BookshopApp(toggles=["delete-customer-500"],
                                         randomize_ids=True))
    outcome = replay(script, target)
    target.close()
    assert outcome.outcome == "reproduced"
    assert outcome.exit_code == 0


def _independent_reads(window, attempts):
    """Three reads that bind nothing, and a failure they never show."""
    return RecreateScript(
        max_in_flight=window, attempts=attempts,
        steps=[{"step": i, "method": "GET", "path_template": "/customers",
                "path_params": {}, "query": {}, "headers": {}, "body": None}
               for i in range(3)],
        bindings=[],
        expected_failure={"kind": "server-error-5xx", "status_class": "5XX"})


def test_window_one_replay_sends_each_step_after_the_last_is_answered(
        monkeypatch):
    log = []
    real_send = Dispatcher.send

    def send(self, tag, fn, *args):
        log.append(("sent", tag))
        real_send(self, tag, fn, *args)

    def slow_execute(plan, target, timeout):
        time.sleep(0.02)  # a step sent early would be sent by now
        result = execute(plan, target, timeout)
        log.append(("answered", plan.concrete_url))
        return result

    monkeypatch.setattr(Dispatcher, "send", send)
    monkeypatch.setattr(trace_recreate, "execute", slow_execute)
    target = InProcessTarget(BookshopApp())
    try:
        outcome = replay(_independent_reads(1, 1), target)
    finally:
        target.close()
    assert outcome.outcome == "not-reproduced"
    assert log == [entry for i in range(3)
                   for entry in (("sent", i), ("answered", "/customers"))]


def test_a_window_eight_replay_starts_at_most_eight_threads(monkeypatch):
    started = []
    real_start = threading.Thread.start

    def start(self):
        started.append(self.name)
        real_start(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    target = InProcessTarget(BookshopApp())
    try:
        outcome = replay(_independent_reads(8, 20), target)
    finally:
        target.close()
    assert outcome.attempts_used == 20
    assert len(started) <= 8, started


class _SlowProducerLog:
    """``POST /customers`` answers after a pause; every request logs when
    it was sent and when it was answered."""

    def __init__(self):
        self.log = []
        self._lock = threading.Lock()

    def request(self, method, url_path, headers, body, timeout):
        with self._lock:
            self.log.append(("sent", method, url_path))
        if method == "POST":
            time.sleep(0.05)
            status, doc = 201, {"customerId": "c77", "name": "Ada"}
        else:
            status, doc = 500, {"error": "x"}
        with self._lock:
            self.log.append(("answered", method, url_path))
        return status, {"Content-Type": "application/json"}, \
            json.dumps(doc).encode()


def test_window_two_collects_a_producer_before_sending_its_consumers(
        bookshop_model):
    read = "GET /customers/{customerId}"
    events = [
        event(1, plan_dict("POST /customers", body={"name": "Ada"}, plan_id=1),
              status=201, body={"customerId": "c1", "name": "Ada"}),
        event(2, plan_dict(read, path_params={"customerId": "c1"}, plan_id=2),
              status=200),
        event(3, plan_dict(read, path_params={"customerId": "c1"}, plan_id=3),
              status=500, body={"error": "x"}, findings=[error_finding()]),
    ]
    script = bind_symbols(events, bookshop_model, max_in_flight=2, attempts=1)
    (binding,) = script.bindings
    marker = {"$sym": binding["variable"]}
    assert [step["path_params"] for step in script.steps[1:]] \
        == [{"customerId": marker}] * 2
    target = _SlowProducerLog()
    assert replay(script, target).outcome == "reproduced"
    answered = target.log.index(("answered", "POST", "/customers"))
    consumers = [i for i, entry in enumerate(target.log)
                 if entry == ("sent", "GET", "/customers/c77")]
    assert len(consumers) == 2
    assert answered < min(consumers)


def test_replay_sends_the_url_the_fuzz_run_sent(monkeypatch):
    """Booleans, null and list query values render the same on replay as
    in the generator: ``true``/``false``, the empty string, repeated keys."""
    def query(name, schema):
        return {"name": name, "in": "query", "schema": schema}

    ir = load_spec(minimal_spec_doc({"/things/{thingId}": {"get": {
        "parameters": [
            {"name": "thingId", "in": "path", "required": True,
             "schema": {"type": "string"}},
            query("flag", {"type": "boolean"}),
            query("off", {"type": "boolean"}),
            query("note", {"type": "string", "nullable": True}),
            query("tags", {"type": "array", "items": {"type": "string"}}),
        ],
        "responses": {"200": json_response({"type": "object"})}}}}))
    model = infer_model(ir)
    values = {"thingId": "a b", "flag": True, "off": False, "note": None,
              "tags": ["x", True, None]}
    op = model.operation_def(model.bindings[0])
    drawn = iter([values[p.name] for p in op.parameters])
    monkeypatch.setattr(generator, "sample_value",
                        lambda domain, store, rng: SampledValue(next(drawn),
                                                                TAG_VALID))
    plan = generate_request(model, build_sampling_spec(ir, model),
                            StateStore(), Random(0))
    assert plan.concrete_url == ("/things/a%20b?flag=true&off=false&note="
                                 "&tags=x&tags=true&tags=")

    class Recorder:
        def __init__(self):
            self.urls = []

        def request(self, method, url_path, headers, body, timeout):
            self.urls.append(url_path)
            return 200, {}, b""

    ok = HttpExchangeResult(status=200)
    trace = [make_trace_event(1, plan.to_wire_dict(), ok, [],
                              is_id_key=_no_ids)]
    script = bind_symbols(trace, model, expected_failure={"status_class": "5XX"})
    recorder = Recorder()
    replay(script, recorder)
    assert recorder.urls == [plan.concrete_url]


_WIDGET = {"type": "object", "properties": {
    "widgetId": {"type": "string"},
    "name": {"type": "string", "maxLength": 12},
    "price": {"type": "number", "minimum": 0, "maximum": 1000},
    "quantity": {"type": "integer", "minimum": 0, "maximum": 50},
    "weight": {"type": "number", "nullable": True},
    "dims": {"type": "array", "items": {"type": "number"}, "maxItems": 3},
}}
_WIDGET_IN = {"type": "object", "required": ["name", "price"], "properties": {
    k: v for k, v in _WIDGET["properties"].items() if k != "widgetId"}}


def _widget_spec():
    def param(name, where, schema, required=False):
        return {"name": name, "in": where, "schema": schema,
                "required": required}

    widget_id = param("widgetId", "path", {"type": "string"}, True)
    priority = param("X-Priority", "header", {"type": "integer", "minimum": 1,
                                              "maximum": 9})
    return load_spec(minimal_spec_doc({
        "/widgets": {
            "get": {"operationId": "listWidgets", "parameters": [
                param("active", "query", {"type": "boolean"}),
                param("minPrice", "query", {"type": "number",
                                            "nullable": True}),
                param("tag", "query", {"type": "array",
                                       "items": {"type": "string"}}),
                priority],
                "responses": {"200": json_response(
                    {"type": "array", "items": _WIDGET})}},
            "post": {"operationId": "createWidget", "parameters": [priority],
                     "requestBody": {"content": {"application/json": {
                         "schema": _WIDGET_IN}}},
                     "responses": {"201": json_response(_WIDGET),
                                   "400": {"description": "bad"}}}},
        "/widgets/{widgetId}": {
            "get": {"operationId": "getWidget", "parameters": [widget_id],
                    "responses": {"200": json_response(_WIDGET),
                                  "404": {"description": "gone"}}},
            "put": {"operationId": "updateWidget",
                    "parameters": [widget_id, priority],
                    "requestBody": {"content": {"application/json": {
                        "schema": _WIDGET_IN}}},
                    "responses": {"200": json_response(_WIDGET),
                                  "400": {"description": "bad"},
                                  "404": {"description": "gone"}}},
            "delete": {"operationId": "deleteWidget",
                       "parameters": [widget_id],
                       "responses": {"204": {"description": "done"},
                                     "404": {"description": "gone"}}}},
    }))


class _WidgetRecorder:
    """A widget store with sequential ids that records every request it
    gets, as received: method, path, query, headers in order, body."""

    def __init__(self):
        self.widgets = {}
        self.created = 0
        self.requests = []

    def handle(self, method, path, query="", headers=None, body=b""):
        if path == "/":  # the run's reachability probe
            return 200, {}, b""
        self.requests.append((method, path, query,
                              list((headers or {}).items()), body))
        parts = path.strip("/").split("/")
        try:
            doc = json.loads(body) if body else None
        except ValueError:
            doc = None
        if len(parts) == 1 and method == "GET":
            return self._reply(200, list(self.widgets.values()))
        if len(parts) == 1 and method == "POST":
            if not isinstance(doc, dict):
                return self._reply(400, {"error": "not an object"})
            self.created += 1
            widget_id = f"w{self.created}"
            self.widgets[widget_id] = {**doc, "widgetId": widget_id}
            return self._reply(201, self.widgets[widget_id])
        widget = self.widgets.get(parts[1])
        if widget is None:
            return self._reply(404, {"error": "no such widget"})
        if method == "DELETE":
            del self.widgets[parts[1]]
            return 204, {}, b""
        if method == "PUT":
            if not isinstance(doc, dict):
                return self._reply(400, {"error": "not an object"})
            widget.update(doc, widgetId=parts[1])
        return self._reply(200, widget)

    @staticmethod
    def _reply(status, doc):
        return (status, {"Content-Type": "application/json"},
                json.dumps(doc).encode())


def test_replay_sends_every_request_the_fuzz_run_sent():
    """A full recreate script, replayed at window 1, sends each request of
    the fuzz run byte for byte: query booleans, nulls and lists, headers,
    and JSON bodies with numbers, with ids bound to their producers."""
    ir = _widget_spec()
    model = infer_model(ir)
    fuzzed = _WidgetRecorder()
    target = InProcessTarget(fuzzed)
    try:
        result = run(RunConfig(master_seed=5, max_requests=300,
                               stop_on_error=False),
                     model, build_sampling_spec(ir, model), target=target)
    finally:
        target.close()
    _, events = read_trace(result.trace_ref)
    os.unlink(result.trace_ref)
    script = bind_symbols(events, model,
                          expected_failure={"status_class": "5XX"})
    replayed = _WidgetRecorder()
    target = InProcessTarget(replayed)
    try:
        replay(script, target)
    finally:
        target.close()

    sent = fuzzed.requests
    assert len(sent) == 300
    # the run drew what this test is about
    queries = [q for _, _, q, _, _ in sent]
    assert any("active=true" in q for q in queries)
    assert any("active=false" in q for q in queries)
    assert any("minPrice=&" in q or q.endswith("minPrice=") for q in queries)
    assert any(q.count("tag=") > 1 for q in queries)
    assert any(name == "X-Priority" for _, _, _, hs, _ in sent
               for name, _ in hs)
    assert any(b"." in body for *_, body in sent if body)
    assert script.bindings
    for i, (fuzz_request, replayed_request) in enumerate(
            zip(sent, replayed.requests)):
        assert replayed_request == fuzz_request, f"request {i}"
    assert len(replayed.requests) == len(sent)


def test_replay_deterministic_ten_of_ten_for_non_race_bug(bookshop_model):
    script = _two_step_script(bookshop_model)
    reproduced = 0
    for _ in range(10):
        target = InProcessTarget(BookshopApp(toggles=["delete-customer-500"],
                                             randomize_ids=True))
        if replay(script, target).outcome == "reproduced":
            reproduced += 1
        target.close()
    assert reproduced == 10


def test_replay_not_reproduced_when_bug_fixed(bookshop_model):
    script = _two_step_script(bookshop_model)
    target = InProcessTarget(BookshopApp(randomize_ids=True))
    outcome = replay(script, target)
    target.close()
    assert outcome.outcome == "not-reproduced"
    assert outcome.exit_code == 1


def _kept_predicate(bug):
    """The ``expected_failure`` of the bug's kept recreate script."""
    doc = json.loads((REGRESSIONS / f"{bug}.json").read_text())
    return doc["expected_failure"]


@pytest.mark.parametrize("toggles, window, outcome", [
    ([], 1, "not-reproduced"),
    ([], 2, "not-reproduced"),
    (["schema-null-timestamp"], 2, "reproduced"),
], ids=["clean-window-1", "clean-window-2", "bug-window-2"])
def test_a_schema_predicate_ignores_an_empty_answer_the_checker_passes(
        bookshop_model, toggles, window, outcome):
    """Against the predicate's schema the body check flags the DELETE's
    empty 204 as ``required`` at ``$``, which a predicate for a null
    ``creationTimestamp`` does not match; above window 1 the create's
    answer is judged too."""
    script = _two_step_script(bookshop_model)
    script.expected_failure = _kept_predicate("schema-null-timestamp")
    script.max_in_flight = window
    target = InProcessTarget(BookshopApp(toggles=toggles))
    try:
        assert replay(script, target).outcome == outcome
    finally:
        target.close()


@pytest.mark.parametrize("content_type, body, outcome", [
    ("text/plain", b"not json", "not-reproduced"),
    ("application/json", b"", "reproduced"),
    ("application/json", b"{not json", "reproduced"),
], ids=["text-plain", "empty-json", "malformed-json"])
def test_a_schema_predicate_matches_what_the_checker_flags(
        bookshop_model, content_type, body, outcome):
    """With no constraint or field, a schema predicate matches any error
    the checker's body check flags: an empty or malformed JSON body, but
    never a body that is not JSON."""
    predicate = _kept_predicate("schema-null-timestamp")
    del predicate["constraint"], predicate["field"]
    script = bind_symbols(
        [event(1, plan_dict("GET /customers/{customerId}",
                            path_params={"customerId": "c1"}),
               findings=[error_finding("schema-violation")])],
        bookshop_model, expected_failure=predicate)
    target = InProcessTarget(_FixedStatusApp(
        200, {"Content-Type": content_type}, body))
    try:
        assert replay(script, target).outcome == outcome
    finally:
        target.close()


def test_replay_symbol_resolution_failure_when_producer_fails(bookshop_model):
    # the producer create is invalid (empty name), so it 400s and never
    # yields $customer_id
    events = [
        event(1, plan_dict("POST /customers", body={"name": "Ada"}),
              status=201, body={"customerId": "c1"}),
        event(2, plan_dict("GET /customers/{customerId}",
                           path_params={"customerId": "c1"}),
              status=500, body={"error": "x"},
              findings=[error_finding()]),
    ]
    script = bind_symbols(events, bookshop_model)
    script.steps[0]["body"] = {"name": ""}  # force the producer to fail
    target = InProcessTarget(BookshopApp())
    with pytest.raises(SymbolResolutionFailure):
        replay(script, target)
    target.close()


class _FlakyListBookshop:
    """``GET /books`` lists nothing on the first call, as when a concurrent
    create has not landed yet, and the book afterwards; ``GET /books/b1``
    answers 500."""

    def __init__(self):
        self.lists = 0

    def request(self, method, url_path, headers, body, timeout):
        json_headers = {"Content-Type": "application/json"}
        if url_path == "/books":
            self.lists += 1
            books = [] if self.lists == 1 else [{"bookId": "b1"}]
            return 200, json_headers, json.dumps(books).encode()
        return 500, json_headers, b'{"error": "x"}'


def _list_then_read_events():
    return [
        event(1, plan_dict("GET /books"),
              status=200, body=[{"bookId": "b1"}]),
        event(2, plan_dict("GET /books/{bookId}",
                           path_params={"bookId": "b1"}),
              status=500, body={"error": "x"}, findings=[error_finding()]),
    ]


def test_concurrent_replay_retries_an_attempt_whose_symbol_did_not_resolve(
        bookshop_model):
    script = bind_symbols(_list_then_read_events(), bookshop_model,
                          max_in_flight=2, attempts=3)
    assert script.bindings, "the read was not bound to the list's book"
    outcome = replay(script, _FlakyListBookshop())
    assert outcome.outcome == "reproduced"
    assert outcome.attempts_used == 2


def test_concurrent_replay_raises_when_no_attempt_resolves(bookshop_model):
    script = bind_symbols(_list_then_read_events(), bookshop_model,
                          max_in_flight=2, attempts=1)
    with pytest.raises(SymbolResolutionFailure):
        replay(script, _FlakyListBookshop())


def test_a_concurrent_producer_that_fails_as_expected_reproduces(
        bookshop_model):
    """Above window 1 any answer counts, also the 5XX of a producer that
    therefore yields no id for its consumer."""
    events = [
        event(1, plan_dict("POST /orders", body={"customerId": "c1"}),
              status=201, body={"orderId": "o1", "customerId": "c1"}),
        event(2, plan_dict("GET /customers/{customerId}",
                           path_params={"customerId": "c1"}),
              status=500, body={"error": "x"}, findings=[error_finding()]),
    ]
    script = bind_symbols(events, bookshop_model, max_in_flight=2, attempts=1)
    assert [b["producer"] for b in script.bindings] == [[1, "$.customerId"]]

    class AlwaysFails:
        def request(self, method, url_path, headers, body, timeout):
            return 500, {"Content-Type": "application/json"}, b'{"error":"x"}'

    outcome = replay(script, AlwaysFails())
    assert outcome.outcome == "reproduced"
    assert outcome.attempts_used == 1


def test_the_window_sets_the_default_attempts(bookshop_model):
    events = _list_then_read_events()
    assert bind_symbols(events, bookshop_model).attempts == 1
    assert bind_symbols(events, bookshop_model,
                        max_in_flight=2).attempts == DEFAULT_RACE_ATTEMPTS


def test_script_json_has_no_mode_key(bookshop_model):
    script = bind_symbols(_list_then_read_events(), bookshop_model,
                          max_in_flight=2)
    doc = json.loads(script.to_json())
    assert "mode" not in doc
    assert doc["max_in_flight"] == 2
    assert doc["script_version"] == 1


def _older_script_document(script, mode):
    """The same script as older writers emitted it, with a ``mode`` key."""
    doc = json.loads(script.to_json())
    doc["mode"] = mode
    return json.dumps(doc)


def test_older_concurrent_script_replays_at_its_window(bookshop_model):
    script = bind_symbols(_list_then_read_events(), bookshop_model,
                          max_in_flight=2, attempts=3)
    loaded = RecreateScript.from_json(
        _older_script_document(script, "concurrent"))
    assert loaded.max_in_flight == 2 and loaded.attempts == 3
    # concurrent replay: the unresolved first attempt only fails that attempt
    outcome = replay(loaded, _FlakyListBookshop())
    assert outcome.outcome == "reproduced"
    assert outcome.attempts_used == 2


def test_older_sequential_script_replays_at_its_window(bookshop_model):
    script = bind_symbols(_list_then_read_events(), bookshop_model,
                          attempts=3)
    loaded = RecreateScript.from_json(
        _older_script_document(script, "sequential"))
    assert loaded.max_in_flight == 1 and loaded.attempts == 3
    # sequential replay: the unresolved symbol ends the replay at once
    target = _FlakyListBookshop()
    with pytest.raises(SymbolResolutionFailure):
        replay(loaded, target)
    assert target.lists == 1
    assert replay(loaded, target).outcome == "reproduced"


def test_concurrent_replay_reproduces_race(bookshop_model):
    """Hand-built script: two orders race on the same low-stock book."""
    order_body = {"customerId": {"$sym": "$customer_id"},
                  "bookIds": [{"$sym": "$book_id"}]}
    script = RecreateScript(
        max_in_flight=2, attempts=20,
        steps=[
            {"step": 0, "method": "POST", "path_template": "/authors",
             "path_params": {}, "query": {}, "headers": {},
             "body": {"name": "Ada"}},
            {"step": 1, "method": "POST", "path_template": "/books",
             "path_params": {}, "query": {}, "headers": {},
             "body": {"title": "T", "authorId": {"$sym": "$author_id"},
                      "inventory": 2}},
            {"step": 2, "method": "POST", "path_template": "/customers",
             "path_params": {}, "query": {}, "headers": {},
             "body": {"name": "Bo"}},
            {"step": 3, "method": "POST", "path_template": "/orders",
             "path_params": {}, "query": {}, "headers": {},
             "body": order_body},
            {"step": 4, "method": "POST", "path_template": "/orders",
             "path_params": {}, "query": {}, "headers": {},
             "body": order_body},
        ],
        bindings=[
            {"variable": "$author_id", "producer": [1, "$.authorId"],
             "producer_step": 0, "consumers": [[2, "body.authorId"]]},
            {"variable": "$book_id", "producer": [2, "$.bookId"],
             "producer_step": 1, "consumers": [[4, "body.bookIds[0]"],
                                               [5, "body.bookIds[0]"]]},
            {"variable": "$customer_id", "producer": [3, "$.customerId"],
             "producer_step": 2, "consumers": [[4, "body.customerId"],
                                               [5, "body.customerId"]]},
        ],
        expected_failure={"kind": "server-error-5xx", "status_class": "5XX"})
    script.validate()

    buggy = InProcessTarget(BookshopApp(toggles=["inventory-lost-update"]))
    outcome = replay(script, buggy)
    buggy.close()
    assert outcome.outcome == "reproduced"

    clean = InProcessTarget(BookshopApp())
    outcome = replay(script, clean, attempts=5)
    clean.close()
    assert outcome.outcome == "not-reproduced"


# --- minimization -------------------------------------------------------------------------

def test_minimize_already_minimal_trace_unchanged(bookshop_model):
    events = [
        event(1, plan_dict("GET /customers/{customerId}",
                           path_params={"customerId": "z9"}),
              status=500, body={"error": "x"},
              findings=[error_finding(exchange_ref=1)]),
    ]
    expected = expected_failure_for(events[0], None)
    oracle = build_replay_oracle(
        bookshop_model, expected,
        lambda: InProcessTarget(BookshopApp(
            toggles=["get-missing-customer-500"])))
    result = minimize(events, 1, oracle)
    assert [e.event_id for e in result.events] == [1]
    assert result.proven_minimal


def test_minimize_flaky_failure_raises_not_reproducible(bookshop_model):
    events = [
        event(1, plan_dict("GET /customers/{customerId}",
                           path_params={"customerId": "z9"}),
              status=500, body={"error": "x"},
              findings=[error_finding()]),
    ]
    calls = []

    def never_reproduces(candidate):
        calls.append(len(candidate))
        return False

    with pytest.raises(NotReproducible):
        minimize(events, 1, never_reproduces)
    assert len(calls) == 3  # 0/3 replays of the full prefix


@pytest.mark.parametrize("budget", [0, 2])
def test_a_budget_spent_on_the_full_prefix_is_not_reproducible(budget):
    """A budget that runs out before the full prefix reproduced raises
    :class:`NotReproducible`, after spending just that budget."""
    events = [event(1, plan_dict("GET /boom"), status=500,
                    findings=[error_finding()])]
    calls = []

    def never_reproduces(candidate):
        calls.append(len(candidate))
        return False

    with pytest.raises(NotReproducible,
                       match=f"did not reproduce in {budget} replays"):
        minimize(events, 1, never_reproduces, max_oracle_calls=budget)
    assert len(calls) == budget


def test_minimize_missing_event_raises(bookshop_model):
    with pytest.raises(ValueError):
        minimize([], 5, lambda e: True)


def test_minimize_budget_exhaustion_returns_best_so_far():
    plans = [plan_dict(f"GET /x{i}") for i in range(12)]
    events = [event(i + 1, p) for i, p in enumerate(plans)]
    events.append(event(13, plan_dict("GET /boom"),
                        status=500, findings=[error_finding()]))

    def oracle(candidate):  # failure needs event 13 only
        return any(e.event_id == 13 for e in candidate)

    result = minimize(events, 13, oracle, max_oracle_calls=3)
    assert not result.proven_minimal
    assert result.oracle_calls == 3
    assert any(e.event_id == 13 for e in result.events)


def test_minimize_keeps_only_required_chain():
    # failure reproduces iff events 3 (producer) and 13 (failing) are present
    events = [event(i, plan_dict(f"GET /pad{i}"))
              for i in range(1, 13)]
    events.append(event(13, plan_dict("GET /boom"),
                        status=500, findings=[error_finding()]))

    def oracle(candidate):
        ids = {e.event_id for e in candidate}
        return 13 in ids and 3 in ids

    result = minimize(events, 13, oracle)
    assert {e.event_id for e in result.events} == {3, 13}
    assert result.proven_minimal
    # exhaustive single-removal holds by construction of the oracle
    for eid in (3,):
        assert not oracle([e for e in result.events if e.event_id != eid])


def test_minimize_cascades_consumers_of_removed_producers():
    # dependency: 2 consumes 1; failing event 3 is independent
    events = [
        event(1, plan_dict("POST /customers"),
              status=201, body={"customerId": "c1"}),
        event(2, plan_dict("GET /customers/{customerId}",
                           path_params={"customerId": "c1"}),
              status=200, body={"customerId": "c1"}),
        event(3, plan_dict("GET /boom"), status=500,
              findings=[error_finding()]),
    ]
    deps = {2: {1}}
    tested = []

    def oracle(candidate):
        tested.append(tuple(e.event_id for e in candidate))
        return any(e.event_id == 3 for e in candidate)

    result = minimize(events, 3, oracle, dependencies=deps)
    assert [e.event_id for e in result.events] == [3]
    # no candidate may contain 2 without 1
    for ids in tested:
        if 2 in ids:
            assert 1 in ids


def test_producer_dependencies_from_trace(bookshop_model):
    events = [
        event(1, plan_dict("POST /customers"),
              status=201, body={"customerId": "c1"}),
        event(2, plan_dict("DELETE /customers/{customerId}",
                           path_params={"customerId": "c1"}),
              status=204),
    ]
    deps = producer_dependencies(events, bookshop_model)
    assert deps == {2: {1}}


def test_minimize_end_to_end_on_seeded_bug(bookshop_ir, bookshop_model):
    """Fuzz with the delete bug, then reduce the failure to create+delete."""
    sampling = build_sampling_spec(bookshop_ir, bookshop_model)
    config = RunConfig(master_seed=1, duration_limit=60.0, stop_on_error=True)
    target = InProcessTarget(BookshopApp(toggles=["delete-customer-500"]))
    fuzzed = run(config, bookshop_model, sampling, target=target)
    target.close()
    assert fuzzed.verdict == "failed"
    _, events = read_trace(fuzzed.trace_ref)
    os.unlink(fuzzed.trace_ref)
    failing = events[-1]
    assert any(f.kind == "server-error-5xx" for f in failing.findings)

    expected = expected_failure_for(failing, bookshop_ir)
    deps = producer_dependencies(events, bookshop_model)
    oracle = build_replay_oracle(
        bookshop_model, expected,
        lambda: InProcessTarget(BookshopApp(toggles=["delete-customer-500"],
                                            randomize_ids=True)))
    result = minimize(events, failing.event_id, oracle, deps)
    assert len(result.events) == 2  # create customer + delete it
    ops = [e.plan["operation"] for e in result.events]
    assert ops == ["POST /customers", "DELETE /customers/{customerId}"]
    assert result.oracle_calls <= 500

    script = bind_symbols(result.events, bookshop_model, expected)
    assert [b["variable"] for b in script.bindings] == ["$customer_id"]

    on = replay(script, InProcessTarget(
        BookshopApp(toggles=["delete-customer-500"], randomize_ids=True)))
    off = replay(script, InProcessTarget(BookshopApp(randomize_ids=True)))
    assert on.outcome == "reproduced"
    assert off.outcome == "not-reproduced"


def test_a_sequential_shrink_binds_to_creates_and_stays_cheap(
        bookshop_ir, bookshop_model):
    """The 300-request trace the benchmark shrinks for this bug: bound to
    its create rather than to a list position, a consumer leaves with it,
    so ddmin drops sibling creates and ends at create + delete."""
    bug = "delete-customer-500"
    sampling = build_sampling_spec(bookshop_ir, bookshop_model)
    config = RunConfig(mode="sequential", master_seed=1, max_requests=300,
                       stop_on_error=False)
    target = InProcessTarget(BookshopApp(toggles=[bug]))
    fuzzed = run(config, bookshop_model, sampling, target=target)
    target.close()
    _, events = read_trace(fuzzed.trace_ref)
    os.unlink(fuzzed.trace_ref)
    failing = [e for e in events
               if any(f.grade == "error" for f in e.findings)][-1]
    prefix = [e for e in events if e.event_id <= failing.event_id]

    oracle = build_replay_oracle(
        bookshop_model, expected_failure_for(failing, bookshop_ir),
        lambda: InProcessTarget(BookshopApp(toggles=[bug],
                                            randomize_ids=True)))
    result = minimize(prefix, failing.event_id, oracle,
                      producer_dependencies(prefix, bookshop_model))
    assert len(result.events) == 2
    assert result.proven_minimal
    assert result.oracle_calls <= 10


def test_minimize_race_trace_in_concurrent_mode(bookshop_ir, bookshop_model):
    """Concurrent race failure: minimize with dispatch order preserved.

    The oracle replays candidates in concurrent mode (same window) and treats
    one reproduction in a handful of attempts as reproduced, so the
    minimization tolerates the probabilistic nature of the race.
    """
    from apifuzz.sampling import WeightTable

    weights = WeightTable(per_operation={"POST /orders": 40.0,
                                         "POST /books": 0.3,
                                         "POST /authors": 0.1,
                                         "POST /customers": 0.1,
                                         "DELETE /books/{bookId}": 0.1})
    sampling = build_sampling_spec(bookshop_ir, bookshop_model, weights)
    trace = None
    for seed in range(1, 8):
        config = RunConfig(mode="concurrent", max_in_flight=8,
                           master_seed=seed, duration_limit=30.0,
                           stop_on_error=True)
        target = InProcessTarget(
            BookshopApp(toggles=["inventory-lost-update"]))
        fuzzed = run(config, bookshop_model, sampling, target=target)
        target.close()
        _, events = read_trace(fuzzed.trace_ref)
        os.unlink(fuzzed.trace_ref)
        if fuzzed.verdict == "failed" and len(events) <= 400:
            trace = events
            break
    assert trace is not None, "race did not fire within 7 seeds"

    failing = next(e for e in reversed(trace)
                   if any(f.kind == "server-error-5xx" for f in e.findings))
    expected = expected_failure_for(failing, bookshop_ir)
    prefix = [e for e in trace if e.event_id <= failing.event_id]
    deps = producer_dependencies(prefix, bookshop_model)
    oracle = build_replay_oracle(
        bookshop_model, expected,
        lambda: InProcessTarget(BookshopApp(toggles=["inventory-lost-update"],
                                            randomize_ids=True)),
        max_in_flight=8, attempts=5)
    result = minimize(prefix, failing.event_id, oracle, deps,
                      max_oracle_calls=200)
    assert result.oracle_calls <= 200
    assert len(result.events) < len(prefix)

    script = bind_symbols(result.events, bookshop_model, expected,
                          max_in_flight=8, attempts=20)
    # steps must follow dispatch order (plan ids), not completion order
    plan_ids = [s["source_event"] for s in script.steps]
    dispatch = [e.plan["plan_id"] for e in sorted(result.events,
                                                  key=lambda e: e.plan["plan_id"])]
    assert [e.event_id for e in sorted(result.events,
                                       key=lambda e: e.plan["plan_id"])] == plan_ids
    assert dispatch == sorted(dispatch)

    target = InProcessTarget(BookshopApp(toggles=["inventory-lost-update"],
                                         randomize_ids=True))
    outcome = replay(script, target)
    target.close()
    assert outcome.outcome == "reproduced"


# --- run-length estimation --------------------------------------------------------------------

def test_estimate_single_operation():
    assert estimate_run_length(1, 0.5) == 1
    assert estimate_run_length(1, 1e-9) == 1


@pytest.mark.parametrize(("k", "eps"), [(2, 0.1), (5, 0.01), (10, 1e-3),
                                        (10, 1e-4), (50, 1e-2)])
def test_estimate_is_smallest_n_satisfying_bound(k, eps):
    n = estimate_run_length(k, eps)
    assert k * (1 - 1 / k) ** n <= eps
    assert n == 1 or k * (1 - 1 / k) ** (n - 1) > eps


def test_estimate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        estimate_run_length(0, 0.5)
    with pytest.raises(ValueError):
        estimate_run_length(5, 0.0)
    with pytest.raises(ValueError):
        estimate_run_length(5, 1.0)


def test_ten_operations_lands_in_order_of_hundred_regime():
    n = estimate_run_length(10, 1e-3)
    assert n == 88
    assert 50 <= n < 500
