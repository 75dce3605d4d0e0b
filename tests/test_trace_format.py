"""The trace format: what an event keeps, how the sink writes it, and that
a trace of another version or with a malformed line is refused."""

import dataclasses
import json
import os
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FlushFailsAfterHeader

from apifuzz import cli, generator, trace_recreate
from apifuzz.bookshop import BookshopApp
from apifuzz.checker import Finding
from apifuzz.generator import RunConfig, run, trace_header
from apifuzz.http_driver import HttpExchangeResult, InProcessTarget
from apifuzz.naming import DEFAULT_MATCH_THRESHOLD
from apifuzz.trace_recreate import (
    TRACE_BODY_LIMIT,
    TRACE_VERSION,
    SinkWriteError,
    TraceEvent,
    TraceSink,
    _iter_produced_ids,
    _project_ids,
    make_trace_event,
    read_trace,
)

BUG = "delete-customer-500"
RUN = dict(master_seed=3, max_requests=60, stop_on_error=False)


@pytest.fixture(scope="module")
def is_id_key(bookshop_model):
    return dataclasses.replace(
        bookshop_model, threshold=DEFAULT_MATCH_THRESHOLD).id_key_predicate()


# --- the id projection ---------------------------------------------------------------

ID_KEYS = ("id", "bookId", "authorId", "customerId", "orderId")
OTHER_KEYS = ("name", "title", "tags", "inventory", "price", "creationTimestamp")

json_scalars = (st.none() | st.booleans() | st.integers(-5, 10**6)
                | st.floats(allow_nan=False, allow_infinity=False)
                | st.text(max_size=6))
json_bodies = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.dictionaries(st.sampled_from(ID_KEYS + OTHER_KEYS), inner,
                        max_size=5)),
    max_leaves=30)


def test_the_property_keys_are_of_both_kinds(is_id_key):
    assert all(is_id_key(key) for key in ID_KEYS)
    assert not any(is_id_key(key) for key in OTHER_KEYS)


@settings(max_examples=300, deadline=None)
@given(body=json_bodies)
def test_projection_keeps_every_produced_id_in_order(is_id_key, body):
    projected = _project_ids(body, is_id_key)
    assert list(_iter_produced_ids(projected, is_id_key)) == \
        list(_iter_produced_ids(body, is_id_key))
    if not list(_iter_produced_ids(body, is_id_key)):
        assert projected is None


def test_projection_keeps_list_positions(is_id_key):
    body = [{"bookId": "b1", "title": "x"}, {"title": "y"},
            {"bookId": "b3", "tags": ["a"], "authorId": 7}]
    assert _project_ids(body, is_id_key) == \
        [{"bookId": "b1"}, None, {"bookId": "b3", "authorId": 7}]
    assert _project_ids({"bookId": [True, "b2", 1.5, 3], "tags": ["a"]},
                        is_id_key) == {"bookId": [None, "b2", None, 3]}


def _plan():
    return {"plan_id": 1, "operation": "GET /books", "body": None}


def _json_result(status, doc, headers=None):
    raw = json.dumps(doc).encode()
    return HttpExchangeResult(
        status=status, headers=headers or {"Content-Type": "application/json"},
        body=raw, json_body=json.loads(raw))


def test_a_clean_2xx_body_keeps_only_its_ids(is_id_key):
    result = _json_result(200, [{"bookId": "b1", "title": "t"}])
    ev = make_trace_event(1, _plan(), result, [], is_id_key=is_id_key)
    assert ev.body_json == [{"bookId": "b1"}]
    assert ev.headers == {}
    assert "headers" not in ev.to_dict()


def test_a_clean_non_2xx_body_keeps_nothing(is_id_key):
    for result in (_json_result(404, {"error": "no such book: b1"}),
                   HttpExchangeResult(status=200, body=b"\xff\xfe\x01")):
        ev = make_trace_event(1, _plan(), result, [], is_id_key=is_id_key)
        assert ev.body_json is ev.body_text is ev.body_b64 is None
        record = ev.to_dict()
        assert not {"body_json", "body_text", "body_b64",
                    "body_digest"} & set(record)
        # An older trace's body_digest is ignored.
        assert TraceEvent.from_dict({**record, "body_digest": "0" * 16}) \
            == TraceEvent.from_dict(record)


def test_truncation_is_judged_before_projecting(is_id_key):
    """A list above the limit stays a truncated non-producer, though its
    ids alone would fit."""
    doc = [{"bookId": f"b{i}", "title": "x" * 200} for i in range(30)]
    result = _json_result(200, doc)
    assert len(result.body) > TRACE_BODY_LIMIT
    ev = make_trace_event(1, _plan(), result, [], is_id_key=is_id_key)
    assert ev.body_json == {"__truncated__": True, "bytes": len(result.body)}


def test_an_event_with_a_finding_is_kept_whole(is_id_key):
    doc = {"error": "boom", "customerId": "c1"}
    result = _json_result(500, doc)
    finding = Finding("error", "server-error-5xx", "boom")
    ev = make_trace_event(1, _plan(), result, [finding], is_id_key=is_id_key)
    assert ev.body_json == doc
    assert ev.headers == {"Content-Type": "application/json"}


def _fuzz(bookshop_model, bookshop_sampling, path, toggles=(), **config):
    config = RunConfig(**config)
    sink = TraceSink.to_path(path, trace_header(config, bookshop_model))
    target = InProcessTarget(BookshopApp(toggles=list(toggles)))
    try:
        return run(config, bookshop_model, bookshop_sampling, target=target,
                   trace_sink=sink)
    finally:
        target.close()
        sink.close()


def test_clean_events_leave_out_request_lines_and_headers(
        tmp_path, bookshop_model, bookshop_sampling):
    path = str(tmp_path / "current.jsonl")
    _fuzz(bookshop_model, bookshop_sampling, path, [BUG], **RUN)
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        records = [json.loads(line) for line in fh]
    assert header["trace_version"] == TRACE_VERSION and len(records) == 60
    with_findings = [r for r in records if r.get("findings")]
    assert with_findings and len(with_findings) < len(records)
    for record in records:
        plan = record["plan"]
        assert not {"method", "path_template", "concrete_url"} & set(plan)
        assert not any(value in ({}, None) for key, value in plan.items()
                       if key != "body")
        assert "prediction" not in record
        if not record.get("findings"):
            assert "headers" not in record
        else:
            assert record["headers"]


PLAN_KEYS = {"plan_id", "operation", "body", "headers", "path_params", "query"}


def test_plans_keep_only_what_replay_and_report_read(
        tmp_path, bookshop_model, bookshop_sampling):
    path = str(tmp_path / "current.jsonl")
    _fuzz(bookshop_model, bookshop_sampling, path, [BUG], **RUN)
    _, events = read_trace(path)
    assert len(events) == 60
    for event in events:
        assert {"plan_id", "operation", "body"} <= set(event.plan) <= PLAN_KEYS
    assert any({"headers", "path_params", "query"} & set(e.plan)
               for e in events)


# --- refused traces ------------------------------------------------------------------

@pytest.fixture(scope="module")
def fuzzed_records(tmp_path_factory, bookshop_model, bookshop_sampling):
    """The records of a 60-event trace with findings, header first."""
    path = str(tmp_path_factory.mktemp("fuzzed") / "trace.jsonl")
    _fuzz(bookshop_model, bookshop_sampling, path, [BUG], **RUN)
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _write(path, records) -> str:
    path.write_text("".join(json.dumps(r) + "\n" for r in records),
                    encoding="utf-8")
    return str(path)


def _cli_cannot_read(path, capsys) -> None:
    """``report`` and ``minimize`` both exit 2, saying they cannot read it."""
    assert cli.main(["report", "--trace", path]) == 2
    assert cli.main(["minimize", "--trace", path,
                     "--endpoint", "http://127.0.0.1:9"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(line.startswith("error: cannot read trace: ") for line in err)


@pytest.mark.parametrize("version", [1, 2, TRACE_VERSION + 1],
                         ids=["v1", "v2", "later"])
def test_a_trace_of_another_version_is_refused(tmp_path, capsys,
                                               fuzzed_records, version):
    records = json.loads(json.dumps(fuzzed_records))
    records[0]["trace_version"] = version
    path = _write(tmp_path / "other.jsonl", records)
    with pytest.raises(ValueError,
                       match=f"unsupported trace_version {version}: only "
                             f"version-{TRACE_VERSION} traces are read"):
        read_trace(path)
    _cli_cannot_read(path, capsys)


def _with_findings(records):
    return next(r for r in records[1:] if r.get("findings"))


@pytest.mark.parametrize("mutate, lineno", [
    (lambda records: records.__setitem__(0, []), 1),
    (lambda records: records[1].pop("event_id"), 2),
    (lambda records: records[1].pop("plan"), 2),
    (lambda records: records[1].__setitem__("plan", "POST /authors"), 2),
    (lambda records: records[1]["plan"].pop("plan_id"), 2),
    (lambda records: records[1]["plan"].__setitem__("plan_id", "1"), 2),
    (lambda records: _with_findings(records)["findings"][0].pop("grade"),
     None),
    (lambda records: _with_findings(records)["findings"][0].pop("kind"), None),
    (lambda records: _with_findings(records)["findings"][0].pop("detail"),
     None),
    (lambda records: _with_findings(records).__setitem__("findings", 5), None),
    (lambda records: records[1].__setitem__("status", "200"), 2),
    (lambda records: records[1].__setitem__("dispatch_epoch", "0"), 2),
    (lambda records: records[1]["plan"].__setitem__("operation",
                                                     ["GET", "/books"]), 2),
], ids=["header-not-object", "no-event-id", "no-plan", "plan-not-object",
        "no-plan-id", "plan-id-not-an-int",
        "no-grade", "no-kind", "no-detail", "findings-not-a-list",
        "status-not-an-int", "dispatch-epoch-not-an-int",
        "operation-not-a-string"])
def test_a_malformed_trace_is_refused_naming_its_line(tmp_path, capsys,
                                                      fuzzed_records,
                                                      mutate, lineno):
    records = json.loads(json.dumps(fuzzed_records))
    if lineno is None:
        lineno = 1 + records.index(_with_findings(records))
    mutate(records)
    path = _write(tmp_path / "bad.jsonl", records)
    with pytest.raises(ValueError, match=f"line {lineno}\\b"):
        read_trace(path)
    _cli_cannot_read(path, capsys)


def _set_config(key, value):
    return lambda header: header["config"].__setitem__(key, value)


def _set_operation(path, method, value):
    return lambda header: header["spec"]["paths"][path].__setitem__(method,
                                                                    value)


@pytest.mark.parametrize("mutate", [
    lambda header: header.pop("spec"),
    lambda header: header.pop("model"),
    _set_config("match_threshold", "0.6"),
    _set_config("match_threshold", True),
    _set_config("max_in_flight", "2"),
    _set_config("max_in_flight", 0),
    _set_config("max_in_flight", True),
    lambda header: header.__setitem__("config", [1]),
    _set_operation("/books", "get", "oops"),
    lambda header: header.__setitem__("spec", "x"),
    lambda header: header.__setitem__(
        "spec", {"swagger": "2.0", "info": {}, "paths": header["spec"]["paths"]}),
    _set_operation("/books", "get", {"$ref": "#/components/missing"}),
    lambda header: header["model"].__setitem__("model_version", 2),
    lambda header: header["model"]["bindings"][0].__setitem__("resource",
                                                              "nope"),
], ids=["spec", "model", "threshold-a-string", "threshold-a-bool",
        "window-a-string", "window-zero", "window-a-bool", "config-a-list",
        "spec-operation-not-an-object", "spec-a-string", "spec-swagger-2",
        "spec-dangling-ref", "model-version-2",
        "binding-to-an-unknown-resource"])
def test_minimize_refuses_a_trace_header_without_its_spec_or_model(
        tmp_path, capsys, fuzzed_records, mutate):
    """Refused before the endpoint is probed: one line, exit 2."""
    records = json.loads(json.dumps(fuzzed_records))
    mutate(records[0])
    path = _write(tmp_path / "bad.jsonl", records)
    assert cli.main(["minimize", "--trace", path,
                     "--endpoint", "http://127.0.0.1:9"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read trace: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("mutate, flags, message", [
    (lambda records: records.__delitem__(slice(1, None)), (),
     "trace has no events"),
    (lambda records: [r.pop("findings", None) for r in records], (),
     "trace contains no error-grade finding; pass --event explicitly"),
    (lambda records: None, ("--event", "999"), "trace has no event 999"),
], ids=["no-events", "no-error-grade-finding", "no-such-event"])
def test_minimize_refuses_a_trace_with_no_event_to_shrink(
        tmp_path, capsys, fuzzed_records, mutate, flags, message):
    records = json.loads(json.dumps(fuzzed_records))
    mutate(records)
    path = _write(tmp_path / "bad.jsonl", records)
    assert cli.main(["minimize", "--trace", path, *flags,
                     "--endpoint", "http://127.0.0.1:9"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_minimize_refuses_a_plan_whose_operation_the_spec_lacks(
        tmp_path, capsys, fuzzed_records):
    records = json.loads(json.dumps(fuzzed_records))
    records[1]["plan"]["operation"] = "GET /nope"
    path = _write(tmp_path / "bad.jsonl", records)
    assert cli.main(["minimize", "--trace", path,
                     "--endpoint", "http://127.0.0.1:9"]) == 2
    assert capsys.readouterr().err == (
        "error: cannot read trace: event 1 names operation 'GET /nope' "
        "that the trace's spec lacks\n")


# --- the sink -----------------------------------------------------------------------

def _clean_event(event_id):
    return trace_recreate.TraceEvent(event_id=event_id, plan=_plan(),
                                     status=200)


def test_close_raises_when_the_last_flush_fails():
    fh = FlushFailsAfterHeader()
    sink = TraceSink(fh, "x", {})
    sink.append(_clean_event(1))
    with pytest.raises(SinkWriteError, match="No space left"):
        sink.close()
    assert fh.closed


def test_the_sink_flushes_once_a_second_and_on_close(monkeypatch):
    clock = [100.0]
    monkeypatch.setattr(trace_recreate.time, "monotonic", lambda: clock[0])

    class Counting:
        def __init__(self):
            self.writes = self.flushes = 0

        def write(self, data):
            self.writes += 1
            return len(data)

        def flush(self):
            self.flushes += 1

        def close(self):
            pass

    fh = Counting()
    sink = TraceSink(fh, "x", {})
    assert (fh.writes, fh.flushes) == (1, 1)  # the header
    for eid in range(1, 6):
        sink.append(_clean_event(eid))
    assert (fh.writes, fh.flushes) == (6, 1)
    clock[0] += 1.0
    sink.append(_clean_event(6))
    assert (fh.writes, fh.flushes) == (7, 2)
    sink.close()
    assert fh.flushes == 3


def test_the_sink_writes_compact_lines(tmp_path):
    path = str(tmp_path / "t.jsonl")
    sink = TraceSink.to_path(path, {"note": "n"})
    sink.append(_clean_event(1))
    sink.close()
    lines = pathlib.Path(path).read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith(
        '{"trace_version":%d,"note":"n"' % TRACE_VERSION)
    assert ": " not in lines[1] and ", " not in lines[1]


def test_a_failed_last_flush_of_a_runs_own_sink_is_a_note(
        monkeypatch, bookshop_model, bookshop_sampling):
    real = generator.tempfile.NamedTemporaryFile
    made = []

    def failing_temp_file(*args, **kwargs):
        made.append(FlushFailsAfterHeader(real(*args, **kwargs)))
        return made[-1]

    monkeypatch.setattr(generator.tempfile, "NamedTemporaryFile",
                        failing_temp_file)
    target = InProcessTarget(BookshopApp())
    try:
        result = run(RunConfig(master_seed=0, max_requests=20),
                     bookshop_model, bookshop_sampling, target=target)
    finally:
        target.close()
        for fh in made:
            os.unlink(fh.name)
    assert result.counters["requests_sent"] == 20
    assert any("trace sink failed: cannot flush the trace tail" in note
               for note in result.notes)
