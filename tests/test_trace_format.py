"""The trace format: what an event keeps, how the sink writes it, and that
a version-1 trace still loads, binds, reports and shrinks the same."""

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
    TraceSink,
    _id_key_predicate,
    _iter_produced_ids,
    _project_ids,
    bind_symbols,
    build_replay_oracle,
    make_trace_event,
    minimize,
    producer_dependencies,
    read_trace,
)

V1_TRACE = pathlib.Path(__file__).parent / "data" / "bookshop-v1.trace.jsonl"
V1_BUG = "delete-customer-500"
V1_CONFIG = dict(master_seed=3, max_requests=60, stop_on_error=False)


@pytest.fixture(scope="module")
def is_id_key(bookshop_model):
    return _id_key_predicate(bookshop_model, DEFAULT_MATCH_THRESHOLD)


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


def test_a_clean_2xx_body_keeps_its_ids_and_a_digest(is_id_key):
    result = _json_result(200, [{"bookId": "b1", "title": "t"}])
    ev = make_trace_event(1, _plan(), result, [], is_id_key=is_id_key)
    assert ev.body_json == [{"bookId": "b1"}]
    assert len(ev.body_digest) == 16 and ev.headers == {}
    assert "headers" not in ev.to_dict()


def test_a_clean_non_2xx_body_keeps_only_its_digest(is_id_key):
    for result in (_json_result(404, {"error": "no such book: b1"}),
                   HttpExchangeResult(status=200, body=b"\xff\xfe\x01")):
        ev = make_trace_event(1, _plan(), result, [], is_id_key=is_id_key)
        assert ev.body_json is ev.body_text is ev.body_b64 is None
        assert ev.body_digest is not None


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
    assert ev.body_json == doc and ev.body_digest is None
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
    _fuzz(bookshop_model, bookshop_sampling, path, [V1_BUG], **V1_CONFIG)
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
    _fuzz(bookshop_model, bookshop_sampling, path, [V1_BUG], **V1_CONFIG)
    _, events = read_trace(path)
    assert len(events) == 60
    for event in events:
        assert {"plan_id", "operation", "body"} <= set(event.plan) <= PLAN_KEYS
    assert any({"headers", "path_params", "query"} & set(e.plan)
               for e in events)


# --- version 1 ------------------------------------------------------------------------

def _current_of_the_v1_run(tmp_path, bookshop_model, bookshop_sampling) -> str:
    """The run that wrote ``tests/data/bookshop-v1.trace.jsonl`` with the
    code before trace version 2, in the current format.

    The version-1 file was written at commit 268cb37 by this, run from
    ``tests/data`` with that commit's ``src`` on ``PYTHONPATH``::

        from apifuzz.bookshop import BookshopApp, bookshop_spec
        from apifuzz.generator import RunConfig, run, trace_header
        from apifuzz.http_driver import InProcessTarget
        from apifuzz.sampling import build_sampling_spec
        from apifuzz.semantic_model import infer_model
        from apifuzz.trace_recreate import TraceSink
        ir = bookshop_spec(); model = infer_model(ir)
        config = RunConfig(master_seed=3, max_requests=60, stop_on_error=False)
        sink = TraceSink.to_path("bookshop-v1.trace.jsonl",
                                 trace_header(config, model))
        target = InProcessTarget(BookshopApp(toggles=["delete-customer-500"]))
        run(config, model, build_sampling_spec(ir, model), target=target,
            trace_sink=sink)
        sink.close(); target.close()
    """
    path = str(tmp_path / "current.jsonl")
    _fuzz(bookshop_model, bookshop_sampling, path, [V1_BUG], **V1_CONFIG)
    return path


def _event_bytes(path) -> int:
    with open(path, "rb") as fh:
        fh.readline()
        return len(fh.read())


def _failing_prefix(events):
    last = max(e.event_id for e in events
               if any(f.grade == "error" for f in e.findings))
    return [e for e in events if e.event_id <= last]


def test_a_v1_trace_loads_and_binds_like_v2(tmp_path, bookshop_model,
                                            bookshop_sampling, capsys):
    current_path = _current_of_the_v1_run(tmp_path, bookshop_model,
                                          bookshop_sampling)
    v1_header, v1 = read_trace(str(V1_TRACE))
    current_header, current = read_trace(current_path)
    assert v1_header["trace_version"] == 1
    assert current_header["trace_version"] == TRACE_VERSION
    assert _event_bytes(current_path) < 0.6 * _event_bytes(V1_TRACE)
    assert [e.event_id for e in v1] == [e.event_id for e in current]
    for old, new in zip(v1, current):
        assert (old.status, old.findings, old.plan["operation"]) == \
            (new.status, new.findings, new.plan["operation"])
        assert "method" in old.plan and "method" not in new.plan
    assert any({"value_tags", "reference_values", "target_id_param"}
               <= set(e.plan) for e in v1)

    v1_prefix, current_prefix = _failing_prefix(v1), _failing_prefix(current)
    script = bind_symbols(current_prefix, bookshop_model)
    assert script.bindings
    assert bind_symbols(v1_prefix, bookshop_model).to_json() == script.to_json()

    reports = []
    for path in (str(V1_TRACE), current_path):
        assert cli.main(["report", "--trace", path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        del report["trace"]
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["events"] == 60 and reports[0]["error_findings"]


def test_a_v1_trace_shrinks_like_v2(tmp_path, bookshop_model,
                                    bookshop_sampling):
    current_path = _current_of_the_v1_run(tmp_path, bookshop_model,
                                          bookshop_sampling)
    sizes = []
    for path in (str(V1_TRACE), current_path):
        _, events = read_trace(path)
        prefix = _failing_prefix(events)
        expected = trace_recreate.expected_failure_for(
            prefix[-1], bookshop_model.spec)
        oracle = build_replay_oracle(
            bookshop_model, expected,
            lambda: InProcessTarget(BookshopApp(toggles=[V1_BUG],
                                                randomize_ids=True)))
        result = minimize(prefix, prefix[-1].event_id, oracle,
                          producer_dependencies(prefix, bookshop_model))
        assert result.proven_minimal
        sizes.append((len(result.events), result.oracle_calls))
    assert sizes[0] == sizes[1]


def test_a_later_trace_version_is_refused(tmp_path):
    lines = V1_TRACE.read_text(encoding="utf-8").splitlines(keepends=True)
    header = json.loads(lines[0])
    header["trace_version"] = TRACE_VERSION + 1
    path = tmp_path / "later.jsonl"
    path.write_text(json.dumps(header) + "\n" + "".join(lines[1:]),
                    encoding="utf-8")
    with pytest.raises(ValueError,
                       match=f"unsupported trace_version {TRACE_VERSION + 1}"):
        read_trace(str(path))


def _with_findings(records):
    return next(r for r in records[1:] if r.get("findings"))


@pytest.mark.parametrize("mutate, lineno", [
    (lambda records: records.__setitem__(0, []), 1),
    (lambda records: records[1].pop("event_id"), 2),
    (lambda records: records[1].pop("plan"), 2),
    (lambda records: records[1].__setitem__("plan", "POST /authors"), 2),
    (lambda records: _with_findings(records)["findings"][0].pop("grade"),
     None),
    (lambda records: _with_findings(records)["findings"][0].pop("kind"), None),
    (lambda records: _with_findings(records)["findings"][0].pop("detail"),
     None),
    (lambda records: _with_findings(records).__setitem__("findings", 5), None),
], ids=["header-not-object", "no-event-id", "no-plan", "plan-not-object",
        "no-grade", "no-kind", "no-detail", "findings-not-a-list"])
def test_a_malformed_trace_is_refused_naming_its_line(tmp_path, capsys,
                                                      mutate, lineno):
    records = [json.loads(line) for line in
               V1_TRACE.read_text(encoding="utf-8").splitlines()]
    if lineno is None:
        lineno = 1 + records.index(_with_findings(records))
    mutate(records)
    path = tmp_path / "bad.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records),
                    encoding="utf-8")
    with pytest.raises(ValueError, match=f"line {lineno}\\b"):
        read_trace(str(path))
    assert cli.main(["report", "--trace", str(path)]) == 2
    assert cli.main(["minimize", "--trace", str(path),
                     "--endpoint", "http://127.0.0.1:9"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(line.startswith("error: cannot read trace: ") for line in err)


@pytest.mark.parametrize("key", ["spec_ir", "model"])
def test_minimize_refuses_a_trace_header_without_its_spec_or_model(
        tmp_path, capsys, key):
    records = [json.loads(line) for line in
               V1_TRACE.read_text(encoding="utf-8").splitlines()]
    records[0].pop(key)
    path = tmp_path / "bad.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records),
                    encoding="utf-8")
    assert cli.main(["minimize", "--trace", str(path),
                     "--endpoint", "http://127.0.0.1:9"]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read trace: ")


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
