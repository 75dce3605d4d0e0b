import inspect
import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import time

import pytest

import apifuzz

from apifuzz import cli
from apifuzz.bookshop import bookshop_spec_document
from apifuzz.bookshop.server import serve
from apifuzz.cli import main
from apifuzz.http_driver import NetworkTarget
from apifuzz.semantic_model import load_model, serialize_model
from apifuzz.spec_ingest import load_spec, load_spec_file
from apifuzz.trace_recreate import RecreateScript, read_trace

from conftest import (
    FlushFailsAfterHeader,
    bookshop_yaml_document,
    edge_set,
    minimal_spec_doc,
)


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "bookshop.json"
    path.write_bytes(bookshop_spec_document())
    return str(path)


@pytest.fixture
def clean_server():
    server = serve(port=0)
    yield server
    server.stop()


def run_cli(*argv):
    return main(list(argv))


# --- model -------------------------------------------------------------------------

def test_model_writes_golden_edges(spec_file, tmp_path, capsys):
    out = str(tmp_path / "model.json")
    assert run_cli("model", spec_file, "--out", out) == 0
    doc = json.loads(open(out).read())
    edges = {(e["dependent"], e["prerequisite"]) for e in doc["edges"]}
    assert edges == {("book", "author"), ("order", "customer"),
                     ("order", "book")}
    assert "model written" in capsys.readouterr().out


def test_model_strict_fails_on_error_grade_lint(tmp_path):
    spec = tmp_path / "orphan.json"
    spec.write_bytes(minimal_spec_doc({
        "/orders/{orderId}": {
            "parameters": [{"name": "orderId", "in": "path", "required": True,
                            "schema": {"type": "string"}}],
            "get": {"responses": {
                "200": {"description": "ok", "content": {"application/json": {
                    "schema": {"type": "object", "properties": {
                        "status": {"type": "string"}}}}}},
                "404": {"description": "gone"}}},
        },
    }))
    out = str(tmp_path / "model.json")
    assert run_cli("model", str(spec), "--out", out) == 0
    assert run_cli("model", str(spec), "--out", out, "--strict") == 1


def test_model_overrides_add_user_edge(spec_file, tmp_path):
    overrides = tmp_path / "overrides.json"
    overrides.write_text(json.dumps({"edges": [
        {"dependent": "book", "prerequisite": "customer",
         "via_parameter": "customerId"}]}))
    out = str(tmp_path / "model.json")
    assert run_cli("model", spec_file, "--out", out,
                   "--overrides", str(overrides)) == 0
    doc = json.loads(open(out).read())
    added = [e for e in doc["edges"] if e["prerequisite"] == "customer"
             and e["dependent"] == "book"]
    assert added and added[0]["provenance"] == "user-edited"


def test_model_overrides_load_as_a_model_file(spec_file, clean_server,
                                              tmp_path):
    overrides = tmp_path / "overrides.json"
    overrides.write_text(json.dumps({
        "resources": [{"name": "book", "id_field_names": ["bookId", "isbn"]}],
        "bindings": [{"operation": "GET /orders", "resource": "order",
                      "crud_kind": "other"}],
        "edges": [{"dependent": "order", "prerequisite": "book",
                   "via_parameter": "bookIds", "remove": True}]}))
    out = tmp_path / "model.json"
    assert run_cli("model", spec_file, "--out", str(out),
                   "--overrides", str(overrides)) == 0
    spec = load_spec_file(spec_file)
    model = load_model(out.read_bytes(), spec)
    assert serialize_model(model) == out.read_bytes()
    assert model.resource("book").id_field_names == ("bookId", "isbn")
    assert ("order", "book") not in edge_set(model)
    assert run_cli("fuzz", spec_file, "--model", str(out),
                   "--endpoint", clean_server.base_url,
                   "--max-requests", "40", "--seed", "1",
                   "--trace", str(tmp_path / "t.jsonl"),
                   "--report", str(tmp_path / "r.json")) == 0


@pytest.mark.parametrize("overrides", [
    {"bindings": [{"operation": "GET /orders", "resource": "warehouse",
                   "crud_kind": "read-list"}]},
    {"resources": [{"name": "customer", "remove": True}]},
    {"resources": [{"name": "author", "remove": True}],
     "bindings": [{"operation": op, "resource": "book", "crud_kind": kind}
                  for op, kind in (("GET /authors", "read-list"),
                                   ("POST /authors", "create"),
                                   ("GET /authors/{authorId}", "read"),
                                   ("DELETE /authors/{authorId}", "delete"))]},
    {"resources": [{"name": "book", "id_field_names": 5}]},
], ids=["binding-to-unknown-resource", "resource-still-bound",
        "resource-still-an-edge-end", "id-fields-not-a-list"])
def test_model_refuses_overrides_that_fuzz_would_refuse(spec_file, tmp_path,
                                                        capsys, overrides):
    path = tmp_path / "overrides.json"
    path.write_text(json.dumps(overrides))
    out = tmp_path / "model.json"
    assert run_cli("model", spec_file, "--out", str(out),
                   "--overrides", str(path)) == 1
    assert capsys.readouterr().err.startswith("error: invalid overrides: ")
    assert not out.exists()


def test_model_json_output(spec_file, tmp_path, capsys):
    out = str(tmp_path / "model.json")
    assert run_cli("model", spec_file, "--out", out, "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["edges"] == 3 and payload["findings"] == []


def test_model_rejects_unparseable_spec(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert run_cli("model", str(bad), "--out", str(tmp_path / "m.json")) == 1


def test_model_refuses_an_unwritable_out_before_inference(spec_file, tmp_path,
                                                         capsys):
    out = str(tmp_path / "no" / "m.json")
    assert run_cli("model", spec_file, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot open model file") and out in err


# --- fuzz --------------------------------------------------------------------------

def test_fuzz_clean_run_exits_zero(spec_file, clean_server, tmp_path, capsys):
    trace = str(tmp_path / "trace.jsonl")
    report = str(tmp_path / "report.json")
    code = run_cli("fuzz", spec_file, "--endpoint", clean_server.base_url,
                   "--max-requests", "150", "--seed", "3",
                   "--trace", trace, "--report", report)
    assert code == 0
    assert os.path.exists(trace) and os.path.exists(report)
    payload = json.loads(open(report).read())
    assert payload["run"]["verdict"] == "passed"
    assert payload["run"]["counters"]["requests_sent"] == 150
    assert "verdict: passed" in capsys.readouterr().out


def test_fuzz_with_seeded_bug_exits_one_and_names_kind(spec_file, tmp_path):
    server = serve(port=0, toggles=["get-missing-customer-500"])
    try:
        report = str(tmp_path / "report.json")
        code = run_cli("fuzz", spec_file, "--endpoint", server.base_url,
                       "--duration", "60", "--seed", "1", "--stop-on-error",
                       "--trace", str(tmp_path / "t.jsonl"),
                       "--report", report)
        assert code == 1
        payload = json.loads(open(report).read())
        kinds = {f["kind"] for f in payload["run"]["findings"]}
        assert "server-error-5xx" in kinds
    finally:
        server.stop()


def test_fuzz_reports_a_trace_tail_it_could_not_flush(
        spec_file, clean_server, tmp_path, monkeypatch, capsys):
    class FailingFlushSink(cli.TraceSink):
        @classmethod
        def to_path(cls, path, header=None):
            return cls(FlushFailsAfterHeader(open(path, "w", encoding="utf-8")),
                       path, header or {})

    monkeypatch.setattr(cli, "TraceSink", FailingFlushSink)
    report = str(tmp_path / "report.json")
    run_cli("fuzz", spec_file, "--endpoint", clean_server.base_url,
            "--max-requests", "5", "--seed", "3",
            "--trace", str(tmp_path / "trace.jsonl"), "--report", report)
    assert "cannot flush the trace tail" in capsys.readouterr().err
    run_report = json.loads(open(report).read())["run"]
    assert run_report["counters"]["requests_sent"] == 5
    assert any("trace sink failed: cannot flush the trace tail" in note
               for note in run_report["notes"])


def test_fuzz_unreachable_endpoint_exits_two(spec_file, tmp_path):
    code = run_cli("fuzz", spec_file, "--endpoint", "http://127.0.0.1:9",
                   "--max-requests", "5",
                   "--trace", str(tmp_path / "t.jsonl"),
                   "--report", str(tmp_path / "r.json"))
    assert code == 2


def test_fuzz_unwritable_trace_path_exits_two(spec_file, tmp_path, capsys):
    trace = str(tmp_path / "no" / "such" / "t.jsonl")
    code = run_cli("fuzz", spec_file, "--endpoint", "http://127.0.0.1:9",
                   "--max-requests", "5", "--trace", trace,
                   "--report", str(tmp_path / "r.json"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot open trace file") and trace in err
    assert not os.path.exists(tmp_path / "r.json")


def test_fuzz_sequential_mode_keeps_a_window_of_one(spec_file, clean_server,
                                                    tmp_path):
    trace, report = str(tmp_path / "t.jsonl"), str(tmp_path / "report.json")
    code = run_cli("fuzz", spec_file, "--endpoint", clean_server.base_url,
                   "--mode", "sequential", "--max-in-flight", "4",
                   "--max-requests", "100", "--seed", "2",
                   "--trace", trace, "--report", report)
    assert code == 0
    payload = json.loads(open(report).read())
    assert payload["run"]["counters"]["peak_in_flight"] == 1
    with open(trace, encoding="utf-8") as fh:
        assert json.loads(fh.readline())["config"]["max_in_flight"] == 1


def test_fuzz_concurrent_exercises_concurrency(spec_file, clean_server,
                                               tmp_path):
    report = str(tmp_path / "report.json")
    code = run_cli("fuzz", spec_file, "--endpoint", clean_server.base_url,
                   "--mode", "concurrent", "--max-in-flight", "8",
                   "--max-requests", "400", "--seed", "2",
                   "--trace", str(tmp_path / "t.jsonl"), "--report", report)
    assert code == 0
    payload = json.loads(open(report).read())
    assert payload["run"]["counters"]["peak_in_flight"] > 1


def test_fuzz_config_file_with_flag_overrides(spec_file, clean_server,
                                              tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "endpoint": "http://example.invalid",  # overridden by the flag
        "master_seed": 9,
        "max_requests": 60,
        "weights": {"per_method": {"PUT": 3.0}},
        "mixture": {"invalid_typed": 0.0},
    }))
    report = str(tmp_path / "report.json")
    code = run_cli("fuzz", spec_file, "--config", str(config),
                   "--endpoint", clean_server.base_url,
                   "--trace", str(tmp_path / "t.jsonl"), "--report", report)
    assert code == 0
    payload = json.loads(open(report).read())
    assert payload["run"]["counters"]["requests_sent"] == 60


def test_fuzz_refuses_a_config_file_whose_root_is_not_an_object(
        spec_file, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text("[]")
    assert run_cli("fuzz", spec_file, "--config", str(config),
                   "--endpoint", "http://127.0.0.1:9") == 2
    assert capsys.readouterr().err.startswith("error: bad run configuration")


def test_fuzz_refuses_a_model_file_with_malformed_id_fields(
        spec_file, tmp_path, capsys):
    out = tmp_path / "model.json"
    assert run_cli("model", spec_file, "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    doc["resources"][0]["id_field_names"] = 5
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("fuzz", spec_file, "--model", str(out),
                   "--endpoint", "http://127.0.0.1:9") == 2
    assert capsys.readouterr().err.startswith("error: invalid model file")


@pytest.mark.parametrize("file_config", [
    {"weights": 5}, {"mixture": 5}, {"path_excludes": 5}, {"trace_path": 5},
    {"max_requests": "5"}, {"duration_limit": "30"},
    {"stop_on_error": "no", "max_requests": 20}, {"match_threshold": "0.6"},
    {"n_warmup": 20, "max_requests": 1},
], ids=["weights", "mixture", "run-config-field", "path", "max-requests",
        "duration-limit", "stop-on-error", "match-threshold",
        "n-warmup-an-unknown-key"])
def test_fuzz_refuses_a_config_value_of_the_wrong_type(
        spec_file, clean_server, tmp_path, capsys, file_config):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(file_config))
    trace = tmp_path / "t.jsonl"
    trace.write_text('{"trace_version": 3}\n')
    before = trace.read_bytes()
    assert run_cli("fuzz", spec_file, "--config", str(config),
                   "--endpoint", clean_server.base_url,
                   "--trace", str(trace),
                   "--report", str(tmp_path / "r.json")) == 2
    assert capsys.readouterr().err.startswith("error: bad run configuration")
    assert trace.read_bytes() == before


@pytest.mark.parametrize("file_config, flags", [
    ({"weights": {"per_resource": {name: 0 for name in
                                   ("author", "book", "customer", "order")}}},
     ()),
    ({}, ("--exclude", "/")),
], ids=["every-resource-zero", "every-path-excluded"])
def test_fuzz_refuses_a_config_with_nothing_to_draw(
        spec_file, clean_server, tmp_path, capsys, monkeypatch, file_config,
        flags):
    """Refused before any request: the trace is kept, no report written."""
    config = tmp_path / "run.json"
    config.write_text(json.dumps(file_config))
    trace = tmp_path / "t.jsonl"
    trace.write_text('{"trace_version": 3}\n')
    before = trace.read_bytes()
    handled = []
    monkeypatch.setattr(clean_server.app, "handle",
                        lambda *args, **kwargs: handled.append(args))
    assert run_cli("fuzz", spec_file, "--config", str(config), *flags,
                   "--endpoint", clean_server.base_url,
                   "--trace", str(trace),
                   "--report", str(tmp_path / "r.json")) == 2
    assert capsys.readouterr().err.startswith("error: bad run configuration")
    assert trace.read_bytes() == before
    assert not (tmp_path / "r.json").exists()
    assert handled == []


def test_fuzz_without_an_endpoint_exits_two(spec_file, tmp_path, capsys):
    assert run_cli("fuzz", spec_file, "--trace", str(tmp_path / "t.jsonl"),
                   "--report", str(tmp_path / "r.json")) == 2
    assert capsys.readouterr().err == ("error: an endpoint is required "
                                       "(flag --endpoint or config file)\n")
    assert not (tmp_path / "t.jsonl").exists()


def test_fuzz_refuses_a_missing_model_file(spec_file, tmp_path, capsys):
    assert run_cli("fuzz", spec_file, "--model", str(tmp_path / "no.json"),
                   "--endpoint", "http://127.0.0.1:9") == 2
    assert capsys.readouterr().err.startswith("error: invalid model file")


def test_model_refuses_a_missing_overrides_file(spec_file, tmp_path, capsys):
    out = tmp_path / "model.json"
    assert run_cli("model", spec_file, "--out", str(out),
                   "--overrides", str(tmp_path / "no.json")) == 1
    assert capsys.readouterr().err.startswith("error: invalid overrides: ")
    assert not out.exists()


def test_fuzz_against_a_dead_endpoint_keeps_an_existing_trace(
        spec_file, tmp_path, capsys):
    trace = tmp_path / "apifuzz-trace.jsonl"
    trace.write_text('{"trace_version": 3}\n{"event_id": 1}\n')
    before = trace.read_bytes()
    assert run_cli("fuzz", spec_file, "--endpoint", "http://127.0.0.1:9",
                   "--trace", str(trace),
                   "--report", str(tmp_path / "r.json")) == 2
    assert capsys.readouterr().err.startswith("error: endpoint unreachable")
    assert trace.read_bytes() == before
    assert not (tmp_path / "r.json").exists()


def test_fuzz_refuses_an_unwritable_report_before_the_run(
        spec_file, clean_server, tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    assert run_cli("fuzz", spec_file, "--endpoint", clean_server.base_url,
                   "--max-requests", "20", "--trace", str(trace),
                   "--report", str(tmp_path / "no" / "r.json")) == 2
    assert capsys.readouterr().err.startswith("error: cannot open report file")
    assert not trace.exists()


def _python(*argv) -> subprocess.Popen:
    """``python *argv`` with this checkout's ``src`` first on the path."""
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.dirname(os.path.dirname(apifuzz.__file__)),
                    env.get("PYTHONPATH")) if p)
    return subprocess.Popen([sys.executable, *argv], env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def test_sigterm_ends_a_fuzz_run_as_ctrl_c_does(spec_file, tmp_path):
    """The run stops as ``operator-stop``, writes its report and exits by
    its verdict; its trace holds every exchange the report counts."""
    server = _python("-m", "apifuzz.bookshop", "--port", "0")
    fuzz = None
    try:
        url = re.search(r"listening on (\S+)", server.stdout.readline())[1]
        trace, report = tmp_path / "t.jsonl", tmp_path / "r.json"
        fuzz = _python("-m", "apifuzz.cli", "fuzz", spec_file,
                       "--endpoint", url, "--duration", "60",
                       "--trace", str(trace), "--report", str(report))
        deadline = time.monotonic() + 30
        while not trace.exists() or len(trace.read_bytes().splitlines()) < 2:
            assert time.monotonic() < deadline, "no events traced"
            time.sleep(0.05)
        fuzz.send_signal(signal.SIGTERM)
        code = fuzz.wait(timeout=30)
        run = json.loads(report.read_text())["run"]
        assert code == (0 if run["verdict"] == "passed" else 1)
        assert run["stop_reason"] == "operator-stop"
        _, events = read_trace(str(trace))
        assert len(events) == run["counters"]["requests_sent"]
    finally:
        for proc in (fuzz, server):
            if proc is not None:
                proc.kill()
                proc.communicate()


def test_fuzz_writes_the_paths_the_config_file_names(spec_file, clean_server,
                                                     tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "endpoint": clean_server.base_url, "max_requests": 20,
        "trace_path": str(tmp_path / "file-trace.jsonl"),
        "report_path": str(tmp_path / "file-report.json")}))
    assert run_cli("fuzz", spec_file, "--config", str(config)) == 0
    report = json.loads((tmp_path / "file-report.json").read_text())
    assert report["trace"] == str(tmp_path / "file-trace.jsonl")
    assert os.path.exists(report["trace"])

    # a flag overrides the file, as for every other key
    assert run_cli("fuzz", spec_file, "--config", str(config),
                   "--trace", str(tmp_path / "flag-trace.jsonl")) == 0
    report = json.loads((tmp_path / "file-report.json").read_text())
    assert report["trace"] == str(tmp_path / "flag-trace.jsonl")
    assert os.path.exists(report["trace"])


# --- minimize + replay ---------------------------------------------------------------

@pytest.fixture
def failing_trace(spec_file, tmp_path):
    server = serve(port=0, toggles=["delete-customer-500"])
    trace = str(tmp_path / "fail.jsonl")
    try:
        code = run_cli("fuzz", spec_file, "--endpoint", server.base_url,
                       "--duration", "60", "--seed", "1", "--stop-on-error",
                       "--trace", trace,
                       "--report", str(tmp_path / "r.json"))
        assert code == 1
        yield server, trace
    finally:
        server.stop()


def test_minimize_and_replay_round_trip(failing_trace, tmp_path, capsys):
    server, trace = failing_trace
    script_path = str(tmp_path / "recreate.json")
    capsys.readouterr()
    code = run_cli("minimize", "--trace", trace,
                   "--endpoint", server.base_url, "--out", script_path,
                   "--json")
    assert code == 0
    stats = json.loads(capsys.readouterr().out)
    script = json.loads(open(script_path).read())
    assert stats["events_after"] == len(script["steps"])
    assert stats["replayed_requests"] >= stats["events_before"]
    assert stats["shrink_s"] > 0
    assert script["script_version"] == 1
    assert len(script["steps"]) <= 3

    # replay against a fresh fixture with randomized ids: reproduced
    buggy = serve(port=0, toggles=["delete-customer-500"], randomize_ids=True)
    try:
        assert run_cli("replay", "--script", script_path,
                       "--endpoint", buggy.base_url) == 0
    finally:
        buggy.stop()

    # with the bug fixed: not reproduced
    fixed = serve(port=0, randomize_ids=True)
    try:
        assert run_cli("replay", "--script", script_path,
                       "--endpoint", fixed.base_url) == 1
    finally:
        fixed.stop()


def test_a_yaml_spec_trace_keeps_its_spec_and_minimizes(tmp_path):
    """Its dates and integer keys used to stop ``fuzz`` writing the trace
    header, after the trace was opened."""
    spec = tmp_path / "bookshop.yaml"
    spec.write_bytes(bookshop_yaml_document())
    trace = str(tmp_path / "fail.jsonl")
    server = serve(port=0, toggles=["delete-customer-500"])
    try:
        assert run_cli("fuzz", str(spec), "--endpoint", server.base_url,
                       "--duration", "60", "--seed", "1", "--stop-on-error",
                       "--trace", trace,
                       "--report", str(tmp_path / "r.json")) == 1
        header, _ = read_trace(trace)
        assert load_spec(json.dumps(header["spec"])) == \
            load_spec_file(str(spec))
        assert run_cli("minimize", "--trace", trace,
                       "--endpoint", server.base_url,
                       "--out", str(tmp_path / "s.json")) == 0
    finally:
        server.stop()


def test_minimize_not_reproducible_exits_three(failing_trace, tmp_path):
    _, trace = failing_trace
    clean = serve(port=0)  # bug absent: the oracle can never reproduce
    try:
        code = run_cli("minimize", "--trace", trace,
                       "--endpoint", clean.base_url,
                       "--out", str(tmp_path / "s.json"))
        assert code == 3
    finally:
        clean.stop()


def test_minimize_against_a_dead_endpoint_exits_two(failing_trace, tmp_path,
                                                   capsys):
    _, trace = failing_trace
    capsys.readouterr()
    code = run_cli("minimize", "--trace", trace,
                   "--endpoint", "http://127.0.0.1:9",
                   "--out", str(tmp_path / "s.json"))
    assert code == 2
    assert capsys.readouterr().err.startswith("error: endpoint unreachable")
    assert not os.path.exists(tmp_path / "s.json")


def test_minimize_refuses_an_unwritable_out_before_minimizing(
        failing_trace, tmp_path, capsys):
    server, trace = failing_trace
    capsys.readouterr()
    assert run_cli("minimize", "--trace", trace, "--endpoint", server.base_url,
                   "--out", str(tmp_path / "no" / "s.json")) == 2
    assert capsys.readouterr().err.startswith("error: cannot open script file")


def test_minimize_an_event_without_findings_exits_two(failing_trace,
                                                      tmp_path, capsys):
    server, trace = failing_trace
    clean = next(e.event_id for e in read_trace(trace)[1] if not e.findings)
    capsys.readouterr()
    code = run_cli("minimize", "--trace", trace, "--event", str(clean),
                   "--endpoint", server.base_url,
                   "--out", str(tmp_path / "s.json"))
    assert code == 2
    assert capsys.readouterr().err == \
        f"error: event {clean} carries no findings\n"


def test_minimize_refuses_a_trace_whose_plan_ids_put_a_consumer_first(
        failing_trace, tmp_path, capsys):
    """Steps follow plan ids, so this one orders the failing request before
    the request that produced its customer id."""
    server, trace = failing_trace
    lines = pathlib.Path(trace).read_text().splitlines()
    failing = json.loads(lines[-1])
    assert failing["plan"]["path_params"]  # it consumes a produced id
    failing["plan"]["plan_id"] = 0
    lines[-1] = json.dumps(failing)
    reordered = tmp_path / "reordered.jsonl"
    reordered.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = run_cli("minimize", "--trace", str(reordered),
                   "--endpoint", server.base_url,
                   "--out", str(tmp_path / "s.json"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read trace: step 0 consumes ")
    assert "produced at later step" in err
    assert not os.path.exists(tmp_path / "s.json")


def test_minimize_resets_through_the_run_target(failing_trace, tmp_path,
                                                monkeypatch, capsys):
    """The reset before each replay carries the auth token and the TLS
    setting, like the replay's own requests; there is one per oracle
    call."""
    server, trace = failing_trace
    resets = []
    send = NetworkTarget.request

    def recording_request(self, method, url_path, headers, body, timeout):
        if url_path == "/_admin/reset":
            resets.append((method, self.default_headers, self.verify))
        return send(self, method, url_path, headers, body, timeout)

    monkeypatch.setattr(NetworkTarget, "request", recording_request)
    monkeypatch.setenv("APIFUZZ_AUTH_TOKEN", "s3cret")
    capsys.readouterr()
    assert run_cli("minimize", "--trace", trace, "--endpoint", server.base_url,
                   "--insecure", "--budget", "3",
                   "--out", str(tmp_path / "s.json")) == 0
    line = capsys.readouterr().out.splitlines()[0]
    events, calls, replayed = map(int, re.match(
        r"minimized (\d+) events -> \d+ \((\d+) oracle calls, "
        r"(\d+) replayed requests, \d+\.\d\d s, (NOT )?proven minimal\)$",
        line).groups()[:3])
    assert calls == len(resets) == 3
    assert replayed >= events
    assert all(reset == ("POST", {"Authorization": "Bearer s3cret"}, False)
               for reset in resets)


def test_minimize_binds_ids_at_the_run_threshold(spec_file, tmp_path,
                                                 monkeypatch):
    """A run fuzzed at ``--threshold 0.6`` is minimized at 0.6: the model
    is loaded at it, and the model the dependencies, the oracle's scripts
    and the final script get carries it."""
    takers = ("load_model", "producer_dependencies", "build_replay_oracle",
              "bind_symbols")
    server = serve(port=0, toggles=["delete-customer-500"])
    trace = str(tmp_path / "fail.jsonl")
    try:
        assert run_cli("fuzz", spec_file, "--endpoint", server.base_url,
                       "--duration", "60", "--seed", "1", "--stop-on-error",
                       "--threshold", "0.6", "--trace", trace,
                       "--report", str(tmp_path / "r.json")) == 1
        thresholds = {}
        for name in takers:
            def recording(*args, _name=name, _call=getattr(cli, name),
                          **kwargs):
                bound = inspect.signature(_call).bind(*args, **kwargs)
                bound.apply_defaults()
                given = bound.arguments
                thresholds.setdefault(_name, set()).add(
                    given["threshold"] if _name == "load_model"
                    else given["model"].threshold)
                return _call(*args, **kwargs)
            monkeypatch.setattr(cli, name, recording)
        assert run_cli("minimize", "--trace", trace,
                       "--endpoint", server.base_url, "--budget", "3",
                       "--out", str(tmp_path / "s.json")) == 0
    finally:
        server.stop()
    assert thresholds == {name: {0.6} for name in takers}


@pytest.mark.parametrize("argv", [
    ("minimize", "--trace", "t.jsonl", "--budget", "0"),
    ("minimize", "--trace", "t.jsonl", "--replay-attempts", "0"),
    ("replay", "--script", "s.json", "--attempts", "0"),
    ("replay", "--script", "s.json", "--attempts", "-3"),
], ids=["budget", "replay-attempts", "attempts", "negative-attempts"])
def test_a_count_below_one_exits_two_before_any_replay(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--endpoint", "http://127.0.0.1:9")
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


def test_replay_malformed_script_exits_two(tmp_path, clean_server):
    bad = tmp_path / "bad.json"
    bad.write_text("{definitely not a script")
    assert run_cli("replay", "--script", str(bad),
                   "--endpoint", clean_server.base_url) == 2


def _step(*drop):
    step = {"step": 0, "method": "GET", "path_template": "/books",
            "path_params": {}, "query": {}, "headers": {}, "body": None}
    for key in drop:
        del step[key]
    return step


REGRESSIONS = pathlib.Path(__file__).parent / "data" / "regressions"


def _regression_with(mutate):
    """The committed ``delete-customer-500`` script with one value changed."""
    doc = json.loads((REGRESSIONS / "delete-customer-500.json").read_text())
    mutate(doc)
    return doc


def _predicate(**predicate):
    return lambda doc: doc.__setitem__("expected_failure", predicate)


@pytest.mark.parametrize("doc", [
    [],
    {"script_version": 1, "steps": 5},
    {"script_version": 1, "steps": [5]},
    {"script_version": 1, "steps": [_step()], "bindings": 5},
    {"script_version": 1, "steps": [_step()], "bindings": ["$author_id"]},
    {"script_version": 1, "steps": [_step()],
     "bindings": [{"variable": "$author_id", "producer_step": 0}]},
    {"script_version": 1, "steps": [_step("method")]},
    {"script_version": 1, "steps": [_step("path_template")]},
    {"script_version": 1, "steps": [_step()], "expected_failure": []},
    {"script_version": 1, "steps": [_step()], "max_in_flight": "2"},
    _regression_with(lambda doc: doc["steps"][1].__setitem__("path_params",
                                                             [1])),
    _regression_with(lambda doc: doc["steps"][1].__setitem__("query", [1])),
    _regression_with(lambda doc: doc["steps"][1].__setitem__("headers", "x")),
    _regression_with(lambda doc: doc["steps"][1].__setitem__("headers",
                                                             {"X-Run": 5})),
    _regression_with(lambda doc: doc["bindings"][0].__setitem__("producer",
                                                                [7, 5])),
    _regression_with(lambda doc: doc["steps"][1]["path_params"].__setitem__(
        "customerId", {"$sym": ["$customer_id"]})),
    _regression_with(_predicate(kind="server-error-5xx", status_class=5)),
    _regression_with(_predicate(kind="no-response", transport_error=5)),
    _regression_with(_predicate(kind="schema-violation", constraint=5,
                                schema={})),
    _regression_with(_predicate(kind="schema-violation", schema="x")),
    _regression_with(_predicate(kind="undefined-status",
                                status_not_in="204")),
    _regression_with(_predicate(kind="undefined-status",
                                status_not_in=[204])),
    _regression_with(_predicate(kind="schema-violation",
                                schema={"properties": 5})),
    _regression_with(_predicate(kind="schema-violation",
                                schema={"kind": "array", "items": 5})),
    _regression_with(_predicate(kind="schema-violation",
                                schema={"kind": "object",
                                        "required_fields": 5})),
    _regression_with(_predicate(kind="schema-violation",
                                schema={"kind": "strnig"})),
    _regression_with(_predicate(kind="schema-violation",
                                schema={"kind": "string", "pattern": "("})),
    _regression_with(_predicate(kind="schema-violation",
                                schema={"kind": "string", "min_length": "x"})),
    _regression_with(_predicate(kind="schema-violation",
                                schema={"kind": "number", "minimum": "x"})),
], ids=["root-a-list", "steps-not-a-list", "step-not-an-object",
        "bindings-not-a-list", "binding-not-an-object", "binding-no-producer",
        "step-no-method", "step-no-path-template",
        "expected-failure-not-an-object", "window-not-an-integer",
        "path-params-a-list", "query-a-list", "headers-a-string",
        "header-value-an-int", "producer-path-an-int", "marker-holds-a-list",
        "status-class-an-int", "transport-error-an-int",
        "constraint-an-int", "schema-a-string", "status-not-in-a-string",
        "status-not-in-of-ints", "schema-properties-an-int",
        "schema-items-an-int", "schema-required-an-int", "schema-unknown-kind",
        "schema-bad-pattern", "schema-min-length-a-string",
        "schema-minimum-a-string"])
def test_replay_a_malformed_script_is_an_error_not_a_fixed_bug(
        tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        RecreateScript.from_json(path.read_bytes())
    assert run_cli("replay", "--script", str(path),
                   "--endpoint", "http://127.0.0.1:9") == 2
    assert capsys.readouterr().err.startswith("error: cannot load script: ")


def test_replay_against_a_dead_endpoint_exits_two(tmp_path, capsys):
    """A script that expects no response must not pass for reproduced, nor
    any script for fixed, when nothing answers."""
    script = tmp_path / "s.json"
    script.write_bytes(RecreateScript(
        steps=[{"step": 0, "method": "GET", "path_template": "/books",
                "path_params": {}, "query": {}, "headers": {}, "body": None}],
        bindings=[], expected_failure={
            "kind": "no-response",
            "transport_error": "connection-refused"}).to_json())
    assert run_cli("replay", "--script", str(script),
                   "--endpoint", "http://127.0.0.1:9") == 2
    assert capsys.readouterr().err.startswith("error: endpoint unreachable")


# --- report ------------------------------------------------------------------------

def test_report_and_minimize_reject_unreadable_trace(tmp_path, capsys):
    assert run_cli("report", "--trace", str(tmp_path / "missing.jsonl")) == 2
    assert run_cli("minimize", "--trace", str(tmp_path / "missing.jsonl"),
                   "--endpoint", "http://127.0.0.1:9") == 2
    capsys.readouterr()


def test_report_summarizes_trace(spec_file, clean_server, tmp_path, capsys):
    trace = str(tmp_path / "trace.jsonl")
    run_cli("fuzz", spec_file, "--endpoint", clean_server.base_url,
            "--max-requests", "80", "--seed", "4", "--trace", trace,
            "--report", str(tmp_path / "r.json"))
    capsys.readouterr()
    assert run_cli("report", "--trace", trace) == 0
    out = capsys.readouterr().out
    assert "80 events" in out and "status distribution" in out

    assert run_cli("report", "--trace", trace, "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["events"] == 80
    assert payload["findings"] == {}
