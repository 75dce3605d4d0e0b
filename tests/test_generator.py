import hashlib
import json
import os
import time

import pytest

from apifuzz.bookshop import BookshopApp
from apifuzz.generator import (
    EndpointUnreachable,
    RunConfig,
    generate_request,
    run,
)
from apifuzz.http_driver import InProcessTarget, NetworkTarget
from apifuzz.sampling import (
    MixtureConfig,
    TAG_STATE,
    TAG_VALID,
    WeightTable,
    build_sampling_spec,
)
from apifuzz.semantic_model import infer_model
from apifuzz.spec_ingest import load_spec
from apifuzz.state_tracker import DEFAULT_STORE_CAP, StateStore
from apifuzz.trace_recreate import TRACE_VERSION, TraceSink, read_trace
from random import Random

from conftest import json_response, minimal_spec_doc


def run_with(bug_toggles=(), seed=0, max_requests=None, duration=None,
             mode="sequential", max_in_flight=1, stop_on_error=True,
             weights=None, mixture=None, bookshop_ir=None, model=None,
             **app_kwargs):
    ir = bookshop_ir
    m = model or infer_model(ir)
    sampling = build_sampling_spec(ir, m, weights, mixture)
    config = RunConfig(mode=mode, max_in_flight=max_in_flight,
                       master_seed=seed, max_requests=max_requests,
                       duration_limit=duration, stop_on_error=stop_on_error)
    target = InProcessTarget(BookshopApp(toggles=bug_toggles, **app_kwargs))
    try:
        return run(config, m, sampling, target=target)
    finally:
        target.close()


def _drop_trace(result):
    if result.trace_ref and os.path.exists(result.trace_ref):
        os.unlink(result.trace_ref)


# sha256 over every request the bookshop receives in a 2 000-request run,
# seed 1, default weights and mixture (the benchmark's request format).
SEED_1_STREAM_SHA256 = \
    "c2636c1d2bd0b2912a83ed43dcac002d05079f6b66428d7892421fc1d74ee3a1"
# The same run with the store capped at 100 ids.
SEED_1_CAP_100_STREAM_SHA256 = \
    "00913a8bd36e89d6d58ef62d40669c417fe963481a1c43272dbc3b8ba40f7331"


class DigestingApp(BookshopApp):
    """Hashes each request it receives: request line, headers, body."""

    def __init__(self):
        super().__init__()
        self.digest = hashlib.sha256()

    def handle(self, method, path, query="", headers=None, body=b""):
        self.digest.update(
            f"{method} {path}?{query}\n".encode()
            + json.dumps(headers or {}, sort_keys=True).encode()
            + b"\n" + (body or b"") + b"\n")
        return super().handle(method, path, query, headers, body)


# --- request generation ----------------------------------------------------------

def test_parameterless_get_has_no_body_and_plain_url(bookshop_model,
                                                     bookshop_sampling):
    rng = Random(0)
    store = StateStore()
    for _ in range(60):
        plan = generate_request(bookshop_model, bookshop_sampling, store, rng)
        if plan.binding.operation_id == "GET /books":
            assert plan.body is None
            assert plan.concrete_url == "/books"
            return
    pytest.fail("GET /books never selected in 60 draws")


def test_concrete_urls_never_contain_placeholders(bookshop_model,
                                                  bookshop_sampling):
    rng = Random(1)
    store = StateStore()
    store.upsert_live("book", "b1")
    for _ in range(300):
        plan = generate_request(bookshop_model, bookshop_sampling, store, rng)
        assert "{" not in plan.concrete_url and "}" not in plan.concrete_url


def test_order_create_references_live_state(bookshop_ir, bookshop_model):
    weights = WeightTable(per_operation={"POST /orders": 1.0},
                          per_method={"GET": 0, "POST": 0, "PUT": 0,
                                      "DELETE": 0})
    sampling = build_sampling_spec(
        bookshop_ir, bookshop_model, weights,
        MixtureConfig(valid_random=0, from_state=1, boundary=0,
                      invalid_typed=0))
    store = StateStore()
    store.upsert_live("customer", "c1")
    store.upsert_live("book", "b1")
    store.upsert_live("book", "b2")
    rng = Random(5)
    for _ in range(25):
        plan = generate_request(bookshop_model, sampling, store, rng)
        assert plan.binding.operation_id == "POST /orders"
        assert plan.body["customerId"] == "c1"
        books = plan.body["bookIds"]
        assert books and set(books) <= {"b1", "b2"}
        assert plan.value_tags["customerId"] == TAG_STATE
        assert plan.value_tags["bookIds"] == TAG_STATE


def test_empty_state_create_book_falls_back_to_synthesized(bookshop_ir,
                                                           bookshop_model):
    weights = WeightTable(per_operation={"POST /books": 1.0},
                          per_method={"GET": 0, "POST": 0, "PUT": 0,
                                      "DELETE": 0})
    sampling = build_sampling_spec(
        bookshop_ir, bookshop_model, weights,
        MixtureConfig(valid_random=0, from_state=1, boundary=0,
                      invalid_typed=0))
    plan = generate_request(bookshop_model, sampling, StateStore(), Random(3))
    assert plan.binding.operation_id == "POST /books"
    assert plan.value_tags["authorId"] == TAG_VALID  # fallback tag
    assert plan.body["authorId"].startswith("z")


def test_warmup_creates_prerequisites_in_dependency_order(bookshop_model,
                                                          bookshop_sampling):
    from apifuzz.generator import _warmup_bindings

    warmup = _warmup_bindings(bookshop_model)
    ops = [b.operation_id for b in warmup]
    assert ops == ["POST /authors", "POST /books", "POST /customers",
                   "POST /orders"]
    rng = Random(0)
    store = StateStore()
    first_four = [
        generate_request(bookshop_model, bookshop_sampling, store, rng,
                         plan_id=i, warmup_bindings=warmup)
        .binding.operation_id
        for i in range(1, 5)
    ]
    assert first_four == ops


def test_target_id_param_points_at_own_resource(bookshop_model,
                                                bookshop_sampling):
    rng = Random(2)
    store = StateStore()
    store.upsert_live("book", "b1")
    for _ in range(200):
        plan = generate_request(bookshop_model, bookshop_sampling, store, rng)
        if plan.binding.crud_kind in ("read", "update", "delete"):
            assert plan.target_id_param is not None
            assert plan.binding.resource == \
                plan.reference_values[plan.target_id_param][0]


# --- window 1 (sequential) -----------------------------------------------------------

def test_zero_duration_budget_sends_nothing(bookshop_ir):
    result = run_with(bookshop_ir=bookshop_ir, duration=0.0)
    assert result.counters["requests_sent"] == 0
    assert result.verdict == "passed"
    assert result.stop_reason == "timeout"
    _drop_trace(result)


def test_clean_fixture_short_run_passes(bookshop_ir):
    result = run_with(bookshop_ir=bookshop_ir, max_requests=300, seed=5)
    assert result.verdict == "passed"
    assert result.stop_reason == "operator-stop"
    assert result.counters["error_findings"] == 0
    assert result.counters["requests_sent"] == 300
    _drop_trace(result)


def test_seeded_bug_stops_run_with_failing_exchange_last(bookshop_ir):
    result = run_with(bug_toggles=["get-missing-customer-500"],
                      bookshop_ir=bookshop_ir, duration=60, seed=1)
    assert result.verdict == "failed"
    assert result.stop_reason == "error-detected"
    header, events = read_trace(result.trace_ref)
    assert events, "trace must contain the exchanges"
    last = events[-1]
    assert any(f.grade == "error" for f in last.findings)
    assert all(not any(f.grade == "error" for f in e.findings)
               for e in events[:-1])
    _drop_trace(result)


def test_stop_on_error_false_runs_to_budget(bookshop_ir):
    result = run_with(bug_toggles=["get-missing-customer-500"],
                      bookshop_ir=bookshop_ir, max_requests=150,
                      stop_on_error=False, seed=1)
    assert result.stop_reason == "operator-stop"
    assert result.counters["requests_sent"] == 150
    assert result.verdict == "failed"  # errors seen along the way
    assert result.counters["error_findings"] >= 1
    _drop_trace(result)


def test_sequential_determinism_byte_identical(bookshop_ir):
    def plans_and_findings(seed):
        result = run_with(bookshop_ir=bookshop_ir, max_requests=250, seed=seed)
        header, events = read_trace(result.trace_ref)
        _drop_trace(result)
        plans = [json.dumps(e.plan, sort_keys=True) for e in events]
        findings = [[f.to_dict() for f in e.findings] for e in events]
        return plans, findings

    p1, f1 = plans_and_findings(77)
    p2, f2 = plans_and_findings(77)
    assert p1 == p2
    assert f1 == f2
    p3, _ = plans_and_findings(78)
    assert p1 != p3


def test_trace_is_persisted_with_header(bookshop_ir):
    result = run_with(bookshop_ir=bookshop_ir, max_requests=20)
    header, events = read_trace(result.trace_ref)
    assert header["trace_version"] == TRACE_VERSION
    assert "spec" in header and "model" in header
    assert len(events) == 20
    assert [e.event_id for e in events] == list(range(1, 21))
    # At window 1 each plan is generated once the exchange before it
    # completed, and an event completes at its own id, which is not written.
    with open(result.trace_ref, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh][1:]
    assert [r["dispatch_epoch"] for r in records] == list(range(20))
    assert not any("completion_epoch" in r for r in records)
    _drop_trace(result)


def test_dispatch_epoch_counts_the_exchanges_completed_at_generation(
        bookshop_model, bookshop_sampling, monkeypatch):
    """Above window 1 a plan's dispatch epoch is the number of exchanges
    completed when it was generated, counted here apart from the loop."""
    from apifuzz import generator

    completed = [0]
    at_generation = {}  # plan id -> exchanges completed then
    real_generate, real_make = generator.generate_request, \
        generator.make_trace_event

    def generate_request(*args, plan_id, **kwargs):
        at_generation[plan_id] = completed[0]
        return real_generate(*args, plan_id=plan_id, **kwargs)

    def make_trace_event(*args, **kwargs):
        completed[0] += 1
        return real_make(*args, **kwargs)

    monkeypatch.setattr(generator, "generate_request", generate_request)
    monkeypatch.setattr(generator, "make_trace_event", make_trace_event)
    config = RunConfig(mode="concurrent", max_in_flight=2, master_seed=1,
                       max_requests=200, stop_on_error=False)
    target = InProcessTarget(BookshopApp())
    try:
        result = run(config, bookshop_model, bookshop_sampling, target=target)
    finally:
        target.close()
    _, events = read_trace(result.trace_ref)
    _drop_trace(result)
    assert len(events) == len(at_generation) == 200
    assert all(e.dispatch_epoch == at_generation[e.plan["plan_id"]]
               for e in events)
    # the window overlapped: some plan was generated before the exchange
    # ahead of it in completion order was done
    assert any(e.dispatch_epoch < e.event_id - 1 for e in events)


def test_endpoint_unreachable_raises(bookshop_ir, bookshop_model,
                                     bookshop_sampling):
    config = RunConfig(master_seed=0, max_requests=1)
    with pytest.raises(EndpointUnreachable):
        run(config, bookshop_model, bookshop_sampling,
            target=NetworkTarget("http://127.0.0.1:9"))


def test_sink_write_error_stops_run_as_operator_stop(bookshop_ir,
                                                     bookshop_model,
                                                     bookshop_sampling,
                                                     tmp_path):
    class ExplodingFile:
        def __init__(self):
            self.writes = 0

        def write(self, data):
            self.writes += 1
            if self.writes > 3:  # header + a couple of events
                raise OSError("volume full")
            return len(data)

        def flush(self):
            pass

        def close(self):
            pass

    sink = TraceSink(ExplodingFile(), str(tmp_path / "x.jsonl"), {})
    config = RunConfig(master_seed=0, max_requests=50)
    target = InProcessTarget(BookshopApp())
    result = run(config, bookshop_model, bookshop_sampling,
                 target=target, trace_sink=sink)
    target.close()
    assert result.stop_reason == "operator-stop"
    assert any("trace sink failed" in note for note in result.notes)


def test_stream_never_stalls_without_producers():
    # a spec with reads only: state never fills, fallback sampling must
    # keep the stream going
    ir = load_spec(minimal_spec_doc({
        "/things/{thingId}": {
            "parameters": [{"name": "thingId", "in": "path", "required": True,
                            "schema": {"type": "string"}}],
            "get": {"responses": {
                "200": json_response({"type": "object", "properties": {
                    "thingId": {"type": "string"}}}),
                "404": {"description": "gone"}}},
        },
    }))
    model = infer_model(ir)
    sampling = build_sampling_spec(ir, model)

    class AlwaysMissing:
        base_url = "stub"

        def request(self, method, url, headers, body, timeout):
            return 404, {"Content-Type": "application/json"}, b'{"error": "x"}'

    config = RunConfig(master_seed=0, max_requests=80, stop_on_error=True)
    result = run(config, model, sampling, target=AlwaysMissing())
    assert result.counters["requests_sent"] == 80
    assert result.verdict == "passed"
    _drop_trace(result)


def test_path_excludes_filter_operations(bookshop_ir, bookshop_model):
    sampling = build_sampling_spec(bookshop_ir, bookshop_model)
    config = RunConfig(master_seed=0, max_requests=120,
                       path_excludes=("/books", "/_admin"))
    target = InProcessTarget(BookshopApp())
    result = run(config, bookshop_model, sampling, target=target)
    target.close()
    assert result.counters["requests_sent"] == 120
    assert not any(" /books" in op
                   for op in result.counters["per_operation"])
    _drop_trace(result)


@pytest.mark.parametrize("excludes, weights", [
    (("/",), WeightTable()),
    ((), WeightTable(per_resource={name: 0.0 for name in
                                   ("author", "book", "customer", "order")})),
], ids=["every-path-excluded", "every-resource-zero"])
def test_a_run_with_nothing_to_draw_raises_before_any_request(
        bookshop_ir, bookshop_model, excludes, weights):
    sampling = build_sampling_spec(bookshop_ir, bookshop_model, weights)
    app = DigestingApp()
    untouched = app.digest.hexdigest()
    with pytest.raises(ValueError):
        run(RunConfig(max_requests=50, path_excludes=excludes),
            bookshop_model, sampling, target=InProcessTarget(app))
    assert app.digest.hexdigest() == untouched


# --- wider windows (concurrent) ------------------------------------------------------

def test_concurrent_in_flight_bound_respected(bookshop_ir, bookshop_model,
                                              bookshop_sampling):
    import threading

    class CountingApp(BookshopApp):
        def __init__(self):
            super().__init__()
            self.lockc = threading.Lock()
            self.active = 0
            self.peak = 0

        def handle(self, *args, **kwargs):
            with self.lockc:
                self.active += 1
                self.peak = max(self.peak, self.active)
            try:
                return super().handle(*args, **kwargs)
            finally:
                with self.lockc:
                    self.active -= 1

    app = CountingApp()
    config = RunConfig(mode="concurrent", max_in_flight=6, master_seed=2,
                       max_requests=400)
    sampling = bookshop_sampling
    target = InProcessTarget(app)
    result = run(config, bookshop_model, sampling, target=target)
    target.close()
    assert app.peak <= 6
    assert result.counters["peak_in_flight"] <= 6
    assert result.counters["peak_in_flight"] > 1  # concurrency exercised
    assert result.counters["requests_sent"] == 400
    _drop_trace(result)


def test_concurrent_window_one_equals_sequential(bookshop_ir, bookshop_model,
                                                 bookshop_sampling):
    seq = run_with(bookshop_ir=bookshop_ir, max_requests=150, seed=9)
    con = run_with(bookshop_ir=bookshop_ir, max_requests=150, seed=9,
                   mode="concurrent", max_in_flight=1)
    _, seq_events = read_trace(seq.trace_ref)
    _, con_events = read_trace(con.trace_ref)
    _drop_trace(seq)
    _drop_trace(con)
    assert [json.dumps(e.plan, sort_keys=True) for e in seq_events] == \
        [json.dumps(e.plan, sort_keys=True) for e in con_events]
    assert [[f.to_dict() for f in e.findings] for e in seq_events] == \
        [[f.to_dict() for f in e.findings] for e in con_events]

    # The request stream of a fixed seed is pinned, so a change to the loop
    # that alters what is sent fails here even if both modes still agree.
    # At store cap 100 the store evicts for most of the run.
    pins = ((DEFAULT_STORE_CAP, SEED_1_STREAM_SHA256),
            (100, SEED_1_CAP_100_STREAM_SHA256))
    for store_cap, pinned in pins:
        for mode in ("sequential", "concurrent"):
            app = DigestingApp()
            config = RunConfig(mode=mode, max_in_flight=1, master_seed=1,
                               max_requests=2000, stop_on_error=False,
                               store_cap=store_cap)
            target = InProcessTarget(app)
            try:
                result = run(config, bookshop_model, bookshop_sampling,
                             target=target)
            finally:
                target.close()
            _drop_trace(result)
            assert result.counters["requests_sent"] == 2000
            assert app.digest.hexdigest() == pinned, (store_cap, mode)


def test_a_batch_that_finishes_together_is_traced_in_dispatch_order(
        bookshop_model, bookshop_sampling, monkeypatch):
    from apifuzz import generator

    real_execute, real_wait = generator.execute, generator.wait

    def execute(plan, *args, **kwargs):
        # Of 4 plans sent together, the first sent finishes last.
        time.sleep(0.002 * (4 - (plan.plan_id - 1) % 4))
        return real_execute(plan, *args, **kwargs)

    def wait(dispatcher):
        time.sleep(0.03)  # the whole window finishes before it is collected
        return real_wait(dispatcher)

    monkeypatch.setattr(generator, "execute", execute)
    monkeypatch.setattr(generator, "wait", wait)
    config = RunConfig(mode="concurrent", max_in_flight=4, master_seed=1,
                       max_requests=60, stop_on_error=False)
    target = InProcessTarget(BookshopApp())
    try:
        result = run(config, bookshop_model, bookshop_sampling, target=target)
    finally:
        target.close()
    _, events = read_trace(result.trace_ref)
    _drop_trace(result)
    assert len(events) == 60
    plan_ids = [e.plan["plan_id"] for e in sorted(events,
                                                  key=lambda e: e.event_id)]
    assert plan_ids == sorted(plan_ids)


def test_concurrent_clean_run_no_error_findings(bookshop_ir):
    result = run_with(bookshop_ir=bookshop_ir, mode="concurrent",
                      max_in_flight=8, max_requests=2500, seed=4)
    assert result.verdict == "passed"
    assert result.counters["error_findings"] == 0
    _drop_trace(result)


def test_concurrent_race_bug_detected(bookshop_ir, bookshop_model):
    weights = WeightTable(per_operation={"POST /orders": 40.0,
                                         "POST /books": 0.3,
                                         "POST /authors": 0.1,
                                         "POST /customers": 0.1,
                                         "DELETE /books/{bookId}": 0.1})
    sampling = build_sampling_spec(bookshop_ir, bookshop_model, weights)
    found = False
    for seed in range(1, 6):
        config = RunConfig(mode="concurrent", max_in_flight=8,
                           master_seed=seed, duration_limit=24.0)
        target = InProcessTarget(
            BookshopApp(toggles=["inventory-lost-update"]))
        result = run(config, bookshop_model, sampling, target=target)
        target.close()
        _drop_trace(result)
        if result.verdict == "failed" and any(
                f.kind == "server-error-5xx" for f in result.findings):
            found = True
            break
    assert found, "race not detected within 5 seeds"


def test_ctrl_c_stops_the_run_and_keeps_the_trace(bookshop_model,
                                                  bookshop_sampling):
    class InterruptedTarget(InProcessTarget):
        calls = 0

        def request(self, *args, **kwargs):
            self.calls += 1
            if self.calls == 1 + 5:  # the start-up probe, then 4 requests
                raise KeyboardInterrupt
            return super().request(*args, **kwargs)

    config = RunConfig(master_seed=0, max_requests=50)
    target = InterruptedTarget(BookshopApp())
    try:
        result = run(config, bookshop_model, bookshop_sampling, target=target)
    except KeyboardInterrupt:
        pytest.fail("Ctrl-C escaped the run loop")
    finally:
        target.close()
    _, events = read_trace(result.trace_ref)
    _drop_trace(result)
    assert result.stop_reason == "operator-stop"
    assert result.counters["requests_sent"] == 4
    assert [e.event_id for e in events] == [1, 2, 3, 4]


def test_ctrl_c_while_an_exchange_is_completed_leaves_it_uncounted(
        bookshop_model, bookshop_sampling, monkeypatch):
    """An exchange interrupted while it is checked is neither traced nor
    counted: the report and the trace agree."""
    from apifuzz import generator

    checked = generator.check_exchange
    calls = []

    def interrupted_check(*args, **kwargs):
        calls.append(None)
        if len(calls) == 5:
            raise KeyboardInterrupt
        return checked(*args, **kwargs)

    monkeypatch.setattr(generator, "check_exchange", interrupted_check)
    config = RunConfig(master_seed=0, max_requests=50)
    target = InProcessTarget(BookshopApp())
    try:
        result = run(config, bookshop_model, bookshop_sampling, target=target)
    finally:
        target.close()
    _, events = read_trace(result.trace_ref)
    _drop_trace(result)
    assert result.stop_reason == "operator-stop"
    assert result.counters["requests_sent"] == 4
    assert sum(result.counters["per_operation"].values()) == 4
    assert [e.event_id for e in events] == [1, 2, 3, 4]


def test_progress_events_are_emitted(bookshop_ir, bookshop_model,
                                     bookshop_sampling, monkeypatch):
    from apifuzz import generator

    seen = []
    monkeypatch.setattr(generator, "PROGRESS_INTERVAL", 0.05)
    config = RunConfig(master_seed=0, max_requests=4000)
    target = InProcessTarget(BookshopApp())
    result = run(config, bookshop_model, bookshop_sampling,
                 target=target, progress=seen.append)
    target.close()
    _drop_trace(result)
    assert seen, "no progress events over 4000 requests"
    event = seen[-1]
    assert event.requests_sent > 0
    assert event.requests_per_second > 0
    assert event.error_findings == 0


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(mode="warp")
    with pytest.raises(ValueError):
        RunConfig(mode="concurrent", max_in_flight=0)
    with pytest.raises(ValueError):
        RunConfig.from_dict({"no_such_key": 1})
    sequential = RunConfig(mode="sequential", max_in_flight=9)
    assert sequential.max_in_flight == 1  # forced by mode
