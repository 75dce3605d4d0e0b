"""A run and a replay drive their loop through one dispatcher.

At window 1 the dispatcher's one thread runs the loop and the calls it
sends, while the calling thread keeps each call's deadline and takes
Ctrl-C; above it the calling thread runs the loop.  Every test here that
dispatches, apart from those that signal the process (which must run the
loop's caller on the main thread), calls through ``returns_within``, so a
deadlock in the driver fails the suite instead of hanging it.
"""

import os
import signal
import threading
import time

import pytest

from apifuzz import generator, trace_recreate
from apifuzz.bookshop import BookshopApp
from apifuzz.generator import RunConfig, run
from apifuzz.http_driver import Dispatcher, InProcessTarget
from apifuzz.sampling import build_sampling_spec
from apifuzz.semantic_model import infer_model
from apifuzz.spec_ingest import load_spec
from apifuzz.trace_recreate import RecreateScript, read_trace, replay

from conftest import json_response, minimal_spec_doc, returns_within

BOUND = 0.4   # the request timeout of the stall tests, in seconds
STALL = 5.0   # how long a stalled call waits unless it is released


class StallingApp:
    """``GET /slow``, whose calls numbered in ``stall_on`` wait up to
    :data:`STALL` seconds, until released, before they answer.  It notes
    the thread of every call but the start-up probe's."""

    def __init__(self, stall_on=()):
        self.stall_on = set(stall_on)
        self.calls = 0
        self.threads = []
        self.stalling = threading.Event()
        self.release = threading.Event()

    def handle(self, method, path, query, headers, body):
        if path == "/":
            return 200, {}, b""
        self.calls += 1
        self.threads.append(threading.current_thread())
        if self.calls in self.stall_on:
            self.stalling.set()
            self.release.wait(STALL)
        return 200, {"Content-Type": "application/json"}, b"{}"


@pytest.fixture(scope="module")
def slow_api():
    ir = load_spec(minimal_spec_doc({"/slow": {"get": {
        "responses": {"200": json_response({"type": "object"})}}}}))
    model = infer_model(ir)
    return model, build_sampling_spec(ir, model)


def _slow_script():
    return RecreateScript(
        steps=[{"step": 0, "method": "GET", "path_template": "/slow",
                "path_params": {}, "query": {}, "headers": {},
                "body": None}],
        bindings=[],
        expected_failure={"kind": "no-response", "transport_error": "timeout"})


@pytest.fixture
def default_sigint():
    """Python's own SIGINT handler, which raises KeyboardInterrupt."""
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    yield
    signal.signal(signal.SIGINT, previous)


# --- the driver ------------------------------------------------------------------

def _echo_loop(dispatcher, fail):
    dispatcher.send(1, str.upper, "answer")
    ((tag, value),) = yield Dispatcher.wait
    if fail:
        raise LookupError(value)
    return tag, value


def _drive(window, loop_of):
    dispatcher = Dispatcher(window, timeout=5)
    try:
        return dispatcher.drive(loop_of(dispatcher))
    finally:
        dispatcher.close()


@pytest.mark.parametrize("window", [1, 2])
def test_drive_returns_the_loops_value_and_raises_its_exception(window):
    assert returns_within(5, _drive, window,
                          lambda d: _echo_loop(d, False)) == (1, "ANSWER")
    with pytest.raises(LookupError, match="ANSWER"):
        returns_within(5, _drive, window, lambda d: _echo_loop(d, True))


@pytest.mark.parametrize("window", [1, 2])
def test_a_calls_exception_is_thrown_into_the_loop_at_its_wait(window):
    def loop(dispatcher):
        dispatcher.send(1, int, "not a number")
        try:
            yield Dispatcher.wait
        except ValueError:
            return "caught"
        return "not thrown"

    assert returns_within(5, _drive, window, loop) == "caught"


def test_at_window_one_the_loop_and_its_calls_share_the_dispatch_thread():
    caller = []

    def loop(dispatcher):
        loop_thread = threading.current_thread()
        for tag in range(3):
            dispatcher.send(tag, threading.current_thread)
            ((_, call_thread),) = yield Dispatcher.wait
            assert call_thread is loop_thread
        return loop_thread

    def drive():
        caller.append(threading.current_thread())
        return _drive(1, loop)

    loop_thread = returns_within(5, drive)
    assert loop_thread is not caller[0]
    assert loop_thread.name == "apifuzz-dispatch"


def test_ctrl_c_while_the_loop_runs_its_own_code_reaches_it_at_its_next_wait(
        default_sigint):
    ran = []

    def loop(dispatcher):
        os.kill(os.getpid(), signal.SIGINT)
        time.sleep(0.2)  # the calling thread takes the signal meanwhile
        dispatcher.send(1, ran.append, "sent after the signal")
        try:
            yield Dispatcher.wait
        except KeyboardInterrupt:
            return "interrupted"
        return "not interrupted"

    assert _drive(1, loop) == "interrupted"
    assert ran == []


# --- a run and a replay at window 1 --------------------------------------------------

def test_a_stalled_run_call_is_answered_as_a_timeout_at_the_bound(slow_api):
    model, sampling = slow_api
    app = StallingApp(stall_on={2})
    config = RunConfig(master_seed=1, max_requests=4, stop_on_error=False,
                       request_timeout=BOUND)
    try:
        result = returns_within(3, run, config, model, sampling,
                                target=InProcessTarget(app))
    finally:
        app.release.set()
    _, events = read_trace(result.trace_ref)
    os.unlink(result.trace_ref)
    assert result.stop_reason == "operator-stop"  # the request cap
    assert result.counters["requests_sent"] == len(events) == app.calls == 4
    [stalled] = [e for e in events if e.transport_error is not None]
    assert stalled.event_id == 2
    assert stalled.transport_error == "timeout"
    assert 0.9 * BOUND <= stalled.latency <= 1.1 * BOUND


def test_a_replayed_step_that_stalls_returns_within_the_bound():
    app = StallingApp(stall_on={1})
    started = time.perf_counter()
    try:
        outcome = returns_within(3, replay, _slow_script(),
                                 InProcessTarget(app), BOUND)
    finally:
        app.release.set()
    assert time.perf_counter() - started < BOUND + 0.15
    assert outcome.outcome == "reproduced"


def test_sigint_during_a_stalled_call_stops_the_run_within_a_second(
        slow_api, default_sigint):
    model, sampling = slow_api
    app = StallingApp(stall_on={3})
    config = RunConfig(master_seed=1, max_requests=10, stop_on_error=False,
                       request_timeout=30.0)
    signalled = []

    def interrupt():
        if app.stalling.wait(10):
            signalled.append(time.perf_counter())
            os.kill(os.getpid(), signal.SIGINT)

    threading.Thread(target=interrupt, daemon=True).start()
    try:
        result = run(config, model, sampling, target=InProcessTarget(app))
        returned = time.perf_counter()
    finally:
        app.release.set()
    _, events = read_trace(result.trace_ref)
    os.unlink(result.trace_ref)
    assert signalled and returned - signalled[0] < 1.0
    assert result.stop_reason == "operator-stop"
    assert result.counters["requests_sent"] == len(events) == 2
    assert [e.event_id for e in events] == [1, 2]


def test_at_window_one_a_run_handles_on_the_thread_that_generates(
        bookshop_model, bookshop_sampling, monkeypatch):
    generating = []
    real_generate = generator.generate_request

    def noting_generate(*args, **kwargs):
        generating.append(threading.current_thread())
        return real_generate(*args, **kwargs)

    monkeypatch.setattr(generator, "generate_request", noting_generate)
    app = StallingApp()
    config = RunConfig(master_seed=1, max_requests=30, stop_on_error=False)
    result = returns_within(10, run, config, bookshop_model,
                            bookshop_sampling, target=InProcessTarget(app))
    os.unlink(result.trace_ref)
    assert len(generating) == len(app.threads) == 30
    assert set(generating) == set(app.threads)
    assert {t.name for t in generating} == {"apifuzz-dispatch"}


def test_at_window_one_a_replay_handles_on_the_thread_that_builds_its_plans(
        monkeypatch):
    building = []
    real_build = trace_recreate._build_replay_plan

    def noting_build(*args, **kwargs):
        building.append(threading.current_thread())
        return real_build(*args, **kwargs)

    monkeypatch.setattr(trace_recreate, "_build_replay_plan", noting_build)
    app = StallingApp()
    script = _slow_script()
    script.steps = [dict(script.steps[0], step=i) for i in range(3)]
    script.expected_failure = {"kind": "server-error-5xx",
                               "status_class": "5XX"}
    outcome = returns_within(5, replay, script, InProcessTarget(app), BOUND)
    assert outcome.outcome == "not-reproduced"
    assert len(building) == len(app.threads) == 3
    assert set(building) == set(app.threads)
    assert {t.name for t in building} == {"apifuzz-dispatch"}


@pytest.mark.parametrize("window", [1, 4])
def test_a_run_starts_no_more_dispatch_threads_than_its_window(
        window, bookshop_model, bookshop_sampling, monkeypatch):
    started = []
    real_start = threading.Thread.start

    def start(self):
        started.append(self.name)
        real_start(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    config = RunConfig(mode="concurrent", max_in_flight=window,
                       master_seed=1, max_requests=200, stop_on_error=False)
    target = InProcessTarget(BookshopApp())
    result = returns_within(20, run, config, bookshop_model,
                            bookshop_sampling, target=target)
    os.unlink(result.trace_ref)
    assert result.counters["requests_sent"] == 200
    dispatch = started.count("apifuzz-dispatch")
    assert dispatch == 1 if window == 1 else 1 <= dispatch <= window
