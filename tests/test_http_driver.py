import socket
import sys
import threading
import time

import pytest

from apifuzz.bookshop import BookshopApp
from apifuzz.bookshop.server import serve
from dataclasses import dataclass, field
from typing import Any

from apifuzz.http_driver import (
    Dispatcher,
    InProcessTarget,
    NetworkTarget,
    TransportError,
    execute,
    probe,
    render_url,
)


@dataclass
class Plan:
    method: str
    concrete_url: str
    headers: dict = field(default_factory=dict)
    body: Any = None


@pytest.fixture(scope="module")
def network_fixture():
    server = serve(port=0)
    yield server
    server.stop()


SCRIPTED_PLANS = [
    Plan("POST", "/authors", {}, {"name": "Ada"}),
    Plan("POST", "/books", {}, {"title": "T", "authorId": "a1",
                                "inventory": 3, "format": "hardcover"}),
    Plan("GET", "/books", {}, None),
    Plan("GET", "/books/b1", {}, None),
    Plan("PUT", "/books/b1", {}, {"inventory": 5}),
    Plan("POST", "/customers", {}, {"name": "Bo"}),
    Plan("POST", "/orders", {}, {"customerId": "c1", "bookIds": ["b1"]}),
    Plan("DELETE", "/books/b1", {}, None),
    Plan("GET", "/books/b1", {}, None),
    Plan("GET", "/books/!!!invalid", {}, None),
    Plan("POST", "/books", {}, {"title": "T"}),  # 400: missing authorId
    Plan("GET", "/nowhere", {}, None),
]


def test_adapter_equivalence_network_vs_in_process(network_fixture):
    """Identical (status, body) from the wire and the in-process adapter."""
    in_proc = InProcessTarget(BookshopApp())
    net = NetworkTarget(network_fixture.base_url)
    for plan in SCRIPTED_PLANS:
        a = execute(plan, in_proc, timeout=10)
        b = execute(plan, net, timeout=10)
        assert a.transport_error is None and b.transport_error is None
        assert (a.status, a.json_body) == (b.status, b.json_body), plan
    in_proc.close()


def test_json_bodies_are_parsed(target):
    result = execute(Plan("POST", "/authors", {}, {"name": "Ada"}), target)
    assert result.status == 201
    assert result.json_body["authorId"] == "a1"
    assert result.json_error is None
    assert result.latency > 0


def test_fixture_round_trip_list_length(target):
    execute(Plan("POST", "/authors", {}, {"name": "A"}), target)
    execute(Plan("POST", "/books", {}, {"title": "B", "authorId": "a1"}), target)
    result = execute(Plan("GET", "/books", {}, None), target)
    assert result.status == 200
    assert isinstance(result.json_body, list) and len(result.json_body) == 1


def test_closed_port_reports_connection_refused():
    refused = NetworkTarget("http://127.0.0.1:9")  # discard port; never open
    result = execute(Plan("GET", "/", {}, None), refused, timeout=2)
    assert result.status is None
    assert result.transport_error == "connection-refused"


def test_in_process_stall_times_out_near_the_bound(target):
    dispatcher = Dispatcher(1, timeout=0.4)
    try:
        dispatcher.send(7, execute, Plan("GET", "/_admin/stall?seconds=2"),
                        target, 0.4)
        ((tag, result),) = dispatcher.wait()
    finally:
        dispatcher.close()
    assert tag == 7
    assert result.transport_error == "timeout"
    assert 0.36 <= result.latency <= 0.44  # configured bound +/- 10%


def test_network_stall_times_out(network_fixture):
    net = NetworkTarget(network_fixture.base_url)
    result = execute(Plan("GET", "/_admin/stall?seconds=2", {}, None),
                     net, timeout=0.4)
    assert result.transport_error == "timeout"
    assert 0.3 <= result.latency <= 0.6


def test_probe(network_fixture, target):
    assert probe(NetworkTarget(network_fixture.base_url))
    assert probe(target)
    assert not probe(NetworkTarget("http://127.0.0.1:9"))


def test_exactly_one_of_status_or_transport_error():
    with pytest.raises(AssertionError):
        from apifuzz.http_driver import HttpExchangeResult
        HttpExchangeResult(status=200, transport_error="timeout")


def test_non_json_content_not_parsed(target):
    # 204 responses carry no body and no content type
    execute(Plan("POST", "/customers", {}, {"name": "x"}), target)
    result = execute(Plan("DELETE", "/customers/c1", {}, None), target)
    assert result.status == 204
    assert result.body == b""
    assert result.json_body is None


# --- the network client ------------------------------------------------------

class _RawServer:
    """A keep-alive HTTP/1.1 listener on a bare socket.  It records each
    request line as received and answers 200 with the request path as the
    body: after half a second for ``/stall``, and for ``/bye`` by closing
    the connection right after the answer, which claims keep-alive."""

    def __init__(self):
        self.lines: list[bytes] = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.base_url = f"http://127.0.0.1:{self._listener.getsockname()[1]}"
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self):
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            threading.Thread(target=self._answer, args=(conn,),
                             daemon=True).start()

    def _answer(self, conn):
        with conn, conn.makefile("rb") as reader:
            while True:
                line = reader.readline()
                if not line:
                    return
                self.lines.append(line)
                length = 0
                for header in iter(reader.readline, b"\r\n"):
                    if not header:
                        return
                    name, _, value = header.partition(b":")
                    if name.strip().lower() == b"content-length":
                        length = int(value)
                reader.read(length)
                path = line.split(b" ")[1]
                if path == b"/stall":
                    time.sleep(0.5)
                try:
                    conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n"
                                 b"\r\n%s" % (len(path), path))
                except OSError:
                    return
                if path == b"/bye":
                    return

    def close(self):
        self._listener.close()


@pytest.fixture
def raw_server():
    server = _RawServer()
    yield server
    server.close()


def _get(target, path, headers=None, timeout=5):
    return execute(Plan("GET", path, headers or {}, None), target,
                   timeout=timeout)


def test_illegal_header_value_is_a_protocol_error(raw_server):
    net = NetworkTarget(raw_server.base_url)
    result = _get(net, "/bad", {"X-Bad": "a\nb"})
    assert result.status is None
    assert result.transport_error.startswith("protocol-error")
    after = _get(net, "/next")
    assert (after.status, after.body) == (200, b"/next")


def test_connection_closed_while_idle_is_replaced(raw_server):
    net = NetworkTarget(raw_server.base_url)
    assert _get(net, "/bye").status == 200
    time.sleep(0.2)  # the server's close reaches the idle connection
    after = _get(net, "/next")
    assert (after.status, after.body) == (200, b"/next")


def test_late_reply_is_not_read_as_the_next_answer(raw_server):
    net = NetworkTarget(raw_server.base_url)
    assert _get(net, "/stall", timeout=0.1).transport_error == "timeout"
    after = _get(net, "/next")
    assert (after.status, after.body) == (200, b"/next")


def test_request_lines_are_requoted(raw_server):
    net = NetworkTarget(raw_server.base_url)
    paths = ["/bücher", "/books/a b", "/books/a%2Fb",
             render_url("/books", {}, {"tag": ["x", "y z"]})]
    for path in paths:
        assert _get(net, path).status == 200
    assert raw_server.lines == [
        b"GET /b%C3%BCcher HTTP/1.1\r\n",
        b"GET /books/a%20b HTTP/1.1\r\n",
        b"GET /books/a%2Fb HTTP/1.1\r\n",
        b"GET /books?tag=x&tag=y+z HTTP/1.1\r\n",
    ]


# --- the dispatcher ------------------------------------------------------------

class _ScriptedApp:
    """Echoes the path and query of each request, after a sleep of the query's
    seconds on ``GET /stall``; raises on ``GET /boom`` and ``GET /interrupt``."""

    def handle(self, method, path, query, headers, body):
        if path == "/stall":
            time.sleep(float(query))
        if path == "/boom":
            raise RuntimeError("handler blew up")
        if path == "/interrupt":
            raise KeyboardInterrupt
        return 200, {}, f"{path}?{query}".encode() if query else path.encode()


def _dispatch_threads() -> set[threading.Thread]:
    return {t for t in threading.enumerate() if t.name == "apifuzz-dispatch"}


def _wait_until_gone(threads, seconds: float = 1.0) -> set[threading.Thread]:
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        threads = {t for t in threads if t.is_alive()}
        if not threads:
            break
        time.sleep(0.01)
    return {t for t in threads if t.is_alive()}


def _answer(dispatcher, tag, path):
    dispatcher.send(tag, execute, Plan("GET", path), InProcessTarget(
        _ScriptedApp()), 5)
    ((got, result),) = dispatcher.wait()
    assert got == tag
    return result


def test_request_after_a_timeout_gets_its_own_answer():
    dispatcher = Dispatcher(1, timeout=0.05)
    try:
        assert _answer(dispatcher, 1, "/stall?0.5").transport_error \
            == "timeout"
        started = time.perf_counter()
        assert _answer(dispatcher, 2, "/next").body == b"/next"
        assert time.perf_counter() - started < 0.1
    finally:
        dispatcher.close()


def test_a_late_answer_never_answers_a_call_sent_under_its_tag():
    dispatcher = Dispatcher(1, timeout=0.3)
    try:
        assert _answer(dispatcher, 1, "/stall?0.5").transport_error \
            == "timeout"
        # The stalled call returns while this one, under the same tag, is
        # still running.
        assert _answer(dispatcher, 1, "/stall?0.25").body == b"/stall?0.25"
    finally:
        dispatcher.close()


def test_handler_exception_is_raised_in_the_caller():
    target = InProcessTarget(_ScriptedApp())
    with pytest.raises(RuntimeError, match="handler blew up"):
        target.request("GET", "/boom", {}, None, timeout=5)
    assert target.request("GET", "/ok", {}, None, timeout=5)[2] == b"/ok"
    target.close()


@pytest.mark.parametrize("path, raised", [("/boom", RuntimeError),
                                          ("/interrupt", KeyboardInterrupt)])
def test_a_dispatched_exception_is_raised_by_wait(path, raised):
    dispatcher = Dispatcher(1, timeout=5)
    try:
        with pytest.raises(raised):
            _answer(dispatcher, 1, path)
        assert _answer(dispatcher, 2, "/ok").body == b"/ok"
    finally:
        dispatcher.close()


def test_close_leaves_no_dispatcher_thread():
    before = _dispatch_threads()
    dispatcher = Dispatcher(2, timeout=0.05)
    assert _answer(dispatcher, 1, "/stall?0.3").transport_error == "timeout"
    assert _answer(dispatcher, 2, "/x").body == b"/x"
    started = _dispatch_threads() - before
    assert len(started) == 3  # the window, and one in a retired one's place
    dispatcher.close()
    assert not _wait_until_gone(started), "threads outlived close()"


def test_in_process_target_starts_no_thread():
    before = threading.active_count()
    target = InProcessTarget(_ScriptedApp())
    assert target.request("GET", "/x", {}, None, timeout=5)[2] == b"/x"
    assert threading.active_count() == before
    target.close()


def test_replies_never_cross_between_calling_threads():
    target = InProcessTarget(_ScriptedApp())
    crossed = []

    def caller(n):
        for i in range(150):
            path = f"/{n}/{i}"
            if target.request("GET", path, {}, None, 5)[2] != path.encode():
                crossed.append(path)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=caller, args=(n,))
                   for n in range(8)]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
        target.close()
    assert not any(thread.is_alive() for thread in callers)
    assert crossed == []


def test_replies_never_cross_between_dispatched_tags():
    target = InProcessTarget(_ScriptedApp())
    dispatcher = Dispatcher(8, timeout=5)
    answers = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for tag in range(1200):
            if tag >= 8:  # keep 8 in flight
                answers.update(dispatcher.wait())
            dispatcher.send(tag, execute, Plan("GET", f"/{tag}"), target, 5)
        while len(answers) < 1200:
            answers.update(dispatcher.wait())
    finally:
        sys.setswitchinterval(interval)
        dispatcher.close()
    assert {tag: result.body for tag, result in answers.items()} \
        == {tag: f"/{tag}".encode() for tag in range(1200)}
