import gc
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
    result = execute(Plan("GET", "/_admin/stall?seconds=2", {}, None),
                     target, timeout=0.4)
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


# --- the in-process dispatch worker ---------------------------------------------

class _ScriptedApp:
    """Answers ``GET /stall`` after a sleep, raises on ``GET /boom`` and
    echoes the path of anything else."""

    def handle(self, method, path, query, headers, body):
        if path == "/stall":
            time.sleep(0.5)
        if path == "/boom":
            raise RuntimeError("handler blew up")
        return 200, {}, path.encode()


def _worker_threads() -> set[threading.Thread]:
    return {t for t in threading.enumerate() if t.name.startswith("inproc-")}


def _wait_until_gone(threads, seconds: float = 1.0) -> set[threading.Thread]:
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        threads = {t for t in threads if t.is_alive()}
        if not threads:
            break
        time.sleep(0.01)
    return {t for t in threads if t.is_alive()}


def test_request_after_a_timeout_gets_its_own_answer():
    target = InProcessTarget(_ScriptedApp())
    with pytest.raises(TransportError, match="^timeout$"):
        target.request("GET", "/stall", {}, None, timeout=0.05)
    started = time.perf_counter()
    assert target.request("GET", "/next", {}, None, timeout=5) \
        == (200, {}, b"/next")
    assert time.perf_counter() - started < 0.1
    target.close()


def test_handler_exception_is_raised_in_the_caller():
    target = InProcessTarget(_ScriptedApp())
    with pytest.raises(RuntimeError, match="handler blew up"):
        target.request("GET", "/boom", {}, None, timeout=5)
    assert target.request("GET", "/ok", {}, None, timeout=5)[2] == b"/ok"
    target.close()


def test_close_ends_the_workers_of_every_calling_thread():
    before = _worker_threads()
    target = InProcessTarget(_ScriptedApp())
    answered, release = threading.Barrier(3, timeout=5), threading.Event()

    def caller():
        target.request("GET", "/x", {}, None, 5)
        answered.wait()
        release.wait(timeout=5)  # outlive close(), which must end the worker

    callers = [threading.Thread(target=caller, name=f"caller-{i}")
               for i in range(2)]
    for thread in callers:
        thread.start()
    answered.wait()
    started = _worker_threads() - before
    assert {t.name for t in started} == {"inproc-caller-0", "inproc-caller-1"}
    target.close()
    try:
        assert not _wait_until_gone(started), "workers outlived close()"
    finally:
        release.set()
        for thread in callers:
            thread.join(timeout=5)


def test_a_worker_ends_with_its_calling_thread():
    before = _worker_threads()
    target = InProcessTarget(_ScriptedApp())
    caller = threading.Thread(target=target.request,
                              args=("GET", "/x", {}, None, 5))
    caller.start()
    caller.join(timeout=5)
    assert not caller.is_alive()
    assert not _wait_until_gone(_worker_threads() - before), \
        "worker outlived its caller"
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


def test_dropped_target_leaves_no_worker():
    before = _worker_threads()
    target = InProcessTarget(_ScriptedApp())
    target.request("GET", "/x", {}, None, timeout=5)
    started = _worker_threads() - before
    assert len(started) == 1
    del target
    gc.collect()
    assert not _wait_until_gone(started), "worker outlived its target"
