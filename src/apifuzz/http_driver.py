"""Request execution against a network endpoint or an in-process app.

Both targets return the same normalized :class:`HttpExchangeResult`, so the
generation loop, checker, and trace never care which transport ran the
request.  A target reports a request that got no HTTP answer (timeout,
refused connection, protocol error) by raising :class:`TransportError`;
:func:`execute` turns it into data on the result, and exactly one of
``status`` / ``transport_error`` is set.  One call makes at most one wire
attempt; retry policy, if anyone ever wants one, belongs to the caller.

The network target keeps one persistent ``http.client`` connection per
calling thread.  A connection whose exchange failed is dropped, and one the
server closed while it sat idle is replaced before it is used, so a failed
or late exchange never touches the next request.

The in-process target runs the application's handler on one long-lived
worker thread per calling thread, handed work through a pair of queues, so
that a stalled handler can be abandoned at the timeout exactly as a network
request would be.  A worker whose call timed out (or whose caller was
interrupted while waiting) is retired: it exits once its stalled call
returns, and the caller's next request starts a fresh worker, so a late
reply is never read as the answer to a later request.

:func:`render_url` is the one place plan values become a concrete URL; the
generator and replay both call it, so a replayed step sends the URL the fuzz
run sent.
"""

from __future__ import annotations

import http.client
import json
import queue
import select
import socket
import ssl
import threading
import time
import weakref
from dataclasses import dataclass, field
from typing import Any
from urllib.parse import quote, urlencode, urlsplit

from .spec_ingest import media_type

TRANSPORT_TIMEOUT = "timeout"
TRANSPORT_REFUSED = "connection-refused"
TRANSPORT_PROTOCOL = "protocol-error"

DEFAULT_TIMEOUT = 30.0

# What a request line leaves unescaped: the reserved characters, ``~`` and
# ``%``, so an already quoted URL goes out unchanged and any other byte
# (a space, a non-ASCII character) is percent-encoded as UTF-8.
_URL_SAFE = "!#$%&'()*+,/:;=?@[]~"


class TransportError(Exception):
    """A request got no HTTP answer.  ``kind`` is one of the ``TRANSPORT_*``
    names, and ``str()`` of the error is the result's ``transport_error``:
    the kind, followed for a protocol error by its detail."""

    def __init__(self, kind: str, detail: str | None = None):
        super().__init__(kind if detail is None else f"{kind}: {detail}")
        self.kind = kind


@dataclass
class HttpExchangeResult:
    status: int | None
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    json_body: Any = None
    json_error: str | None = None
    latency: float = 0.0
    transport_error: str | None = None

    def __post_init__(self):
        assert (self.status is None) != (self.transport_error is None), \
            "exactly one of status/transport_error must be set"


def content_type(headers: dict[str, str]) -> str | None:
    """The ``Content-Type`` header's value, whatever the case of its name."""
    for key, value in headers.items():
        if key.lower() == "content-type":
            return value
    return None


def _parse_json_body(headers: dict[str, str], body: bytes):
    if not body or not media_type(content_type(headers))[1]:
        return None, None
    try:
        return json.loads(body.decode("utf-8")), None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return None, str(exc)


def wire_str(value: Any) -> str:
    """A path, query or header value as sent: ``true``/``false`` for
    booleans, the empty string for null, ``str()`` otherwise."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    return str(value)


def render_url(path_template: str, path_values: dict[str, Any],
               query_values: dict[str, Any]) -> str:
    """The concrete URL for a path template and its parameter values; a
    list query value repeats its key."""
    url = path_template
    for name, value in path_values.items():
        url = url.replace("{" + name + "}", quote(wire_str(value), safe=""))
    if query_values:
        encoded = {k: ([wire_str(x) for x in v] if isinstance(v, list)
                       else wire_str(v))
                   for k, v in query_values.items()}
        url += "?" + urlencode(encoded, doseq=True)
    return url


class NetworkTarget:
    """HTTP/1.1 over the wire; one kept-alive connection per calling thread.

    ``verify`` decides whether an ``https`` endpoint's certificate and host
    name are checked (against the system's trusted certificates).
    """

    def __init__(self, base_url: str, default_headers: dict[str, str] | None = None,
                 verify: bool = True):
        self.base_url = base_url.rstrip("/")
        self.default_headers = dict(default_headers or {})
        self.verify = verify
        self._local = threading.local()

    def _connect(self, timeout: float) -> http.client.HTTPConnection:
        parts = urlsplit(self.base_url)
        if parts.scheme == "http":
            conn = http.client.HTTPConnection(parts.hostname, parts.port,
                                              timeout=timeout)
        elif parts.scheme == "https":
            context = ssl.create_default_context()
            if not self.verify:
                context.check_hostname = False
                context.verify_mode = ssl.CERT_NONE
            conn = http.client.HTTPSConnection(parts.hostname, parts.port,
                                               timeout=timeout, context=context)
        else:
            raise ValueError(f"unsupported URL scheme in {self.base_url!r}")
        conn.connect()
        # A request's head and body are two writes; without this the body
        # would wait for the server's delayed ACK of the head.
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # Closes the socket once the connection is dropped with its thread
        # or its target.
        weakref.finalize(conn, conn.sock.close)
        return conn

    def _connection(self, timeout: float) -> http.client.HTTPConnection:
        """This thread's connection, opened anew when there is none or the
        server closed it (or sent something unasked) while it was idle."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            if conn.sock is not None and \
                    not select.select([conn.sock], [], [], 0)[0]:
                conn.sock.settimeout(timeout)
                return conn
            conn.close()
        conn = self._local.conn = self._connect(timeout)
        return conn

    def request(self, method: str, url_path: str, headers: dict[str, str],
                body: bytes | None, timeout: float):
        merged = dict(self.default_headers)
        merged.update(headers)
        conn = None
        try:
            url = quote(urlsplit(self.base_url).path + url_path, safe=_URL_SAFE)
            conn = self._connection(timeout)
            conn.request(method, url, body=body, headers=merged)
            response = conn.getresponse()
            payload = response.read()
        except BaseException as exc:
            if conn is not None:  # whatever its state, it is not reused
                conn.close()
            if isinstance(exc, TimeoutError):
                raise TransportError(TRANSPORT_TIMEOUT) from exc
            if isinstance(exc, OSError):
                raise TransportError(TRANSPORT_REFUSED) from exc
            if isinstance(exc, Exception):
                raise TransportError(TRANSPORT_PROTOCOL, str(exc)) from exc
            raise
        resp_headers: dict[str, str] = {}
        for key, value in response.getheaders():
            resp_headers[key] = (f"{resp_headers[key]}, {value}"
                                 if key in resp_headers else value)
        return response.status, resp_headers, payload


def _serve(app, inbox: queue.SimpleQueue, outbox: queue.SimpleQueue) -> None:
    """Worker loop: answer each job on ``inbox`` until a ``None`` arrives.

    Holds the app and its queues but never the target, so a dropped target
    can be collected and its finalizer can stop the worker.  Whatever the
    handler raises is handed to the caller, which re-raises it.
    """
    while True:
        job = inbox.get()
        if job is None:
            return
        try:
            outbox.put((True, app.handle(*job)))
        except BaseException as exc:
            outbox.put((False, exc))


def _stop_worker(inboxes: set[queue.SimpleQueue],
                 inbox: queue.SimpleQueue) -> None:
    """Ask one worker to exit once its current call returns.  Takes no lock:
    it may run from garbage collection while its target's lock is held."""
    inboxes.discard(inbox)
    inbox.put(None)


def _stop_workers(inboxes: set[queue.SimpleQueue], lock: threading.Lock) -> None:
    with lock:
        stopping = list(inboxes)
        inboxes.clear()
    for inbox in stopping:
        inbox.put(None)


class _Worker:
    """The queues of one worker thread.  Its calling thread's thread-local
    holds it, so it is dropped when that thread ends; dropping it, or
    calling ``stop``, ends the worker thread once its current call returns."""

    def __init__(self, app, inboxes: set[queue.SimpleQueue]):
        self.inbox: queue.SimpleQueue = queue.SimpleQueue()
        self.outbox: queue.SimpleQueue = queue.SimpleQueue()
        inboxes.add(self.inbox)
        self.stop = weakref.finalize(self, _stop_worker, inboxes, self.inbox)
        threading.Thread(
            target=_serve, args=(app, self.inbox, self.outbox), daemon=True,
            name=f"inproc-{threading.current_thread().name}").start()


class InProcessTarget:
    """Adapter over an application object exposing
    ``handle(method, path, query, headers, body) -> (status, headers, body)``.

    Each calling thread gets its own worker thread, started on its first
    request, and waits at most ``timeout`` for the worker's reply.  On a
    timeout the stalled handler is abandoned (it finishes on its own), its
    worker is retired, and the call reports a timeout, mirroring the network
    behavior; a handler's exception is re-raised in the caller.  A worker
    ends with its calling thread; ``close()`` ends the workers of every
    calling thread, and a target dropped without ``close()`` ends them when
    it is collected.
    """

    def __init__(self, app):
        self.app = app
        self.base_url = "in-process"
        self._local = threading.local()
        self._lock = threading.Lock()
        self._inboxes: set[queue.SimpleQueue] = set()
        self._closer = weakref.finalize(self, _stop_workers, self._inboxes,
                                        self._lock)

    def _worker(self) -> _Worker:
        worker = getattr(self._local, "worker", None)
        if worker is None or not self._closer.alive:
            with self._lock:  # close() takes it too, so no worker slips past
                if not self._closer.alive:
                    raise RuntimeError("in-process target is closed")
                worker = self._local.worker = _Worker(self.app, self._inboxes)
        return worker

    def _retire(self, worker: _Worker) -> None:
        self._local.worker = None
        worker.stop()

    def request(self, method: str, url_path: str, headers: dict[str, str],
                body: bytes | None, timeout: float):
        path, _, query = url_path.partition("?")
        worker = self._worker()
        worker.inbox.put((method, path, query, headers, body or b""))
        try:
            ok, value = worker.outbox.get(timeout=timeout)
        except queue.Empty:
            self._retire(worker)
            raise TransportError(TRANSPORT_TIMEOUT) from None
        except BaseException:
            self._retire(worker)
            raise
        if ok:
            return value
        raise value

    def close(self) -> None:
        self._closer()


def execute(plan, target, timeout: float = DEFAULT_TIMEOUT) -> HttpExchangeResult:
    """Run one request plan against a target and normalize the outcome."""
    headers = dict(plan.headers)
    body_bytes: bytes | None = None
    if plan.body is not None:
        body_bytes = json.dumps(plan.body, sort_keys=True).encode("utf-8")
        headers.setdefault("Content-Type", "application/json")

    started = time.perf_counter()
    try:
        status, resp_headers, resp_body = target.request(
            plan.method, plan.concrete_url, headers, body_bytes, timeout)
    except TransportError as exc:
        return HttpExchangeResult(
            status=None, latency=time.perf_counter() - started,
            transport_error=str(exc))
    latency = time.perf_counter() - started
    json_body, json_error = _parse_json_body(resp_headers, resp_body)
    return HttpExchangeResult(
        status=status, headers=resp_headers, body=resp_body,
        json_body=json_body, json_error=json_error, latency=latency)


def reset(target, timeout: float = 10.0) -> None:
    """Best-effort ``POST /_admin/reset``, which fixture-style SUTs expose;
    a transport error is ignored."""
    try:
        target.request("POST", "/_admin/reset", {}, None, timeout)
    except TransportError:
        pass


def probe(target, timeout: float = 5.0) -> bool:
    """One GET / to decide reachability; any HTTP answer counts as reachable."""
    try:
        target.request("GET", "/", {}, None, timeout)
        return True
    except TransportError:
        return False
