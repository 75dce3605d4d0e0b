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

The in-process target calls the application's handler on the calling
thread.  A run and a replay send every request through a
:class:`Dispatcher`, a window of long-lived threads that bounds each call
by the timeout for either target: a stalled call is answered as a timeout
and its thread is retired, so a late reply is never read as the answer to a
later request.  At window 1 the dispatcher's one thread also runs the loop
that sends, so a request and its answer stay on one thread, and the calling
thread only keeps the deadline and takes Ctrl-C.

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
from typing import Any, Callable, Generator
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


class InProcessTarget:
    """Adapter over an application object exposing
    ``handle(method, path, query, headers, body) -> (status, headers, body)``.

    The handler runs on the calling thread, and a handler's exception
    reaches the caller.  ``timeout`` is not applied here: a run or a replay
    bounds each call through its :class:`Dispatcher`.
    """

    def __init__(self, app):
        self.app = app
        self.base_url = "in-process"

    def request(self, method: str, url_path: str, headers: dict[str, str],
                body: bytes | None, timeout: float):
        path, _, query = url_path.partition("?")
        return self.app.handle(method, path, query, headers, body or b"")

    def close(self) -> None:
        """Nothing to release; a caller may close any target alike."""


def _call(key: int, fn: Callable, args: tuple) -> tuple[int, bool, Any]:
    """``fn(*args)`` answered under ``key``: its value, or the exception it
    raised, which the caller re-raises."""
    try:
        return key, True, fn(*args)
    except BaseException as exc:
        return key, False, exc


def _serve(dispatcher: "Dispatcher") -> None:
    """A dispatcher thread: run each job from the inbox until a ``None``
    arrives or a call of its own timed out.  A job without a key steers the
    loop (:meth:`Dispatcher.drive` at window 1)."""
    while (job := dispatcher._inbox.get()) is not None:
        key, fn, args = job
        if not (fn(*args) if key is None
                else dispatcher._answer(_call(key, fn, args))):
            return


class Dispatcher:
    """``window`` long-lived threads that run the calls sent to them.

    ``send(tag, fn, *args)`` queues ``fn(*args)``; :meth:`wait` returns the
    answers under their tags.  A call that outlives ``timeout`` is answered
    as a ``timeout`` result and its thread is retired: it exits when the
    stalled call returns, its late answer dropped, and a fresh thread takes
    its place.  Of that thread and the one keeping the deadline, the one
    that pops the call's own key from ``_claims`` answers it, even if its
    tag is sent again.

    A loop that sends and waits is a generator run by :meth:`drive`: at
    each wait it yields a function of the dispatcher (``Dispatcher.wait``)
    and is resumed with what that returns.  Only the thread running the
    loop sends and waits.
    """

    def __init__(self, window: int, timeout: float):
        self.timeout = timeout
        self._window = window
        self._inbox: queue.SimpleQueue = queue.SimpleQueue()
        self._outbox: queue.SimpleQueue = queue.SimpleQueue()
        self._claims: dict[int, bool] = {}
        # key -> (deadline, tag), in send order: the first times out next
        self._unanswered: dict[int, tuple[float, Any]] = {}
        self._sent = 0
        for _ in range(window):
            self._start()

    def _start(self) -> None:
        threading.Thread(target=_serve, daemon=True, name="apifuzz-dispatch",
                         args=(self,)).start()

    def send(self, tag, fn: Callable, *args) -> None:
        self._sent = key = self._sent + 1
        self._unanswered[key] = (time.perf_counter() + self.timeout, tag)
        self._claims[key] = True
        self._inbox.put((key, fn, args))

    def _answer(self, answer: tuple[int, bool, Any]) -> bool:
        """Put a finished call's answer on the outbox; False when the thread
        keeping its deadline claimed it first (a timeout or Ctrl-C), which
        retires this thread."""
        if not self._claims.pop(answer[0], False):
            return False
        self._outbox.put(answer)
        return True

    def _timed_out(self, key: int, deadline: float) -> tuple[int, bool, Any]:
        return key, True, HttpExchangeResult(
            status=None, transport_error=TRANSPORT_TIMEOUT,
            latency=time.perf_counter() - deadline + self.timeout)

    def wait(self) -> list[tuple[Any, Any]]:
        """Block until a call is answered or times out, then return every
        answer there is as ``(tag, result)``, sorted by tag; a call's
        exception is raised here instead."""
        key, (deadline, _) = next(iter(self._unanswered.items()))
        try:
            answers = [self._outbox.get(
                True, max(deadline - time.perf_counter(), 0.0))]
        except queue.Empty:
            if self._claims.pop(key, False):
                self._start()
                answers = [self._timed_out(key, deadline)]
            else:  # its thread claimed it first: the answer is coming
                answers = [self._outbox.get()]
        while not self._outbox.empty():
            answers.append(self._outbox.get())
        done, failed = [], None
        for key, ok, value in answers:
            done.append((self._unanswered.pop(key)[1], value))
            if not ok:
                failed = value
        if failed is not None:
            raise failed
        done.sort()  # the tags in flight differ, so no result is compared
        return done

    def drive(self, loop: Generator) -> Any:
        """Run ``loop`` to its end on this thread's behalf: return its value
        or raise its exception here.

        Above window 1 this thread runs the loop and the window's threads
        run the calls.  At window 1 the dispatcher's one thread runs both:
        it resumes the loop and runs each call the loop sent at its wait,
        so an answer never changes threads.  This thread keeps the current
        call's deadline: it answers a stalled call as a ``timeout`` and
        resumes the loop on a fresh thread.  Ctrl-C here, or what a signal
        handler raises, is thrown into the loop at its wait, at once when a
        call is running (the call is then dropped); one the loop never
        reached is raised once it ends.
        """
        self._loop, self._collect, self._end = loop, None, None
        self._running: tuple[int, float] = (0, 0.0)  # key, deadline
        self._interrupt: BaseException | None = None
        self._done = threading.Event()
        if self._window > 1:
            self._steer(None)
        else:
            self._inbox.put((None, self._steer, (None,)))
            self._keep_deadlines()
        end, self._end, self._loop = self._end, None, None
        if not isinstance(end, StopIteration):
            raise end
        if self._interrupt is not None:
            raise self._interrupt
        return end.value

    def _steer(self, thrown: BaseException | None) -> bool:
        """Resume the loop until it ends, throwing ``thrown`` into it first
        when given.  At window 1 the calls the loop sent are run here before
        its wait collects them; False when one stalled or was interrupted
        and the thread keeping the deadline took the loop over."""
        answers = None
        while True:
            if thrown is None and self._collect is not None:
                try:
                    answers = self._collect(self)
                except BaseException as exc:
                    thrown = exc
            try:
                self._collect = self._loop.send(answers) if thrown is None \
                    else self._loop.throw(thrown)
            except BaseException as end:  # StopIteration carries its value
                self._end = end
                self._done.set()
                return True
            thrown = None
            while self._window == 1 and not self._inbox.empty():
                key, fn, args = self._inbox.get()
                self._running = (key, self._unanswered[key][0])
                if self._interrupt is None:
                    if not self._answer(_call(key, fn, args)):
                        return False
                elif not self._claims.pop(key, False):
                    return False
                else:  # interrupted before it ran
                    del self._unanswered[key]
                    thrown, self._interrupt = self._interrupt, None
                    break

    def _keep_deadlines(self) -> None:
        """Window 1's calling thread while the loop runs on the dispatcher's
        thread: wait for it to end, waking at the running call's deadline."""
        wake = self.timeout
        while True:
            try:
                if self._done.wait(wake):
                    return
                key, deadline = self._running
                wake = deadline - time.perf_counter()
                if wake > 0:
                    continue
                # a call sent from now on is due no sooner than this
                wake = self.timeout
                if self._claims.pop(key, False):
                    self._outbox.put(self._timed_out(key, deadline))
                    self._resume_elsewhere(None)
            except BaseException as exc:  # Ctrl-C: thrown into the loop
                self._interrupt = exc
                key, _ = self._running
                if self._claims.pop(key, False):
                    self._interrupt = None
                    del self._unanswered[key]
                    self._resume_elsewhere(exc)

    def _resume_elsewhere(self, thrown: BaseException | None) -> None:
        """Resume the loop on a fresh thread, in place of one left running a
        call that was answered without it."""
        self._start()
        self._inbox.put((None, self._steer, (thrown,)))

    def close(self) -> None:
        """End each thread once the calls sent before are done; a retired
        thread ends when its stalled call returns."""
        for _ in range(self._window):
            self._inbox.put(None)


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
