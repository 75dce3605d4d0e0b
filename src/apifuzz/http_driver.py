"""Request execution against a network endpoint or an in-process app.

Both targets return the same normalized :class:`HttpExchangeResult`, so the
generation loop, checker, and trace never care which transport ran the
request.  Transport failures (timeout, refused connection, protocol error)
are data on the result, never exceptions, and exactly one of ``status`` /
``transport_error`` is set.  One call makes at most one wire attempt; retry
policy, if anyone ever wants one, belongs to the caller.

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

import json
import queue
import threading
import time
import weakref
from dataclasses import dataclass, field
from typing import Any
from urllib.parse import quote, urlencode

import requests

from .spec_ingest import media_type

TRANSPORT_TIMEOUT = "timeout"
TRANSPORT_REFUSED = "connection-refused"
TRANSPORT_PROTOCOL = "protocol-error"

DEFAULT_TIMEOUT = 30.0


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
    """HTTP/1.1 over the wire; one pooled session per calling thread."""

    def __init__(self, base_url: str, default_headers: dict[str, str] | None = None,
                 verify: bool = True):
        self.base_url = base_url.rstrip("/")
        self.default_headers = dict(default_headers or {})
        self.verify = verify
        self._local = threading.local()

    def _session(self) -> requests.Session:
        session = getattr(self._local, "session", None)
        if session is None:
            session = requests.Session()
            self._local.session = session
        return session

    def request(self, method: str, url_path: str, headers: dict[str, str],
                body: bytes | None, timeout: float):
        merged = dict(self.default_headers)
        merged.update(headers)
        response = self._session().request(
            method, self.base_url + url_path, headers=merged, data=body,
            timeout=timeout, verify=self.verify, allow_redirects=False)
        return response.status_code, dict(response.headers), response.content


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
            raise requests.Timeout(f"in-process handler exceeded {timeout}s")
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
    except requests.Timeout:
        return HttpExchangeResult(
            status=None, latency=time.perf_counter() - started,
            transport_error=TRANSPORT_TIMEOUT)
    except requests.ConnectionError:
        return HttpExchangeResult(
            status=None, latency=time.perf_counter() - started,
            transport_error=TRANSPORT_REFUSED)
    except requests.RequestException as exc:
        return HttpExchangeResult(
            status=None, latency=time.perf_counter() - started,
            transport_error=f"{TRANSPORT_PROTOCOL}: {exc}")
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
    except requests.RequestException:
        pass


def probe(target, timeout: float = 5.0) -> bool:
    """One GET / to decide reachability; any HTTP answer counts as reachable."""
    try:
        target.request("GET", "/", {}, None, timeout)
        return True
    except requests.RequestException:
        return False
