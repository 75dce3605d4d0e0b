"""Benchmark-owned pieces around the program: a probe of the host's speed, a
timestamping trace sink, an adapter around ``BookshopApp.handle``, and the
lifecycle of a bookshop child process for the loopback workload."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time

from apifuzz.trace_recreate import TraceSink

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

CHILD_START_TIMEOUT = 20.0
CHILD_STOP_TIMEOUT = 5.0

# The probe: a fixed piece of pure-Python work (JSON in and out, formatting,
# dict lookups, as the program does), ~0.5 ms on the reference machine when
# nothing else slows it.  Times are reported at that speed: scaled by
# PROBE_REF_S / (the probe's time around them).
PROBE_LOOPS = 60
PROBE_REF_S = 0.5e-3
PROBE_DOC = {"id": 12345, "name": "probe", "tags": ["a", "b", "c"],
             "price": 9.5, "nested": {"x": 1, "y": [1, 2, 3]}}


def probe() -> float:
    """Seconds the probe's work takes now: the host's current speed.

    On a shared virtual machine the speed changes in phases lasting from a
    second to half a minute, by up to 2x, for the program and the probe alike.
    The collector is off meanwhile, so the probe never scans the program's
    heap and its time does not depend on it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        size = 0
        for i in range(PROBE_LOOPS):
            back = json.loads(json.dumps(PROBE_DOC, sort_keys=True))
            size += len(f"{i}:{back['name']}:{back['nested']['x']}")
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class Stamper:
    """The completion time of every request of a task and, with
    ``probe_every``, the host's speed along the task.

    The probe runs before the task, after every ``probe_every`` completions
    and after the task; its time is left out of the clock, so the stamps
    measure the program alone.  ``probes[j]`` and ``probes[j + 1]`` bracket
    completions ``j * probe_every`` to ``(j + 1) * probe_every - 1``.
    """

    def __init__(self, probe_every: int = 0):
        self.every = probe_every
        self.stamps: list[float] = []
        self.probes: list[float] = []
        self._paused = 0.0

    def _now(self) -> float:
        return time.perf_counter() - self._paused

    def _probe(self, since: float) -> None:
        self.probes.append(probe())
        self._paused += time.perf_counter() - since

    def begin(self) -> float:
        if self.every:
            self._probe(time.perf_counter())
        return self._now()

    def stamp(self) -> None:
        now = time.perf_counter()
        self.stamps.append(now - self._paused)
        if self.every and len(self.stamps) % self.every == 0:
            self._probe(now)

    def end(self) -> float:
        ended = self._now()
        if self.every and len(self.stamps) % self.every:
            self._probe(time.perf_counter())
        return ended


class StampingSink(TraceSink):
    """The program's own trace sink, writing to a file, that also stamps
    every append; the gaps between appends are the loop's steps."""

    def __init__(self, path: str, header: dict, stamper: Stamper):
        fh = open(path, "w", encoding="utf-8")
        super().__init__(fh, path, header)
        self.stamper = stamper
        self.transport_errors = 0

    def append(self, event) -> None:
        super().append(event)
        self.stamper.stamp()
        if event.transport_error is not None:
            self.transport_errors += 1


class ObservedApp:
    """Wraps ``BookshopApp.handle``: an optional fixed delay before each call
    (the latency variant), an optional sha256 over every request received,
    and, with a ``stamper``, a stamp at the end of every call."""

    def __init__(self, app, delay: float = 0.0, digest: bool = False,
                 stamper: Stamper | None = None):
        self.inner = app.handle
        self.delay = delay
        self.digest = hashlib.sha256() if digest else None
        self.stamper = stamper

    def handle(self, method, path, query="", headers=None, body=b""):
        if self.delay:
            time.sleep(self.delay)
        if self.digest is not None:
            self.digest.update(
                f"{method} {path}?{query}\n".encode()
                + json.dumps(headers or {}, sort_keys=True).encode()
                + b"\n" + (body or b"") + b"\n")
        out = self.inner(method, path, query, headers, body)
        if self.stamper is not None:
            self.stamper.stamp()
        return out


class ChildStartError(RuntimeError):
    """The bookshop child process did not announce its URL in time."""


class BookshopChild:
    """``python -m apifuzz.bookshop --port 0`` as a child process.

    ``start`` reads the URL from the child's first line of output and raises
    :class:`ChildStartError` if none comes.  ``stop`` ends the child: SIGINT
    (the server's own shutdown path), then SIGKILL if it has not ended
    within a few seconds; its owner calls it in every case.  With ``handle_log``
    the child is the traced launcher next to this file, which runs the same
    server ``main`` and records the duration of every ``handle`` call.
    """

    def __init__(self, handle_log: str | None = None):
        self.handle_log = handle_log
        self.url: str | None = None
        self.proc: subprocess.Popen | None = None
        self._lines: queue.Queue = queue.Queue()
        self._output: list[str] = []
        self._reader: threading.Thread | None = None

    def start(self) -> "BookshopChild":
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONUNBUFFERED"] = "1"
        if self.handle_log:
            cmd = [sys.executable, os.path.join(HERE, "traced_bookshop.py"),
                   self.handle_log, "--port", "0"]
        else:
            cmd = [sys.executable, "-m", "apifuzz.bookshop", "--port", "0"]
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                                     stdin=subprocess.DEVNULL,
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.STDOUT, text=True)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        try:
            self.url = self._await_url()
        except BaseException:
            self.stop()
            raise
        return self

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _await_url(self) -> str:
        deadline = time.monotonic() + CHILD_START_TIMEOUT
        while (left := deadline - time.monotonic()) > 0:
            try:
                line = self._lines.get(timeout=left)
            except queue.Empty:
                break
            if line is None:  # the child closed its output: it has ended
                code = self.proc.wait(timeout=CHILD_STOP_TIMEOUT)
                raise ChildStartError(
                    f"bookshop child exited with code {code} before "
                    f"announcing its URL; output:\n" + "".join(self._output))
            self._output.append(line)
            match = re.search(r"listening on (http://\S+)", line)
            if match:
                return match.group(1)
        raise ChildStartError(
            f"bookshop child did not announce its URL within "
            f"{CHILD_START_TIMEOUT:.0f}s; output:\n" + "".join(self._output))

    def stop(self) -> None:
        proc = self.proc
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=CHILD_STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if self._reader is not None:
            self._reader.join(timeout=CHILD_STOP_TIMEOUT)
        proc.stdout.close()
        self.proc = None
