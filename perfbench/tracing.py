"""Span recording around the calls into each apifuzz layer.

The benchmark never edits the program: for the length of a traced run it
replaces the module-level names the run loop and the replay side call
(``generator.select_operation``, ``trace_recreate.execute``, ...) and a few
``StateStore`` methods with wrappers that record one span per call: name,
start, end, parent span, request id (plan or event id) and, for dispatch,
thread CPU time.  Spans are kept in memory in flat arrays, which the
garbage collector does not have to scan, and written out once the run ends.

Self time is a span's duration minus the part of its interval covered by its
children (their union, so overlapping children on worker threads count once).
"""

from __future__ import annotations

import threading
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

NO_SPAN = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.requests: list = []
        self.cpu = array("d")
        self.root = NO_SPAN
        self.stores: list = []  # every StateStore a traced run created
        self._local = threading.local()
        self._open_dispatch: dict[tuple[str, str], list[int]] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.names)

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, request_id, parent: int = NO_SPAN) -> int:
        stack = self._stack()
        if parent == NO_SPAN:
            parent = stack[-1] if stack else self.root
        if request_id is None and parent != NO_SPAN:
            request_id = self.requests[parent]
        with self._lock:
            span = len(self.names)
            self.names.append(name)
            self.starts.append(time.perf_counter())
            self.ends.append(0.0)
            self.parents.append(parent)
            self.requests.append(request_id)
            self.cpu.append(0.0)
        stack.append(span)
        return span

    def _close(self, span: int) -> None:
        self.ends[span] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def root_span(self, name: str, request_id=None):
        """A span that also parents spans opened on threads with no open span."""
        previous = self.root
        span = self._open(name, request_id)
        self.root = span
        try:
            yield span
        finally:
            self._close(span)
            self.root = previous

    def wrap(self, name: str, fn, request_of=None):
        def traced(*args, **kwargs):
            rid = request_of(args, kwargs) if request_of else None
            span = self._open(name, rid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
        traced.__wrapped__ = fn
        return traced

    def wrap_dispatch(self, fn):
        """``execute(plan, target, ...)``: records thread CPU time and lets
        the handler span on the target's worker thread find its parent."""
        def traced(plan, *args, **kwargs):
            key = (plan.method, plan.concrete_url)
            span = self._open("execute", getattr(plan, "plan_id", None))
            with self._lock:
                self._open_dispatch.setdefault(key, []).append(span)
            cpu = time.thread_time()
            try:
                return fn(plan, *args, **kwargs)
            finally:
                self.cpu[span] = time.thread_time() - cpu
                with self._lock:
                    owners = self._open_dispatch[key]
                    owners.remove(span)
                    if not owners:
                        del self._open_dispatch[key]
                self._close(span)
        traced.__wrapped__ = fn
        return traced

    def wrap_handle(self, fn):
        """``BookshopApp.handle(method, path, query, ...)`` on any thread."""
        def traced(method, path, query="", *args, **kwargs):
            key = (method, f"{path}?{query}" if query else path)
            with self._lock:
                owners = self._open_dispatch.get(key)
                parent = owners[0] if owners else NO_SPAN
            span = self._open("handle", None, parent=parent)
            try:
                return fn(method, path, query, *args, **kwargs)
            finally:
                self._close(span)
        traced.__wrapped__ = fn
        return traced

    # -- analysis ------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, thread CPU seconds."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span, parent in enumerate(self.parents):
            if parent != NO_SPAN:
                children[parent].append((self.starts[span], self.ends[span]))
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "cpu_s": 0.0})
        for span, name in enumerate(self.names):
            start, end = self.starts[span], self.ends[span]
            covered = _covered(children.get(span, ()), start, end)
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - covered
            entry["cpu_s"] += self.cpu[span]
        return dict(out)

    def total(self, name: str, parent_name: str | None = None) -> float:
        """Summed duration of the spans called ``name`` (under a parent
        called ``parent_name``, when given)."""
        out = 0.0
        for span, own in enumerate(self.names):
            if own != name:
                continue
            parent = self.parents[span]
            if parent_name is not None and (
                    parent == NO_SPAN or self.names[parent] != parent_name):
                continue
            out += self.ends[span] - self.starts[span]
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\trequest\tcpu\n")
            for span, name in enumerate(self.names):
                parent = self.parents[span]
                rid = self.requests[span]
                fh.write(f"{span}\t{name}\t{self.starts[span]:.9f}\t"
                         f"{self.ends[span]:.9f}\t"
                         f"{'' if parent == NO_SPAN else parent}\t"
                         f"{'' if rid is None else rid}\t"
                         f"{self.cpu[span]:.9f}\n")


def _covered(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _plan_id(args, kwargs):
    plan = args[0] if args else None
    return getattr(plan, "plan_id", None)


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap the layer entry points for the duration of the block.

    Names a later version of the program no longer has are skipped, so the
    benchmark still runs; the metrics built on them then read zero.
    """
    from apifuzz import generator, state_tracker, trace_recreate

    patches = [
        (generator, "generate_request",
         lambda f: tracer.wrap("generate_request", f,
                               lambda a, k: k.get("plan_id"))),
        (generator, "select_operation",
         lambda f: tracer.wrap("select_operation", f)),
        (generator, "sample_value", lambda f: tracer.wrap("sample_value", f)),
        (generator, "predict_status",
         lambda f: tracer.wrap("predict_status", f, _plan_id)),
        (generator, "execute", tracer.wrap_dispatch),
        (generator, "check_exchange",
         lambda f: tracer.wrap("check_exchange", f, _plan_id)),
        (generator, "apply_effect",
         lambda f: tracer.wrap("apply_effect", f, _plan_id)),
        (generator, "make_trace_event",
         lambda f: tracer.wrap("make_trace_event", f,
                               lambda a, k: a[0] if a else None)),
        (generator, "wait", lambda f: tracer.wrap("window_wait", f)),
        (state_tracker.StateStore, "query_ids",
         lambda f: tracer.wrap("query_ids", f)),
        (state_tracker.StateStore, "upsert_live",
         lambda f: tracer.wrap("upsert_live", f)),
        (state_tracker.StateStore, "mark_deleted",
         lambda f: tracer.wrap("mark_deleted", f)),
        (state_tracker.StateStore, "snapshot",
         lambda f: tracer.wrap("snapshot", f)),
        (trace_recreate, "bind_symbols",
         lambda f: tracer.wrap("bind_symbols", f)),
        (trace_recreate, "replay", lambda f: tracer.wrap("replay", f)),
        (trace_recreate, "execute", tracer.wrap_dispatch),
    ]
    snapshot_cls = getattr(state_tracker, "StateSnapshot", None)
    if snapshot_cls is not None:
        patches.append((snapshot_cls, "query_ids",
                        lambda f: tracer.wrap("query_ids", f)))

    class RecordedStore(state_tracker.StateStore):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tracer.stores.append(self)

    patches.append((generator, "StateStore", lambda f: RecordedStore))

    saved = []
    try:
        for owner, name, make in patches:
            original = owner.__dict__.get(name)
            if original is None:
                continue
            saved.append((owner, name, original))
            setattr(owner, name, make(original))
        yield tracer
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)
