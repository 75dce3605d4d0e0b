"""The four workloads.

A workload is a fixed task run again and again until the run's time is up;
``run.py`` times set-up before every repeat and turns the repeats into
metrics.  One repeat does the same work on every commit for a given seed, so
a comparison between commits compares equal work; only the number of repeats
that fit in the time differs.

* ``seq-fill``   — sequential in-process fuzzing from an empty store to its cap;
* ``conc-delay`` — concurrent fuzzing against a bookshop that answers ~1 ms late;
* ``net-seq``    — sequential fuzzing over loopback HTTP against a child server;
* ``shrink-seq`` — minimizing one failure of each sequential seeded bug.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import requests

from apifuzz import trace_recreate
from apifuzz.bookshop import BookshopApp
from apifuzz.generator import RunConfig, run_concurrent, run_sequential, trace_header
from apifuzz.http_driver import InProcessTarget, NetworkTarget
from apifuzz.trace_recreate import (
    NotReproducible,
    RecreateScript,
    build_replay_oracle,
    expected_failure_for,
    minimize,
    read_trace,
    replay,
)

from harness import OUT, BookshopChild, ObservedApp, Stamper, StampingSink
from tracing import instrumented

# seq-fill: the store reaches its cap after 7.5k-8k of the 10k requests, so
# the last sixth of every repeat runs at the cap, evicting.  The default cap
# of 10 000 would take ~77k requests, more than a run's time; a short task
# leaves room for several repeats.
SEQ_FILL_REQUESTS = 10_000
SEQ_FILL_STORE_CAP = 1_000
CONC_DELAY_REQUESTS = 2_000
CONC_DELAY_WINDOW = 2
CONC_DELAY_LATENCY = 0.001
# net-seq: the last sixth, 20 requests, is long enough that its mix of
# requests (some skip the stall) differs little between seeds
NET_SEQ_REQUESTS = 120
# shrink-seq: the traces are fixed; ``--seed`` picks the ids the replayed
# bookshop assigns, so every seed shrinks the same failures the same way
SHRINK_TRACE_SEED = 1
SHRINK_TRACE_REQUESTS = 300
SHRINK_BUGS = ("schema-null-timestamp", "get-missing-customer-500",
               "delete-customer-500", "invalid-param-2xx")
SHRINK_SEED_STRIDE = 7919
SHRINK_SEED_TRIES = 20
# completions between two probes of the host's speed (~20 ms of seq-fill)
PROBE_EVERY = 100


@dataclass
class Setup:
    """What set-up produces from the spec bytes."""
    ir: object
    model: object
    sampling: object


@dataclass
class Rep:
    """One repeat of a workload's task."""
    started: float          # the stamper's clock when the task began
    ended: float            # ... and when it ended
    completed: int          # requests the task completed
    stamps: list[float]     # their completion times
    attempted: int
    failed: int
    probes: list[float] = field(default_factory=list)  # see ``Stamper``
    probe_every: int = 0
    # completions whose gap from the previous one is not a step
    breaks: set[int] = field(default_factory=set)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    key: object = None      # must be equal across repeats, when set


@contextmanager
def traced(tracer, name: str):
    """Instrument the program and open a root span, when tracing."""
    if tracer is None:
        yield
        return
    with instrumented(tracer), tracer.root_span(name):
        yield


class Workload:
    # One task's duration on the unmodified program (2-vCPU Xeon VM,
    # Python 3.11); it fixes the number of repeats of a run of given length.
    nominal_task_s: float
    # CPU-bound tasks: the host's speed is probed along every untraced
    # repeat and their times are reported at the reference speed.
    probed = True
    repeat_check: str | None = None  # what equal ``Rep.key`` values show
    # the names the end-to-end metrics also go by on this workload
    aliases = {"req_per_s": "fuzz_rps", "req_per_s_tail": "fuzz_rps_tail"}
    failed_base = "transport errors / requests attempted"

    def __init__(self, seed: int, tracer=None):
        self.seed = seed
        self.tracer = tracer
        self.trace_bytes = self.trace_header_bytes = self.trace_events = 0
        self.fuzz_requests = 0              # checked requests of all fuzz runs
        self.server_handles: list[tuple[float, float]] = []
        self.report: dict[str, tuple[object, str]] = {}
        self.lines: list[str] = []

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def start(self, setup) -> None:
        """Untimed preparation, once per run."""

    def repeat(self, setup) -> Rep:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def stamper(self) -> Stamper:
        """Probes the host's speed where the metrics use it: untraced
        repeats of a CPU-bound task (spans must not contain probes)."""
        probed = self.probed and self.tracer is None
        return Stamper(PROBE_EVERY if probed else 0)

    def fuzz(self, config: RunConfig, setup, target, runner=run_sequential,
             stamper: Stamper | None = None):
        """One fuzz run through a stamping sink: (result, sink, start, end)."""
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"run-{os.getpid()}.trace.jsonl")
        sink = StampingSink(path, trace_header(config, setup.model),
                            stamper or Stamper())
        header_bytes = os.path.getsize(path)
        if self.tracer is not None:
            sink.append = self.tracer.wrap("append", sink.append,
                                           lambda a, k: a[0].event_id)
        try:
            with traced(self.tracer, "run"):
                started = sink.stamper.begin()
                result = runner(config, setup.model, setup.sampling,
                                target=target, trace_sink=sink)
                ended = sink.stamper.end()
        finally:
            sink.close()
        self.trace_bytes += os.path.getsize(path)
        self.trace_header_bytes += header_bytes
        self.trace_events += len(sink.stamper.stamps)
        self.fuzz_requests += result.counters["requests_sent"]
        return result, sink, started, ended

    def fuzz_rep(self, config: RunConfig, setup, target,
                 runner=run_sequential) -> tuple[Rep, object]:
        stamper = self.stamper()
        result, sink, started, ended = self.fuzz(config, setup, target, runner,
                                                 stamper)
        os.unlink(sink.path)
        c = result.counters
        expected = config.max_requests
        rep = Rep(started, ended, len(stamper.stamps), stamper.stamps,
                  attempted=c["requests_sent"], failed=sink.transport_errors,
                  probes=stamper.probes, probe_every=stamper.every)
        rep.checks = [
            ("verdict passed", result.verdict == "passed",
             f"verdict {result.verdict}, stop {result.stop_reason}"),
            ("no error-grade findings", c["error_findings"] == 0,
             f"{c['error_findings']} error findings"),
            ("fixed request count", c["requests_sent"] == expected,
             f"{c['requests_sent']} of {expected}"),
            ("no transport errors", sink.transport_errors == 0,
             f"{sink.transport_errors} transport errors"),
        ]
        return rep, result

    def in_process(self, app: ObservedApp) -> InProcessTarget:
        if self.tracer is not None:
            app.inner = self.tracer.wrap_handle(app.inner)
        return InProcessTarget(app)


class SeqFill(Workload):
    """In-process, sequential, no bugs, default weights; the store grows
    from empty to its cap.  All CPU stages of the loop do their work here."""

    nominal_task_s = 2.9
    repeat_check = "plan digest repeats"

    def repeat(self, setup) -> Rep:
        config = RunConfig(mode="sequential", master_seed=self.seed,
                           max_requests=SEQ_FILL_REQUESTS,
                           stop_on_error=False, store_cap=SEQ_FILL_STORE_CAP)
        app = ObservedApp(BookshopApp(), digest=True)
        target = self.in_process(app)
        try:
            rep, _ = self.fuzz_rep(config, setup, target)
        finally:
            target.close()
        rep.key = app.digest.hexdigest()
        self.report["plan_digest"] = (rep.key, "sha256")
        return rep


class ConcDelay(Workload):
    """Concurrent mode, window 2, against a bookshop behind an adapter that
    sleeps ~1 ms before each call, so waiting on dispatch dominates.
    Completions arrive in a different order on every repeat."""

    nominal_task_s = 1.8
    # Not probed: a probe in the loop would change how the two requests in
    # flight overlap, and the sleeps do not slow with the host.  Not in
    # BENCHMARK.json: its times follow how late the host wakes sleeping
    # threads (see README.md).
    probed = False

    def repeat(self, setup) -> Rep:
        window = min(CONC_DELAY_WINDOW, len(os.sched_getaffinity(0)))
        config = RunConfig(mode="concurrent", max_in_flight=window,
                           master_seed=self.seed,
                           max_requests=CONC_DELAY_REQUESTS,
                           stop_on_error=False)
        target = self.in_process(
            ObservedApp(BookshopApp(), delay=CONC_DELAY_LATENCY))
        try:
            rep, result = self.fuzz_rep(config, setup, target, run_concurrent)
        finally:
            target.close()
        peak = result.counters["peak_in_flight"]
        rep.checks.append(("window respected", 1 <= peak <= window,
                           f"peak in flight {peak}, window {window}"))
        self.report["window"] = (window, "count")
        return rep


class NetSeq(Workload):
    """Sequential mode over loopback HTTP against ``python -m
    apifuzz.bookshop --port 0`` in a child process, one connection.
    A step's time is mostly a delayed-ACK timer, which can also fire early."""

    nominal_task_s = 5.3
    probed = False
    child = None

    def start(self, setup) -> None:
        self.handle_log = None
        if self.tracer is not None:
            os.makedirs(OUT, exist_ok=True)
            self.handle_log = os.path.join(OUT, f"handle-{os.getpid()}.tsv")
        self.child = BookshopChild(self.handle_log).start()

    def repeat(self, setup) -> Rep:
        reset = requests.post(self.child.url + "/_admin/reset", timeout=10)
        reset.raise_for_status()
        config = RunConfig(mode="sequential", master_seed=self.seed,
                           max_requests=NET_SEQ_REQUESTS, stop_on_error=False)
        rep, _ = self.fuzz_rep(config, setup, NetworkTarget(self.child.url))
        return rep

    def close(self) -> None:
        if self.child is None:
            return
        self.child.stop()
        self.child = None
        if self.handle_log is not None:
            with open(self.handle_log, encoding="utf-8") as fh:
                self.server_handles = [tuple(map(float, line.split("\t")))
                                       for line in fh]
            os.unlink(self.handle_log)


# --- shrink-seq ---------------------------------------------------------------

@dataclass
class Failure:
    bug: str
    trace_seed: int
    prefix: list
    expected: dict


class CountingOracle:
    """Counts calls and hits; ``breaks`` holds the index of the first stamp
    of every call, whose gap from the previous stamp spans two replays."""

    def __init__(self, oracle, stamps: list[float]):
        self.oracle = oracle
        self.stamps = stamps
        self.breaks: set[int] = set()
        self.calls = 0
        self.hits = 0

    def __call__(self, events) -> bool:
        self.calls += 1
        self.breaks.add(len(self.stamps))
        hit = self.oracle(events)
        self.hits += hit
        return hit


class ShrinkSeq(Workload):
    """For each sequential seeded bug, minimize the last error-grade event
    of a fixed-seed trace against the acceptance gate's oracle, with the
    randomized ids of the replayed bookshop drawn from the run's seed."""

    nominal_task_s = 2.3
    repeat_check = "shrink counts repeat"
    aliases = {"task_s": "shrink_s"}
    failed_base = ("minimizations not reproduced, not proven 1-minimal or "
                   "whose script did not reproduce / minimizations")

    def start(self, setup) -> None:
        self.failures = [self._failing_trace(setup, bug) for bug in SHRINK_BUGS]

    def _failing_trace(self, setup, bug: str) -> Failure:
        """A clean-config trace with ``bug`` on, up to its last error-grade
        event.  Trace seeds are tried in a fixed order until one has such an
        event."""
        for attempt in range(SHRINK_SEED_TRIES):
            trace_seed = SHRINK_TRACE_SEED + attempt * SHRINK_SEED_STRIDE
            config = RunConfig(mode="sequential", master_seed=trace_seed,
                               max_requests=SHRINK_TRACE_REQUESTS,
                               stop_on_error=False)
            target = InProcessTarget(BookshopApp(toggles=[bug]))
            try:
                _, sink, _, _ = self.fuzz(config, setup, target)
            finally:
                target.close()
            _, events = read_trace(sink.path)
            os.unlink(sink.path)
            failing = [e for e in events
                       if any(f.grade == "error" for f in e.findings)]
            if failing:
                prefix = [e for e in events if e.event_id <= failing[-1].event_id]
                return Failure(bug, trace_seed, prefix,
                               expected_failure_for(prefix[-1], setup.ir))
        raise RuntimeError(f"no error-grade event for {bug} in "
                           f"{SHRINK_SEED_TRIES} traces")

    def _bookshop(self, failure: Failure) -> BookshopApp:
        return BookshopApp(toggles=[failure.bug], randomize_ids=True,
                           id_seed=self.seed)

    def _oracle(self, setup, failure: Failure, stamper=None, tracer=None):
        """A fresh randomized-id bookshop per call, as in the acceptance gate."""
        def factory():
            app = ObservedApp(self._bookshop(failure), stamper=stamper)
            if tracer is not None:
                app.inner = tracer.wrap_handle(app.inner)
            return InProcessTarget(app)
        return build_replay_oracle(setup.model, failure.expected, factory)

    def repeat(self, setup) -> Rep:
        stamper = self.stamper()
        stamps = stamper.stamps
        outcomes = []
        with traced(self.tracer, "shrink"):
            started = stamper.begin()
            for failure in self.failures:
                before = len(stamps)
                oracle = CountingOracle(
                    self._oracle(setup, failure, stamper, self.tracer), stamps)
                deps_started = time.perf_counter()
                deps = trace_recreate.producer_dependencies(failure.prefix,
                                                            setup.model)
                deps_s = time.perf_counter() - deps_started
                try:
                    result = minimize(failure.prefix,
                                      failure.prefix[-1].event_id, oracle, deps)
                except NotReproducible:
                    result = None
                outcomes.append((failure, result, oracle,
                                 len(stamps) - before, deps_s))
            ended = stamper.end()

        checks = []
        failed = 0
        for failure, result, *_ in outcomes:
            found = self._check(setup, failure, result)
            failed += not all(ok for _, ok, _ in found)
            checks.extend(found)
        replayed = sum(n for _, _, _, n, _ in outcomes)
        calls = sum(o.calls for _, _, o, _, _ in outcomes)
        shrunk = sum(len(r.events) for _, r, _, _, _ in outcomes if r)
        rep = Rep(started, ended, replayed, stamps, attempted=len(outcomes),
                  failed=failed, checks=checks, probes=stamper.probes,
                  probe_every=stamper.every,
                  breaks=set().union(*(o.breaks for _, _, o, _, _ in outcomes)),
                  key=[(o.calls, n, len(r.events) if r else None)
                       for _, r, o, n, _ in outcomes])
        self.report.update({
            "oracle_calls": (calls, "count"),
            "replayed_requests": (replayed, "count"),
            "shrunk_events": (shrunk, "count"),
            "trace_recreate.oracle_hit_ratio": (
                sum(o.hits for _, _, o, _, _ in outcomes) / calls, "ratio"),
            "trace_recreate.replays_per_call": (replayed / calls, "count"),
            "trace_recreate.producer_deps_s": (
                sum(d for *_, d in outcomes), "s"),
        })
        self.lines = [
            f"  {f.bug}: {r.reduced_from} events -> {len(r.events)}, "
            f"{o.calls} oracle calls, {n} replayed requests "
            f"(trace seed {f.trace_seed})"
            for f, r, o, n, _ in outcomes if r is not None]
        return rep

    def _check(self, setup, failure: Failure, result) -> list:
        """Proven 1-minimal, and the recreate script reproduces on a fresh
        randomized-id bookshop."""
        if result is None:
            return [(f"{failure.bug} reproducible", False,
                     "full prefix never reproduced")]
        oracle = self._oracle(setup, failure)
        needed = all(
            not rest or not oracle(rest)
            for rest in ([e for e in result.events if e is not drop]
                         for drop in result.events))
        script = trace_recreate.bind_symbols(result.events, setup.model,
                                             failure.expected)
        script = RecreateScript.from_json(script.to_json())
        target = InProcessTarget(self._bookshop(failure))
        try:
            outcome = replay(script, target)
        finally:
            target.close()
        return [
            (f"{failure.bug} proven 1-minimal", result.proven_minimal and needed,
             f"flag {result.proven_minimal}, every event needed {needed}"),
            (f"{failure.bug} script reproduces", outcome.outcome == "reproduced",
             outcome.detail),
        ]


WORKLOADS = {
    "seq-fill": SeqFill,
    "conc-delay": ConcDelay,
    "net-seq": NetSeq,
    "shrink-seq": ShrinkSeq,
}
