"""apifuzz benchmark: one workload per call, metrics on the last line as JSON.

    python3 perfbench/run.py --workload seq-fill --seed 1 --seconds 30 --trace 0

Workloads (see README.md next to this file): seq-fill, conc-delay, net-seq,
shrink-seq.  A run repeats the workload's fixed task as often as fills
``--seconds`` on the reference machine, timing set-up before every repeat;
CPU-bound times are scaled to a fixed host speed measured by a probe
(``harness.probe``).  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced repeats and
prints the per-layer metrics (self times from spans around the calls into
each layer) and the tracing overhead.  A human-readable report
precedes the JSON line.  The exit code is non-zero when a check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SETUPS_PER_REPEAT = 5
MIN_REPEATS = 2

END_TO_END = {"setup_s": "s", "task_s": "s", "req_per_s": "1/s",
              "req_per_s_tail": "1/s", "step_p50_us": "us",
              "step_p99_us": "us", "peak_rss_mb": "MB",
              "trace_bytes_per_req": "B"}


def _import_program() -> None:
    if not os.path.isdir(os.path.join(SRC, "apifuzz")):
        sys.exit(f"perfbench: no apifuzz sources under {SRC}; run it from a "
                 f"checkout of the repository")
    sys.path.insert(0, SRC)
    import apifuzz
    if not os.path.abspath(apifuzz.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported apifuzz from {apifuzz.__file__}, "
                 f"not from {SRC}")


class SetupClock:
    """Builds spec bytes -> SpecIR -> SemanticModel -> SamplingSpec several
    times per call and keeps every stage's time, at the reference speed: the
    host's speed is probed before and after every set-up."""

    def __init__(self):
        from apifuzz.bookshop import bookshop_spec_document
        self.document = bookshop_spec_document()
        self.samples: dict[str, list[float]] = {
            "load": [], "infer": [], "build": [], "total": []}

    def __call__(self):
        from apifuzz.sampling import build_sampling_spec
        from apifuzz.semantic_model import infer_model
        from apifuzz.spec_ingest import load_spec
        from harness import PROBE_REF_S, probe
        from workloads import Setup
        before = probe()
        for _ in range(SETUPS_PER_REPEAT):
            t0 = time.perf_counter()
            ir = load_spec(self.document, "json")
            t1 = time.perf_counter()
            model = infer_model(ir)
            t2 = time.perf_counter()
            sampling = build_sampling_spec(ir, model)
            t3 = time.perf_counter()
            after = probe()
            speed = PROBE_REF_S / ((before + after) / 2)
            for name, value in (("load", t1 - t0), ("infer", t2 - t1),
                                ("build", t3 - t2), ("total", t3 - t0)):
                self.samples[name].append(value * speed)
            before = after
        return Setup(ir, model, sampling)

    def median(self, stage: str) -> float:
        return statistics.median(self.samples[stage])


def repeats_for(workload_cls, seconds: float) -> int:
    """A fixed number of repeats, so that both commits of a comparison do
    the same work: as many as fill ``seconds`` on the unmodified program."""
    return max(MIN_REPEATS, round(seconds / workload_cls.nominal_task_s))


def measure(workload_cls, seed: int, repeats: int, clock: SetupClock,
            tracers=(None,)):
    """Run the workload's task ``repeats`` times.

    One workload per entry of ``tracers`` (``None``: untraced); their
    repeats alternate, so a traced and an untraced workload see the same
    stretches of machine time.  Returns ``[(workload, repeats), ...]``.
    """
    works = [workload_cls(seed, tracer) for tracer in tracers]
    reps: list[list] = [[] for _ in works]
    with contextlib.ExitStack() as stack:
        for work in works:
            stack.enter_context(work)
            work.start(clock())
        for _ in range(repeats):
            for work, done in zip(works, reps):
                done.append(work.repeat(clock()))
    return list(zip(works, reps))


def intervals(rep, scaled: bool = True) -> list[float]:
    """The repeat's task as intervals between consecutive completions (from
    the task's start, to its end); when ``scaled`` and the repeat was probed,
    each at the reference speed, by the probes that bracket it (see
    ``harness.Stamper``)."""
    from harness import PROBE_REF_S
    out = [b - a for a, b in zip([rep.started, *rep.stamps],
                                 [*rep.stamps, rep.ended])]
    if not (scaled and rep.probe_every):
        return out
    p = rep.probes
    speeds = [PROBE_REF_S / ((a + b) / 2) for a, b in zip(p, p[1:])]
    return [gap * speeds[min(i // rep.probe_every, len(speeds) - 1)]
            for i, gap in enumerate(out)]


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    rank = math.ceil(q / 100 * len(sorted_values))
    return sorted_values[min(max(rank, 1), len(sorted_values)) - 1]


def end_to_end(work, reps, clock: SetupClock,
               scaled: bool = True) -> dict[str, float]:
    """Each repeat's task time, tail rate and steps, at the reference speed
    when ``scaled`` and probed; the median over the repeats, and the
    percentiles of all their steps together."""
    n = reps[0].completed
    if any(r.completed != n for r in reps):
        raise ValueError("repeats completed different numbers of requests")
    k = max(n // 6, 1)  # the tail: the last sixth of the completions
    task, tail, gaps = [], [], []
    for rep in reps:
        steps = intervals(rep, scaled)
        task.append(sum(steps))
        tail.append(k / sum(steps[n - k:n]))
        # between consecutive completions, except across a break
        gaps.extend(g for i, g in enumerate(steps[1:n], 1)
                    if i not in rep.breaks)
    gaps.sort()
    task_s = statistics.median(task)
    return {
        "setup_s": clock.median("total"),
        "task_s": task_s,
        "req_per_s": n / task_s,
        "req_per_s_tail": statistics.median(tail),
        "step_p50_us": percentile(gaps, 50) * 1e6,
        "step_p99_us": percentile(gaps, 99) * 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trace_bytes_per_req": work.trace_bytes / work.trace_events,
    }


def per_layer(tracer, work, clock: SetupClock, overhead_pct: float):
    """Per-layer metrics from the traced half's spans: self time in µs per
    checked request of the fuzz loop unless the unit or name says otherwise."""
    s = tracer.summary()
    n = max(work.fuzz_requests, 1)

    def self_us(name: str) -> float:
        return s.get(name, {}).get("self_s", 0.0) / n * 1e6

    def per_call_us(name: str, key: str = "total_s") -> float:
        entry = s.get(name)
        return entry[key] / entry["calls"] * 1e6 if entry else 0.0

    run_s = tracer.total("run")
    loop_dispatch = tracer.total("execute", parent_name="run")
    if "window_wait" in s:   # concurrent: the loop waits on the window
        waited = s["window_wait"]["total_s"]
        in_flight = s["execute"]["total_s"] / run_s
    else:                    # sequential: the loop waits on each dispatch
        waited = loop_dispatch
        in_flight = loop_dispatch / run_s
    dispatch_us = per_call_us("execute")
    if work.server_handles:  # handled in the server process
        handle_us = sum(b - a for a, b in work.server_handles) \
            / len(work.server_handles) * 1e6
    else:
        handle_us = per_call_us("handle")
    stores = tracer.stores
    return {
        "spec_ingest.load_ms": (clock.median("load") * 1e3, "ms"),
        "semantic_model.infer_ms": (clock.median("infer") * 1e3, "ms"),
        "sampling.build_ms": (clock.median("build") * 1e3, "ms"),
        "sampling.select_us": (self_us("select_operation"), "us"),
        "sampling.sample_us": (self_us("sample_value"), "us"),
        "state_tracker.query_us": (self_us("query_ids"), "us"),
        "state_tracker.query_calls_per_req": (
            s.get("query_ids", {}).get("calls", 0) / n, "count"),
        "state_tracker.predict_us": (self_us("predict_status"), "us"),
        "state_tracker.apply_us": (self_us("apply_effect"), "us"),
        "state_tracker.upsert_us": (self_us("upsert_live"), "us"),
        "state_tracker.store_size_end": (
            len(stores[-1]) if stores else 0, "count"),
        "checker.check_us": (self_us("check_exchange"), "us"),
        "trace_recreate.event_build_us": (self_us("make_trace_event"), "us"),
        "trace_recreate.append_us": (self_us("append"), "us"),
        "trace_recreate.bytes_per_event": (
            (work.trace_bytes - work.trace_header_bytes) / work.trace_events,
            "B"),
        "generator.loop_self_us": (self_us("run"), "us"),
        "generator.window_wait_us": (waited / n * 1e6, "us"),
        "generator.in_flight_mean": (in_flight, "count"),
        "http_driver.dispatch_us": (dispatch_us, "us"),
        "http_driver.dispatch_cpu_us": (per_call_us("execute", "cpu_s"), "us"),
        "http_driver.dispatch_self_us": (dispatch_us - handle_us, "us"),
        "bookshop.handle_us": (handle_us, "us"),
        "tracing.overhead_pct": (overhead_pct, "%"),
    }


def workload_layers(tracer, work) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of work only one workload does: printed, not in
    the JSON line, which must name the same metrics on every workload."""
    s = tracer.summary()
    out = {}
    if "snapshot" in s:
        out["state_tracker.snapshot_us"] = (
            s["snapshot"]["total_s"] / max(work.fuzz_requests, 1) * 1e6, "us")
    if "replay" in s:
        out["trace_recreate.bind_symbols_us"] = (
            s["bind_symbols"]["total_s"] / s["bind_symbols"]["calls"] * 1e6,
            "us (per call)")
        out["trace_recreate.replay_ms"] = (
            s["replay"]["total_s"] / s["replay"]["calls"] * 1e3,
            "ms (per oracle call)")
    return out


def checks_of(work, reps) -> list[tuple[str, bool, str]]:
    """Every repeat's checks folded by name, plus the cross-repeat check."""
    folded: dict[str, tuple[bool, str]] = {}
    for rep in reps:
        for name, ok, detail in rep.checks:
            was_ok, was_detail = folded.get(name, (True, detail))
            folded[name] = (was_ok and ok, was_detail if not was_ok else detail)
    out = [(name, ok, detail) for name, (ok, detail) in folded.items()]
    if work.repeat_check:
        same = all(r.key == reps[0].key for r in reps)
        out.append((work.repeat_check, same,
                    f"{len(reps)} repeats, first {reps[0].key}"))
    return out


def _line(name: str, value, unit: str) -> str:
    if isinstance(value, float):
        value = f"{value:.6g}"
    return f"  {name:<36} {value} {unit}"


def _exit_on_sigterm(signum, frame):
    # unwinds through the workloads' ``close``, which stop child processes
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["seq-fill", "conc-delay", "net-seq",
                                 "shrink-seq"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    _import_program()
    from harness import OUT, PROBE_REF_S
    from tracing import Tracer
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    clock = SetupClock()
    tracer = Tracer() if args.trace else None
    tracers = (None, tracer) if args.trace else (None,)
    repeats = repeats_for(cls, args.seconds / len(tracers))
    phases = measure(cls, args.seed, repeats, clock, tracers)
    work, reps = phases[0]
    e2e = end_to_end(work, reps, clock)
    checks = [(f"{'traced: ' if w.tracer else ''}{name}", ok, detail)
              for w, r in phases for name, ok, detail in checks_of(w, r)]
    attempted = sum(rep.attempted for _, r in phases for rep in r)
    failed = sum(rep.failed for _, r in phases for rep in r)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}"
          f"  trace {args.trace}  repeats {len(reps)}")
    print("end-to-end (untraced):")
    for name, unit in END_TO_END.items():
        print(_line(name, e2e[name], unit))
    for name, alias in cls.aliases.items():
        print(_line(alias, e2e[name], END_TO_END[name]))
    print(_line("failed_ratio", failed / attempted,
                f"({failed}/{attempted}: {cls.failed_base})"))
    for name, (value, unit) in work.report.items():
        print(_line(name, value, unit))
    for line in work.lines:
        print(line)
    probes = sorted(p for r in reps for p in r.probes)
    if probes:
        print(_line("host probe p10/p50/p90",
                    " / ".join(f"{percentile(probes, q) * 1e3:.3f}"
                               for q in (10, 50, 90)),
                    f"ms (times above are scaled to {PROBE_REF_S * 1e3:g} ms)"))

    metrics = {name: {"value": e2e[name], "unit": unit}
               for name, unit in END_TO_END.items()}
    if args.trace:
        traced_work, traced_reps = phases[1]
        # both unscaled: the traced repeats carry no probes
        rate = end_to_end(work, reps, clock, scaled=False)["req_per_s"]
        traced_rate = end_to_end(traced_work, traced_reps, clock)["req_per_s"]
        overhead = (rate / traced_rate - 1.0) * 100
        layers = per_layer(tracer, traced_work, clock, overhead)
        print(f"per-layer (traced repeats, alternating with the untraced "
              f"ones; self time per checked request unless noted):")
        for name, (value, unit) in layers.items():
            print(_line(name, value, unit))
        for name, (value, unit) in workload_layers(tracer, traced_work).items():
            print(_line(name, value, unit))
        print(_line("traced req_per_s", traced_rate, "1/s"))
        os.makedirs(OUT, exist_ok=True)
        spans_path = os.path.join(
            OUT, f"spans-{args.workload}-seed{args.seed}.tsv")
        tracer.write(spans_path)
        print(f"  {len(tracer)} spans written to "
              f"{os.path.relpath(spans_path)}")
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in layers.items()}

    correct = all(ok for _, ok, _ in checks)
    print("checks:")
    for name, ok, detail in checks:
        print(f"  [{'ok' if ok else 'FAIL'}] {name}: {detail}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
