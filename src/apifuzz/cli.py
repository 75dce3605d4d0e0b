"""Command-line surface: model | fuzz | minimize | replay | report.

Every subcommand is scriptable: ``--json`` switches to machine-readable
output, and exit codes are stable.  Every refusal of input a command cannot
run on is one ``error: …`` line on stderr and that command's error code
below (1 for ``model``, 2 for the rest):

* ``model``    — 0 ok; 1 error-grade lint findings under ``--strict``, or
  bad input (a spec, overrides or an unwritable ``--out``)
* ``fuzz``     — 0 passed; 1 failed; 2 error (bad input, a configuration
  with nothing to draw, an unwritable trace or report, an unreachable
  endpoint), found before the trace opens and before any request.
  Ctrl-C or SIGTERM stops a run as ``operator-stop``; the report is still
  written, and the exit code is the verdict's
* ``minimize`` — 0 ok; 2 error (bad input, a trace header whose spec,
  model or run config cannot be read, each by the reader of its own file:
  ``load_spec``, ``load_model``, ``RunConfig.from_dict``; a ``--budget`` or
  ``--replay-attempts`` below 1, an unreachable endpoint), found before any
  replay; 3 finding not reproducible on the full prefix within the budget.  It
  reports what the shrink cost: oracle calls, replayed requests, wall time
* ``replay``   — 0 reproduced; 1 not reproduced; 2 error (a malformed
  script, a step, binding or predicate value of the wrong type among them,
  or an ``--attempts`` below 1)
* ``report``   — 0; 2 error (an unreadable or malformed trace)

Run configuration lives in a JSON file (see ``--config``); flags override
file values so a run stays reproducible from its config plus seed.  An auth
token can be passed through the ``APIFUZZ_AUTH_TOKEN`` environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time

from .checker import GRADE_ERROR
from .generator import (
    EndpointUnreachable,
    ProgressEvent,
    RunConfig,
    fuzzed_model,
    run,
    trace_header,
)
from .http_driver import DEFAULT_TIMEOUT, NetworkTarget, probe, reset
from .naming import DEFAULT_MATCH_THRESHOLD
from .sampling import MixtureConfig, WeightTable, build_sampling_spec
from .semantic_model import (
    DanglingReference,
    ModelSchemaError,
    SemanticModel,
    infer_model,
    load_model,
    merge_overrides,
    serialize_model,
)
from .spec_ingest import (
    ApiSpecIR,
    SpecError,
    lint_spec,
    load_spec,
    load_spec_file,
)
from .trace_recreate import (
    DEFAULT_ORACLE_BUDGET,
    NotReproducible,
    RecreateScript,
    SinkWriteError,
    SymbolResolutionFailure,
    TraceSink,
    bind_symbols,
    build_replay_oracle,
    expected_failure_for,
    minimize,
    producer_dependencies,
    read_trace,
    replay,
)

AUTH_TOKEN_ENV = "APIFUZZ_AUTH_TOKEN"


def _load_spec_arg(path: str, fmt: str | None):
    if path == "-":
        return load_spec(sys.stdin.buffer.read(), fmt or "json")
    return load_spec_file(path, fmt)


def _default_headers() -> dict[str, str]:
    token = os.environ.get(AUTH_TOKEN_ENV)
    return {"Authorization": f"Bearer {token}"} if token else {}


class _Refused(Exception):
    """Input a command cannot run on.  :func:`main` prints the message as
    one ``error:`` line and returns the command's ``error_code``."""


def _require_reachable(target, timeout: float) -> None:
    """Probe once, as ``fuzz`` does: a dead endpoint is no fixed bug."""
    if not probe(target, min(timeout, 5.0)):
        raise _Refused(f"endpoint unreachable: no HTTP answer from "
                       f"{target.base_url!r}")


class _CountingTarget:
    """A target that appends to ``sent`` for each request sent through it;
    a list, since a concurrent replay sends from several threads."""

    def __init__(self, target, sent: list):
        self._target = target
        self._sent = sent

    def request(self, *args):
        self._sent.append(None)
        return self._target.request(*args)


def _interrupt(signum, frame):
    """SIGTERM stops a run as Ctrl-C does."""
    raise KeyboardInterrupt


def _require_writable(path: str, what: str) -> None:
    """Refuse ``path`` when it cannot be written, found before any work: an
    existing file is opened for append and kept as it is, and a file this
    check creates is removed again."""
    existed = os.path.exists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        raise _Refused(f"cannot open {what} {path}: {exc}") from exc
    if not existed:
        os.unlink(path)


# --- model -----------------------------------------------------------------------

def cmd_model(args) -> int:
    """Derive (or refresh) the semantic model file and lint the spec."""
    try:
        spec = _load_spec_arg(args.spec, args.format)
    except SpecError as exc:
        raise _Refused(str(exc)) from exc
    _require_writable(args.out, "model file")
    findings = lint_spec(spec, args.threshold)
    model = infer_model(spec, args.threshold)
    if args.overrides:
        try:
            with open(args.overrides, "rb") as fh:
                model = merge_overrides(model, fh.read(), spec)
        except (OSError, ModelSchemaError, DanglingReference) as exc:
            raise _Refused(f"invalid overrides: {exc}") from exc
    data = serialize_model(model)
    with open(args.out, "wb") as fh:
        fh.write(data)

    lint_like = findings + model.warnings
    if args.json:
        print(json.dumps({
            "model_path": args.out,
            "resources": len(model.resources),
            "bindings": len(model.bindings),
            "edges": len(model.edges),
            "findings": [{"rule_id": f.rule_id, "severity": f.severity,
                          "location": f.location, "message": f.message}
                         for f in lint_like],
        }, indent=2))
    else:
        print(f"model written to {args.out}: {len(model.resources)} resources, "
              f"{len(model.bindings)} bindings, {len(model.edges)} edges")
        for f in lint_like:
            print(f"{f.severity:7s} {f.rule_id:28s} {f.location}: {f.message}")
    if args.strict and any(f.severity == "error" for f in lint_like):
        return 1
    return 0


# --- fuzz ------------------------------------------------------------------------

_FLAG_TO_CONFIG = {
    "endpoint": "endpoint", "mode": "mode", "max_in_flight": "max_in_flight",
    "duration": "duration_limit", "max_requests": "max_requests",
    "seed": "master_seed", "timeout": "request_timeout",
    "store_cap": "store_cap", "threshold": "match_threshold",
}


def _run_config(data: dict) -> tuple[RunConfig, float]:
    """A run config and its name-match threshold from the dict that a
    config file or a trace header holds; :class:`ValueError` when a value
    has the wrong type or is out of range."""
    data = dict(data)
    threshold = data.pop("match_threshold", DEFAULT_MATCH_THRESHOLD)
    if type(threshold) not in (int, float):
        raise ValueError(f"a value of the wrong type: match_threshold must "
                         f"be float, not {threshold!r}")
    try:
        return RunConfig.from_dict(data), threshold
    except TypeError as exc:
        raise ValueError(f"a value of the wrong type: {exc}") from None


def _build_run_config(args) -> tuple[RunConfig, float, WeightTable,
                                     MixtureConfig, str, str]:
    file_config: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            file_config = json.load(fh)
        if not isinstance(file_config, dict):
            raise ValueError(f"{args.config}: root is not an object")
    try:
        weights = WeightTable.from_dict(file_config.pop("weights", {}) or {})
        mixture = MixtureConfig.from_dict(file_config.pop("mixture", {}) or {})
    except (AttributeError, TypeError) as exc:
        raise ValueError(f"a value of the wrong type: {exc}") from None
    trace_path = file_config.pop("trace_path", None) or "apifuzz-trace.jsonl"
    report_path = file_config.pop("report_path", None) or "apifuzz-report.json"
    if not isinstance(trace_path, str) or not isinstance(report_path, str):
        raise ValueError("trace_path and report_path must be strings")

    for flag, key in _FLAG_TO_CONFIG.items():
        value = getattr(args, flag, None)
        if value is not None:
            file_config[key] = value
    if args.stop_on_error is not None:
        file_config["stop_on_error"] = args.stop_on_error
    if args.exclude:
        file_config["path_excludes"] = args.exclude
    config, threshold = _run_config(file_config)
    return (config, threshold, weights, mixture, args.trace or trace_path,
            args.report or report_path)


def cmd_fuzz(args) -> int:
    """Run the generation loop against a live endpoint."""
    try:
        spec = _load_spec_arg(args.spec, args.format)
    except SpecError as exc:
        raise _Refused(str(exc)) from exc
    try:
        config, threshold, weights, mixture, trace_path, report_path = \
            _build_run_config(args)
    except (ValueError, OSError) as exc:
        raise _Refused(f"bad run configuration: {exc}") from exc
    if not config.endpoint:
        raise _Refused("an endpoint is required (flag --endpoint or config "
                       "file)")

    if args.model:
        try:
            with open(args.model, "rb") as fh:
                model = load_model(fh.read(), spec, threshold)
        except (OSError, ModelSchemaError, DanglingReference) as exc:
            raise _Refused(f"invalid model file: {exc}") from exc
    else:
        model = infer_model(spec, threshold)
    sampling_spec = build_sampling_spec(spec, model, weights, mixture)
    try:
        fuzzed_model(config, model, sampling_spec.weights)
    except ValueError as exc:
        raise _Refused(f"bad run configuration: {exc}") from exc

    # Opening the trace truncates it, so every input is checked first.
    target = NetworkTarget(config.endpoint, _default_headers(),
                           verify=not args.insecure)
    _require_writable(trace_path, "trace file")
    _require_writable(report_path, "report file")
    _require_reachable(target, config.request_timeout)
    try:
        sink = TraceSink.to_path(trace_path, trace_header(config, model))
    except SinkWriteError as exc:
        raise _Refused(str(exc)) from exc

    def progress(event: ProgressEvent) -> None:
        if not args.json:
            print(f"[{event.elapsed:7.1f}s] {event.requests_sent} requests "
                  f"({event.requests_per_second:.0f}/s), "
                  f"{event.findings_total} findings "
                  f"({event.error_findings} errors), "
                  f"in flight: {event.in_flight}", flush=True)

    result = None
    previous = signal.signal(signal.SIGTERM, _interrupt)
    try:
        result = run(config, model, sampling_spec, target=target,
                     trace_sink=sink, progress=progress)
    except EndpointUnreachable as exc:
        raise _Refused(f"endpoint unreachable: {exc}") from exc
    finally:
        signal.signal(signal.SIGTERM, previous)
        try:
            sink.close()
        except SinkWriteError as exc:
            print(f"error: trace sink failed: {exc}", file=sys.stderr)
            if result is not None:
                result.notes.append(f"trace sink failed: {exc}")

    report = {"run": result.to_dict(), "trace": trace_path}
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)

    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        counters = result.counters
        print(f"verdict: {result.verdict} ({result.stop_reason}); "
              f"{counters['requests_sent']} requests, "
              f"{counters['findings_total']} findings "
              f"({counters['error_findings']} errors)")
        for finding in result.findings[:10]:
            print(f"  [{finding.grade}] {finding.kind}: {finding.detail}")
        print(f"trace: {trace_path}\nreport: {report_path}")
    return 0 if result.verdict == "passed" else 1


# --- minimize ---------------------------------------------------------------------

def _read_header(header: dict) -> tuple[ApiSpecIR, SemanticModel, RunConfig]:
    """The spec, model and config of the run a trace header records, each
    read by its own reader; :class:`ValueError`, :class:`SpecError` or the
    model loader's errors when one of them cannot be read."""
    missing = [key for key in ("spec", "model") if key not in header]
    if missing:
        raise ValueError(f"its header has no {' or '.join(missing)}")
    if not isinstance(header.get("config", {}), dict):
        raise ValueError("its header's config is not an object")
    config, threshold = _run_config(header.get("config", {}))
    spec = load_spec(json.dumps(header["spec"]))
    return spec, load_model(json.dumps(header["model"]), spec, threshold), \
        config


def cmd_minimize(args) -> int:
    """Reduce a failing trace to a minimal recreate script."""
    try:
        header, events = read_trace(args.trace)
    except (OSError, ValueError) as exc:
        raise _Refused(f"cannot read trace: {exc}") from exc
    if not events:
        raise _Refused("trace has no events")
    try:
        spec, model, config = _read_header(header)
    except (ValueError, SpecError, ModelSchemaError, DanglingReference) as exc:
        raise _Refused(f"cannot read trace: {exc}") from exc

    event_id = args.event
    if event_id is None:
        failing = [e for e in events
                   if any(f.grade == GRADE_ERROR for f in e.findings)]
        if not failing:
            raise _Refused("trace contains no error-grade finding; "
                           "pass --event explicitly")
        event_id = failing[-1].event_id
    by_id = {e.event_id: e for e in events}
    if event_id not in by_id:
        raise _Refused(f"trace has no event {event_id}")

    prefix = [e for e in events if e.event_id <= event_id]
    operations = spec.operations_by_id()
    for event in prefix:
        if event.plan.get("operation") not in operations:
            raise _Refused(f"cannot read trace: event {event.event_id} names "
                           f"operation {event.plan.get('operation')!r} that "
                           f"the trace's spec lacks")

    try:
        expected = expected_failure_for(by_id[event_id], spec)
    except ValueError as exc:
        raise _Refused(str(exc)) from exc
    try:
        deps = producer_dependencies(prefix, model)
    except ValueError as exc:  # a plan id that orders a step before its producer
        raise _Refused(f"cannot read trace: {exc}") from exc

    def network_target():
        return NetworkTarget(args.endpoint, _default_headers(),
                             verify=not args.insecure)

    sent: list[None] = []

    def target_factory():
        target = network_target()
        reset(target)
        return _CountingTarget(target, sent)

    _require_reachable(network_target(), args.timeout)
    _require_writable(args.out, "script file")
    oracle = build_replay_oracle(
        model, expected, target_factory, max_in_flight=config.max_in_flight,
        attempts=args.replay_attempts, timeout=args.timeout)

    started = time.perf_counter()
    try:
        result = minimize(prefix, event_id, oracle, deps,
                          max_oracle_calls=args.budget)
    except NotReproducible as exc:
        print(f"not reproducible: {exc}", file=sys.stderr)
        return 3
    shrink_s = time.perf_counter() - started

    script = bind_symbols(result.events, model, expected,
                          max_in_flight=config.max_in_flight)
    with open(args.out, "wb") as fh:
        fh.write(script.to_json())

    stats = {
        "events_before": result.reduced_from,
        "events_after": len(result.events),
        "oracle_calls": result.oracle_calls,
        "replayed_requests": len(sent),
        "shrink_s": round(shrink_s, 3),
        "proven_minimal": result.proven_minimal,
        "script_path": args.out,
    }
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
    else:
        print(f"minimized {result.reduced_from} events -> "
              f"{len(result.events)} ({result.oracle_calls} oracle calls, "
              f"{len(sent)} replayed requests, {shrink_s:.2f} s, "
              f"{'proven' if result.proven_minimal else 'NOT proven'} minimal)")
        print(f"script: {args.out}")
    return 0


# --- replay -----------------------------------------------------------------------

def cmd_replay(args) -> int:
    """Execute a recreate script against an endpoint; exit code = outcome."""
    try:
        with open(args.script, "rb") as fh:
            script = RecreateScript.from_json(fh.read())
    except (OSError, ValueError) as exc:
        raise _Refused(f"cannot load script: {exc}") from exc
    target = NetworkTarget(args.endpoint, _default_headers(),
                           verify=not args.insecure)
    _require_reachable(target, args.timeout)
    try:
        outcome = replay(script, target, timeout=args.timeout,
                         attempts=args.attempts)
    except SymbolResolutionFailure as exc:
        raise _Refused(str(exc)) from exc
    if args.json:
        print(json.dumps({"outcome": outcome.outcome, "detail": outcome.detail}))
    else:
        print(f"{outcome.outcome}: {outcome.detail}")
    return outcome.exit_code


# --- report -----------------------------------------------------------------------

def cmd_report(args) -> int:
    """Summarize a trace file: traffic, statuses, findings."""
    try:
        header, events = read_trace(args.trace)
    except (OSError, ValueError) as exc:
        raise _Refused(f"cannot read trace: {exc}") from exc
    per_operation: dict[str, int] = {}
    per_status: dict[str, int] = {}
    findings_by_kind: dict[str, int] = {}
    error_events = []
    for event in events:
        op = event.plan.get("operation", "?")
        per_operation[op] = per_operation.get(op, 0) + 1
        status_key = str(event.status) if event.status is not None \
            else f"transport:{event.transport_error}"
        per_status[status_key] = per_status.get(status_key, 0) + 1
        for finding in event.findings:
            key = f"{finding.grade}:{finding.kind}"
            findings_by_kind[key] = findings_by_kind.get(key, 0) + 1
            if finding.grade == GRADE_ERROR and len(error_events) < 50:
                error_events.append({"event_id": event.event_id,
                                     "operation": op,
                                     "kind": finding.kind,
                                     "detail": finding.detail})
    summary = {
        "trace": args.trace,
        "events": len(events),
        "config": header.get("config", {}),
        "per_operation": dict(sorted(per_operation.items())),
        "per_status": dict(sorted(per_status.items())),
        "findings": dict(sorted(findings_by_kind.items())),
        "error_findings": error_events,
    }
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(f"trace {args.trace}: {len(events)} events")
        print("requests per operation:")
        for op, count in sorted(per_operation.items()):
            print(f"  {count:8d}  {op}")
        print("status distribution:")
        for status, count in sorted(per_status.items()):
            print(f"  {count:8d}  {status}")
        if findings_by_kind:
            print("findings:")
            for key, count in sorted(findings_by_kind.items()):
                print(f"  {count:8d}  {key}")
            for err in error_events:
                print(f"  event {err['event_id']} {err['operation']}: "
                      f"{err['kind']}: {err['detail']}")
        else:
            print("findings: none")
    return 0


# --- argument parsing ----------------------------------------------------------------

def positive_int(text: str) -> int:
    """A count of at least 1; argparse exits 2 on anything else."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def _add_common(parser) -> None:
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")


def _add_network(parser) -> None:
    parser.add_argument("--insecure", action="store_true",
                        help="skip TLS certificate verification (test labs)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apifuzz",
        description="Stateful random test generation for OpenAPI services.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_model = sub.add_parser("model", help="derive and lint the semantic model")
    p_model.add_argument("spec", help="OpenAPI document path ('-' for stdin)")
    p_model.add_argument("--format", choices=("json", "yaml"), default=None,
                         help="override format autodetection")
    p_model.add_argument("--out", default="model.json",
                         help="model file to write")
    p_model.add_argument("--overrides", default=None,
                         help="partial model file merged over the inference")
    p_model.add_argument("--threshold", type=float,
                         default=DEFAULT_MATCH_THRESHOLD,
                         help="name-match threshold")
    p_model.add_argument("--strict", action="store_true",
                         help="exit nonzero on error-grade lint findings")
    _add_common(p_model)
    p_model.set_defaults(func=cmd_model, error_code=1)

    p_fuzz = sub.add_parser("fuzz", help="run the random exercise loop")
    p_fuzz.add_argument("spec", help="OpenAPI document path ('-' for stdin)")
    p_fuzz.add_argument("--format", choices=("json", "yaml"), default=None)
    p_fuzz.add_argument("--model", default=None,
                        help="reviewed model file (default: infer fresh)")
    p_fuzz.add_argument("--config", default=None, help="run config JSON file")
    p_fuzz.add_argument("--endpoint", default=None)
    p_fuzz.add_argument("--mode", choices=("sequential", "concurrent"),
                        default=None)
    p_fuzz.add_argument("--max-in-flight", dest="max_in_flight", type=int,
                        default=None)
    p_fuzz.add_argument("--duration", type=float, default=None,
                        help="wall-clock budget in seconds")
    p_fuzz.add_argument("--max-requests", dest="max_requests", type=int,
                        default=None)
    p_fuzz.add_argument("--seed", type=int, default=None)
    p_fuzz.add_argument("--timeout", type=float, default=None,
                        help="per-request timeout in seconds")
    p_fuzz.add_argument("--threshold", type=float, default=None)
    p_fuzz.add_argument("--store-cap", dest="store_cap", type=int, default=None)
    p_fuzz.add_argument("--exclude", action="append", default=None,
                        help="path prefix to exclude from fuzzing (repeatable)")
    group = p_fuzz.add_mutually_exclusive_group()
    group.add_argument("--stop-on-error", dest="stop_on_error",
                       action="store_true", default=None)
    group.add_argument("--continue-on-error", dest="stop_on_error",
                       action="store_false")
    p_fuzz.add_argument("--trace", default=None, help="trace file to write")
    p_fuzz.add_argument("--report", default=None, help="report JSON to write")
    _add_common(p_fuzz)
    _add_network(p_fuzz)
    p_fuzz.set_defaults(func=cmd_fuzz, error_code=2)

    p_min = sub.add_parser("minimize",
                           help="reduce a failing trace to a recreate script")
    p_min.add_argument("--trace", required=True)
    p_min.add_argument("--event", type=int, default=None,
                       help="failing event id (default: last error event)")
    p_min.add_argument("--endpoint", required=True)
    p_min.add_argument("--out", default="recreate-script.json")
    p_min.add_argument("--budget", type=positive_int,
                       default=DEFAULT_ORACLE_BUDGET,
                       help="max replay-oracle calls")
    p_min.add_argument("--replay-attempts", dest="replay_attempts",
                       type=positive_int, default=None)
    p_min.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT)
    _add_common(p_min)
    _add_network(p_min)
    p_min.set_defaults(func=cmd_minimize, error_code=2)

    p_replay = sub.add_parser("replay", help="run a recreate script")
    p_replay.add_argument("--script", required=True)
    p_replay.add_argument("--endpoint", required=True)
    p_replay.add_argument("--attempts", type=positive_int, default=None)
    p_replay.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT)
    _add_common(p_replay)
    _add_network(p_replay)
    p_replay.set_defaults(func=cmd_replay, error_code=2)

    p_report = sub.add_parser("report", help="summarize a trace file")
    p_report.add_argument("--trace", required=True)
    _add_common(p_report)
    p_report.set_defaults(func=cmd_report, error_code=2)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Refused as exc:
        print(f"error: {exc}", file=sys.stderr)
        return args.error_code


if __name__ == "__main__":
    raise SystemExit(main())
