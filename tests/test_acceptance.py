"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Criterion 2 alone holds the wall clock for five minutes by design;
the whole gate finishes in eight to ten minutes against the in-process
fixture.
"""

import json
import os
import time
from random import Random

import numpy as np
import pytest
from scipy import stats

from apifuzz.bookshop import BookshopApp
from apifuzz.bookshop.server import serve
from apifuzz.cli import main as cli_main
from apifuzz.generator import RunConfig, run
from apifuzz.http_driver import InProcessTarget
from apifuzz.sampling import WeightTable, build_sampling_spec, select_operation
from apifuzz.semantic_model import infer_model
from apifuzz.spec_ingest import load_spec
from apifuzz.trace_recreate import (
    bind_symbols,
    build_replay_oracle,
    estimate_run_length,
    expected_failure_for,
    minimize,
    producer_dependencies,
    read_trace,
)

from conftest import edge_set, json_response, minimal_spec_doc


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[ACCEPTANCE {number}] {name}: {'PASS' if ok else 'FAIL'}"
          f"{' — ' + detail if detail else ''}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def _drop(result):
    if result.trace_ref and os.path.exists(result.trace_ref):
        os.unlink(result.trace_ref)


SEQUENTIAL_BUGS = {
    "schema-null-timestamp": "schema-violation",
    "get-missing-customer-500": "server-error-5xx",
    "delete-customer-500": "server-error-5xx",
    "invalid-param-2xx": "semantic-mismatch",
}

RACE_WEIGHTS = WeightTable(per_operation={
    "POST /orders": 40.0, "POST /books": 0.3, "POST /authors": 0.1,
    "POST /customers": 0.1, "DELETE /books/{bookId}": 0.1})


def test_criterion_1_seeded_bug_discovery(bookshop_ir, bookshop_model,
                                          bookshop_sampling):
    """Each bug found via stop-on-error fuzzing: <=120s wall, <=5 seeds."""
    details = []

    for bug, wanted_kind in SEQUENTIAL_BUGS.items():
        budget_left = 120.0
        found = False
        for seed in range(1, 6):
            started = time.monotonic()
            config = RunConfig(mode="sequential", master_seed=seed,
                               duration_limit=min(24.0, budget_left),
                               stop_on_error=True)
            target = InProcessTarget(BookshopApp(toggles=[bug]))
            result = run(config, bookshop_model, bookshop_sampling,
                         target=target)
            target.close()
            _drop(result)
            budget_left -= time.monotonic() - started
            kinds = {f.kind for f in result.findings if f.grade == "error"}
            if result.verdict == "failed" and wanted_kind in kinds:
                details.append(f"{bug}: seed {seed}")
                found = True
                break
        assert found, f"{bug} not discovered within 5 seeds / 120 s"

    race_sampling = build_sampling_spec(bookshop_ir, bookshop_model,
                                        RACE_WEIGHTS)
    found = False
    budget_left = 120.0
    for seed in range(1, 6):
        started = time.monotonic()
        config = RunConfig(mode="concurrent", max_in_flight=8,
                           master_seed=seed,
                           duration_limit=min(24.0, budget_left),
                           stop_on_error=True)
        target = InProcessTarget(BookshopApp(toggles=["inventory-lost-update"]))
        result = run(config, bookshop_model, race_sampling, target=target)
        target.close()
        _drop(result)
        budget_left -= time.monotonic() - started
        kinds = {f.kind for f in result.findings if f.grade == "error"}
        if result.verdict == "failed" and "server-error-5xx" in kinds:
            details.append(f"inventory-lost-update: seed {seed}")
            found = True
            break
    assert found, "inventory-lost-update not discovered within 5 seeds / 120 s"

    report(1, "seeded-bug discovery", True, "; ".join(details))


def test_criterion_2_no_false_positives_five_minutes(bookshop_model,
                                                     bookshop_sampling):
    """A 5-minute clean sequential run yields zero error-grade findings."""
    config = RunConfig(mode="sequential", master_seed=20240101,
                       duration_limit=300.0, stop_on_error=False)
    target = InProcessTarget(BookshopApp())
    result = run(config, bookshop_model, bookshop_sampling, target=target)
    target.close()
    detail = (f"{result.counters['requests_sent']} requests in "
              f"{result.counters['duration_seconds']:.0f}s, "
              f"{result.counters['error_findings']} error findings, "
              f"{result.counters['warning_findings']} warnings")
    _drop(result)
    report(2, "no false positives (5-minute clean run)",
           result.counters["error_findings"] == 0
           and result.verdict == "passed"
           and result.counters["duration_seconds"] >= 300.0,
           detail)


def test_criterion_3_semantic_model_golden(bookshop_model):
    """Edges exactly {Book->Author, Order->Customer, Order->Book}; >=90% CRUD."""
    edges = edge_set(bookshop_model)
    golden = {("book", "author"), ("order", "customer"), ("order", "book")}
    classified = sum(1 for b in bookshop_model.bindings
                     if b.crud_kind != "other")
    ratio = classified / len(bookshop_model.bindings)
    report(3, "semantic-model golden test",
           edges == golden and ratio >= 0.90,
           f"edges={sorted(edges)}, crud classified {ratio:.0%}")


@pytest.fixture(scope="module")
def minimized_bug_script(bookshop_ir, bookshop_model, bookshop_sampling,
                         tmp_path_factory):
    """Shared by criteria 4 and 5: minimize a get-missing-customer-500 trace."""
    bug = "get-missing-customer-500"
    candidate = None
    for seed in range(1, 30):
        config = RunConfig(mode="sequential", master_seed=seed,
                           max_requests=400, stop_on_error=False)
        target = InProcessTarget(BookshopApp(toggles=[bug]))
        result = run(config, bookshop_model, bookshop_sampling, target=target)
        target.close()
        _, events = read_trace(result.trace_ref)
        _drop(result)
        for event in events:
            if event.event_id >= 50 \
                    and event.plan["operation"] == "GET /customers/{customerId}" \
                    and any(f.kind == "server-error-5xx"
                            for f in event.findings):
                candidate = (seed, event.event_id, events)
                break
        if candidate:
            break
    assert candidate, "no qualifying failure at event >= 50"
    seed, failing_id, events = candidate
    prefix = [e for e in events if e.event_id <= failing_id]

    expected = expected_failure_for(prefix[-1], bookshop_ir)
    deps = producer_dependencies(prefix, bookshop_model)
    oracle = build_replay_oracle(
        bookshop_model, expected,
        lambda: InProcessTarget(BookshopApp(toggles=[bug],
                                            randomize_ids=True)))
    started = time.monotonic()
    result = minimize(prefix, failing_id, oracle, deps, max_oracle_calls=500)
    elapsed = time.monotonic() - started

    script = bind_symbols(result.events, bookshop_model, expected)
    script_path = str(tmp_path_factory.mktemp("accept") / "recreate.json")
    with open(script_path, "wb") as fh:
        fh.write(script.to_json())
    return {"bug": bug, "prefix": prefix, "failing_id": failing_id,
            "minimize": result, "elapsed": elapsed, "oracle": oracle,
            "script": script, "script_path": script_path}


def test_criterion_4_minimization(minimized_bug_script):
    """>=50-event trace -> <=3 events, 1-minimal, <=500 oracle calls, <=2min."""
    data = minimized_bug_script
    result = data["minimize"]
    oracle = data["oracle"]
    assert result.reduced_from >= 50
    assert len(result.events) <= 3
    assert result.oracle_calls <= 500
    assert data["elapsed"] <= 120.0
    assert result.proven_minimal

    # exhaustive single-removal check: dropping any one event (including the
    # failing one, which leaves nothing to fail) stops the reproduction
    for drop in result.events:
        remaining = [e for e in result.events if e.event_id != drop.event_id]
        assert not remaining or not oracle(remaining), \
            f"still reproduces without event {drop.event_id}"
    report(4, "minimization",
           True,
           f"{result.reduced_from} -> {len(result.events)} events, "
           f"{result.oracle_calls} oracle calls, {data['elapsed']:.1f}s")


def test_criterion_5_recreate_round_trip(minimized_bug_script, capsys):
    """CLI replay: exit 0 on a fresh randomized-id fixture, exit 1 when fixed."""
    data = minimized_bug_script
    buggy = serve(port=0, toggles=[data["bug"]], randomize_ids=True)
    try:
        code_on = cli_main(["replay", "--script", data["script_path"],
                            "--endpoint", buggy.base_url])
    finally:
        buggy.stop()
    fixed = serve(port=0, randomize_ids=True)
    try:
        code_off = cli_main(["replay", "--script", data["script_path"],
                             "--endpoint", fixed.base_url])
    finally:
        fixed.stop()
    capsys.readouterr()
    report(5, "recreate round trip",
           code_on == 0 and code_off == 1,
           f"exit codes: bug-on={code_on}, bug-off={code_off}")


def test_criterion_6_determinism(bookshop_model, bookshop_sampling):
    """Identical seed/config -> byte-identical plans, identical findings."""
    def run_once():
        config = RunConfig(mode="sequential", master_seed=424242,
                           max_requests=500, stop_on_error=False)
        target = InProcessTarget(BookshopApp())
        result = run(config, bookshop_model, bookshop_sampling, target=target)
        target.close()
        _, events = read_trace(result.trace_ref)
        _drop(result)
        plans = [json.dumps(e.plan, sort_keys=True).encode() for e in events]
        findings = [[f.to_dict() for f in e.findings] for e in events]
        return plans, findings

    plans_a, findings_a = run_once()
    plans_b, findings_b = run_once()
    report(6, "determinism",
           plans_a == plans_b and findings_a == findings_b
           and len(plans_a) == 500,
           f"{len(plans_a)} byte-identical request plans, findings identical")


def test_criterion_7_run_length_estimator():
    """Analytic N for (k=10, eps=1e-3) straddles the Monte Carlo crossing."""
    k, eps, trials = 10, 1e-3, 10**6
    n = estimate_run_length(k, eps)

    def simulated_miss(length: int) -> float:
        rng = np.random.default_rng(1)  # frozen seed for the 10^6-trial MC
        missed = 0
        remaining = trials
        while remaining:
            chunk = min(20_000, remaining)
            remaining -= chunk
            draws = rng.integers(0, k, size=(chunk, length))
            present = np.stack([(draws == j).any(axis=1) for j in range(k)],
                               axis=1)
            missed += int((~present.all(axis=1)).sum())
        return missed / trials

    at_n = simulated_miss(n)
    at_n_minus_1 = simulated_miss(n - 1)
    straddles = at_n <= eps < at_n_minus_1
    in_regime = 50 <= n < 500  # the order-of-a-hundred-runs regime
    report(7, "run-length estimator",
           straddles and in_regime,
           f"N={n}, MC(N)={at_n:.6f}, MC(N-1)={at_n_minus_1:.6f}")


def test_criterion_8_weight_fidelity():
    """PUT:GET at 2:1 over 10,000 draws passes chi-square at the 99% level."""
    ir = load_spec(minimal_spec_doc({
        "/things": {"get": {"responses": {"200": json_response(
            {"type": "array", "items": {"type": "object", "properties": {
                "thingId": {"type": "string"}}}})}}},
        "/things/{thingId}": {
            "parameters": [{"name": "thingId", "in": "path", "required": True,
                            "schema": {"type": "string"}}],
            "put": {"responses": {
                "200": json_response({"type": "object", "properties": {
                    "thingId": {"type": "string"}}}),
                "400": {"description": "bad"}}},
        },
    }))
    model = infer_model(ir)
    weights = WeightTable(per_method={"PUT": 2.0, "GET": 1.0})
    rng = Random(99)  # frozen seed
    draws = 10_000
    puts = sum(1 for _ in range(draws)
               if select_operation(model, weights, rng)
               .operation_id.startswith("PUT"))
    result = stats.chisquare([puts, draws - puts],
                             [draws * 2 / 3, draws / 3])
    report(8, "weight fidelity",
           result.pvalue > 0.01,
           f"PUT {puts}/{draws} (target 2/3), chi2 p={result.pvalue:.3f}")
