"""The benchmark under ``perfbench/`` reaches into the program by name.

It imports functions and classes from ``apifuzz``, and it times each layer
by wrapping names it looks up on ``generator``, ``StateStore`` and
``trace_recreate``.  A wrap whose target is gone is skipped without a word,
so a rename would turn that layer's metric into 0.  These tests read the
benchmark's source and fail instead.
"""

import ast
import dataclasses
import importlib
import os
import pathlib
from types import ModuleType

import pytest

from apifuzz import generator, trace_recreate
from apifuzz.bookshop import BookshopApp
from apifuzz.http_driver import InProcessTarget
from apifuzz.state_tracker import StateStore

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
IMPORTERS = ("workloads.py", "harness.py", "traced_bookshop.py", "run.py",
             "tracing.py")

# Wraps of the snapshot copy, which the program no longer has; ROADMAP
# lists their removal as owed to the next change to perfbench.
OWED_WRAPS = {("state_tracker.StateStore", "snapshot"),
              ("snapshot_cls", "query_ids")}

WRAP_OWNERS = {"generator": generator, "trace_recreate": trace_recreate,
               "state_tracker.StateStore": StateStore}


def _tree(filename: str) -> ast.Module:
    return ast.parse((PERFBENCH / filename).read_text(encoding="utf-8"))


def _used_names(tree: ast.Module):
    """(module, name) for each ``from apifuzz... import name`` and for each
    attribute read on a module imported that way."""
    modules: dict[str, ModuleType] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "apifuzz":
            module = importlib.import_module(node.module)
            for alias in node.names:
                yield module, alias.name
                value = getattr(module, alias.name, None)
                if isinstance(value, ModuleType):
                    modules[alias.asname or alias.name] = value
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            yield modules[node.value.id], node.attr


def test_every_program_name_the_benchmark_imports_exists():
    seen = set()
    missing = []
    for filename in IMPORTERS:
        for module, name in _used_names(_tree(filename)):
            seen.add(name)
            if not hasattr(module, name):
                missing.append(f"{filename}: {module.__name__}.{name}")
    assert not missing
    # the reader found the imports it is meant to check
    assert {"run_sequential", "run_concurrent", "TraceSink", "minimize",
            "producer_dependencies", "BookshopApp"} <= seen


def _wraps():
    """(owner source, name) for each entry of ``instrumented``'s patch list."""
    func = next(node for node in ast.walk(_tree("tracing.py"))
                if isinstance(node, ast.FunctionDef)
                and node.name == "instrumented")
    for node in ast.walk(func):
        if isinstance(node, ast.Tuple) and len(node.elts) == 3 \
                and isinstance(node.elts[1], ast.Constant) \
                and isinstance(node.elts[1].value, str):
            yield ast.unparse(node.elts[0]), node.elts[1].value


def test_every_name_the_benchmark_wraps_exists():
    wraps = set(_wraps())
    missing = [f"{owner}.{name}" for owner, name in sorted(wraps - OWED_WRAPS)
               if name not in vars(WRAP_OWNERS[owner])]
    assert not missing
    assert {("state_tracker.StateStore", "query_ids"),
            ("state_tracker.StateStore", "upsert_live"),
            ("generator", "execute"), ("trace_recreate", "replay")} <= wraps


def _calls(filename: str, name: str):
    for node in ast.walk(_tree(filename)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == name:
            yield node


def test_every_keyword_the_benchmark_passes_to_run_config_is_a_field():
    fields = {f.name for f in dataclasses.fields(generator.RunConfig)}
    passed = {keyword.arg for filename in IMPORTERS
              for call in _calls(filename, "RunConfig")
              for keyword in call.keywords}
    assert passed - fields == set()
    assert {"mode", "master_seed", "max_in_flight"} <= passed


def test_every_plan_field_the_benchmark_reads_exists():
    """``tracing.py`` keys dispatch spans by a plan's method and URL and
    reads its id through ``getattr``, which hides a missing field."""
    read = set()
    for node in ast.walk(_tree("tracing.py")):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "plan":
            read.add(node.attr)
    for call in _calls("tracing.py", "getattr"):
        target, name = call.args[0], call.args[1]
        if isinstance(target, ast.Name) and target.id == "plan" \
                and isinstance(name, ast.Constant):
            read.add(name.value)
    fields = {f.name for f in dataclasses.fields(generator.RequestPlan)}
    assert read - fields == set()
    assert {"method", "concrete_url", "plan_id"} <= read


@pytest.mark.parametrize("window", [1, 2])
def test_every_replayed_step_goes_through_the_wrapped_execute(window,
                                                              monkeypatch):
    """The benchmark times replay dispatch on ``shrink-seq`` by wrapping
    ``trace_recreate.execute``; a step sent another way would not count."""
    sent = []
    wrapped = trace_recreate.execute

    def counting_execute(plan, target, timeout):
        sent.append(plan.concrete_url)
        return wrapped(plan, target, timeout)

    monkeypatch.setattr(trace_recreate, "execute", counting_execute)
    customer = {"$sym": "$customer_id"}
    script = trace_recreate.RecreateScript(
        max_in_flight=window, attempts=1,
        steps=[{"step": i, "method": method, "path_template": template,
                "path_params": params, "query": {}, "headers": {},
                "body": body}
               for i, (method, template, params, body) in enumerate([
                   ("POST", "/customers", {}, {"name": "Ada"}),
                   ("GET", "/customers/{customerId}",
                    {"customerId": customer}, None),
                   ("DELETE", "/customers/{customerId}",
                    {"customerId": customer}, None)])],
        bindings=[{"variable": "$customer_id", "producer": [1, "$.customerId"],
                   "producer_step": 0,
                   "consumers": [[2, "path.customerId"],
                                 [3, "path.customerId"]]}],
        expected_failure={"kind": "server-error-5xx", "status_class": "5XX"})
    target = InProcessTarget(BookshopApp(toggles=["delete-customer-500"]))
    try:
        outcome = trace_recreate.replay(script, target)
    finally:
        target.close()
    assert outcome.outcome == "reproduced"
    assert sent == ["/customers", "/customers/c1", "/customers/c1"]


@pytest.mark.parametrize("window", [1, 2])
def test_every_fuzz_request_goes_through_the_wrapped_execute_and_wait(
        window, monkeypatch, bookshop_model, bookshop_sampling):
    """The benchmark times the run loop's dispatch and its waiting by
    wrapping ``generator.execute`` and ``generator.wait``; a request sent or
    collected another way would not count."""
    sent, collected = [], []
    wrapped_execute, wrapped_wait = generator.execute, generator.wait

    def counting_execute(plan, *args, **kwargs):
        sent.append(plan.plan_id)
        return wrapped_execute(plan, *args, **kwargs)

    def counting_wait(*args, **kwargs):
        answers = wrapped_wait(*args, **kwargs)
        collected.extend(plan_id for plan_id, _ in answers)
        return answers

    monkeypatch.setattr(generator, "execute", counting_execute)
    monkeypatch.setattr(generator, "wait", counting_wait)
    config = generator.RunConfig(mode="concurrent", max_in_flight=window,
                                 master_seed=1, max_requests=40,
                                 stop_on_error=False)
    target = InProcessTarget(BookshopApp())
    try:
        result = generator.run(config, bookshop_model, bookshop_sampling,
                               target=target)
    finally:
        target.close()
    os.unlink(result.trace_ref)
    assert result.counters["requests_sent"] == 40
    assert sorted(sent) == sorted(collected) == list(range(1, 41))


def test_every_exchange_goes_through_the_wrapped_check_exchange(
        monkeypatch, bookshop_model, bookshop_sampling):
    """The benchmark times the checker by wrapping
    ``generator.check_exchange``; an exchange checked another way would make
    ``checker.check_us`` read low, or 0."""
    checked = []
    wrapped = generator.check_exchange

    def counting_check(plan, *args, **kwargs):
        checked.append(plan.plan_id)
        return wrapped(plan, *args, **kwargs)

    monkeypatch.setattr(generator, "check_exchange", counting_check)
    config = generator.RunConfig(master_seed=1, max_requests=20,
                                 stop_on_error=False)
    target = InProcessTarget(BookshopApp())
    try:
        result = generator.run(config, bookshop_model, bookshop_sampling,
                               target=target)
    finally:
        target.close()
    os.unlink(result.trace_ref)
    assert result.counters["requests_sent"] == 20
    assert sorted(checked) == list(range(1, 21))
