"""Each sequential bookshop bug keeps its shrunk recreate script as a
regression test.

``tests/data/regressions/<bug>.json`` is what ``apifuzz minimize`` wrote for
one seeded bug; the README beside the files gives each one's trace seed,
request count and commands.  Replaying the kept files checks that scripts an
earlier commit wrote still load and still single out their own bug.
Shrinking the same seeded trace again checks that the binder and the
shrinker still write the same bytes: a change that alters a kept script
shows here as a diff, and regenerates the file and says why.
"""

import json
import os
import pathlib

import pytest

from apifuzz.bookshop import ALL_BUGS, BookshopApp
from apifuzz.generator import RunConfig, run
from apifuzz.http_driver import InProcessTarget
from apifuzz.trace_recreate import (
    RecreateScript,
    bind_symbols,
    build_replay_oracle,
    expected_failure_for,
    minimize,
    producer_dependencies,
    read_trace,
    replay,
)

REGRESSIONS = pathlib.Path(__file__).resolve().parent / "data" / "regressions"
# bug -> the seed of the trace its script was shrunk from; the first seed
# of 1 + 7919k whose trace holds an error-grade event
TRACE_SEEDS = {"schema-null-timestamp": 1, "get-missing-customer-500": 1,
               "delete-customer-500": 1, "invalid-param-2xx": 15839}
TRACE_REQUESTS = 300
ID_SEEDS = (1, 7, 20240101)


def _kept(bug: str) -> bytes:
    return (REGRESSIONS / f"{bug}.json").read_bytes()


def _outcome(script: RecreateScript, toggles, id_seed: int) -> str:
    target = InProcessTarget(BookshopApp(toggles=toggles, randomize_ids=True,
                                         id_seed=id_seed))
    try:
        return replay(script, target).outcome
    finally:
        target.close()


def _reproduces_its_own_bug_only(script: RecreateScript, bug: str) -> None:
    for id_seed in ID_SEEDS:
        assert _outcome(script, [bug], id_seed) == "reproduced", id_seed
    for toggles in ([], *([other] for other in ALL_BUGS if other != bug)):
        assert _outcome(script, toggles, ID_SEEDS[0]) == "not-reproduced", \
            toggles


@pytest.mark.parametrize("bug", sorted(TRACE_SEEDS))
def test_a_kept_script_reproduces_its_own_bug_only(bug):
    _reproduces_its_own_bug_only(RecreateScript.from_json(_kept(bug)), bug)


def test_an_older_script_with_consumers_still_loads_and_replays():
    """Scripts once listed each binding's uses as ``consumers`` beside the
    step markers; loading ignores the key."""
    doc = json.loads(_kept("delete-customer-500"))
    (binding,) = doc["bindings"]
    binding["consumers"] = [[doc["steps"][1]["source_event"],
                             "path.customerId"]]
    script = RecreateScript.from_json(json.dumps(doc))
    assert script.bindings == [binding]
    _reproduces_its_own_bug_only(script, "delete-customer-500")


def shrink(bug: str, model, sampling, ir) -> bytes:
    """The script ``minimize`` writes for the last error-grade event of the
    bug's seeded trace, shrunk against a fresh randomized-id bookshop per
    oracle call."""
    config = RunConfig(master_seed=TRACE_SEEDS[bug],
                       max_requests=TRACE_REQUESTS, stop_on_error=False)
    target = InProcessTarget(BookshopApp(toggles=[bug]))
    try:
        result = run(config, model, sampling, target=target)
    finally:
        target.close()
    _, events = read_trace(result.trace_ref)
    os.unlink(result.trace_ref)
    failing = [e for e in events if any(f.grade == "error" for f in e.findings)]
    prefix = [e for e in events if e.event_id <= failing[-1].event_id]
    expected = expected_failure_for(prefix[-1], ir)
    oracle = build_replay_oracle(model, expected, lambda: InProcessTarget(
        BookshopApp(toggles=[bug], randomize_ids=True)))
    shrunk = minimize(prefix, prefix[-1].event_id, oracle,
                      producer_dependencies(prefix, model))
    assert shrunk.proven_minimal
    return bind_symbols(shrunk.events, model, expected).to_json()


@pytest.mark.parametrize("bug", sorted(TRACE_SEEDS))
def test_shrinking_the_seeded_trace_again_writes_the_kept_bytes(
        bug, bookshop_model, bookshop_sampling, bookshop_ir):
    assert shrink(bug, bookshop_model, bookshop_sampling, bookshop_ir) \
        .decode("utf-8") == _kept(bug).decode("utf-8")
