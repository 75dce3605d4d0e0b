"""Internal state: the lifecycle of each resource id, and status prediction.

The store answers one question per id: is it live, deleted or unknown.  It
keeps no response bodies and no clock: a trace orders exchanges by the
run's completion count.  It has one writer, the run loop's thread, which
also does all reads, so predictions read the live store; the lock only
keeps each mutation whole.
Past its cap the store evicts the id deleted longest ago, or the oldest id
when none is deleted.  A prediction is the set of status classes a correct
SUT could legitimately return for a planned request.

Prediction mirrors the conventional request-validation order of REST
services (and of the bookshop fixture): path id syntax first, then object
existence, then the rest of the input; creations validate their body before
resolving references.  For a concurrent run (a window above 1) predictions
are widened: anything that assumed an instance was live also accepts 404,
because an in-flight delete may win the race ("stale-possible" basis).
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Any, Iterable

from .naming import DEFAULT_MATCH_THRESHOLD, match_names
from .sampling import TAG_INVALID
from .spec_ingest import any_pattern_matches

LIVE = "live"
DELETED = "deleted"

DEFAULT_STORE_CAP = 10_000


class IdExtractionFailure(Exception):
    """A create succeeded but no id field could be located in the response."""


class StateStore:
    """The lifecycle of each ``(resource, id)``, in insertion order, bounded.

    Live ids are also indexed per resource, in insertion order, so the
    from-state draw's ``query_ids(resource)`` does not scan.  Deleted keys
    queue in deletion order.  When the cap is exceeded the store evicts the
    key deleted longest ago, or the oldest key when none is deleted, so long
    runs stay in memory without a scan.  A deleted id is never made live
    again: a correct SUT does not hand it out twice.
    """

    def __init__(self, cap: int = DEFAULT_STORE_CAP):
        self.cap = cap
        # OrderedDict and deque pop their oldest entry in O(1); a plain dict
        # finds its first key by skipping every slot freed before it.
        self._lifecycles: OrderedDict[tuple[str, str], str] = OrderedDict()
        self._live: dict[str, dict[str, None]] = {}
        self._deleted: deque[tuple[str, str]] = deque()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._lifecycles)

    def lifecycle_of(self, resource: str, id_value: str) -> str | None:
        return self._lifecycles.get((resource, id_value))

    def query_ids(self, resource: str) -> list[str]:
        """The live ids of ``resource``, oldest first."""
        return list(self._live.get(resource, ()))

    def upsert_live(self, resource: str, id_value: str) -> bool:
        """Record an id as live; refuses to resurrect a deleted one."""
        with self._lock:
            key = (resource, id_value)
            lifecycle = self._lifecycles.get(key)
            if lifecycle == DELETED:
                return False
            if lifecycle is None:
                self._lifecycles[key] = LIVE
                self._live.setdefault(resource, {})[id_value] = None
                self._evict_locked()
            return True

    def mark_deleted(self, resource: str, id_value: str) -> bool:
        """Record an id as deleted, tracked or not (it is gone either way)."""
        with self._lock:
            key = (resource, id_value)
            lifecycle = self._lifecycles.get(key)
            if lifecycle == DELETED:
                return False
            self._lifecycles[key] = DELETED
            self._deleted.append(key)
            if lifecycle is None:
                self._evict_locked()
            else:
                del self._live[resource][id_value]
            return True

    def _evict_locked(self) -> None:
        # Called after each new key, so at most one key is over the cap.
        if len(self._lifecycles) > self.cap:
            if self._deleted:
                del self._lifecycles[self._deleted.popleft()]
            else:
                resource, id_value = self._lifecycles.popitem(last=False)[0]
                del self._live[resource][id_value]

    def dump_snapshot(self) -> str:
        """JSON debug dump of the store: each id with its lifecycle."""
        snap = {
            "instances": [
                {"resource": resource, "id": id_value, "lifecycle": lifecycle}
                for (resource, id_value), lifecycle in self._lifecycles.items()
            ],
        }
        return json.dumps(snap, indent=2, sort_keys=True)


# --- effect application ----------------------------------------------------------

def extract_id(body: Any, id_fields: Iterable[str],
               threshold: float = DEFAULT_MATCH_THRESHOLD) -> str:
    """Locate the new instance's id in a response body.

    Tries the model's id field names exactly, then a bare ``id`` field, then
    fuzzy name matching over the remaining top-level keys.  An id is a
    string or an integer, never a boolean, as for the trace and replay.
    """
    if not isinstance(body, dict):
        raise IdExtractionFailure(f"response body is not an object: {type(body).__name__}")
    for fname in id_fields:
        if fname in body and type(body[fname]) in (str, int):
            return str(body[fname])
    if "id" in body and type(body["id"]) in (str, int):
        return str(body["id"])
    for key in sorted(body):
        if type(body[key]) not in (str, int):
            continue
        if any(match_names(key, fname) >= threshold for fname in id_fields):
            return str(body[key])
    raise IdExtractionFailure(
        f"no id field among {sorted(body)} (expected one of {list(id_fields)})")


def apply_effect(request, response, store: StateStore,
                 threshold: float = DEFAULT_MATCH_THRESHOLD) -> None:
    """Fold one completed exchange into the store.

    Only successful (2XX) exchanges change lifecycles: creates insert, deletes
    mark deleted, reads, lists and updates record what they observed as
    live.  Raises :class:`IdExtractionFailure` when a create
    succeeded but its response carries no recognizable id.
    """
    status = response.status
    if response.transport_error or status is None or not 200 <= status < 300:
        return

    binding = request.binding
    crud = binding.crud_kind
    resource = binding.resource
    body = response.json_body

    if crud == "create":
        id_value = extract_id(body, request.resource_id_fields, threshold)
        store.upsert_live(resource, id_value)
    elif crud == "delete" and request.target_id_param:
        id_value = request.path_param_values.get(request.target_id_param)
        if id_value is not None:
            store.mark_deleted(resource, str(id_value))
    elif crud in ("read", "update") and request.target_id_param:
        id_value = request.path_param_values.get(request.target_id_param)
        if id_value is not None:
            store.upsert_live(resource, str(id_value))
    elif crud == "read-list" and isinstance(body, list):
        for item in body:
            try:
                id_value = extract_id(item, request.resource_id_fields, threshold)
            except IdExtractionFailure:
                continue
            store.upsert_live(resource, id_value)


# --- status prediction -------------------------------------------------------------

@dataclass(frozen=True)
class StatusPrediction:
    expected_classes: frozenset[str]
    basis: str  # exact-state | stale-possible
    rationale: str

    def matches(self, status: int) -> bool:
        return any_pattern_matches(self.expected_classes, status)


def _references_all_live(request, state) -> tuple[bool, str | None]:
    for key, (resource, ids) in sorted(request.reference_values.items()):
        if request.value_tags.get(key) == TAG_INVALID:
            continue  # syntactic rejection predicted separately
        for id_value in ids:
            if state.lifecycle_of(resource, str(id_value)) != LIVE:
                return False, f"{resource} id {id_value!r} (via {key}) is not live"
    return True, None


def predict_status(request, store, concurrent: bool = False) -> StatusPrediction:
    """Predict the status classes a correct SUT may return for this plan,
    from the store as it stands when the plan is dispatched; ``concurrent``
    widens what an in-flight exchange could change."""
    binding = request.binding
    crud = binding.crud_kind
    tags = request.value_tags

    invalid_path = sorted(
        k for k, t in tags.items()
        if t == TAG_INVALID and k in request.path_param_values)
    invalid_other = sorted(
        k for k, t in tags.items()
        if t == TAG_INVALID and k not in request.path_param_values)
    has_references = bool(request.reference_values)

    if crud == "other":
        declared = [p for p in request.declared_status_patterns
                    if not p.startswith("5")]
        expected = frozenset(declared) if declared else frozenset({"2XX"})
        return StatusPrediction(expected, "exact-state",
                                "unclassified operation; accepting declared statuses")

    if crud == "create":
        if invalid_path or invalid_other:
            bad = (invalid_path + invalid_other)[0]
            return StatusPrediction(
                frozenset({"400"}), "exact-state",
                f"parameter {bad!r} deliberately violates its schema")
        all_live, why = _references_all_live(request, store)
        if not all_live:
            basis = "stale-possible" if concurrent else "exact-state"
            return StatusPrediction(frozenset({"404"}), basis,
                                    f"prerequisite missing: {why}")
        if has_references and concurrent:
            return StatusPrediction(
                frozenset({"2XX", "404"}), "stale-possible",
                "prerequisites live at dispatch; an in-flight delete may race")
        return StatusPrediction(
            frozenset({"2XX"}), "exact-state",
            "all prerequisites live" if has_references else "no prerequisites")

    # read / read-list / update / delete
    if invalid_path:
        return StatusPrediction(
            frozenset({"400"}), "exact-state",
            f"path parameter {invalid_path[0]!r} deliberately violates its schema")
    all_live, why = _references_all_live(request, store)
    if not all_live:
        basis = "stale-possible" if concurrent else "exact-state"
        return StatusPrediction(frozenset({"404"}), basis,
                                f"target missing: {why}")
    widen = has_references and concurrent
    if invalid_other:
        expected = {"400", "404"} if widen else {"400"}
        return StatusPrediction(
            frozenset(expected), "stale-possible" if widen else "exact-state",
            f"parameter {invalid_other[0]!r} deliberately violates its schema")
    expected = {"2XX", "404"} if widen else {"2XX"}
    rationale = ("target live at dispatch; an in-flight delete may race"
                 if widen else
                 ("target and references live" if has_references
                  else "no state preconditions"))
    return StatusPrediction(frozenset(expected),
                            "stale-possible" if widen else "exact-state",
                            rationale)
