"""Internal state: tracked resource instances and status prediction.

The store records every resource instance the tool creates or discovers,
with a monotone epoch per mutation.  It has one writer, the run loop's
thread, which also does all reads, so predictions read the live store; the
lock only keeps each mutation whole.  A prediction is the set of status
classes a correct SUT could legitimately return for a planned request.

Prediction mirrors the conventional request-validation order of REST
services (and of the bookshop fixture): path id syntax first, then object
existence, then the rest of the input; creations validate their body before
resolving references.  In concurrent mode predictions are widened: anything
that assumed an instance was live also accepts 404, because an in-flight
delete may win the race ("stale-possible" basis).
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from typing import Any, Iterable

from .naming import DEFAULT_MATCH_THRESHOLD, match_names
from .sampling import TAG_INVALID
from .spec_ingest import status_pattern_matches

LIVE = "live"
DELETED = "deleted"
UNKNOWN = "unknown"

DEFAULT_STORE_CAP = 10_000


class IdExtractionFailure(Exception):
    """A create succeeded but no id field could be located in the response."""


@dataclass
class ResourceInstance:
    resource: str
    id_value: str
    lifecycle: str = LIVE
    last_representation: Any = None
    created_by: int | None = None


class StateStore:
    """Insertion-ordered instance store with bounded size.

    When the cap is exceeded the oldest deleted instances are evicted first,
    then the oldest remaining ones, so long unbounded runs stay in memory.
    Live ids are also indexed per resource, in insertion order, so the
    from-state draw's ``query_ids(resource, (LIVE,))`` does not scan.
    """

    def __init__(self, cap: int = DEFAULT_STORE_CAP):
        self.cap = cap
        self.epoch = 0
        self._instances: dict[tuple[str, str], ResourceInstance] = {}
        self._live: dict[str, dict[str, None]] = {}
        self._lock = threading.Lock()
        self.resurrections_skipped = 0

    def __len__(self) -> int:
        return len(self._instances)

    def get(self, resource: str, id_value: str) -> ResourceInstance | None:
        return self._instances.get((resource, id_value))

    def lifecycle_of(self, resource: str, id_value: str) -> str | None:
        inst = self._instances.get((resource, id_value))
        return inst.lifecycle if inst else None

    def query_ids(self, resource: str,
                  lifecycles: Iterable[str] = (LIVE,)) -> list[str]:
        if lifecycles == (LIVE,):
            return list(self._live.get(resource, ()))
        wanted = set(lifecycles)
        return [inst.id_value for inst in self._instances.values()
                if inst.resource == resource and inst.lifecycle in wanted]

    def upsert_live(self, resource: str, id_value: str, representation: Any,
                    created_by: int | None = None) -> bool:
        """Record an instance as live; refuses to resurrect a deleted one."""
        with self._lock:
            key = (resource, id_value)
            existing = self._instances.get(key)
            if existing is not None:
                if existing.lifecycle == DELETED:
                    self.resurrections_skipped += 1
                    return False
                existing.lifecycle = LIVE
                existing.last_representation = representation
            else:
                self._instances[key] = ResourceInstance(
                    resource, id_value, LIVE, representation, created_by)
                self._live.setdefault(resource, {})[id_value] = None
                self._evict_locked()
            self.epoch += 1
            return True

    def mark_deleted(self, resource: str, id_value: str) -> bool:
        with self._lock:
            key = (resource, id_value)
            existing = self._instances.get(key)
            if existing is None:
                # deleting something we never tracked: remember it as gone
                self._instances[key] = ResourceInstance(
                    resource, id_value, DELETED, None, None)
                self._evict_locked()
            elif existing.lifecycle == DELETED:
                return False
            else:
                existing.lifecycle = DELETED
                del self._live[resource][id_value]
            self.epoch += 1
            return True

    def _evict_locked(self) -> None:
        if len(self._instances) <= self.cap:
            return
        excess = len(self._instances) - self.cap
        victims = [k for k, inst in self._instances.items()
                   if inst.lifecycle == DELETED][:excess]
        if len(victims) < excess:
            remaining = excess - len(victims)
            skip = set(victims)
            for key in self._instances:
                if key not in skip:
                    victims.append(key)
                    remaining -= 1
                    if remaining == 0:
                        break
        for key in victims:
            if self._instances.pop(key).lifecycle == LIVE:
                del self._live[key[0]][key[1]]

    def dump_snapshot(self) -> str:
        """JSON debug dump of the store, keyed by the current epoch."""
        snap = {
            "epoch": self.epoch,
            "instances": [
                {"resource": inst.resource, "id": inst.id_value,
                 "lifecycle": inst.lifecycle, "created_by": inst.created_by}
                for inst in self._instances.values()
            ],
        }
        return json.dumps(snap, indent=2, sort_keys=True)


# --- effect application ----------------------------------------------------------

def extract_id(body: Any, id_fields: Iterable[str],
               threshold: float = DEFAULT_MATCH_THRESHOLD) -> str:
    """Locate the new instance's id in a response body.

    Tries the model's id field names exactly, then a bare ``id`` field, then
    fuzzy name matching over the remaining top-level keys.
    """
    if not isinstance(body, dict):
        raise IdExtractionFailure(f"response body is not an object: {type(body).__name__}")
    for fname in id_fields:
        if fname in body and isinstance(body[fname], (str, int)):
            return str(body[fname])
    if "id" in body and isinstance(body["id"], (str, int)):
        return str(body["id"])
    for key in sorted(body):
        if not isinstance(body[key], (str, int)):
            continue
        if any(match_names(key, fname) >= threshold for fname in id_fields):
            return str(body[key])
    raise IdExtractionFailure(
        f"no id field among {sorted(body)} (expected one of {list(id_fields)})")


def apply_effect(request, response, store: StateStore,
                 threshold: float = DEFAULT_MATCH_THRESHOLD) -> None:
    """Fold one completed exchange into the store.

    Only successful (2XX) exchanges change lifecycles: creates insert, deletes
    mark deleted, reads/lists upsert what they observed, updates refresh the
    representation.  Raises :class:`IdExtractionFailure` when a create
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
        store.upsert_live(resource, id_value, body, created_by=request.plan_id)
    elif crud == "delete" and request.target_id_param:
        id_value = request.path_param_values.get(request.target_id_param)
        if id_value is not None:
            store.mark_deleted(resource, str(id_value))
    elif crud in ("read", "update") and request.target_id_param:
        id_value = request.path_param_values.get(request.target_id_param)
        if id_value is not None:
            store.upsert_live(resource, str(id_value), body)
    elif crud == "read-list" and isinstance(body, list):
        for item in body:
            try:
                id_value = extract_id(item, request.resource_id_fields, threshold)
            except IdExtractionFailure:
                continue
            store.upsert_live(resource, id_value, item)


# --- status prediction -------------------------------------------------------------

@dataclass(frozen=True)
class StatusPrediction:
    expected_classes: frozenset[str]
    basis: str  # exact-state | stale-possible
    rationale: str

    def matches(self, status: int) -> bool:
        return any(status_pattern_matches(p, status)
                   for p in self.expected_classes)


def _references_all_live(request, state) -> tuple[bool, str | None]:
    for key, (resource, ids) in sorted(request.reference_values.items()):
        if request.value_tags.get(key) == TAG_INVALID:
            continue  # syntactic rejection predicted separately
        for id_value in ids:
            if state.lifecycle_of(resource, str(id_value)) != LIVE:
                return False, f"{resource} id {id_value!r} (via {key}) is not live"
    return True, None


def predict_status(request, store, mode: str = "sequential") -> StatusPrediction:
    """Predict the status classes a correct SUT may return for this plan,
    from the store as it stands when the plan is dispatched."""
    concurrent = mode == "concurrent"
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
