"""Resource-centric semantic model inferred from an API specification.

The model answers three questions the request generator needs: what resources
does the API manage, which operation creates/reads/updates/deletes which
resource, and which resource's id must exist before another resource can be
created (dependency edges, e.g. a book creation consumes an author id).

Inference is a deterministic token heuristic built on :mod:`apifuzz.naming`:
resources come from path nouns (enriched by matching component schemas), CRUD
kinds from method + path shape, and edges from matching operation input
parameters against id fields observed in create/read response bodies.  The
model serializes to a reviewable JSON file; user edits merge back with
``user-edited`` provenance.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Iterable

from .naming import DEFAULT_MATCH_THRESHOLD, ID_SUFFIX_TOKENS, match_names, normalize_name, tokenize
from .spec_ingest import ApiSpecIR, LintFinding, OperationDef, SchemaNode

MODEL_VERSION = 1

CRUD_KINDS = ("create", "read", "read-list", "update", "delete", "other")

PROVENANCE_INFERRED = "inferred"
PROVENANCE_USER = "user-edited"


class ModelSchemaError(Exception):
    """The model document does not conform to the model-file schema."""


class DanglingReference(Exception):
    """The model references an operation or resource the spec does not define."""


@dataclass(frozen=True)
class Resource:
    name: str  # canonical singular noun, unique within a model
    id_field_names: tuple[str, ...] = ()
    schema: SchemaNode | None = None


@dataclass(frozen=True)
class OperationBinding:
    operation_id: str
    resource: str
    crud_kind: str


@dataclass(frozen=True)
class DependencyEdge:
    dependent: str
    prerequisite: str
    via_parameter: str
    confidence: float


@dataclass
class SemanticModel:
    resources: list[Resource]
    bindings: list[OperationBinding]
    edges: list[DependencyEdge]
    provenance: dict[str, str] = field(default_factory=dict)
    warnings: list[LintFinding] = field(default_factory=list)
    spec: ApiSpecIR | None = None  # backref for convenience; not part of identity

    def __eq__(self, other) -> bool:
        if not isinstance(other, SemanticModel):
            return NotImplemented
        return (self.resources == other.resources
                and self.bindings == other.bindings
                and self.edges == other.edges
                and self.provenance == other.provenance)

    def resource(self, name: str) -> Resource:
        for r in self.resources:
            if r.name == name:
                return r
        raise KeyError(name)

    def binding_for(self, operation_id: str) -> OperationBinding:
        for b in self.bindings:
            if b.operation_id == operation_id:
                return b
        raise KeyError(operation_id)

    def bindings_for_resource(self, name: str) -> list[OperationBinding]:
        return [b for b in self.bindings if b.resource == name]

    def operation_def(self, binding: OperationBinding) -> OperationDef:
        if self.spec is None:
            raise ValueError("model has no attached spec")
        return self.spec.operation(binding.operation_id)

    def edge_set(self) -> set[tuple[str, str]]:
        return {(e.dependent, e.prerequisite) for e in self.edges}

    def id_resource(self, name: str, threshold: float) -> str | None:
        """The resource whose id fields ``name`` matches best, if that score
        reaches ``threshold``; the first by resource name on a tie."""
        best_score, best_name = 0.0, None
        for resource in sorted(self.resources, key=lambda r: r.name):
            if not resource.id_field_names:
                continue
            score = max(match_names(name, idf)
                        for idf in resource.id_field_names)
            if score > best_score:
                best_score, best_name = score, resource.name
        if best_score >= threshold:
            return best_name
        return None


# --- provenance keys ---------------------------------------------------------

def _rkey(name: str) -> str:
    return f"resource:{name}"


def _bkey(operation_id: str) -> str:
    return f"binding:{operation_id}"


def _ekey(e: DependencyEdge) -> str:
    return f"edge:{e.dependent}->{e.prerequisite}:{e.via_parameter}"


# --- inference ----------------------------------------------------------------

_PARAM_SEG = re.compile(r"^\{[^{}]+\}$")


def _path_segments(path: str) -> list[str]:
    return [s for s in path.strip("/").split("/") if s]


def _resource_name_for_path(path: str) -> str:
    nouns = [s for s in _path_segments(path) if not _PARAM_SEG.match(s)]
    if not nouns:
        return "root"
    return normalize_name(nouns[-1])


def _is_item_path(path: str) -> bool:
    segments = _path_segments(path)
    return bool(segments) and bool(_PARAM_SEG.match(segments[-1]))


def classify_crud(op: OperationDef) -> str:
    """Method + path-shape heuristic for the CRUD kind of an operation."""
    item = _is_item_path(op.path_template)
    if op.method == "POST" and not item:
        return "create"
    if op.method == "GET" and item:
        return "read"
    if op.method == "GET" and not item:
        return "read-list"
    if op.method in ("PUT", "PATCH") and item:
        return "update"
    if op.method == "DELETE" and item:
        return "delete"
    return "other"


def _is_id_marker_field(field_name: str, owner_name: str,
                        threshold: float) -> bool:
    """True when field_name looks like "the id of owner" (authorId, book_ref, id)."""
    tokens = tokenize(field_name)
    if not tokens:
        return False
    if tokens == ["id"]:
        return True
    if tokens[-1] not in ID_SUFFIX_TOKENS:
        return False
    return match_names(field_name, owner_name) >= threshold


def _success_body_schemas(op: OperationDef) -> Iterable[SchemaNode]:
    for pattern, resp in op.responses:
        if not pattern.startswith("2") or resp.body_schema is None:
            continue
        schema = resp.body_schema
        if schema.kind == "array" and schema.items is not None:
            schema = schema.items
        if schema.kind == "object":
            yield schema


def _find_cycle(edges: list[DependencyEdge]) -> list[DependencyEdge] | None:
    adjacency: dict[str, list[DependencyEdge]] = {}
    for e in edges:
        adjacency.setdefault(e.dependent, []).append(e)
    state: dict[str, int] = {}  # 1 = on stack, 2 = done

    def dfs(node: str, path: list[DependencyEdge]) -> list[DependencyEdge] | None:
        state[node] = 1
        for e in sorted(adjacency.get(node, []),
                        key=lambda e: (e.prerequisite, e.via_parameter)):
            nxt = e.prerequisite
            if state.get(nxt) == 1:
                start = next(i for i, pe in enumerate(path + [e])
                             if pe.dependent == nxt)
                return (path + [e])[start:]
            if state.get(nxt) != 2:
                found = dfs(nxt, path + [e])
                if found:
                    return found
        state[node] = 2
        return None

    for node in sorted(adjacency):
        if state.get(node) != 2:
            found = dfs(node, [])
            if found:
                return found
    return None


def _break_cycles(edges: list[DependencyEdge],
                  warnings: list[LintFinding]) -> list[DependencyEdge]:
    edges = list(edges)
    while True:
        cycle = _find_cycle(edges)
        if not cycle:
            return edges
        weakest = min(cycle, key=lambda e: (e.confidence, e.dependent,
                                            e.prerequisite, e.via_parameter))
        edges.remove(weakest)
        warnings.append(LintFinding(
            "dependency-cycle-broken", "warning", _ekey(weakest),
            "dependency cycle detected; dropped the lowest-confidence edge "
            f"{weakest.dependent}->{weakest.prerequisite} via "
            f"{weakest.via_parameter!r} (confidence {weakest.confidence:.2f})"))


def infer_model(spec: ApiSpecIR,
                threshold: float = DEFAULT_MATCH_THRESHOLD) -> SemanticModel:
    """Derive resources, CRUD bindings, and dependency edges from the spec.

    Always produces a model: every operation gets a binding (crud kind
    "other" when the shape heuristic does not apply) and uncertain edges are
    expressed through their confidence score rather than omitted.
    """
    warnings: list[LintFinding] = []

    resource_names: list[str] = []
    for op in spec.operations:
        name = _resource_name_for_path(op.path_template)
        if name not in resource_names:
            resource_names.append(name)

    # Component schemas enrich path-derived resources; a schema introduces a
    # new resource only when it carries an id-marker field for its own name.
    schema_for: dict[str, SchemaNode] = {}
    for schema_name in sorted(spec.schemas):
        schema = spec.schemas[schema_name]
        normalized = normalize_name(schema_name)
        if normalized in resource_names:
            schema_for.setdefault(normalized, schema)
            continue
        if schema.kind == "object" and any(
                _is_id_marker_field(f, normalized, threshold)
                for f, _ in schema.properties):
            resource_names.append(normalized)
            schema_for[normalized] = schema

    bindings = sorted(
        (OperationBinding(op.operation_id,
                          _resource_name_for_path(op.path_template),
                          classify_crud(op))
         for op in spec.operations),
        key=lambda b: b.operation_id)

    ops_by_id = spec.operations_by_id()
    id_fields: dict[str, list[str]] = {name: [] for name in resource_names}
    for binding in bindings:
        if binding.crud_kind not in ("create", "read", "read-list"):
            continue
        for schema in _success_body_schemas(ops_by_id[binding.operation_id]):
            for fname, _ in schema.properties:
                if _is_id_marker_field(fname, binding.resource, threshold) \
                        and fname not in id_fields[binding.resource]:
                    id_fields[binding.resource].append(fname)
    for name in resource_names:
        schema = schema_for.get(name)
        if schema is not None and schema.kind == "object":
            for fname, _ in schema.properties:
                if _is_id_marker_field(fname, name, threshold) \
                        and fname not in id_fields[name]:
                    id_fields[name].append(fname)

    resources = [
        Resource(name, tuple(id_fields[name]), schema_for.get(name))
        for name in sorted(resource_names)
    ]

    edge_best: dict[tuple[str, str, str], float] = {}
    for binding in sorted(bindings, key=lambda b: b.operation_id):
        op = ops_by_id[binding.operation_id]
        for param in op.parameters_in("path", "query", "body-field"):
            for resource in resources:
                if resource.name == binding.resource or not resource.id_field_names:
                    continue
                score = max(match_names(param.name, idf)
                            for idf in resource.id_field_names)
                if score >= threshold:
                    key = (binding.resource, resource.name, param.name)
                    edge_best[key] = max(edge_best.get(key, 0.0), score)

    edges = [DependencyEdge(dep, pre, via, conf)
             for (dep, pre, via), conf in sorted(edge_best.items())]
    edges = _break_cycles(edges, warnings)

    provenance = {}
    for r in resources:
        provenance[_rkey(r.name)] = PROVENANCE_INFERRED
    for b in bindings:
        provenance[_bkey(b.operation_id)] = PROVENANCE_INFERRED
    for e in edges:
        provenance[_ekey(e)] = PROVENANCE_INFERRED

    return SemanticModel(resources=resources, bindings=bindings, edges=edges,
                         provenance=provenance, warnings=warnings, spec=spec)


def topological_order(model: SemanticModel) -> list[str]:
    """Resource names with prerequisites before dependents; ties alphabetical.

    Tolerates cycles (possible after user edits) by appending the remainder
    in name order, so callers always get a total order.
    """
    names = sorted(r.name for r in model.resources)
    prereq_count = {name: 0 for name in names}
    dependents: dict[str, list[str]] = {name: [] for name in names}
    for e in model.edges:
        if e.dependent in prereq_count and e.prerequisite in prereq_count:
            prereq_count[e.dependent] += 1
            dependents[e.prerequisite].append(e.dependent)

    ready = sorted(n for n, c in prereq_count.items() if c == 0)
    order: list[str] = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        for dep in sorted(dependents[node]):
            prereq_count[dep] -= 1
            if prereq_count[dep] == 0 and dep not in ready:
                ready.append(dep)
        ready.sort()
    order.extend(n for n in names if n not in order)
    return order


# --- serialization -------------------------------------------------------------

def serialize_model(model: SemanticModel) -> bytes:
    """Canonical, human-reviewable encoding; byte-equal for equal models."""
    doc = {
        "model_version": MODEL_VERSION,
        "resources": [
            {"name": r.name,
             "id_field_names": list(r.id_field_names),
             "provenance": model.provenance.get(_rkey(r.name), PROVENANCE_INFERRED)}
            for r in sorted(model.resources, key=lambda r: r.name)
        ],
        "bindings": [
            {"operation": b.operation_id,
             "resource": b.resource,
             "crud_kind": b.crud_kind,
             "provenance": model.provenance.get(_bkey(b.operation_id),
                                                PROVENANCE_INFERRED)}
            for b in sorted(model.bindings, key=lambda b: b.operation_id)
        ],
        "edges": [
            {"dependent": e.dependent,
             "prerequisite": e.prerequisite,
             "via_parameter": e.via_parameter,
             "confidence": e.confidence,
             "provenance": model.provenance.get(_ekey(e), PROVENANCE_INFERRED)}
            for e in sorted(model.edges,
                            key=lambda e: (e.dependent, e.prerequisite,
                                           e.via_parameter))
        ],
    }
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _parse_model_doc(document: bytes | str) -> dict:
    if isinstance(document, bytes):
        document = document.decode("utf-8")
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ModelSchemaError(f"model file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelSchemaError("model file root is not an object")
    return doc


def _validate_sections(doc: dict, required_version: bool) -> None:
    if required_version and doc.get("model_version") != MODEL_VERSION:
        raise ModelSchemaError(
            f"unsupported model_version {doc.get('model_version')!r}")
    for section, keys in (("resources", {"name"}),
                          ("bindings", {"operation", "resource", "crud_kind"}),
                          ("edges", {"dependent", "prerequisite", "via_parameter"})):
        entries = doc.get(section, [])
        if not isinstance(entries, list):
            raise ModelSchemaError(f"{section!r} is not a list")
        for entry in entries:
            if not isinstance(entry, dict) or not keys.issubset(entry):
                raise ModelSchemaError(
                    f"malformed {section} entry: {entry!r}")
            if section == "bindings" and entry["crud_kind"] not in CRUD_KINDS:
                raise ModelSchemaError(
                    f"unknown crud_kind {entry['crud_kind']!r}")
            if section == "edges":
                conf = entry.get("confidence", 1.0)
                if not isinstance(conf, (int, float)) or not 0.0 <= conf <= 1.0:
                    raise ModelSchemaError(
                        f"edge confidence out of [0,1]: {conf!r}")
                if entry["dependent"] == entry["prerequisite"]:
                    raise ModelSchemaError(
                        f"self-dependency edge on {entry['dependent']!r}")


def load_model(document: bytes | str, spec: ApiSpecIR,
               threshold: float = DEFAULT_MATCH_THRESHOLD) -> SemanticModel:
    """Load a (possibly user-edited) model file and validate it against the spec.

    Elements that differ from fresh inference are tagged ``user-edited``.
    Operations the file omits get their inferred binding back, keeping the
    binding set total over the spec's operations.
    """
    doc = _parse_model_doc(document)
    _validate_sections(doc, required_version=True)
    inferred = infer_model(spec, threshold)
    inferred_resources = {r.name: r for r in inferred.resources}
    inferred_bindings = {b.operation_id: b for b in inferred.bindings}
    inferred_edges = {(e.dependent, e.prerequisite, e.via_parameter): e
                      for e in inferred.edges}
    known_ops = set(spec.operations_by_id())

    provenance: dict[str, str] = {}

    resources: list[Resource] = []
    for entry in doc.get("resources", []):
        name = entry["name"]
        base = inferred_resources.get(name)
        id_fields = tuple(entry.get(
            "id_field_names",
            base.id_field_names if base else ()))
        resource = Resource(name, id_fields, base.schema if base else None)
        resources.append(resource)
        same = base is not None and base.id_field_names == id_fields
        provenance[_rkey(name)] = PROVENANCE_INFERRED if same else PROVENANCE_USER
    resource_names = {r.name for r in resources}

    bindings: list[OperationBinding] = []
    for entry in doc.get("bindings", []):
        op_id = entry["operation"]
        if op_id not in known_ops:
            raise DanglingReference(f"model binds unknown operation {op_id!r}")
        if entry["resource"] not in resource_names:
            raise DanglingReference(
                f"binding for {op_id!r} names unknown resource {entry['resource']!r}")
        binding = OperationBinding(op_id, entry["resource"], entry["crud_kind"])
        bindings.append(binding)
        provenance[_bkey(op_id)] = (
            PROVENANCE_INFERRED if inferred_bindings.get(op_id) == binding
            else PROVENANCE_USER)
    bound = {b.operation_id for b in bindings}
    for op_id, binding in inferred_bindings.items():
        if op_id not in bound:
            if binding.resource not in resource_names:
                resources.append(inferred_resources[binding.resource])
                resource_names.add(binding.resource)
                provenance[_rkey(binding.resource)] = PROVENANCE_INFERRED
            bindings.append(binding)
            provenance[_bkey(op_id)] = PROVENANCE_INFERRED

    edges: list[DependencyEdge] = []
    for entry in doc.get("edges", []):
        for endpoint in (entry["dependent"], entry["prerequisite"]):
            if endpoint not in resource_names:
                raise DanglingReference(
                    f"edge references unknown resource {endpoint!r}")
        edge = DependencyEdge(entry["dependent"], entry["prerequisite"],
                              entry["via_parameter"],
                              float(entry.get("confidence", 1.0)))
        edges.append(edge)
        key = (edge.dependent, edge.prerequisite, edge.via_parameter)
        provenance[_ekey(edge)] = (
            PROVENANCE_INFERRED if inferred_edges.get(key) == edge
            else PROVENANCE_USER)

    return SemanticModel(
        resources=sorted(resources, key=lambda r: r.name),
        bindings=sorted(bindings, key=lambda b: b.operation_id),
        edges=sorted(edges, key=lambda e: (e.dependent, e.prerequisite,
                                           e.via_parameter)),
        provenance=provenance,
        warnings=[],
        spec=spec,
    )


def merge_overrides(model: SemanticModel, overrides: bytes | str,
                    spec: ApiSpecIR) -> SemanticModel:
    """Apply a partial model document on top of a model.

    Entries replace same-keyed elements or are appended, tagged
    ``user-edited``; an entry carrying ``"remove": true`` deletes its target.
    """
    doc = _parse_model_doc(overrides)
    _validate_sections(doc, required_version=False)
    known_ops = set(spec.operations_by_id())

    resources = {r.name: r for r in model.resources}
    bindings = {b.operation_id: b for b in model.bindings}
    edges = {(e.dependent, e.prerequisite, e.via_parameter): e
             for e in model.edges}
    provenance = dict(model.provenance)

    for entry in doc.get("resources", []):
        name = entry["name"]
        if entry.get("remove"):
            resources.pop(name, None)
            provenance.pop(_rkey(name), None)
            continue
        base = resources.get(name)
        resources[name] = Resource(
            name,
            tuple(entry.get("id_field_names",
                            base.id_field_names if base else ())),
            base.schema if base else None)
        provenance[_rkey(name)] = PROVENANCE_USER

    for entry in doc.get("bindings", []):
        op_id = entry["operation"]
        if op_id not in known_ops:
            raise DanglingReference(f"override binds unknown operation {op_id!r}")
        if entry.get("remove"):
            raise ModelSchemaError(
                "bindings cannot be removed; reclassify or zero-weight instead")
        bindings[op_id] = OperationBinding(op_id, entry["resource"],
                                           entry["crud_kind"])
        provenance[_bkey(op_id)] = PROVENANCE_USER

    for entry in doc.get("edges", []):
        key = (entry["dependent"], entry["prerequisite"], entry["via_parameter"])
        if entry.get("remove"):
            removed = edges.pop(key, None)
            if removed is not None:
                provenance.pop(_ekey(removed), None)
            continue
        edge = DependencyEdge(*key, float(entry.get("confidence", 1.0)))
        for endpoint in (edge.dependent, edge.prerequisite):
            if endpoint not in resources:
                raise DanglingReference(
                    f"override edge references unknown resource {endpoint!r}")
        edges[key] = edge
        provenance[_ekey(edge)] = PROVENANCE_USER

    return SemanticModel(
        resources=sorted(resources.values(), key=lambda r: r.name),
        bindings=sorted(bindings.values(), key=lambda b: b.operation_id),
        edges=sorted(edges.values(), key=lambda e: (e.dependent, e.prerequisite,
                                                    e.via_parameter)),
        provenance=provenance,
        warnings=list(model.warnings),
        spec=spec,
    )
