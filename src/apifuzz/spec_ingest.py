"""OpenAPI 3.x ingestion: load, resolve, validate, and lint.

Turns an OpenAPI document (JSON or YAML) into a self-contained intermediate
representation with every ``$ref`` spliced in, so downstream modules never
touch the raw document.  The IR keeps the document it was read from, in its
JSON form, only so that a trace header can record it; :func:`load_spec`
reads that back to an equal IR.  Unsupported schema constructions, and
schema values of the wrong type, degrade to the permissive "any" schema or
are ignored with a warning instead of failing the load; the warnings surface
through :func:`lint_spec` together with the structural lint rules.  Any
other part of the wrong shape fails the load with a :class:`ParseError`
that names where it is.

Supported: OpenAPI 3.0 / 3.1, internal references, a pragmatic JSON-schema
subset (types, enum, numeric bounds, string pattern/length, array items and
bounds, object properties/required, allOf merge, single-branch oneOf/anyOf).
YAML is read as the JSON it stands for (OpenAPI asks for JSON-compatible
YAML): a timestamp stays a string, a key becomes one, and a value JSON cannot
hold is refused.  Swagger 2.x documents are rejected.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Any, Callable, Iterator, Sequence

import yaml

from .naming import DEFAULT_MATCH_THRESHOLD, match_names


class SpecError(Exception):
    """Base class for specification ingestion failures."""


class ParseError(SpecError):
    """The document is not syntactically valid JSON/YAML or not an OpenAPI doc."""


class UnresolvedRef(SpecError):
    """A ``$ref`` points at nothing resolvable inside the document."""


class UnsupportedVersion(SpecError):
    """The document is not OpenAPI 3.x."""


# --- status patterns -------------------------------------------------------

_STATUS_PATTERN_RE = re.compile(r"^([1-5]XX|[1-5][0-9][0-9]|XXX)$")

HTTP_METHODS = ("get", "put", "post", "delete", "patch", "head", "options")


def validate_status_pattern(pattern: str) -> bool:
    """True if pattern is an exact HTTP code, a class like "2XX", or "XXX"."""
    return bool(_STATUS_PATTERN_RE.match(pattern))


def status_pattern_matches(pattern: str, status: int) -> bool:
    """Match an observed status code against a declared pattern."""
    return any_pattern_matches((pattern,), status)


def any_pattern_matches(patterns, status: int) -> bool:
    """Whether a status matches any of the patterns: ``XXX``, its exact
    code, or its class (``4XX``) when it is a valid HTTP status."""
    code = str(status)
    in_range = 100 <= status <= 599
    for pattern in patterns:
        if pattern == code or pattern == "XXX" or (
                in_range and pattern.endswith("XX") and pattern[0] == code[0]):
            return True
    return False


@lru_cache(maxsize=64)
def media_type(content_type: str | None) -> tuple[str, bool]:
    """A ``Content-Type`` value's base type, lowercased, and whether it is
    JSON: ``application/json``, any ``+json`` type, or no type at all."""
    base = (content_type or "").split(";")[0].strip().lower()
    return base, base in ("", "application/json") or base.endswith("+json")


# --- IR types ---------------------------------------------------------------

ANY_KIND = "any"
SCHEMA_KINDS = ("object", "array", "string", "integer", "number", "boolean", ANY_KIND)


@dataclass(frozen=True)
class SchemaNode:
    """Resolved schema subset; ``kind == "any"`` accepts every value."""

    kind: str = ANY_KIND
    nullable: bool = False
    enum_values: tuple = ()
    minimum: float | int | None = None
    maximum: float | int | None = None
    pattern: str | None = None
    min_length: int | None = None
    max_length: int | None = None
    format: str | None = None
    min_items: int | None = None
    max_items: int | None = None
    items: "SchemaNode | None" = None
    required_fields: tuple[str, ...] = ()
    properties: tuple[tuple[str, "SchemaNode"], ...] = ()

    def property_map(self) -> dict[str, "SchemaNode"]:
        return dict(self.properties)

    @cached_property
    def validator(self) -> Callable[[Any], Sequence[tuple[str, str, str]]]:
        """This schema compiled into one check (``checker.compile_schema``),
        built on first use and freed with the node."""
        from .checker import compile_schema  # the checker imports this module
        return compile_schema(self)


ANY_SCHEMA = SchemaNode()


@dataclass(frozen=True)
class ParameterDef:
    name: str
    location: str  # path | query | header | body-field
    schema: SchemaNode = ANY_SCHEMA
    required: bool = False


@dataclass(frozen=True)
class ResponseDef:
    body_schema: SchemaNode | None = None
    content_types: tuple[str, ...] = ()


@dataclass(frozen=True)
class OperationDef:
    method: str
    path_template: str
    parameters: tuple[ParameterDef, ...] = ()
    request_body_schema: SchemaNode | None = None
    responses: tuple[tuple[str, ResponseDef], ...] = ()

    @property
    def operation_id(self) -> str:
        return f"{self.method} {self.path_template}"

    def path_parameters(self) -> list[ParameterDef]:
        return [p for p in self.parameters if p.location == "path"]

    def parameters_in(self, *locations: str) -> list[ParameterDef]:
        return [p for p in self.parameters if p.location in locations]

    @cached_property
    def status_verdicts(self) -> dict:
        """The checker's verdict for each status seen (``checker.verdict``),
        filled on first use and freed with the operation."""
        return {}


@dataclass(frozen=True)
class LintFinding:
    rule_id: str
    severity: str  # warning | error
    location: str
    message: str


@dataclass
class ApiSpecIR:
    """Fully resolved in-memory form of an OpenAPI document."""

    title: str
    base_paths: list[str]
    operations: list[OperationDef]
    schemas: dict[str, SchemaNode]
    load_warnings: list[LintFinding] = field(default_factory=list)
    # The document read, in its JSON form; only a trace header writes it.
    document: dict = field(default_factory=dict)

    def operations_by_id(self) -> dict[str, OperationDef]:
        return {op.operation_id: op for op in self.operations}

    def operation(self, operation_id: str) -> OperationDef:
        for op in self.operations:
            if op.operation_id == operation_id:
                return op
        raise KeyError(operation_id)

    def __eq__(self, other) -> bool:  # warnings and document are not identity
        if not isinstance(other, ApiSpecIR):
            return NotImplemented
        return (
            self.title == other.title
            and self.base_paths == other.base_paths
            and self.operations == other.operations
            and self.schemas == other.schemas
        )


def _warn(warnings: list[LintFinding], rule_id: str, location: str, message: str) -> None:
    warnings.append(LintFinding(rule_id, "warning", location, message))


# --- $ref resolution ---------------------------------------------------------

def _pointer_lookup(doc: dict, ref: str):
    if not ref.startswith("#/"):
        raise UnresolvedRef(f"only internal references are supported: {ref!r}")
    node: Any = doc
    for raw_part in ref[2:].split("/"):
        part = raw_part.replace("~1", "/").replace("~0", "~")
        if isinstance(node, list):
            try:
                node = node[int(part)]
            except (ValueError, IndexError):
                raise UnresolvedRef(f"dangling reference: {ref!r}") from None
        elif isinstance(node, dict) and part in node:
            node = node[part]
        else:
            raise UnresolvedRef(f"dangling reference: {ref!r}")
    return node


def resolve_refs(doc: dict, warnings: list[LintFinding] | None = None) -> dict:
    """Return a copy of the document with every internal ``$ref`` spliced in.

    Cyclic references degrade to an empty (permissive) schema rather than
    recursing forever.  Resolving an already-resolved document returns an
    equal document.
    """
    sink = warnings if warnings is not None else []

    def resolve(node, stack: tuple[str, ...]):
        if isinstance(node, dict):
            if "$ref" in node:
                ref = node["$ref"]
                if not isinstance(ref, str):
                    raise UnresolvedRef(f"non-string $ref: {ref!r}")
                if ref in stack:
                    _warn(sink, "schema-cycle-degraded", ref,
                          f"reference cycle through {ref!r}; degraded to any-schema")
                    return {}
                target = _pointer_lookup(doc, ref)
                return resolve(target, stack + (ref,))
            return {k: resolve(v, stack) for k, v in node.items()}
        if isinstance(node, list):
            return [resolve(v, stack) for v in node]
        return node

    return resolve(doc, ())


# --- schema construction ------------------------------------------------------

_SCHEMA_ANNOTATIONS = {
    "title", "description", "example", "examples", "default", "deprecated",
    "readOnly", "writeOnly", "xml", "externalDocs", "$comment",
}
_SCHEMA_SUPPORTED = {
    "type", "nullable", "enum", "minimum", "maximum", "pattern", "minLength",
    "maxLength", "format", "minItems", "maxItems", "items", "properties",
    "required", "allOf", "oneOf", "anyOf", "additionalProperties",
}


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _is_number(value) -> bool:
    return type(value) is int or (type(value) is float and math.isfinite(value))


# For each SchemaNode field that takes its schema keyword's value as it is:
# the keyword, what the value must be, and the test.  load_spec ignores a
# value that fails with a warning; a script's schema predicate that has one
# is refused.
SCHEMA_VALUE_RULES: dict[str, tuple[str, str, Callable[[Any], bool]]] = {
    "nullable": ("nullable", "a boolean", lambda v: type(v) is bool),
    "enum_values": ("enum", "a list", lambda v: isinstance(v, list)),
    "minimum": ("minimum", "a number", _is_number),
    "maximum": ("maximum", "a number", _is_number),
    "min_length": ("minLength", "a non-negative integer", _is_count),
    "max_length": ("maxLength", "a non-negative integer", _is_count),
    "min_items": ("minItems", "a non-negative integer", _is_count),
    "max_items": ("maxItems", "a non-negative integer", _is_count),
    "required_fields": ("required", "a list of strings", lambda v: isinstance(
        v, list) and all(isinstance(s, str) for s in v)),
}
# By keyword, with the keywords whose IR form is not their document form.
_KEYWORD_RULES = {
    **{keyword: (what, fits)
       for keyword, what, fits in SCHEMA_VALUE_RULES.values()},
    "properties": ("an object", lambda v: isinstance(v, dict)),
    "allOf": ("a list", lambda v: isinstance(v, list)),
}


def _merge_allof(branches: list[SchemaNode], location: str,
                 warnings: list[LintFinding]) -> SchemaNode:
    objects = [b for b in branches if b.kind == "object"]
    if len(objects) != len(branches):
        non_obj = [b for b in branches if b.kind not in ("object", ANY_KIND)]
        if non_obj:
            if len(non_obj) == 1 and not objects:
                return non_obj[0]
            _warn(warnings, "unsupported-schema-keyword", location,
                  "allOf over mixed kinds; degraded to any-schema")
            return ANY_SCHEMA
    props: dict[str, SchemaNode] = {}
    required: list[str] = []
    nullable = False
    for b in objects:
        props.update(b.property_map())
        for r in b.required_fields:
            if r not in required:
                required.append(r)
        nullable = nullable or b.nullable
    return SchemaNode(
        kind="object",
        nullable=nullable,
        required_fields=tuple(r for r in required if r in props),
        properties=tuple(props.items()),
    )


@lru_cache(maxsize=256)
def _pattern_error(pattern: str) -> str | None:
    """Why Python's ``re`` cannot compile a schema's ``pattern``, if it
    cannot; the checker and the sampler compile every pattern kept."""
    try:
        re.compile(pattern)
    except re.error as exc:
        return str(exc)
    return None


def _schema_node(raw, location: str, warnings: list[LintFinding]) -> SchemaNode:
    if raw is None or raw is True or raw == {}:
        return ANY_SCHEMA
    if raw is False:
        _warn(warnings, "unsupported-schema-keyword", location,
              "boolean 'false' schema degraded to any-schema")
        return ANY_SCHEMA
    if not isinstance(raw, dict):
        _warn(warnings, "unsupported-schema-keyword", location,
              f"non-object schema {type(raw).__name__}; degraded to any-schema")
        return ANY_SCHEMA

    ignored = []
    for key, value in raw.items():
        if key in _KEYWORD_RULES:
            what, fits = _KEYWORD_RULES[key]
            if not fits(value):
                ignored.append(key)
                _warn(warnings, "invalid-schema-value", location,
                      f"{key} {value!r} is not {what}; ignored")
        elif key not in _SCHEMA_SUPPORTED and key not in _SCHEMA_ANNOTATIONS:
            _warn(warnings, "unsupported-schema-keyword", location,
                  f"keyword {key!r} ignored")
    if ignored:
        raw = {key: value for key, value in raw.items() if key not in ignored}

    if "allOf" in raw:
        branches = [
            _schema_node(b, f"{location}.allOf[{i}]", warnings)
            for i, b in enumerate(raw["allOf"])
        ]
        return _merge_allof(branches, location, warnings)
    for comb in ("oneOf", "anyOf"):
        if comb in raw:
            branches = raw[comb]
            if not isinstance(branches, list) or not branches:
                _warn(warnings, "unsupported-schema-keyword", location,
                      f"empty {comb}; degraded to any-schema")
                return ANY_SCHEMA
            if len(branches) > 1:
                _warn(warnings, "composition-branch-chosen", location,
                      f"{comb} with {len(branches)} branches; using the first")
            return _schema_node(branches[0], f"{location}.{comb}[0]", warnings)

    raw_type = raw.get("type")
    nullable = raw.get("nullable", False)
    if isinstance(raw_type, list):  # 3.1 style ["string", "null"]
        non_null = [t for t in raw_type if t != "null"]
        nullable = nullable or "null" in raw_type
        raw_type = non_null[0] if non_null else None
    if raw_type is None:
        if "properties" in raw or "required" in raw:
            raw_type = "object"
        elif "items" in raw:
            raw_type = "array"
        elif "enum" in raw and raw["enum"]:
            sample = raw["enum"][0]
            raw_type = {str: "string", bool: "boolean", int: "integer",
                        float: "number"}.get(type(sample), ANY_KIND)
        else:
            raw_type = ANY_KIND
    if raw_type == "null":
        return SchemaNode(kind=ANY_KIND, nullable=True)
    if raw_type not in SCHEMA_KINDS:
        _warn(warnings, "unsupported-schema-keyword", location,
              f"type {raw_type!r} degraded to any-schema")
        return SchemaNode(kind=ANY_KIND, nullable=nullable)

    properties: tuple[tuple[str, SchemaNode], ...] = ()
    required: tuple[str, ...] = ()
    if raw_type == "object":
        props = raw.get("properties", {})
        properties = tuple(
            (name, _schema_node(sub, f"{location}.properties.{name}", warnings))
            for name, sub in props.items()
        )
        declared = {name for name, _ in properties}
        req_raw = raw.get("required", [])
        for r in req_raw:
            if r not in declared:
                _warn(warnings, "required-field-undeclared", location,
                      f"required field {r!r} is not declared in properties")
        required = tuple(r for r in req_raw if r in declared)

    items = None
    if raw_type == "array":
        items = _schema_node(raw.get("items"), f"{location}.items", warnings)

    pattern = raw.get("pattern")
    if pattern is not None:
        error = _pattern_error(pattern) if isinstance(pattern, str) \
            else "not a string"
        if error:
            _warn(warnings, "unsupported-pattern", location,
                  f"pattern {pattern!r} is not a Python regular expression "
                  f"({error}); ignored")
            pattern = None

    return SchemaNode(
        kind=raw_type,
        nullable=nullable,
        enum_values=tuple(raw.get("enum", ())),
        minimum=raw.get("minimum"),
        maximum=raw.get("maximum"),
        pattern=pattern,
        min_length=raw.get("minLength"),
        max_length=raw.get("maxLength"),
        format=raw.get("format"),
        min_items=raw.get("minItems"),
        max_items=raw.get("maxItems"),
        items=items,
        required_fields=required,
        properties=properties,
    )


# --- document loading ---------------------------------------------------------

_PATH_PARAM_RE = re.compile(r"\{([^{}/]+)\}")


def _part(value, kind: type, where: str):
    """``value`` when it is a ``kind`` (an object or a list), an empty one
    when it is absent or null; else a :class:`ParseError` naming ``where``."""
    if value is None:
        return kind()
    if not isinstance(value, kind):
        raise ParseError(f"{where} is not "
                         f"{'an object' if kind is dict else 'a list'}")
    return value


def _json_content_schema(content: dict, location: str,
                         warnings: list[LintFinding]):
    """Pick the JSON media type schema out of a ``content`` table."""
    content = _part(content, dict, f"{location} content")
    content_types = tuple(content.keys())
    for ctype, media in content.items():
        if media_type(ctype)[1]:
            media = _part(media, dict, f"{location} content {ctype!r}")
            return _schema_node(media.get("schema"), location, warnings), content_types
    if content_types:
        _warn(warnings, "non-json-body", location,
              f"no JSON media type among {list(content_types)}")
    return None, content_types


def _build_parameter(raw: dict, location: str,
                     warnings: list[LintFinding]) -> ParameterDef | None:
    name, where = raw["name"], raw.get("in", "")
    if where not in ("path", "query", "header"):
        _warn(warnings, "unsupported-parameter-location", f"{location}#{name}",
              f"parameter location {where!r} skipped")
        return None
    if "schema" in raw:
        schema = _schema_node(raw["schema"], f"{location}#{name}", warnings)
    else:
        schema, _ = _json_content_schema(raw.get("content"), f"{location}#{name}",
                                         warnings)
        schema = schema or ANY_SCHEMA
    required = raw.get("required", False)
    if type(required) is not bool:
        _warn(warnings, "invalid-schema-value", f"{location}#{name}",
              f"required {required!r} is not a boolean; ignored")
        required = False
    required = required or where == "path"
    return ParameterDef(name=name, location=where, schema=schema, required=required)


def _build_operation(method: str, path: str, raw_op: dict, path_params: list,
                     warnings: list[LintFinding]) -> OperationDef:
    loc = f"{method.upper()} {path}"
    merged: dict[tuple[str, str], dict] = {}
    for raw in path_params + _part(raw_op.get("parameters"), list,
                                   f"{loc} parameters"):
        raw = _part(raw, dict, f"a parameter of {loc}")
        name, where = raw.get("name"), raw.get("in", "")
        if not name or not isinstance(name, str):
            raise ParseError(f"parameter without a name at {loc}")
        if not isinstance(where, str):
            raise ParseError(f"parameter {name!r} at {loc}: 'in' is not a string")
        merged[(name, where)] = raw
    params: list[ParameterDef] = []
    for raw in merged.values():
        built = _build_parameter(raw, loc, warnings)
        if built is not None:
            params.append(built)

    request_body = _part(raw_op.get("requestBody"), dict, f"{loc} requestBody")
    body_schema, _ = _json_content_schema(request_body.get("content"),
                                          f"{loc}#requestBody", warnings)
    if body_schema is not None and body_schema.kind == "object":
        required = set(body_schema.required_fields)
        for fname, fschema in body_schema.properties:
            params.append(ParameterDef(
                name=fname, location="body-field",
                schema=fschema, required=fname in required))

    declared_path_names = {p.name for p in params if p.location == "path"}
    for seg in _PATH_PARAM_RE.findall(path):
        if seg not in declared_path_names:
            _warn(warnings, "undeclared-path-parameter", loc,
                  f"path parameter {{{seg}}} has no declaration; synthesized")
            params.append(ParameterDef(
                name=seg, location="path",
                schema=SchemaNode(kind="string"), required=True))

    responses: list[tuple[str, ResponseDef]] = []
    for code, raw_resp in _part(raw_op.get("responses"), dict,
                                f"{loc} responses").items():
        pattern = "XXX" if code == "default" else str(code).upper()
        if not validate_status_pattern(pattern):
            raise ParseError(f"invalid response status pattern {code!r} at {loc}")
        where = f"{loc}#response[{pattern}]"
        resp_schema, ctypes = _json_content_schema(
            _part(raw_resp, dict, where).get("content"), where, warnings)
        responses.append((pattern, ResponseDef(resp_schema, ctypes)))

    return OperationDef(
        method=method.upper(),
        path_template=path,
        parameters=tuple(params),
        request_body_schema=body_schema,
        responses=tuple(responses),
    )


class _JsonYamlLoader(yaml.SafeLoader):
    """YAML read as JSON-compatible YAML: a timestamp stays its string."""


_JsonYamlLoader.add_constructor("tag:yaml.org,2002:timestamp",
                                yaml.SafeLoader.construct_yaml_str)


def _not_json(constant: str):
    raise ParseError(f"{constant} is not a JSON value")


def load_spec(document: bytes | str, fmt: str = "json") -> ApiSpecIR:
    """Parse, reference-resolve, and validate an OpenAPI 3.x document.

    The IR is built from the document's JSON form, which it keeps, so
    ``load_spec(json.dumps(ir.document)) == ir``."""
    if isinstance(document, bytes):
        try:
            document = document.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"document is not UTF-8: {exc}") from exc
    if fmt == "json":
        try:
            doc = json.loads(document, parse_constant=_not_json)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from exc
    elif fmt == "yaml":
        try:
            doc = yaml.load(document, Loader=_JsonYamlLoader)
        except yaml.YAMLError as exc:
            raise ParseError(f"invalid YAML: {exc}") from exc
        try:  # keys become strings, as JSON writes them
            doc = json.loads(json.dumps(doc, allow_nan=False))
        except (TypeError, ValueError) as exc:
            raise ParseError(f"YAML that JSON cannot hold: {exc}") from exc
    else:
        raise ValueError(f"unknown format {fmt!r}; expected 'json' or 'yaml'")

    if not isinstance(doc, dict):
        raise ParseError("document root is not an object")
    if "swagger" in doc:
        raise UnsupportedVersion(
            f"Swagger {doc['swagger']!r} documents are not supported; convert to OpenAPI 3.x")
    version = doc.get("openapi")
    if not isinstance(version, str) or not version.startswith("3."):
        raise UnsupportedVersion(f"not an OpenAPI 3.x document (openapi={version!r})")

    warnings: list[LintFinding] = []
    resolved = resolve_refs(doc, warnings)

    paths = _part(resolved.get("paths"), dict, "'paths'")
    operations: list[OperationDef] = []
    for path in sorted(paths):
        raw_path = _part(paths[path], dict, f"path {path!r}")
        path_level_params = _part(raw_path.get("parameters"), list,
                                  f"path {path!r} parameters")
        for method in HTTP_METHODS:
            if method in raw_path:
                operations.append(_build_operation(
                    method, path,
                    _part(raw_path[method], dict, f"{method.upper()} {path}"),
                    path_level_params, warnings))

    seen: set[tuple[str, str]] = set()
    for op in operations:
        key = (op.method, op.path_template)
        if key in seen:
            raise ParseError(f"duplicate operation {op.operation_id}")
        seen.add(key)

    components = _part(resolved.get("components"), dict, "'components'")
    schemas: dict[str, SchemaNode] = {}
    for name, raw_schema in _part(components.get("schemas"), dict,
                                  "'components.schemas'").items():
        schemas[name] = _schema_node(raw_schema, f"components.schemas.{name}", warnings)

    return ApiSpecIR(
        title=str(_part(resolved.get("info"), dict, "'info'").get("title", "")),
        base_paths=sorted(paths),
        operations=operations,
        schemas=schemas,
        load_warnings=warnings,
        document=doc,
    )


def load_spec_file(path: str, fmt: str | None = None) -> ApiSpecIR:
    """Load a spec from disk, autodetecting the format from the extension."""
    if fmt is None:
        lowered = path.lower()
        fmt = "yaml" if lowered.endswith((".yaml", ".yml")) else "json"
    with open(path, "rb") as fh:
        return load_spec(fh.read(), fmt)


# --- lint ---------------------------------------------------------------------

def success_body_schemas(op: OperationDef) -> Iterator[SchemaNode]:
    """The object schemas of an operation's 2XX bodies, an array body
    giving its items' schema."""
    for pattern, resp in op.responses:
        if not pattern.startswith("2") or resp.body_schema is None:
            continue
        schema = resp.body_schema
        if schema.kind == "array" and schema.items is not None:
            schema = schema.items
        if schema.kind == "object":
            yield schema


def lint_spec(spec: ApiSpecIR,
              threshold: float = DEFAULT_MATCH_THRESHOLD) -> list[LintFinding]:
    """Report spec pitfalls; never raises.  Deterministic order for equal specs."""
    findings: list[LintFinding] = list(spec.load_warnings)
    produced = sorted({name for op in spec.operations
                       for schema in success_body_schemas(op)
                       for name, _ in schema.properties})

    for op in spec.operations:
        loc = op.operation_id

        for pattern, resp in op.responses:
            success = pattern.startswith("2") or pattern == "XXX"
            if success and pattern != "204" and resp.body_schema is None \
                    and not resp.content_types:
                findings.append(LintFinding(
                    "missing-response-schema", "warning",
                    f"{loc}#response[{pattern}]",
                    f"success response {pattern} declares no body schema"))

        for param in op.path_parameters():
            if not any(match_names(param.name, f) >= threshold for f in produced):
                findings.append(LintFinding(
                    "orphan-path-parameter", "error",
                    f"{loc}#param[{param.name}]",
                    f"no operation produces a field matching {param.name!r}; "
                    f"requests can only guess this value"))

        takes_input = bool(op.parameters) or op.request_body_schema is not None
        declares_4xx = any(p.startswith("4") for p, _ in op.responses)
        if takes_input and not declares_4xx:
            findings.append(LintFinding(
                "no-4xx-declared", "warning", loc,
                "operation takes input but declares no 4XX response"))

        if op.method == "DELETE" and not op.path_parameters():
            findings.append(LintFinding(
                "delete-without-id", "warning", loc,
                "DELETE operation has no path parameter identifying the target"))

    return findings
