"""Sampling specifications and weighted random selection.

For every operation parameter we precompute a value domain: what a valid
value looks like, which resource's live id could fill it, and a mixture
distribution over sampling components.  Components:

* ``valid-random`` — fresh value satisfying every declared constraint
  (defaults when the schema is silent: integers 0..1000, numbers 0..1000,
  alphanumeric strings of length 1..64);
* ``from-state``   — a live id of the target resource from the state store
  (reference domains only; falls back to valid-random when empty);
* ``boundary``     — declared numeric bounds or exact min/max lengths;
* ``invalid-typed``— deliberately violates one declared constraint and
  records which one, so the checker knows to expect a 4XX-class outcome.

Default raw mixture is 0.70 / 0.20 / 0.07 / 0.03, renormalized per domain
over whichever components apply.  All randomness flows through caller-owned
``random.Random`` instances, so runs are reproducible from the master seed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from random import Random
from typing import Any

from .naming import DEFAULT_MATCH_THRESHOLD
from .semantic_model import SemanticModel
from .spec_ingest import ANY_KIND, ApiSpecIR, ParameterDef, SchemaNode

TAG_VALID = "valid-random"
TAG_STATE = "from-state"
TAG_BOUNDARY = "boundary"
TAG_INVALID = "invalid-typed"

KIND_ENUM = "enum-set"
KIND_INT = "integer-range"
KIND_NUMBER = "number-range"
KIND_STRING = "string-pattern"
KIND_BOOL = "boolean"
KIND_REFERENCE = "reference-to-resource-id"
KIND_COMPOSITE = "composite-object"

DEFAULT_INT_LOW = 0
DEFAULT_INT_HIGH = 1000
DEFAULT_NUMBER_LOW = 0.0
DEFAULT_NUMBER_HIGH = 1000.0
DEFAULT_MAX_STRING = 64
DEFAULT_MAX_ARRAY = 3

_ALNUM = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"


class NoSelectableOperation(Exception):
    """Every resource/operation weight is zero; nothing can be drawn."""


# --- pattern synthesis ---------------------------------------------------------

_CLASS_SHORTHAND = {
    "d": "0123456789",
    "w": _ALNUM + "_",
    "s": " ",
}


def _parse_class(pattern: str, i: int) -> tuple[str, int] | None:
    # i points just past '['; negated classes are unsupported
    if i < len(pattern) and pattern[i] == "^":
        return None
    chars: list[str] = []
    while i < len(pattern) and pattern[i] != "]":
        c = pattern[i]
        if c == "\\" and i + 1 < len(pattern):
            nxt = pattern[i + 1]
            chars.extend(_CLASS_SHORTHAND.get(nxt, nxt))
            i += 2
            continue
        if i + 2 < len(pattern) and pattern[i + 1] == "-" and pattern[i + 2] != "]":
            lo, hi = ord(c), ord(pattern[i + 2])
            if hi < lo:
                return None
            chars.extend(chr(v) for v in range(lo, hi + 1))
            i += 3
            continue
        chars.append(c)
        i += 1
    if i >= len(pattern):
        return None
    return "".join(chars), i + 1


def _synthesize_once(pattern: str, rng: Random) -> str | None:
    i = 0
    end = len(pattern)
    if pattern.startswith("^"):
        i = 1
    if pattern.endswith("$") and not pattern.endswith("\\$"):
        end -= 1
    out: list[str] = []
    while i < end:
        c = pattern[i]
        if c == "[":
            parsed = _parse_class(pattern, i + 1)
            if parsed is None:
                return None
            alphabet, i = parsed
        elif c == "\\" and i + 1 < end:
            nxt = pattern[i + 1]
            alphabet = _CLASS_SHORTHAND.get(nxt, nxt)
            i += 2
        elif c == ".":
            alphabet = _ALNUM
            i += 1
        elif c in "()|*+?{}":  # bare metacharacters we do not model
            return None
        else:
            alphabet = c
            i += 1
        low, high = 1, 1
        if i < end and pattern[i] in "*+?{":
            q = pattern[i]
            if q == "*":
                low, high, i = 0, 4, i + 1
            elif q == "+":
                low, high, i = 1, 4, i + 1
            elif q == "?":
                low, high, i = 0, 1, i + 1
            else:
                close = pattern.find("}", i)
                if close < 0:
                    return None
                body = pattern[i + 1:close]
                try:
                    if "," in body:
                        lo_s, hi_s = body.split(",", 1)
                        low = int(lo_s)
                        high = int(hi_s) if hi_s else low + 4
                    else:
                        low = high = int(body)
                except ValueError:
                    return None
                i = close + 1
        if not alphabet:
            return None
        count = rng.randint(low, min(high, max(low, 16)))
        out.extend(rng.choice(alphabet) for _ in range(count))
    return "".join(out)


def synthesize_from_pattern(pattern: str, rng: Random,
                            attempts: int = 8) -> str | None:
    """Generate a string matching a simple regular expression, or None.

    Supports literals, character classes with ranges, ``\\d \\w \\s``, ``.``,
    and bounded quantifiers; anything fancier reports unsupported.  Output is
    always verified with ``re.fullmatch`` before being returned.
    """
    try:
        compiled = re.compile(pattern)
    except re.error:
        return None
    for _ in range(attempts):
        candidate = _synthesize_once(pattern, rng)
        if candidate is not None and compiled.fullmatch(candidate):
            return candidate
    return None


def pattern_supported(pattern: str) -> bool:
    return synthesize_from_pattern(pattern, Random(0)) is not None


# --- domains -------------------------------------------------------------------

@dataclass
class MixtureConfig:
    valid_random: float = 0.70
    from_state: float = 0.20
    boundary: float = 0.07
    invalid_typed: float = 0.03

    @classmethod
    def from_dict(cls, data: dict) -> "MixtureConfig":
        cfg = cls()
        for key, value in data.items():
            if not hasattr(cfg, key):
                raise ValueError(f"unknown mixture component {key!r}")
            if value < 0:
                raise ValueError(f"negative mixture weight for {key!r}")
            setattr(cfg, key, float(value))
        return cfg

    def raw(self) -> dict[str, float]:
        return {TAG_VALID: self.valid_random, TAG_STATE: self.from_state,
                TAG_BOUNDARY: self.boundary, TAG_INVALID: self.invalid_typed}


@dataclass
class ValueDomain:
    kind: str
    schema: SchemaNode
    mixture: dict[str, float]  # normalized over applicable components
    wire_string: bool = False  # serialized on the URL/header rather than JSON
    target_resource: str | None = None
    many: bool = False
    item_schema: SchemaNode | None = None
    field_domains: dict[str, "ValueDomain"] | None = None
    invalid_strategies: tuple[str, ...] = ()
    pattern_ok: bool = True


@dataclass
class ParameterSamplerSet:
    per_parameter: dict[str, ValueDomain]

    @staticmethod
    def key_for(param: ParameterDef, taken: set[str]) -> str:
        return param.name if param.name not in taken \
            else f"{param.location}:{param.name}"

    def domain_for(self, name: str, location: str | None = None) -> ValueDomain:
        if location is not None and f"{location}:{name}" in self.per_parameter:
            return self.per_parameter[f"{location}:{name}"]
        return self.per_parameter[name]


@dataclass
class WeightTable:
    per_method: dict[str, float] = field(default_factory=dict)
    per_operation: dict[str, float] = field(default_factory=dict)
    per_resource: dict[str, float] = field(default_factory=dict)
    # select_operation's walk for the last model and weight values it saw
    _selection: _SelectionTable | None = field(default=None, init=False,
                                               repr=False, compare=False)

    def validate(self) -> None:
        for table in (self.per_method, self.per_operation, self.per_resource):
            for key, value in table.items():
                if value < 0:
                    raise ValueError(f"negative weight for {key!r}")

    def operation_weight(self, operation_id: str, method: str) -> float:
        if operation_id in self.per_operation:
            return self.per_operation[operation_id]
        return self.per_method.get(method.upper(), 1.0)

    def resource_weight(self, name: str) -> float:
        return self.per_resource.get(name, 1.0)

    @classmethod
    def from_dict(cls, data: dict) -> "WeightTable":
        table = cls(
            per_method={k.upper(): float(v)
                        for k, v in (data.get("per_method") or {}).items()},
            per_operation={k: float(v)
                           for k, v in (data.get("per_operation") or {}).items()},
            per_resource={k: float(v)
                          for k, v in (data.get("per_resource") or {}).items()},
        )
        table.validate()
        return table

    def to_dict(self) -> dict:
        return {"per_method": dict(self.per_method),
                "per_operation": dict(self.per_operation),
                "per_resource": dict(self.per_resource)}


@dataclass
class SamplingSpec:
    per_operation: dict[str, ParameterSamplerSet]
    weights: WeightTable

    def sampler_set(self, operation_id: str) -> ParameterSamplerSet:
        return self.per_operation[operation_id]


@dataclass(frozen=True)
class SampledValue:
    value: Any
    tag: str
    violated: str | None = None


# --- domain construction ---------------------------------------------------------

def _invalid_strategies(schema: SchemaNode, wire_string: bool,
                        is_path: bool = False) -> tuple[str, ...]:
    """Constraint names we know how to violate for this schema, in fixed order.

    Path parameters never use strategies that could yield an empty value: an
    empty path segment would silently change which route the request hits.
    """
    strategies: list[str] = []
    kind = schema.kind
    if kind == ANY_KIND:
        return ()
    # On the wire everything is a string, so "wrong JSON type" only means
    # something for non-string kinds there; in JSON bodies it always applies.
    if not wire_string or kind not in ("string", ANY_KIND):
        strategies.append("type")
    if schema.enum_values:
        strategies.append("enum")
    if kind == "string":
        if schema.pattern and not re.fullmatch(schema.pattern, "\x00!invalid!"):
            strategies.append("pattern")
        if schema.min_length and schema.min_length >= 1 and not is_path:
            strategies.append("min_length")
        if schema.max_length is not None:
            strategies.append("max_length")
    if kind in ("integer", "number"):
        if schema.minimum is not None:
            strategies.append("minimum")
        if schema.maximum is not None:
            strategies.append("maximum")
    if kind == "array":
        if schema.min_items and schema.min_items >= 1:
            strategies.append("min_items")
        if schema.max_items is not None:
            strategies.append("max_items")
    return tuple(strategies)


def _boundary_applicable(schema: SchemaNode) -> bool:
    if schema.kind in ("integer", "number"):
        return schema.minimum is not None or schema.maximum is not None
    if schema.kind == "string" and not schema.pattern and not schema.enum_values:
        return schema.min_length is not None or schema.max_length is not None
    return False


def _normalize_mixture(raw: dict[str, float],
                       applicable: list[str]) -> dict[str, float]:
    weights = {tag: raw.get(tag, 0.0) for tag in applicable}
    total = sum(weights.values())
    if total <= 0:
        return {TAG_VALID: 1.0}
    return {tag: w / total for tag, w in weights.items() if w > 0}


def _domain_for_schema(schema: SchemaNode, mixture_raw: dict[str, float],
                       wire_string: bool, is_path: bool = False) -> ValueDomain:
    kind_map = {"integer": KIND_INT, "number": KIND_NUMBER, "boolean": KIND_BOOL}
    if schema.enum_values:
        kind = KIND_ENUM
    elif schema.kind in kind_map:
        kind = kind_map[schema.kind]
    elif schema.kind == "string" or schema.kind == ANY_KIND:
        kind = KIND_STRING
    else:
        kind = KIND_COMPOSITE

    field_domains = None
    item_schema = None
    if kind == KIND_COMPOSITE:
        if schema.kind == "object":
            field_domains = {
                name: _domain_for_schema(sub, mixture_raw, False)
                for name, sub in schema.properties
            }
        elif schema.kind == "array":
            item_schema = schema.items or SchemaNode(kind="string")

    strategies = _invalid_strategies(schema, wire_string, is_path)
    applicable = [TAG_VALID]
    if _boundary_applicable(schema):
        applicable.append(TAG_BOUNDARY)
    if strategies:
        applicable.append(TAG_INVALID)

    return ValueDomain(
        kind=kind,
        schema=schema,
        mixture=_normalize_mixture(mixture_raw, applicable),
        wire_string=wire_string,
        item_schema=item_schema,
        field_domains=field_domains,
        invalid_strategies=strategies,
        pattern_ok=(schema.pattern is None or pattern_supported(schema.pattern)),
    )


def _domain_for_parameter(param: ParameterDef, model: SemanticModel,
                          mixture_raw: dict[str, float],
                          threshold: float) -> ValueDomain:
    wire_string = param.location in ("path", "query", "header")
    is_path = param.location == "path"
    target = model.id_resource(param.name, threshold)
    if target is not None:
        schema = param.schema
        many = schema.kind == "array"
        item_schema = (schema.items or SchemaNode(kind="string")) if many else schema
        strategies = _invalid_strategies(item_schema, wire_string and not many,
                                         is_path and not many)
        applicable = [TAG_VALID, TAG_STATE]
        if strategies:
            applicable.append(TAG_INVALID)
        return ValueDomain(
            kind=KIND_REFERENCE,
            schema=schema,
            mixture=_normalize_mixture(mixture_raw, applicable),
            wire_string=wire_string,
            target_resource=target,
            many=many,
            item_schema=item_schema,
            invalid_strategies=strategies,
            pattern_ok=(item_schema.pattern is None
                        or pattern_supported(item_schema.pattern)),
        )
    return _domain_for_schema(param.schema, mixture_raw, wire_string, is_path)


def build_sampling_spec(spec: ApiSpecIR, model: SemanticModel,
                        config: WeightTable | None = None,
                        mixture: MixtureConfig | None = None,
                        threshold: float = DEFAULT_MATCH_THRESHOLD) -> SamplingSpec:
    """Precompute per-operation, per-parameter value domains and weights."""
    weights = config or WeightTable()
    weights.validate()
    mixture_raw = (mixture or MixtureConfig()).raw()
    ops_by_id = spec.operations_by_id()

    per_operation: dict[str, ParameterSamplerSet] = {}
    for binding in model.bindings:
        op = ops_by_id[binding.operation_id]
        domains: dict[str, ValueDomain] = {}
        has_body_fields = False
        for param in op.parameters:
            key = ParameterSamplerSet.key_for(param, set(domains))
            domains[key] = _domain_for_parameter(param, model, mixture_raw,
                                                 threshold)
            has_body_fields = has_body_fields or param.location == "body-field"
        if op.request_body_schema is not None and not has_body_fields:
            # non-object body (e.g. a bare array): sampled as one value
            domains["__body__"] = _domain_for_schema(op.request_body_schema,
                                                     mixture_raw, False)
        per_operation[binding.operation_id] = ParameterSamplerSet(domains)
    return SamplingSpec(per_operation=per_operation, weights=weights)


# --- selection --------------------------------------------------------------------

def _pick_below(pairs: list[tuple[Any, float]], threshold: float) -> Any:
    acc = 0.0
    for item, w in pairs:
        acc += w
        if threshold < acc:
            return item
    return pairs[-1][0]


def _icdf_pick(pairs: list[tuple[Any, float]], u: float) -> Any:
    return _pick_below(pairs, u * sum(w for _, w in pairs))


@dataclass(eq=False)
class _SelectionTable:
    """The sorted walk of :func:`select_operation` for one model and one set
    of weight values: ``entries`` pairs ``(resource, ops, ops_total)`` with
    the resource weight, ``ops`` pairs each binding with its weight."""
    model: SemanticModel
    per_method: dict[str, float]
    per_operation: dict[str, float]
    per_resource: dict[str, float]
    entries: list[tuple[tuple[str, list[tuple[Any, float]], float], float]]
    total: float

    def fits(self, model: SemanticModel, weights: WeightTable) -> bool:
        return (self.model is model
                and self.per_resource == weights.per_resource
                and self.per_operation == weights.per_operation
                and self.per_method == weights.per_method)

    @classmethod
    def build(cls, model: SemanticModel, weights: WeightTable) -> "_SelectionTable":
        entries = []
        for resource in sorted(model.resources, key=lambda r: r.name):
            rweight = weights.resource_weight(resource.name)
            if rweight <= 0:
                continue
            ops = [(b, weights.operation_weight(b.operation_id,
                                                b.operation_id.split(" ")[0]))
                   for b in sorted(model.bindings_for_resource(resource.name),
                                   key=lambda b: b.operation_id)]
            ops = [(b, w) for b, w in ops if w > 0]
            if ops:
                entries.append(((resource.name, ops, sum(w for _, w in ops)),
                                rweight))
        return cls(model, dict(weights.per_method), dict(weights.per_operation),
                   dict(weights.per_resource), entries,
                   sum(w for _, w in entries))


def select_operation(model: SemanticModel, weights: WeightTable, rng: Random):
    """Two-stage weighted draw: resource by resource weight, then operation.

    Exactly two uniforms are consumed per call regardless of the outcome, and
    resources/operations are walked in sorted order, so raising one weight
    never perturbs the draws of unrelated calls with the same seed.  The
    sorted walk is built once per model and set of weight values, and built
    again on the first call after a weight changes.
    """
    table = weights._selection
    if table is None or not table.fits(model, weights):
        table = weights._selection = _SelectionTable.build(model, weights)
    u1, u2 = rng.random(), rng.random()
    if not table.entries:
        raise NoSelectableOperation(
            "no resource has a positively weighted operation")
    _, ops, ops_total = _pick_below(table.entries, u1 * table.total)
    return _pick_below(ops, u2 * ops_total)


# --- value sampling -----------------------------------------------------------------

def _random_string(rng: Random, min_length: int | None,
                   max_length: int | None) -> str:
    low = 1 if min_length is None else max(min_length, 0)
    high = max(low, min(max_length if max_length is not None
                        else DEFAULT_MAX_STRING, DEFAULT_MAX_STRING))
    n = rng.randint(low, high) if high >= low else low
    return "".join(rng.choice(_ALNUM) for _ in range(n))


def _valid_sample(schema: SchemaNode, rng: Random) -> Any:
    if schema.nullable and rng.random() < 0.1:
        return None
    kind = schema.kind
    if schema.enum_values:
        return rng.choice(list(schema.enum_values))
    if kind == "integer":
        low = int(schema.minimum) if schema.minimum is not None else DEFAULT_INT_LOW
        high = int(schema.maximum) if schema.maximum is not None \
            else low + DEFAULT_INT_HIGH
        return rng.randint(low, max(low, high))
    if kind == "number":
        low = float(schema.minimum) if schema.minimum is not None else DEFAULT_NUMBER_LOW
        high = float(schema.maximum) if schema.maximum is not None \
            else low + DEFAULT_NUMBER_HIGH
        return rng.uniform(low, max(low, high))
    if kind == "boolean":
        return rng.choice((True, False))
    if kind == "array":
        item = schema.items or SchemaNode(kind="string")
        low = schema.min_items if schema.min_items is not None else 1
        high = schema.max_items if schema.max_items is not None \
            else max(low, DEFAULT_MAX_ARRAY)
        return [_valid_sample(item, rng) for _ in range(rng.randint(low, max(low, high)))]
    if kind == "object":
        return {name: _valid_sample(sub, rng) for name, sub in schema.properties}
    # string and "any"
    if schema.pattern:
        synthesized = synthesize_from_pattern(schema.pattern, rng)
        if synthesized is not None:
            return synthesized
        # unsupported pattern: declared constraints cannot all be honored;
        # fall back to a plain token (surfaced via ValueDomain.pattern_ok)
    return _random_string(rng, schema.min_length, schema.max_length)


def _boundary_sample(schema: SchemaNode, rng: Random) -> Any:
    if schema.kind in ("integer", "number"):
        cast = int if schema.kind == "integer" else float
        options = [cast(b) for b in (schema.minimum, schema.maximum)
                   if b is not None]
        return rng.choice(options)
    options = []
    if schema.min_length is not None:
        options.append(_random_string(rng, schema.min_length, schema.min_length))
    if schema.max_length is not None:
        options.append(_random_string(rng, schema.max_length, schema.max_length))
    return rng.choice(options)


_PATTERN_BREAKERS = ("!!!", "@#$%", "INVALID VALUE", "\x00")


def _invalid_sample(schema: SchemaNode, strategy: str, rng: Random) -> Any:
    if strategy == "type":
        if schema.kind in ("integer", "number", "boolean"):
            return rng.choice(("not-a-number", "true-ish", "x"))
        if schema.kind in ("object", "array"):
            return "unexpected-scalar"
        return rng.choice((12345, True))  # wrong JSON type for a string
    if strategy == "enum":
        candidate = "zz-not-a-member"
        while candidate in schema.enum_values:
            candidate += "z"
        return candidate
    if strategy == "pattern":
        for candidate in _PATTERN_BREAKERS:
            if not re.fullmatch(schema.pattern, candidate):
                return candidate
        return "\x00!invalid!"
    if strategy == "min_length":
        return ""
    if strategy == "max_length":
        return "x" * (schema.max_length + 1)
    if strategy == "minimum":
        base = schema.minimum - 1
        return int(base) if schema.kind == "integer" else float(base)
    if strategy == "maximum":
        base = schema.maximum + 1
        return int(base) if schema.kind == "integer" else float(base)
    if strategy == "min_items":
        return []
    if strategy == "max_items":
        item = schema.items or SchemaNode(kind="string")
        return [_valid_sample(item, rng) for _ in range(schema.max_items + 1)]
    raise ValueError(f"unknown invalid strategy {strategy!r}")


def _synthesize_reference_id(item_schema: SchemaNode, rng: Random) -> str:
    """A constraint-valid id that is very unlikely to name a live instance."""
    if item_schema.pattern:
        candidate = "z" + "".join(rng.choice("0123456789") for _ in range(6))
        if re.fullmatch(item_schema.pattern, candidate):
            return candidate
        synthesized = synthesize_from_pattern(item_schema.pattern, rng)
        if synthesized is not None:
            return synthesized
    return "z" + "".join(rng.choice("0123456789") for _ in range(6))


def sample_value(domain: ValueDomain, state, rng: Random) -> SampledValue:
    """Draw one value; the tag tells the checker which outcome class to expect.

    ``state`` is any object exposing ``query_ids(resource, lifecycles)``; only
    reference domains consult it.  A reference draw that lands on the
    ``from-state`` component with no live instance available falls back to a
    synthesized valid-random id (tagged valid-random), so generation never
    stalls on an empty store.
    """
    tag = _icdf_pick(list(domain.mixture.items()), rng.random())

    if domain.kind == KIND_REFERENCE:
        item_schema = domain.item_schema or SchemaNode(kind="string")
        if tag == TAG_STATE:
            ids = state.query_ids(domain.target_resource, ("live",)) if state is not None else []
            if ids:
                if domain.many:
                    cap = domain.schema.max_items or DEFAULT_MAX_ARRAY
                    low = max(domain.schema.min_items or 1, 1)
                    k = rng.randint(low, max(low, min(cap, len(ids), DEFAULT_MAX_ARRAY)))
                    k = min(k, len(ids))
                    return SampledValue(rng.sample(ids, k), TAG_STATE)
                return SampledValue(rng.choice(ids), TAG_STATE)
            tag = TAG_VALID  # fall back: nothing live yet
        if tag == TAG_INVALID and domain.invalid_strategies:
            strategy = rng.choice(list(domain.invalid_strategies))
            bad = _invalid_sample(item_schema, strategy, rng)
            value = [bad] if domain.many else bad
            return SampledValue(value, TAG_INVALID, violated=strategy)
        if domain.many:
            low = max(domain.schema.min_items or 1, 1)
            cap = domain.schema.max_items or DEFAULT_MAX_ARRAY
            count = rng.randint(low, max(low, min(cap, DEFAULT_MAX_ARRAY)))
            return SampledValue(
                [_synthesize_reference_id(item_schema, rng) for _ in range(count)],
                TAG_VALID)
        return SampledValue(_synthesize_reference_id(item_schema, rng), TAG_VALID)

    if tag == TAG_BOUNDARY:
        return SampledValue(_boundary_sample(domain.schema, rng), TAG_BOUNDARY)
    if tag == TAG_INVALID and domain.invalid_strategies:
        strategy = rng.choice(list(domain.invalid_strategies))
        return SampledValue(_invalid_sample(domain.schema, strategy, rng),
                            TAG_INVALID, violated=strategy)
    return SampledValue(_valid_sample(domain.schema, rng), TAG_VALID)
