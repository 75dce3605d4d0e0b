"""Stateful black-box random test generation for OpenAPI-described services.

Pipeline: load an OpenAPI 3.x document into a resolved IR, infer a
resource-centric semantic model (CRUD bindings + dependency edges), build
per-parameter sampling domains, then emit an online stream of randomized
requests against the endpoint while checking every response syntactically,
for server errors, and against a state-based status prediction.  Failures
are traced, delta-debugged down to a minimal prefix, and emitted as
symbol-bound recreate scripts that replay in CI.
"""

from .spec_ingest import (
    ApiSpecIR,
    LintFinding,
    ParseError,
    UnresolvedRef,
    UnsupportedVersion,
    lint_spec,
    load_spec,
    load_spec_file,
)
from .semantic_model import (
    DanglingReference,
    DependencyEdge,
    ModelSchemaError,
    OperationBinding,
    Resource,
    SemanticModel,
    infer_model,
    load_model,
    serialize_model,
)
from .naming import match_names
from .sampling import (
    MixtureConfig,
    SamplingSpec,
    WeightTable,
    build_sampling_spec,
    sample_value,
    select_operation,
)
from .state_tracker import (
    StateStore,
    StatusPrediction,
    apply_effect,
    predict_status,
)
from .checker import (
    CheckPolicy,
    Finding,
    check_exchange,
    check_semantic,
    check_status,
    check_syntactic,
)
from .http_driver import HttpExchangeResult, InProcessTarget, NetworkTarget, execute
from .generator import (
    EndpointUnreachable,
    RequestPlan,
    RunConfig,
    RunResult,
    generate_request,
    run,
)
from .trace_recreate import (
    NotReproducible,
    RecreateScript,
    SymbolResolutionFailure,
    TraceEvent,
    TraceSink,
    bind_symbols,
    estimate_run_length,
    minimize,
    read_trace,
    replay,
)

__version__ = "0.1.0"

__all__ = [
    "ApiSpecIR", "LintFinding", "ParseError", "UnresolvedRef",
    "UnsupportedVersion", "lint_spec", "load_spec", "load_spec_file",
    "DanglingReference", "DependencyEdge", "ModelSchemaError",
    "OperationBinding", "Resource", "SemanticModel", "infer_model",
    "load_model", "serialize_model", "match_names",
    "MixtureConfig", "SamplingSpec", "WeightTable", "build_sampling_spec",
    "sample_value", "select_operation",
    "StateStore", "StatusPrediction", "apply_effect", "predict_status",
    "CheckPolicy", "Finding", "check_exchange", "check_semantic",
    "check_status", "check_syntactic",
    "HttpExchangeResult", "InProcessTarget", "NetworkTarget", "execute",
    "EndpointUnreachable", "RequestPlan", "RunConfig", "RunResult",
    "generate_request", "run",
    "NotReproducible", "RecreateScript", "SymbolResolutionFailure",
    "TraceEvent", "TraceSink", "bind_symbols", "estimate_run_length",
    "minimize", "read_trace", "replay",
    "__version__",
]
