"""Continuous assurance toolkit: probabilistic model checking for a PRISM
subset plus GSN argument generation and lifecycle management."""

from .diagnostics import (
    BindError, BuildError, CassureError, Diagnostic, EvalError, ParseError,
    SolverError, SourceSpan,
)
from .engine import (
    SolverConfig, VerificationResult, check_properties, check_property,
    model_fingerprint, parse_results, render_value, result_fingerprint,
    serialize_results,
)
from .gsn import (
    Annotation, ArgumentModel, GsnError, GsnLink, GsnNode, TraceLink,
    export_dot, merge_annotations, parse_dsl, serialize_dsl, validate_argument,
)
from .lifecycle import (
    EvolutionPackage, FileDelta, ImpactReport, IngestReport, LifecycleError,
    MonitorEvent, RegenerationPlanEntry, apply_regeneration, impact_analysis,
    ingest_monitor_events, load_package, parse_evidence_cost,
    parse_monitor_events, plan_regeneration,
)
from .model import BoundModel, ModelAst, PropertySpec, bind_constants, type_check
from .parsing import (
    parse_model, parse_properties, render_expr, render_model, render_property,
)
from .statespace import StateSpace, build_dtmc, label_states
from .transform import (
    ModelRef, TransformError, build_argument, regenerate,
)

__version__ = "0.1.0"
