"""causalkit: author, execute, and analyze causal models of physical theories.

A model is a typed system state plus guarded transition laws. The package
provides a small modeling language (CML), a uniform-timestep interpreter
with seeded reproducible randomness, a branching (many-worlds) execution
mode, bounded consistency/completeness checking with witnesses, and
quantum/classical numeric kits with bundled example models.
"""

from .errors import (
    BadParamError,
    CausalKitError,
    CmlError,
    ContinuousRandomError,
    EnumerationCapError,
    EvalError,
    MissingAttributeError,
    MissingFieldError,
    MultipleApplicableError,
    NoApplicableLawError,
    PositionOutOfBinsError,
    SchemaError,
    SchemaMismatchError,
    SinkError,
    SolveError,
    TypeMismatchError,
    UnknownModelError,
    UnsampleableFieldError,
    ZeroNormError,
)
from .rng import RngStream, derive_seed
from .pw import PwCollection
from .state import (
    Domain,
    StateSchema,
    SystemState,
    TypeDesc,
    VCGrid,
    VList,
    VPw,
    VRecord,
    VVector,
    Value,
    make_initial_state,
    sample_state,
    state_from_json,
    state_to_json,
)
from .frontend import (
    Diagnostic,
    compile_model,
    format_model,
    load_model,
    lower,
    parse,
    parse_expression,
    typecheck,
)
from .engine import (
    CausalModel,
    DeterminismVerdict,
    Law,
    apply_law,
    build_initial_state,
    classify_determinism,
    compile_observable,
    eval_guard,
    select_law,
    step,
)
from .interpreter import (
    RunConfig,
    Termination,
    Trace,
    WorldTree,
    branch_run,
    run,
    run_ensemble,
    world_tree_text,
    write_trace,
)
from .analyzer import (
    AnalysisReport,
    CheckStrategy,
    analyze,
    check_completeness,
    check_consistency,
    report_to_json,
    validstate,
)
from .quantum import (
    ca_step,
    ca_world,
    gaussian_packet,
    pw_detect,
    pw_interact,
    pw_propagate,
    schrodinger_step,
    two_slit,
)
from .bundled import build_bundled_model, list_bundled_models

__version__ = "0.1.0"
