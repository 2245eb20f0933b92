"""Complexity certification for first-order convex descent.

The pipeline: an error bound or uniform-convexity modulus becomes a
desingularizing function; a descent run (proximal gradient, averaged or
alternating projections) is summarized by two sufficient-decrease constants;
the desingularizer and the constants generate a one-dimensional worst-case
majorant that bounds values and distances of every compliant run.  The
verification layer checks stored runs against their majorants and samples
certificates for counterexamples.
"""

from klcert.convex import (
    Ball,
    CompositeObjective,
    ConvexObjective,
    Halfspace,
    IntersectionSet,
    NotConvergedError,
    quadratic_objective,
)
from klcert.descent import (
    DescentCertificateParams,
    DescentRun,
    StepSchedule,
    certificate_params,
    forward_backward,
)
from klcert.desingularization import (
    Desingularizer,
    ErrorBoundCertificate,
    GlobalizedDesingularizer,
    NonModerateResidualError,
    PowerDesingularizer,
    from_error_bound,
    globalize,
    kl_gap,
    to_error_bound,
)
from klcert.error_bounds import (
    FeasibilityInstance,
    LassoInstance,
    LinearSystemPair,
    feasibility_bound,
    hoffman_constant,
    lasso_gamma,
    lasso_nu,
    uniformly_convex_profile,
)
from klcert.experiments import (
    ExperimentConfig,
    preset_configs,
    run_experiment,
    sweep_relative_step,
)
from klcert.majorant import (
    AssumptionViolationError,
    MajorantSequence,
    QuadraticComplexity,
    prox_sequence,
    quadratic_complexity,
    steps_to_epsilon,
    worst_case_sequence,
    zeta,
)
from klcert.problems import GeneratedInstance, generate_instance
from klcert.verification import (
    CertificationReport,
    CheckResult,
    check_error_bound_sampling,
    check_kl_sampling,
    check_majorization,
)

__version__ = "0.1.0"

__all__ = [
    "AssumptionViolationError",
    "Ball",
    "CertificationReport",
    "CheckResult",
    "CompositeObjective",
    "ConvexObjective",
    "DescentCertificateParams",
    "DescentRun",
    "Desingularizer",
    "ErrorBoundCertificate",
    "ExperimentConfig",
    "FeasibilityInstance",
    "GeneratedInstance",
    "GlobalizedDesingularizer",
    "Halfspace",
    "IntersectionSet",
    "LassoInstance",
    "LinearSystemPair",
    "MajorantSequence",
    "NonModerateResidualError",
    "NotConvergedError",
    "PowerDesingularizer",
    "QuadraticComplexity",
    "StepSchedule",
    "certificate_params",
    "check_error_bound_sampling",
    "check_kl_sampling",
    "check_majorization",
    "feasibility_bound",
    "forward_backward",
    "from_error_bound",
    "generate_instance",
    "globalize",
    "hoffman_constant",
    "kl_gap",
    "lasso_gamma",
    "lasso_nu",
    "preset_configs",
    "prox_sequence",
    "quadratic_complexity",
    "quadratic_objective",
    "run_experiment",
    "steps_to_epsilon",
    "sweep_relative_step",
    "to_error_bound",
    "uniformly_convex_profile",
    "worst_case_sequence",
    "zeta",
]
