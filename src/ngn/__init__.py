"""Stochastic optimization with adaptive Gauss-Newton-style stepsizes.

Finite-sum objectives, a family of adaptive stepsize policies, an SGD
runner with deterministic tracing, closed-form convergence bounds, and a
verification suite that checks measured behavior against those bounds.
"""

from .objectives import (
    Dataset,
    FiniteSumObjective,
    ParseError,
    compute_deltas,
    finite_difference_gradient,
    load_libsvm,
    make_blobs_dataset,
    make_linear_regression,
    make_logistic,
    make_nonconvex_sum,
    make_quadratic1d,
    make_two_quadratics,
    write_libsvm,
)
from .runner import (
    Aggregate,
    Chunk,
    Run,
    RunError,
    RunTrace,
    aggregate_metric,
    whole_traces,
    write_traces,
)
from .specs import POLICIES, PROBLEMS, SpecError, build_spec
from .stepsizes import (
    APS,
    GGN,
    NGN,
    AdaGradNorm,
    Armijo,
    ArmijoSearchError,
    Constant,
    NGNAnnealed,
    PolicyError,
    PolyakKnownFStar,
    SPSMax,
    StepObservation,
    StepsizePolicy,
    stepsize_bounds,
)
from .theory import (
    TheoryContext,
    annealed_bound,
    annealed_constants,
    context_from_objective,
    contraction_rho,
    convex_bound,
    estimate_delta_noise_sq,
    nonconvex_bound,
    rate_terms,
    strongly_convex_bound,
)
from .verify import SUITES, CheckReport, run_suites

__all__ = [name for name in dir() if not name.startswith("_")]
