"""Greedy bisection meshes adapted to a scalar field.

Quadratic-form geometry, piecewise-linear approximation operators, the
greedy refinement engine and its verification suites.  See README.md for
the CLI and the demo scripts.
"""

from .geometry import (
    QuadForm,
    Triangle,
    bisect,
    canonical_transform,
    delta,
    psi,
    q_abs,
    q_longest_edge_index,
    q_metric,
    reference_triangle,
    rho,
    sigma,
)
from .fields import QuadraticField, ScalarField, builtin_catalog, get_field, hessian_fd
from .approx import (
    AffinePoly,
    DEFAULT_RULE,
    QuadratureRule,
    decision_l1,
    decision_lp_split,
    interpolate,
    local_error,
    local_errors,
    local_error_quadratic_exact,
    project_l2,
)
from .engine import (
    GreedyConfig,
    RefinementForest,
    RunawayRefinementError,
    StopRule,
    TraceRecord,
    global_error,
    greedy_run,
    load_mesh,
    save_mesh,
    select_edge,
    uniform_refine,
)
from .analysis import (
    ConvergencePoint,
    R0,
    SigmaStats,
    convergence_study,
    equivalence_constant_probe,
    gamma_factor,
    hessian_tau_norm,
    sigma_study,
    tau_from_p,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
