"""Ground state of the generalized double-well potential
V = (g^2/2)(x^2-1)^2(x^2+a) by a convergent iteration with built-in
monotonicity verification, plus the sign-region analysis that delimits where
the convergence guarantee applies."""

from .closed_forms import (
    PotentialParams,
    eval_ghat,
    eval_potential,
    eval_S0,
    eval_S0_mirror,
    eval_S0_prime,
    eval_S1,
    eval_S1_prime,
    eval_u,
    eval_w,
)
from .errors import (
    BracketError,
    ConvergenceDomainError,
    DegenerateDenominatorError,
    DiscretizationError,
    GdwellError,
    GridError,
    GridMismatchError,
    NonConvergenceWarning,
    NonFiniteOutputError,
    OutsideRegionWarning,
    PositivityLossError,
)
from .oracle import OracleConfig, OracleResult, oracle_ground_state, peak_census
from .region import (
    ACResult,
    RegionReport,
    eval_u_prime,
    find_a_c,
    find_a_g,
    trace_curves,
    verify_section3_positivity,
)
from .solver import (
    BoundaryCondition,
    HierarchyViolation,
    SolveReport,
    solve,
)
from .trial import Grid, TrialFunction, build_trial

__version__ = "0.1.0"

__all__ = [
    "PotentialParams",
    "eval_potential",
    "eval_S0",
    "eval_S0_prime",
    "eval_S0_mirror",
    "eval_S1",
    "eval_S1_prime",
    "eval_u",
    "eval_ghat",
    "eval_w",
    "Grid",
    "TrialFunction",
    "build_trial",
    "BoundaryCondition",
    "SolveReport",
    "HierarchyViolation",
    "solve",
    "OracleConfig",
    "OracleResult",
    "oracle_ground_state",
    "peak_census",
    "eval_u_prime",
    "find_a_c",
    "find_a_g",
    "trace_curves",
    "verify_section3_positivity",
    "ACResult",
    "RegionReport",
    "GdwellError",
    "ConvergenceDomainError",
    "GridError",
    "GridMismatchError",
    "DegenerateDenominatorError",
    "PositivityLossError",
    "DiscretizationError",
    "BracketError",
    "NonFiniteOutputError",
    "NonConvergenceWarning",
    "OutsideRegionWarning",
]
