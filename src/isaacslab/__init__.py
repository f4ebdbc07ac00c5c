"""Numerical laboratory for reflected stochastic differential games.

Solves constrained backward equations along simulated paths and the
matching obstacle equations of Isaacs type on grids, and ships the
structural checks (dynamic programming identity, penalization
convergence, comparison, regularity estimates) as runnable experiments.
"""

from .analysis import (
    ConvergenceTable,
    DppReport,
    TimeContinuityFit,
    dpp_residual,
    feedback_from_field,
    isaacs_gap,
    lower_value,
    penalization_convergence,
    response_feedback,
    time_continuity_profile,
    upper_value,
    value_comparison,
)
from .errors import (
    CflError,
    ConfigError,
    DivergenceError,
    EvaluationError,
    FitError,
    LabError,
    NotFoundError,
    PreconditionError,
)
from .oracles import crr_put, degenerate_rbsde_value
from .pde import (
    SpaceTimeGrid,
    ValueField,
    cfl_required_nt,
    complementarity_residual,
    eval_hamiltonian,
    solve_obstacle_pde,
    solve_penalized_pde,
)
from .problems import (
    BUILTIN_NAMES,
    Coefficients,
    ControlGrid,
    GameInstance,
    ValidationReport,
    builtin_instance,
    validate_instance,
)
from .rbsde import (
    BackwardSolution,
    RegressionBasis,
    backward_semigroup,
    cost_functional,
    snell_oracle,
    solve_penalized,
    solve_reflected,
)
from .sde import ControlPath, PathBundle, TimeMesh, empirical_moments, simulate_paths

__version__ = "0.1.0"
