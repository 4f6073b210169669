"""fodelab: upwinded local discontinuous Galerkin solver for Caputo fractional ODEs.

The package solves initial value problems

    D^alpha x(t) + d(t) x^(m)(t) = f(x, t),   0 < alpha <= 2, m >= 0,

by rewriting them as first-order systems with an exact fractional-integral
constraint and marching element by element with an upwind DG discretization.
The fractional memory is assembled in closed form, so there is no quadrature
error in the operator itself, and downwind traces superconverge.

Typical use:

    from fodelab import builtin_problem, build_mesh, march, SolveOptions

    spec = builtin_problem("L1", alpha=0.5)
    solution = march(spec, build_mesh(32, spec.horizon), SolveOptions(k=2))
    print(solution(1.0))
"""

from .fraccalc import (
    frac_integral_eval,
    frac_pairing,
    local_frac_matrix,
    rl_derivative_eval,
)
from .ldgsolver import (
    EnergyReport,
    SolveOptions,
    SolverError,
    downwind_errors,
    energy_diagnostic,
    l2_error,
    march,
    newton_solve,
)
from .mittag import MlfQuery, mlf_series, mlf_solve
from .polybasis import (
    eval_poly,
    gauss_jacobi,
    gauss_legendre,
    legendre_table,
    mass_matrix,
    project,
    stiffness_matrix,
)
from .problem import (
    BUILTIN_NAMES,
    Mesh,
    PiecewisePoly,
    ProblemSpec,
    build_mesh,
    builtin_problem,
    linear_model,
    load_problem_config,
    verify_forcing,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # basis and quadrature
    "eval_poly",
    "gauss_jacobi",
    "gauss_legendre",
    "legendre_table",
    "mass_matrix",
    "project",
    "stiffness_matrix",
    # fractional-integral assembly
    "frac_integral_eval",
    "frac_pairing",
    "local_frac_matrix",
    "rl_derivative_eval",
    # problems and meshes
    "BUILTIN_NAMES",
    "Mesh",
    "PiecewisePoly",
    "ProblemSpec",
    "build_mesh",
    "builtin_problem",
    "linear_model",
    "load_problem_config",
    "verify_forcing",
    # solver
    "EnergyReport",
    "SolveOptions",
    "SolverError",
    "downwind_errors",
    "energy_diagnostic",
    "l2_error",
    "march",
    "newton_solve",
    # Mittag-Leffler
    "MlfQuery",
    "mlf_series",
    "mlf_solve",
]
