"""ODE solvers (Section 4.2): numerics, M-task programs, Table 1."""

from .adams import AdamsBlockMethod, solve_pab, solve_pabm
from .base import ODESolution, explicit_rk_step, integrate_fixed
from .comm_counts import StepCommCounts, counts_from_step_graph, table1_expected
from .diirk import diirk_step, solve_diirk
from .epol import extrapolation_step, solve_epol
from .integrate import FunctionalIntegration, functional_step, integrate_functional
from .irk import irk_step, solve_irk
from .problems import ODEProblem, bruss2d, schroed
from .programs import (
    ODE_METHODS,
    PAPER_CONFIGS,
    MethodConfig,
    build_ode_program,
    step_graph,
)
from .reference import reference_solution, relative_error
from .tableaux import (
    ButcherTableau,
    explicit_rk4,
    gauss_legendre,
    lagrange_integration_weights,
    radau_iia,
)

__all__ = [
    "ODEProblem",
    "bruss2d",
    "schroed",
    "ODESolution",
    "integrate_fixed",
    "explicit_rk_step",
    "extrapolation_step",
    "solve_epol",
    "irk_step",
    "solve_irk",
    "diirk_step",
    "solve_diirk",
    "AdamsBlockMethod",
    "solve_pab",
    "solve_pabm",
    "ButcherTableau",
    "gauss_legendre",
    "radau_iia",
    "explicit_rk4",
    "lagrange_integration_weights",
    "reference_solution",
    "relative_error",
    "ODE_METHODS",
    "MethodConfig",
    "PAPER_CONFIGS",
    "build_ode_program",
    "step_graph",
    "functional_step",
    "integrate_functional",
    "FunctionalIntegration",
    "StepCommCounts",
    "table1_expected",
    "counts_from_step_graph",
]
