"""High-accuracy reference solutions for validating the solvers."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .problems import ODEProblem

__all__ = ["reference_solution", "relative_error"]


def reference_solution(
    problem: ODEProblem,
    t_end: float,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    method: Optional[str] = None,
) -> np.ndarray:
    """Solve ``problem`` to high accuracy with SciPy.

    Uses the analytic solution when the problem exposes one (the linear
    test problem); otherwise an adaptive SciPy integrator, implicit for
    problems that carry a Jacobian.
    """
    exact = getattr(problem, "exact", None)
    if exact is not None:
        return np.asarray(exact(t_end))
    from scipy.integrate import solve_ivp

    if method is None:
        method = "RK45"
    res = solve_ivp(
        problem.f,
        (problem.t0, t_end),
        problem.y0,
        method=method,
        rtol=rtol,
        atol=atol,
        dense_output=False,
    )
    if not res.success:
        raise RuntimeError(f"reference integration failed: {res.message}")
    return res.y[:, -1]


def relative_error(y: np.ndarray, y_ref: np.ndarray) -> float:
    """Relative 2-norm error of ``y`` against the reference."""
    denom = max(1e-300, float(np.linalg.norm(y_ref)))
    return float(np.linalg.norm(np.asarray(y) - np.asarray(y_ref))) / denom
