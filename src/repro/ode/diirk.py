"""DIIRK -- Diagonal-Implicitly Iterated Runge-Kutta methods.

The implicit corrector (Radau IIA by default) is approximated by a
diagonally implicit iteration: with a shared shifted Jacobian
``M = I - h * gamma * J`` factorised once per step, every iteration
solves one decoupled linear system per stage

.. math::
    M \\, (\\mu_l^{(j)} - \\mu_l^{(j-1)}) =
        f(t + c_l h, \\eta + h \\sum_k a_{lk} \\mu_k^{(j-1)}) - \\mu_l^{(j-1)}

until the stage residuals drop below ``tol``.  The number of iterations
``I`` is therefore determined *dynamically* by a convergence criterion
and is small (typically ``1 <= I <= 3``, as the paper notes for
Table 1).  Parallelised versions solve the per-stage systems on disjoint
groups with distributed Gaussian elimination -- the ``(n-1) * I``
broadcast operations of Table 1.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from .base import ODESolution, integrate_fixed
from .problems import ODEProblem
from .tableaux import ButcherTableau, radau_iia

__all__ = ["diirk_step", "solve_diirk"]


def _make_solver(M) -> Callable[[np.ndarray], np.ndarray]:
    """Factorise ``M`` once; returns a solve closure."""
    import scipy.linalg as sla
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    if sp.issparse(M):
        lu = spla.splu(M.tocsc())
        return lu.solve
    lu, piv = sla.lu_factor(np.asarray(M))
    return lambda rhs: sla.lu_solve((lu, piv), rhs)


def diirk_step(
    f: Callable[[float, np.ndarray], np.ndarray],
    jac: Callable[[float, np.ndarray], object],
    t: float,
    y: np.ndarray,
    h: float,
    tab: ButcherTableau,
    tol: float = 1e-8,
    max_iterations: int = 20,
    gamma: Optional[float] = None,
) -> Tuple[np.ndarray, int, int]:
    """One DIIRK step; returns ``(y_next, iterations_I, f_evaluations)``."""
    import scipy.sparse as sp

    s = tab.stages
    n = len(y)
    g = gamma if gamma is not None else float(np.mean(np.diag(tab.A)))
    J = jac(t, y)
    if sp.issparse(J):
        M = sp.identity(n, format="csc") - (h * g) * J.tocsc()
    else:
        M = np.eye(n) - (h * g) * np.asarray(J)
    solve = _make_solver(M)

    f0 = f(t, y)
    mu = np.tile(f0, (s, 1))
    fevals = 1
    iterations = 0
    scale = max(1.0, float(np.linalg.norm(f0)))
    for _ in range(max_iterations):
        stage_args = y[None, :] + h * (tab.A @ mu)
        residual = np.empty_like(mu)
        for l in range(s):
            residual[l] = f(t + tab.c[l] * h, stage_args[l]) - mu[l]
        fevals += s
        iterations += 1
        if float(np.max(np.linalg.norm(residual, axis=1))) <= tol * scale:
            # apply the final correction before declaring convergence
            for l in range(s):
                mu[l] = mu[l] + solve(residual[l])
            break
        for l in range(s):
            mu[l] = mu[l] + solve(residual[l])
    return y + h * (tab.b @ mu), iterations, fevals


def solve_diirk(
    problem: ODEProblem,
    t_end: float,
    h: float,
    K: int = 2,
    tol: float = 1e-8,
    record: bool = False,
) -> ODESolution:
    """Fixed-step DIIRK integration with a ``K``-stage Radau IIA
    corrector.  ``problem`` must provide a Jacobian."""
    if problem.jac is None:
        raise ValueError(f"problem {problem.name} provides no Jacobian")
    tab = radau_iia(K)
    fev = [0]
    iters = [0]

    def step(t: float, y: np.ndarray, hk: float) -> np.ndarray:
        y_next, I, k = diirk_step(problem.f, problem.jac, t, y, hk, tab, tol)
        fev[0] += k
        iters[0] += I
        return y_next

    sol = integrate_fixed(step, problem.t0, problem.y0, t_end, h, record)
    sol.fevals = fev[0]
    sol.iterations_total = iters[0]
    return sol
