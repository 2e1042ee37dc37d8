"""EPOL -- the explicit extrapolation method (Section 2.2.3).

One time step computes ``R`` approximations of ``y(t + h)``: the ``i``-th
uses ``i`` consecutive explicit Euler micro-steps of size ``h / i``.  The
``R`` approximations are combined by Aitken-Neville extrapolation into a
final approximation of order ``R``.  The micro-steps of one approximation
form a linear chain; different approximations are independent -- the task
structure of Figs. 4-6.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from .base import ODESolution, integrate_fixed
from .problems import ODEProblem

__all__ = ["extrapolation_step", "solve_epol"]


def extrapolation_step(
    f: Callable[[float, np.ndarray], np.ndarray],
    t: float,
    y: np.ndarray,
    h: float,
    R: int,
) -> Tuple[np.ndarray, float, int]:
    """One extrapolation time step.

    Returns ``(y_next, error_estimate, f_evaluations)``.  The error
    estimate is the difference of the last two diagonal entries of the
    extrapolation tableau, the standard embedded estimate used for step
    size control.
    """
    if R < 1:
        raise ValueError("R must be >= 1")
    n = len(y)
    # micro-step approximations T[i] with i+1 Euler steps (harmonic sequence)
    T = np.empty((R, n))
    fevals = 0
    for i in range(1, R + 1):
        hi = h / i
        yi = y.copy()
        ti = t
        for _ in range(i):
            yi = yi + hi * f(ti, yi)
            ti += hi
            fevals += 1
        T[i - 1] = yi
    # Aitken-Neville extrapolation (step sequence n_i = i)
    prev_diag = T[R - 1].copy() if R > 1 else None
    for k in range(1, R):
        for i in range(R - 1, k - 1, -1):
            num_i, num_ik = float(i + 1), float(i + 1 - k)
            factor = num_i / num_ik - 1.0
            T[i] = T[i] + (T[i] - T[i - 1]) / factor
        if k == R - 2:
            prev_diag = T[R - 1].copy()
    y_next = T[R - 1]
    err = float(np.linalg.norm(y_next - prev_diag)) if R > 1 else float("inf")
    return y_next, err, fevals


def solve_epol(
    problem: ODEProblem,
    t_end: float,
    h: float,
    R: int = 4,
    record: bool = False,
) -> ODESolution:
    """Fixed-step extrapolation integration of ``problem``."""
    fev = [0]

    def step(t: float, y: np.ndarray, hk: float) -> np.ndarray:
        y_next, _, k = extrapolation_step(problem.f, t, y, hk, R)
        fev[0] += k
        return y_next

    sol = integrate_fixed(step, problem.t0, problem.y0, t_end, h, record)
    sol.fevals = fev[0]
    return sol

