"""Shared infrastructure of the ODE solvers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .tableaux import ButcherTableau

__all__ = ["ODESolution", "explicit_rk_step", "integrate_fixed"]


@dataclass
class ODESolution:
    """Result of an ODE integration.

    ``t``/``y`` are the final time and state; ``trajectory`` optionally
    records ``(t_k, y_k)`` after every accepted step.  The statistics
    feed the analytic cost models (e.g. the number of fixed point
    iterations ``m``/``I`` of Table 1).
    """

    t: float
    y: np.ndarray
    steps: int = 0
    fevals: int = 0
    iterations_total: int = 0
    trajectory: Optional[List] = None


def explicit_rk_step(
    tab: ButcherTableau,
    f: Callable[[float, np.ndarray], np.ndarray],
    t: float,
    y: np.ndarray,
    h: float,
) -> np.ndarray:
    """One step of an explicit Runge-Kutta method (bootstrap helper)."""
    if not tab.is_explicit:
        raise ValueError(f"{tab.name} is not explicit")
    s = tab.stages
    k = np.empty((s, len(y)))
    for i in range(s):
        yi = y + h * (tab.A[i, :i] @ k[:i]) if i else y.copy()
        k[i] = f(t + tab.c[i] * h, yi)
    return y + h * (tab.b @ k)


def integrate_fixed(
    step: Callable[[float, np.ndarray, float], np.ndarray],
    t0: float,
    y0: np.ndarray,
    t_end: float,
    h: float,
    record: bool = False,
) -> ODESolution:
    """Drive a one-step method with a fixed step size until ``t_end``.

    The final step is shortened to land exactly on ``t_end``.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    t, y = t0, np.asarray(y0, dtype=float).copy()
    sol = ODESolution(t=t, y=y, trajectory=[(t, y.copy())] if record else None)
    while t < t_end - 1e-14:
        hk = min(h, t_end - t)
        y = step(t, y, hk)
        t += hk
        sol.steps += 1
        if record:
            sol.trajectory.append((t, y.copy()))
    sol.t, sol.y = t, y
    return sol
