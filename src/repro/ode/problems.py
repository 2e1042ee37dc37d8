"""The two ODE initial value problems of the evaluation (Section 4.2).

* **BRUSS2D** -- spatial discretisation of the 2D Brusselator
  reaction-diffusion equations (Hairer/Norsett/Wanner, the paper's
  reference [21]).  The right-hand side touches each component a constant
  number of times, so the evaluation time grows *linearly* with the
  system size ``n = 2 N^2`` ("sparse" system).
* **SCHROED** -- Galerkin approximation of a Schrödinger-Poisson system
  (the paper's reference [41]).  The Galerkin right-hand side couples
  every coefficient with every other through dense operator matrices, so
  the evaluation time grows *quadratically* with ``n`` ("dense" system).
  We build the dense operator from a seeded random symmetric
  negative-definite matrix plus a weak quadratic coupling, which
  preserves the structural property the benchmarks depend on (one dense
  matvec per evaluation) without the physics constants the paper does
  not specify.

Both problems supply an analytic Jacobian for the implicit (DIIRK)
solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

__all__ = ["ODEProblem", "bruss2d", "schroed"]


@dataclass(frozen=True)
class ODEProblem:
    """An initial value problem ``y' = f(t, y)``, ``y(t0) = y0``.

    ``eval_flops`` is the floating point cost of one full evaluation of
    ``f`` -- the ``n * teval(f)`` term of the cost function in
    Section 3.1 -- and drives the computational work of the M-task cost
    models.

    ``initial_state`` builds the initial vector; :attr:`y0` calls it on
    first access and keeps the result.  Building task graphs and pricing
    them reads only ``n``, ``eval_flops`` and ``kind``, so a problem that
    is scheduled but never integrated does not allocate its state.
    """

    name: str
    n: int
    f: Callable[[float, np.ndarray], np.ndarray]
    initial_state: Callable[[], np.ndarray]
    t0: float = 0.0
    jac: Optional[Callable[[float, np.ndarray], object]] = None
    eval_flops: float = 0.0
    kind: str = "sparse"  #: "sparse" (linear f cost) or "dense" (quadratic)

    def __post_init__(self) -> None:
        if self.kind not in ("sparse", "dense"):
            raise ValueError("kind must be 'sparse' or 'dense'")

    @cached_property
    def y0(self) -> np.ndarray:
        """The initial state ``y(t0)``, built once (``n`` components)."""
        y0 = self.initial_state()
        if self.n != len(y0):
            raise ValueError(f"y0 has {len(y0)} components, expected n={self.n}")
        return y0


# ----------------------------------------------------------------------
# BRUSS2D
# ----------------------------------------------------------------------
def bruss2d(N: int = 32, alpha: float = 2e-3) -> ODEProblem:
    """2D Brusselator with diffusion on an ``N x N`` grid.

    .. math::
        u_t = 1 + u^2 v - 4.4 u + \\alpha \\nabla^2 u, \\qquad
        v_t = 3.4 u - u^2 v + \\alpha \\nabla^2 v

    with Neumann boundary conditions and the classical initial data
    ``u = 22 y (1-y)^{3/2}``, ``v = 27 x (1-x)^{3/2}``.  The state vector
    is ``[u.ravel(), v.ravel()]`` with ``n = 2 N^2`` components.
    """
    if N < 2:
        raise ValueError("N must be at least 2")
    n = 2 * N * N
    h = 1.0 / (N - 1)
    fac = alpha / (h * h)

    def laplace(w: np.ndarray) -> np.ndarray:
        # Neumann boundaries via edge replication
        p = np.pad(w, 1, mode="edge")
        return p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:] - 4.0 * w

    def f(t: float, y: np.ndarray) -> np.ndarray:
        u = y[: N * N].reshape(N, N)
        v = y[N * N :].reshape(N, N)
        uuv = u * u * v
        du = 1.0 + uuv - 4.4 * u + fac * laplace(u)
        dv = 3.4 * u - uuv + fac * laplace(v)
        return np.concatenate([du.ravel(), dv.ravel()])

    def jac(t: float, y: np.ndarray):
        m = N * N
        u = y[:m]
        v = y[m:]
        lap = _laplace_matrix(N) * fac
        duu = sp.diags(2.0 * u * v - 4.4) + lap
        duv = sp.diags(u * u)
        dvu = sp.diags(3.4 - 2.0 * u * v)
        dvv = sp.diags(-u * u) + lap
        return sp.bmat([[duu, duv], [dvu, dvv]], format="csc")

    def initial_state() -> np.ndarray:
        xs = np.linspace(0.0, 1.0, N)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        u0 = 22.0 * Y * (1.0 - Y) ** 1.5
        v0 = 27.0 * X * (1.0 - X) ** 1.5
        return np.concatenate([u0.ravel(), v0.ravel()])

    # per component: ~8 arithmetic ops for the reaction terms plus the
    # 5-point stencil (6 ops) -> ~14 flops, linear in n
    return ODEProblem(
        name=f"BRUSS2D(N={N})",
        n=n,
        f=f,
        initial_state=initial_state,
        jac=jac,
        eval_flops=14.0 * n,
        kind="sparse",
    )


def _laplace_matrix(N: int) -> sp.csr_matrix:
    """5-point Neumann Laplacian on an ``N x N`` grid (row-major)."""
    main = np.full(N, -2.0)
    main[0] = main[-1] = -1.0  # edge replication folded into the diagonal
    off = np.ones(N - 1)
    one_d = sp.diags([off, main, off], [-1, 0, 1], format="csr")
    eye = sp.identity(N, format="csr")
    return sp.kron(one_d, eye) + sp.kron(eye, one_d)


# ----------------------------------------------------------------------
# SCHROED
# ----------------------------------------------------------------------
def schroed(n: int = 128, coupling: float = 0.05, seed: int = 0) -> ODEProblem:
    """Dense Galerkin system modelling a Schrödinger-Poisson problem.

    ``y' = A y + gamma * (y * (B y))`` where ``A`` is a dense symmetric
    negative-definite Galerkin operator and ``B`` a dense coupling
    matrix.  One evaluation performs two dense matvecs -- the quadratic
    cost signature of the paper's dense system.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    rng = np.random.default_rng(seed)
    Q = rng.standard_normal((n, n)) / np.sqrt(n)
    A = -(Q @ Q.T) - 0.5 * np.eye(n)
    B = rng.standard_normal((n, n)) / n
    gamma = coupling

    def f(t: float, y: np.ndarray) -> np.ndarray:
        return A @ y + gamma * (y * (B @ y))

    def jac(t: float, y: np.ndarray) -> np.ndarray:
        return A + gamma * (np.diag(B @ y) + y[:, None] * B)

    return ODEProblem(
        name=f"SCHROED(n={n})",
        n=n,
        f=f,
        initial_state=lambda: np.sin(np.linspace(0.0, np.pi, n)) + 0.1,
        jac=jac,
        eval_flops=4.0 * n * n,  # two dense matvecs
        kind="dense",
    )

