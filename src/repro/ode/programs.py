"""M-task programs of the five ODE solvers (Section 4.2).

For every method (EPOL, IRK, DIIRK, PAB, PABM) this module generates the
CM-task specification program, attaches the cost annotations of
Section 3.1 / Table 1 and builds the hierarchical M-task graph through
the :mod:`repro.spec` front end.  Two variants exist:

* the **cost variant** (default) mirrors the structure the paper
  schedules: independent stage chains whose cross-stage data exchange is
  expressed as orthogonal-scope collectives -- aggregating its
  collectives reproduces Table 1 exactly (see
  :mod:`repro.ode.comm_counts`);
* the **functional variant** (``functional=True``) expresses the true
  data dependencies (every stage reads all stage vectors of the previous
  iteration) and attaches executable numpy bodies, so the program can be
  integrated for real through :mod:`repro.runtime` and compared against
  the sequential solvers.

The per-step graph to hand to the scheduler is the body of the
time-stepping ``while`` loop, accessible via :func:`step_graph`.

A generated source depends only on ``(method, K, m, ceil(t_end),
functional)``, never on the problem, so each configuration is compiled
into its graph template once per process
(:func:`repro.spec.build.compile_source`); a problem size only fills it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..core.graph import TaskGraph
from ..core.task import CollectiveSpec
from ..spec.build import BuildResult, GraphBuilder, TaskCost
from .adams import AdamsBlockMethod
from .problems import ODEProblem
from .tableaux import gauss_legendre, radau_iia

__all__ = [
    "ODE_METHODS",
    "MethodConfig",
    "build_ode_program",
    "step_graph",
    "PAPER_CONFIGS",
]

ODE_METHODS = ("epol", "irk", "diirk", "pab", "pabm")


@dataclass(frozen=True)
class MethodConfig:
    """Numerical parameters of one solver configuration.

    ``K`` is the number of stage vectors (or ``R`` approximations for
    EPOL), ``m`` the number of fixed point iterations, ``I`` the typical
    dynamic iteration count of DIIRK's inner solver (Table 1 notes
    ``1 <= I <= 3``).
    """

    method: str
    K: int
    m: int = 1
    I: int = 2
    t_end: float = 1.0
    h: float = 0.05

    def __post_init__(self) -> None:
        if self.method not in ODE_METHODS:
            raise ValueError(f"unknown method {self.method!r}; known: {ODE_METHODS}")
        if self.K < 1 or self.m < 1 or self.I < 1:
            raise ValueError("K, m and I must be positive")


#: the paper's benchmark configurations (Section 4.2), the one solver
#: table every consumer reads: experiments, ``python -m repro.obs`` and
#: the ``repro.serve`` workload requests
PAPER_CONFIGS: Dict[str, MethodConfig] = {
    "irk": MethodConfig("irk", K=4, m=7),
    "diirk": MethodConfig("diirk", K=4, m=3, I=2),
    "epol": MethodConfig("epol", K=8),
    "pab": MethodConfig("pab", K=8),
    "pabm": MethodConfig("pabm", K=8, m=2),
}


# ----------------------------------------------------------------------
# Specification sources
# ----------------------------------------------------------------------
def _epol_source(R: int, t_end: float) -> str:
    return f"""
const R = {R};
const Tend = {int(np.ceil(t_end))};
type Rvectors = vector[R];

task init_step(t : scalar : out : replic, h : scalar : out : replic);
task step(j : int : in : replic, i : int : in : replic,
          t : scalar : in : replic, h : scalar : in : replic,
          eta_k : vector : in : replic, v : vector : inout : block);
task combine(t : scalar : inout : replic, h : scalar : inout : replic,
             V : Rvectors : in : block, eta_k : vector : inout : replic);

cmmain EPOL(eta_k : vector : inout : replic) {{
  var t, h : scalar;
  var V : Rvectors;
  var i, j : int;
  seq {{
    init_step(t, h);
    while (t < Tend) {{
      seq {{
        parfor (i = 1 : R) {{
          for (j = 1 : i) {{ step(j, i, t, h, eta_k, V[i]); }}
        }}
        combine(t, h, V, eta_k);
      }}
    }}
  }}
}}
"""


def _stage_chain_source(name: str, K: int, m: int, t_end: float) -> str:
    """Shared shape of IRK-like cost variants: K stage chains of length m."""
    return f"""
const K = {K};
const m = {m};
const Tend = {int(np.ceil(t_end))};
type Kvectors = vector[K];

task init_step(t : scalar : out : replic, h : scalar : out : replic);
task stage(l : int : in : replic, j : int : in : replic,
           t : scalar : in : replic, h : scalar : in : replic,
           eta : vector : in : replic, mu : vector : inout : replic);
task combine(t : scalar : inout : replic, h : scalar : inout : replic,
             MU : Kvectors : in : replic, eta : vector : inout : replic);

cmmain {name}(eta : vector : inout : replic) {{
  var t, h : scalar;
  var MU : Kvectors;
  var l, j : int;
  seq {{
    init_step(t, h);
    while (t < Tend) {{
      seq {{
        parfor (l = 1 : K) {{
          for (j = 1 : m) {{ stage(l, j, t, h, eta, MU[l]); }}
        }}
        combine(t, h, MU, eta);
      }}
    }}
  }}
}}
"""


def _jacobi_functional_source(name: str, K: int, m: int, t_end: float) -> str:
    """Functional IRK/DIIRK: Jacobi sweeps with true cross-stage reads."""
    return f"""
const K = {K};
const m = {m};
const Tend = {int(np.ceil(t_end))};
type Kvectors = vector[K];

task init_step(t : scalar : out : replic, h : scalar : out : replic);
task init_mu(t : scalar : in : replic, h : scalar : in : replic,
             eta : vector : in : replic, MUNEW : Kvectors : out : replic);
task copy_mu(MUNEW : Kvectors : in : replic, MU : Kvectors : out : replic);
task stage(l : int : in : replic, j : int : in : replic,
           t : scalar : in : replic, h : scalar : in : replic,
           eta : vector : in : replic, MU : Kvectors : in : replic,
           munew : vector : out : replic);
task combine(t : scalar : inout : replic, h : scalar : inout : replic,
             MUNEW : Kvectors : in : replic, eta : vector : inout : replic);

cmmain {name}(eta : vector : inout : replic) {{
  var t, h : scalar;
  var MU, MUNEW : Kvectors;
  var l, j : int;
  seq {{
    init_step(t, h);
    while (t < Tend) {{
      seq {{
        init_mu(t, h, eta, MUNEW);
        for (j = 1 : m) {{
          seq {{
            copy_mu(MUNEW, MU);
            parfor (l = 1 : K) {{ stage(l, j, t, h, eta, MU, MUNEW[l]); }}
          }}
        }}
        combine(t, h, MUNEW, eta);
      }}
    }}
  }}
}}
"""


def _block_source(name: str, K: int, t_end: float, functional: bool) -> str:
    """PAB cost/functional variants: one layer of K stages + advance."""
    fp_param = "FP : Kvectors : in : replic" if functional else "fp : vector : in : replic"
    fp_arg = "FP" if functional else "FP[l]"
    return f"""
const K = {K};
const Tend = {int(np.ceil(t_end))};
type Kvectors = vector[K];

task init_block(t : scalar : out : replic, h : scalar : out : replic,
                eta : vector : inout : replic, FP : Kvectors : out : replic);
task stage(l : int : in : replic, t : scalar : in : replic,
           h : scalar : in : replic, eta : vector : in : replic,
           {fp_param}, ynew : vector : out : replic,
           fnew : vector : out : replic);
task advance(t : scalar : inout : replic, h : scalar : in : replic,
             Y : Kvectors : in : replic, FN : Kvectors : in : replic,
             eta : vector : inout : replic, FP : Kvectors : out : replic);

cmmain {name}(eta : vector : inout : replic) {{
  var t, h : scalar;
  var FP, FN, Y : Kvectors;
  var l : int;
  seq {{
    init_block(t, h, eta, FP);
    while (t < Tend) {{
      seq {{
        parfor (l = 1 : K) {{ stage(l, t, h, eta, {fp_arg}, Y[l], FN[l]); }}
        advance(t, h, Y, FN, eta, FP);
      }}
    }}
  }}
}}
"""


def _pabm_functional_source(K: int, m: int, t_end: float) -> str:
    return f"""
const K = {K};
const m = {m};
const Tend = {int(np.ceil(t_end))};
type Kvectors = vector[K];

task init_block(t : scalar : out : replic, h : scalar : out : replic,
                eta : vector : inout : replic, FP : Kvectors : out : replic);
task predict(l : int : in : replic, t : scalar : in : replic,
             h : scalar : in : replic, eta : vector : in : replic,
             FP : Kvectors : in : replic, ynew : vector : out : replic,
             fnew : vector : out : replic);
task copyf(FN : Kvectors : in : replic, FC : Kvectors : out : replic);
task correct(l : int : in : replic, j : int : in : replic,
             t : scalar : in : replic, h : scalar : in : replic,
             eta : vector : in : replic, FC : Kvectors : in : replic,
             ynew : vector : out : replic, fnew : vector : out : replic);
task advance(t : scalar : inout : replic, h : scalar : in : replic,
             Y : Kvectors : in : replic, FN : Kvectors : in : replic,
             eta : vector : inout : replic, FP : Kvectors : out : replic);

cmmain PABM(eta : vector : inout : replic) {{
  var t, h : scalar;
  var FP, FN, FC, Y : Kvectors;
  var l, j : int;
  seq {{
    init_block(t, h, eta, FP);
    while (t < Tend) {{
      seq {{
        parfor (l = 1 : K) {{ predict(l, t, h, eta, FP, Y[l], FN[l]); }}
        for (j = 1 : m) {{
          seq {{
            copyf(FN, FC);
            parfor (l = 1 : K) {{ correct(l, j, t, h, eta, FC, Y[l], FN[l]); }}
          }}
        }}
        advance(t, h, Y, FN, eta, FP);
      }}
    }}
  }}
}}
"""


# ----------------------------------------------------------------------
# Cost annotations (work in flop, comm per Table 1)
# ----------------------------------------------------------------------
def _solver_flops(problem: ODEProblem) -> Tuple[float, float]:
    """(factorisation, triangular-solve) flop counts of DIIRK's linear
    algebra for the problem's structure."""
    n = problem.n
    if problem.kind == "sparse":
        return 60.0 * n, 30.0 * n
    return (2.0 / 3.0) * n**3, 2.0 * n * n


def _cost_tables(
    method: str, problem: ODEProblem, cfg: MethodConfig
) -> Dict[str, TaskCost]:
    n = problem.n
    ev = problem.eval_flops
    K, m, I = cfg.K, cfg.m, cfg.I

    def ag(scope: str, count: float = 1.0) -> CollectiveSpec:
        if scope == "orthogonal":
            # Each group contributes its stage vector and must receive
            # the K-1 foreign ones; the position-sliced exchange with
            # ring forwarding moves ~ (K-1)/2 vector volumes per set.
            elems = n * max(1, K - 1) / 2.0
        else:
            elems = n
        return CollectiveSpec("allgather", elems, scope=scope, count=count)

    # every task of a kind shares its (frozen) collectives: built once
    # per table, not once per task
    group, orthogonal, everyone = ag("group"), ag("orthogonal"), ag("global")
    if method == "epol":
        bcast = (CollectiveSpec("bcast", n, scope="global", task_parallel_only=True),)
        return {
            "init_step": TaskCost(work=lambda e, s: float(n)),
            "step": TaskCost(
                work=lambda e, s: 2.0 * n + ev,
                comm=lambda e, s: (group,),
            ),
            "combine": TaskCost(
                work=lambda e, s: 3.0 * n * K * K + 2.0 * n,
                comm=lambda e, s: bcast,
            ),
        }
    if method == "irk":
        return {
            "init_step": TaskCost(work=lambda e, s: float(n)),
            "stage": TaskCost(
                work=lambda e, s: ev + 2.0 * n * K,
                comm=lambda e, s: (group, orthogonal),
            ),
            "combine": TaskCost(
                work=lambda e, s: 2.0 * n * K + n,
                comm=lambda e, s: (everyone,),
            ),
        }
    if method == "diirk":
        factor, solve = _solver_flops(problem)
        # Distributed elimination broadcasts: Table 1's (n-1) * I pivot-row
        # broadcasts describe the dense solver.  Sparse (banded) systems
        # eliminate along the band: one broadcast per block row of the
        # band, with band-wide payload.
        if problem.kind == "dense":
            rows, row_elems = n - 1, n
        else:
            band = max(2, int(round((n / 2) ** 0.5)))  # BRUSS2D: N = sqrt(n/2)
            rows, row_elems = band - 1, 4 * band
        elimination = CollectiveSpec("bcast", row_elems, scope="group", count=rows * I / m)
        return {
            "init_step": TaskCost(work=lambda e, s: float(n)),
            "stage": TaskCost(
                # per time step: one factorisation + I iterations of
                # (evaluation + triangular solve); the chain of m stage
                # tasks shares this evenly
                work=lambda e, s: (factor + I * (ev + solve)) / m,
                comm=lambda e, s: (elimination, orthogonal),
                # the distributed elimination synchronises the thread
                # team once per pivot row (hybrid execution, Fig. 18)
                sync_points=rows * I / m,
            ),
            "combine": TaskCost(
                work=lambda e, s: 2.0 * n * K + n,
                comm=lambda e, s: (everyone,),
            ),
        }
    if method == "pab":
        return {
            "init_block": TaskCost(work=lambda e, s: float(n)),
            "stage": TaskCost(
                work=lambda e, s: ev + 2.0 * n * K,
                comm=lambda e, s: (group, orthogonal),
            ),
            "advance": TaskCost(work=lambda e, s: float(n)),
        }
    if method == "pabm":
        corrector = ag("group", count=1 + m)
        return {
            "init_block": TaskCost(work=lambda e, s: float(n)),
            "stage": TaskCost(
                work=lambda e, s: (1 + m) * (ev + 2.0 * n * K),
                comm=lambda e, s: (corrector, orthogonal),
            ),
            "advance": TaskCost(work=lambda e, s: float(n)),
        }
    raise ValueError(f"unknown method {method!r}")


# ----------------------------------------------------------------------
# Functional task bodies
# ----------------------------------------------------------------------
def _epol_functional(problem: ODEProblem, cfg: MethodConfig) -> Dict[str, TaskCost]:
    R, h0 = cfg.K, cfg.h
    f, n = problem.f, problem.n
    costs = _cost_tables("epol", problem, cfg)

    def init_step(ctx, values):
        return {"t": np.array([problem.t0]), "h": np.array([h0])}

    def step(ctx, values):
        i, j = ctx.env["i"], ctx.env["j"]
        t = float(values["t"][0])
        h = float(values["h"][0])
        base = values["eta_k"] if j == 1 else values[f"V[{i}]"]
        hi = h / i
        ti = t + (j - 1) * hi
        ctx.allgather(n)
        return {f"V[{i}]": base + hi * f(ti, base)}

    def combine(ctx, values):
        t = float(values["t"][0])
        h = float(values["h"][0])
        T = np.array([values[f"V[{i}]"] for i in range(1, R + 1)])
        # Aitken-Neville over the harmonic sequence
        for k in range(1, R):
            for i in range(R - 1, k - 1, -1):
                factor = (i + 1) / (i + 1 - k) - 1.0
                T[i] = T[i] + (T[i] - T[i - 1]) / factor
        ctx.bcast(n)
        return {
            "eta_k": T[R - 1],
            "t": np.array([t + h]),
            "h": np.array([h]),
        }

    return _attach(costs, init_step=init_step, step=step, combine=combine)


def _irk_functional(problem: ODEProblem, cfg: MethodConfig) -> Dict[str, TaskCost]:
    tab = gauss_legendre(cfg.K)
    return _jacobi_functional(problem, cfg, tab, implicit=False)


def _diirk_functional(problem: ODEProblem, cfg: MethodConfig) -> Dict[str, TaskCost]:
    tab = radau_iia(cfg.K)
    return _jacobi_functional(problem, cfg, tab, implicit=True)


def _jacobi_functional(
    problem: ODEProblem, cfg: MethodConfig, tab, implicit: bool
) -> Dict[str, TaskCost]:
    if implicit:
        # at build time, so forked workers inherit scipy instead of
        # loading it inside a task
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

    f, n, h0 = problem.f, problem.n, cfg.h
    K = tab.stages
    gamma = float(np.mean(np.diag(tab.A)))
    costs = _cost_tables("diirk" if implicit else "irk", problem, cfg)

    def init_step(ctx, values):
        return {"t": np.array([problem.t0]), "h": np.array([h0])}

    def init_mu(ctx, values):
        t = float(values["t"][0])
        mu0 = f(t, values["eta"])
        return {f"MUNEW[{l}]": mu0.copy() for l in range(1, K + 1)}

    def copy_mu(ctx, values):
        return {f"MU[{l}]": values[f"MUNEW[{l}]"].copy() for l in range(1, K + 1)}

    def stage(ctx, values):
        l = ctx.env["l"]
        t = float(values["t"][0])
        h = float(values["h"][0])
        eta = values["eta"]
        mu = np.array([values[f"MU[{k}]"] for k in range(1, K + 1)])
        arg = eta + h * (tab.A[l - 1] @ mu)
        target = f(t + tab.c[l - 1] * h, arg)
        if not implicit:
            ctx.allgather(n)
            return {f"MUNEW[{l}]": target}
        # diagonal-implicit correction with the shifted Jacobian
        J = problem.jac(t, eta)
        if sp.issparse(J):
            M = sp.identity(n, format="csc") - (h * gamma) * J.tocsc()
            delta = spla.spsolve(M, target - mu[l - 1])
        else:
            M = np.eye(n) - (h * gamma) * np.asarray(J)
            delta = np.linalg.solve(M, target - mu[l - 1])
        ctx.allgather(n)
        return {f"MUNEW[{l}]": mu[l - 1] + delta}

    def combine(ctx, values):
        t = float(values["t"][0])
        h = float(values["h"][0])
        mu = np.array([values[f"MUNEW[{l}]"] for l in range(1, K + 1)])
        ctx.allgather(n)
        return {
            "eta": values["eta"] + h * (tab.b @ mu),
            "t": np.array([t + h]),
            "h": np.array([h]),
        }

    return _attach(
        costs,
        init_step=init_step,
        init_mu=TaskCost(work=lambda e, s: problem.eval_flops, func=init_mu),
        copy_mu=TaskCost(func=copy_mu),
        stage=stage,
        combine=combine,
    )


def _block_functional(
    problem: ODEProblem, cfg: MethodConfig, corrector: bool
) -> Dict[str, TaskCost]:
    from .adams import _bootstrap_block

    method = AdamsBlockMethod.with_stages(cfg.K)
    f, n, h0, K, m = problem.f, problem.n, cfg.h, cfg.K, cfg.m
    costs = _cost_tables("pabm" if corrector else "pab", problem, cfg)

    def init_block(ctx, values):
        Y, _ = _bootstrap_block(method, f, problem.t0, values["eta"], h0)
        F = method.eval_block(f, problem.t0, Y, h0)
        out = {f"FP[{l}]": F[l - 1] for l in range(1, K + 1)}
        out["t"] = np.array([problem.t0 + h0])
        out["h"] = np.array([h0])
        out["eta"] = Y[-1]
        return out

    def predict(ctx, values):
        l = ctx.env["l"]
        t = float(values["t"][0])
        h = float(values["h"][0])
        F = np.array([values[f"FP[{k}]"] for k in range(1, K + 1)])
        y_l = values["eta"] + h * (method.W_pred[l - 1] @ F)
        ctx.allgather(n)
        return {f"Y[{l}]": y_l, f"FN[{l}]": f(t + method.c[l - 1] * h, y_l)}

    def copyf(ctx, values):
        return {f"FC[{l}]": values[f"FN[{l}]"].copy() for l in range(1, K + 1)}

    def correct(ctx, values):
        l = ctx.env["l"]
        t = float(values["t"][0])
        h = float(values["h"][0])
        F = np.array([values[f"FC[{k}]"] for k in range(1, K + 1)])
        y_l = values["eta"] + h * (method.W_corr[l - 1] @ F)
        ctx.allgather(n)
        return {f"Y[{l}]": y_l, f"FN[{l}]": f(t + method.c[l - 1] * h, y_l)}

    def advance(ctx, values):
        t = float(values["t"][0])
        h = float(values["h"][0])
        out = {f"FP[{l}]": values[f"FN[{l}]"] for l in range(1, K + 1)}
        out["eta"] = values[f"Y[{K}]"]
        out["t"] = np.array([t + h])
        return out

    extra: Dict[str, TaskCost] = {}
    if corrector:
        def work(e, s):
            return problem.eval_flops + 2.0 * n * K

        def comm(e, s):
            # the group allgather the predict / correct body logs
            return (CollectiveSpec("allgather", n, scope="group"),)

        extra["predict"] = TaskCost(work=work, comm=comm, func=predict)
        extra["copyf"] = TaskCost(func=copyf)
        extra["correct"] = TaskCost(work=work, comm=comm, func=correct)
        return _attach(costs, init_block=init_block, advance=advance, **extra)
    return _attach(costs, init_block=init_block, stage=predict, advance=advance)


def _attach(costs: Dict[str, TaskCost], **bodies) -> Dict[str, TaskCost]:
    """Attach functional bodies to a cost table (or add new entries)."""
    out = dict(costs)
    for name, body in bodies.items():
        if isinstance(body, TaskCost):
            out[name] = body
            continue
        base = out.get(name, TaskCost())
        out[name] = TaskCost(
            work=base.work, comm=base.comm, sync_points=base.sync_points, func=body
        )
    return out


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def build_ode_program(
    problem: ODEProblem,
    cfg: MethodConfig,
    functional: bool = False,
) -> BuildResult:
    """Build the hierarchical M-task program of one solver."""
    source, costs = _source_and_costs(problem, cfg, functional)
    return GraphBuilder(source, {"vector": problem.n}).build(costs)


def _source_and_costs(
    problem: ODEProblem, cfg: MethodConfig, functional: bool
) -> Tuple[str, Dict[str, TaskCost]]:
    """A solver's specification source and its cost registry."""
    method, K, m = cfg.method, cfg.K, cfg.m
    if method == "epol":
        source = _epol_source(K, cfg.t_end)
        costs = (
            _epol_functional(problem, cfg)
            if functional
            else _cost_tables("epol", problem, cfg)
        )
    elif method in ("irk", "diirk"):
        if functional:
            source = _jacobi_functional_source(method.upper(), K, m, cfg.t_end)
            costs = (
                _irk_functional(problem, cfg)
                if method == "irk"
                else _diirk_functional(problem, cfg)
            )
        else:
            source = _stage_chain_source(method.upper(), K, m, cfg.t_end)
            costs = _cost_tables(method, problem, cfg)
    elif method == "pab":
        source = _block_source("PAB", K, cfg.t_end, functional)
        costs = (
            _block_functional(problem, cfg, corrector=False)
            if functional
            else _cost_tables("pab", problem, cfg)
        )
    elif method == "pabm":
        if functional:
            source = _pabm_functional_source(K, m, cfg.t_end)
            costs = _block_functional(problem, cfg, corrector=True)
        else:
            source = _block_source("PABM", K, cfg.t_end, functional=False)
            costs = _cost_tables("pabm", problem, cfg)
    else:  # pragma: no cover - guarded by MethodConfig
        raise ValueError(method)
    return source, costs


def step_graph(
    problem: ODEProblem,
    cfg: MethodConfig,
    functional: bool = False,
) -> TaskGraph:
    """The M-task graph of one time step (the ``while`` body)."""
    result = build_ode_program(problem, cfg, functional)
    composed = result.composed_nodes()
    if not composed:
        raise AssertionError("solver program has no time-stepping loop")
    return result.body_of(composed[0])
