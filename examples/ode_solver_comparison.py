#!/usr/bin/env python
"""Compare the five parallel ODE solvers numerically and as M-task programs.

Part 1 -- numerics: integrate the paper's two test problems, the sparse
2D Brusselator and the dense Schroedinger-Poisson system, with every
solver and check the error against a high-accuracy SciPy reference.

Part 2 -- M-task execution: run the *functional* M-task program of the
extrapolation method through the runtime (real numpy data flowing along
the task graph) and confirm it reproduces the sequential solver exactly.

Part 3 -- performance: schedule each solver's step graph on 256 CHiC
cores, task parallel vs data parallel, and report simulated times per
step (the setting of Figs. 15/16).

Run:  python examples/ode_solver_comparison.py
"""

import numpy as np

from repro.cluster import chic
from repro.experiments.common import simulate_ode_step
from repro.mapping import consecutive
from repro.ode import (
    MethodConfig,
    bruss2d,
    integrate_functional,
    reference_solution,
    relative_error,
    schroed,
    solve_diirk,
    solve_epol,
    solve_irk,
    solve_pab,
    solve_pabm,
)


def part1_numerics() -> None:
    t_end, h = 0.5, 0.01
    for problem in (bruss2d(16), schroed(32)):
        print(f"=== Part 1: numerical accuracy on {problem.name} (t in [0, 0.5]) ===")
        ref = reference_solution(problem, t_end, rtol=1e-10)
        solvers = [
            ("EPOL  (R=4)", lambda: solve_epol(problem, t_end, h, R=4)),
            ("IRK   (K=2)", lambda: solve_irk(problem, t_end, h, K=2)),
            ("DIIRK (K=2)", lambda: solve_diirk(problem, t_end, 2 * h, K=2)),
            ("PAB   (K=4)", lambda: solve_pab(problem, t_end, h, K=4)),
            ("PABM  (K=4)", lambda: solve_pabm(problem, t_end, h, K=4, m=2)),
        ]
        for name, run in solvers:
            sol = run()
            err = relative_error(sol.y, ref)
            print(f"  {name}: steps={sol.steps:4d}  f-evals={sol.fevals:6d}  rel.err={err:.2e}")


def part2_functional() -> None:
    print("\n=== Part 2: the M-task program really computes ===")
    problem = bruss2d(8)
    cfg = MethodConfig("epol", K=4, t_end=1.0, h=0.05)
    fi = integrate_functional(problem, cfg)
    seq = solve_epol(problem, 1.0, 0.05, R=4)
    diff = float(np.max(np.abs(fi.y - seq.y)))
    print(f"  EPOL M-task program vs sequential solver after {fi.steps} steps:")
    print(f"    max |difference| = {diff:.2e} (bit-identical orchestration)")
    print(f"    collectives executed: {fi.collective_counts}")


def part3_performance() -> None:
    print("\n=== Part 3: simulated time per step, 256 CHiC cores, BRUSS2D N=500 ===")
    problem = bruss2d(500)
    platform = chic().with_cores(256)
    configs = [
        MethodConfig("epol", K=8),
        MethodConfig("irk", K=4, m=7),
        MethodConfig("diirk", K=4, m=3, I=2),
        MethodConfig("pab", K=8),
        MethodConfig("pabm", K=8, m=2),
    ]
    print(f"  {'method':8s} {'task parallel':>14s} {'data parallel':>14s} {'tp speedup':>11s}")
    for cfg in configs:
        tp = simulate_ode_step(problem, cfg, platform, consecutive(), "tp").makespan
        dp = simulate_ode_step(problem, cfg, platform, consecutive(), "dp").makespan
        print(f"  {cfg.method.upper():8s} {tp * 1e3:11.2f} ms {dp * 1e3:11.2f} ms {dp / tp:10.2f}x")


if __name__ == "__main__":
    part1_numerics()
    part2_functional()
    part3_performance()
