"""Synthetic M-task DAG generators for scale testing and benchmarking.

The paper's workloads top out at a few hundred M-tasks per time step;
exercising the scheduler's asymptotics needs graphs several orders of
magnitude larger.  This package generates seeded, fully deterministic
DAG families -- :func:`chain_graph`, :func:`fork_join_graph`,
:func:`layered_graph` and :func:`random_dag` -- whose tasks carry
realistic work, moldability bounds and collective specs, so the
vectorized cost path is exercised end to end.

:func:`synthesize` is the keyed entry point the ``dag-scale`` workload
of ``perfbench/`` and the scale pins of ``tests/test_schedule_scale.py``
call;
:func:`fit_to_cores` reconciles a generated graph's moldability bounds
with a target core count.  :mod:`repro.graphs.adversarial` adds the
hostile scenarios (degenerate layers, boundary moldability bounds,
comm- vs compute-dominated regimes, bursty faults) the scheduler
shoot-out sweeps.
"""

from .adversarial import REGIMES, Scenario, adversarial_suite
from .synthetic import (
    FAMILIES,
    chain_graph,
    fit_to_cores,
    fork_join_graph,
    layered_graph,
    random_dag,
    synthesize,
)

__all__ = [
    "FAMILIES",
    "REGIMES",
    "Scenario",
    "adversarial_suite",
    "chain_graph",
    "fit_to_cores",
    "fork_join_graph",
    "layered_graph",
    "random_dag",
    "synthesize",
]
