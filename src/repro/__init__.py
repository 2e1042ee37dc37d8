"""repro -- Scalable computing with parallel tasks.

A reproduction of Dümmler, Rauber & Rünger's combined scheduling and
mapping framework for M-task (moldable multiprocessor task) programs on
hierarchical multi-core clusters, including:

* the M-task programming model with a specification-language front end,
* the layer-based scheduling algorithm with group adjustment and the
  CPA/CPR comparison baselines,
* consecutive / scattered / mixed mapping strategies,
* analytic communication cost models with NIC contention,
* a discrete-event simulator and a functional (data-carrying) runtime,
* the full evaluation workloads: five parallel ODE solvers on the
  BRUSS2D and SCHROED systems, and the NAS multi-zone benchmarks.

Typical use::

    from repro import cluster, ode, scheduling
    from repro.core import CostModel
    from repro.pipeline import SchedulingPipeline

    platform = cluster.chic(64)                       # 256 cores
    cost = CostModel(platform)
    graph = ode.step_graph(ode.bruss2d(64), ode.PAPER_CONFIGS["irk"])
    pipe = SchedulingPipeline(scheduling.LayerBasedScheduler(cost))
    result = pipe.run(graph)
    print(result.trace.summary())
    print(result.report())    # per-stage timings + cost-cache hit rate
"""

from . import cluster, comm, core, distribution, graphs, hybrid, mapping, npb, obs, ode
from . import pipeline, runtime, scheduling, sim, spec

__version__ = "1.1.0"

__all__ = [
    "cluster",
    "comm",
    "core",
    "distribution",
    "graphs",
    "hybrid",
    "mapping",
    "npb",
    "obs",
    "ode",
    "pipeline",
    "runtime",
    "scheduling",
    "sim",
    "spec",
    "__version__",
]
