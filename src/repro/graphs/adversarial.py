"""Adversarial scheduling scenarios for the scheduler shoot-out.

The synthetic families (:mod:`repro.graphs.synthetic`) exercise the
scheduler's asymptotics on *well-formed* graphs; this module generates
the hostile ones -- the inputs a scheduler meets once it leaves the
happy path of the paper's ODE workloads:

* **degenerate** -- single-task graphs, zero-work chains and layers,
  layers whose every width clamps to 1;
* **compute** -- compute-dominated cost regime (heavy work, no
  collectives, negligible edge payloads);
* **comm** -- communication-dominated regime (tiny work, heavy
  collectives and fat re-distribution payloads);
* **bounds** -- ``min_procs``/``max_procs`` at the topology boundary:
  tasks pinned to the full machine, serialised by ``max_procs=1``,
  locked into a tight moldability band, or generated beyond the core
  count and clamped by :func:`repro.graphs.synthetic.fit_to_cores`;
* **scale** -- a 10^4-task layered graph (reduced in quick mode) over
  heterogeneous core counts;
* **faulty** -- moderate graphs under bursty deterministic fault plans
  (high failure rates, straggler bursts).

Every scenario is seeded and fully deterministic.  :func:`adversarial_suite`
returns the scenarios grouped by regime; the shoot-out harness
(``python -m repro.experiments --shootout``) runs every zoo scheduler on
each of them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.graph import TaskGraph
from ..core.task import CollectiveSpec, MTask
from .synthetic import _assemble, _flow_maker, fit_to_cores, layered_graph, random_dag

__all__ = ["Scenario", "adversarial_suite", "REGIMES"]

#: regime keys :func:`adversarial_suite` produces, in report order
REGIMES = ("degenerate", "compute", "comm", "bounds", "scale", "faulty")


@dataclass(eq=False)
class Scenario:
    """One adversarial scheduling scenario.

    ``platform``/``cores`` name the target partition (resolved via
    :func:`repro.cluster.platforms.by_name`), ``fault_spec`` optionally
    carries a ``SEED:RATE[:LAYER:NODES]`` fault plan for
    :func:`repro.faults.parse_faults_spec`, and ``big`` marks scenarios
    large enough that the harness may swap in coarsened scheduler
    variants (e.g. CPA with a larger allocation step).
    """

    name: str
    regime: str
    graph: TaskGraph
    cores: int
    platform: str = "chic"
    fault_spec: Optional[str] = None
    big: bool = False

    def platform_obj(self):
        """The resolved platform partition this scenario targets."""
        from ..cluster.platforms import by_name

        return by_name(self.platform).with_cores(self.cores)


def _task(
    name: str,
    work: float,
    *,
    min_procs: int = 1,
    max_procs: Optional[int] = None,
    comm: Tuple[CollectiveSpec, ...] = (),
) -> MTask:
    """Shorthand M-task constructor for hand-built scenario graphs."""
    return MTask(
        name=name, work=work, comm=comm, min_procs=min_procs, max_procs=max_procs
    )


def _layered(
    rng: random.Random,
    name: str,
    layers: List[List[MTask]],
    elements: int = 64,
) -> TaskGraph:
    """Wire hand-built layers into a graph (each task keeps >= 1 pred)."""
    flow = _flow_maker(rng, elements)
    edges = []
    prev: List[MTask] = []
    for layer in layers:
        if prev:
            edges += [(rng.choice(prev), t, flow("x")) for t in layer]
        prev = layer
    return _assemble(name, [t for layer in layers for t in layer], edges)


# ----------------------------------------------------------------------
# regimes
# ----------------------------------------------------------------------
def _degenerate(seed: int) -> List[Scenario]:
    """Single tasks, zero-work layers, width-clamped layers."""
    rng = random.Random(seed)
    single = _layered(rng, "adv/single-task", [[_task("only", 5e8)]])
    zero_chain = _layered(
        rng,
        "adv/zero-work-chain",
        [[_task(f"z{i}", 0.0)] for i in range(5)],
    )
    zero_layer = _layered(
        rng,
        "adv/zero-work-layer",
        [
            [_task("src", 1e8)],
            [_task(f"w{i}", 0.0) for i in range(8)],
            [_task("sink", 1e8)],
        ],
    )
    width1 = _layered(
        rng,
        "adv/width1-layer",
        [
            [_task(f"s{i}", rng.uniform(1e8, 5e8), max_procs=1) for i in range(6)],
            [_task(f"t{i}", rng.uniform(1e8, 5e8), max_procs=1) for i in range(6)],
        ],
    )
    return [
        Scenario("single-task", "degenerate", single, 16),
        Scenario("zero-work-chain", "degenerate", zero_chain, 16),
        Scenario("zero-work-layer", "degenerate", zero_layer, 16),
        Scenario("width1-layer", "degenerate", width1, 16),
    ]


def _cost_regimes(seed: int) -> Tuple[List[Scenario], List[Scenario]]:
    """Compute-dominated vs communication-dominated layered graphs."""
    rng = random.Random(seed)
    heavy = CollectiveSpec(
        op="allgather", total_elements=2e6, count=8.0, scope="group"
    )
    bcast = CollectiveSpec(
        op="bcast", total_elements=1e6, count=4.0, scope="global"
    )
    compute_layers = [
        [_task(f"c{li}_{j}", rng.uniform(5e9, 2e10)) for j in range(10)]
        for li in range(4)
    ]
    comm_layers = [
        [
            _task(
                f"m{li}_{j}",
                rng.uniform(1e5, 1e6),
                comm=(heavy, bcast),
            )
            for j in range(10)
        ]
        for li in range(4)
    ]
    compute = _layered(rng, "adv/compute-bound", compute_layers, elements=8)
    comm = _layered(rng, "adv/comm-bound", comm_layers, elements=500_000)
    return (
        [Scenario("compute-bound", "compute", compute, 64)],
        [Scenario("comm-bound", "comm", comm, 64)],
    )


def _bounds(seed: int, cores: int = 16) -> List[Scenario]:
    """Moldability bounds at the topology boundary."""
    rng = random.Random(seed)
    pinned = _layered(
        rng,
        "adv/minp-at-cores",
        [
            [_task(f"p{i}", rng.uniform(1e9, 4e9), min_procs=cores)]
            for i in range(3)
        ],
    )
    serial = _layered(
        rng,
        "adv/maxp-one",
        [[_task(f"s{i}", rng.uniform(1e8, 1e9), max_procs=1) for i in range(12)]],
    )
    band = _layered(
        rng,
        "adv/tight-band",
        [
            [
                _task(f"b{li}_{j}", rng.uniform(1e9, 4e9), min_procs=4, max_procs=4)
                for j in range(5)
            ]
            for li in range(3)
        ],
    )
    # generated beyond the core count, then clamped by the hardened
    # generator contract (exercises fit_to_cores end to end)
    overgen = fit_to_cores(
        random_dag(40, seed=seed, elements=256), cores
    )
    overgen.name = "adv/overgen-clamped"
    return [
        Scenario("minp-at-cores", "bounds", pinned, cores),
        Scenario("maxp-one", "bounds", serial, cores),
        Scenario("tight-band", "bounds", band, cores),
        Scenario("overgen-clamped", "bounds", overgen, cores),
    ]


def _scale(seed: int, quick: bool) -> List[Scenario]:
    """Large layered graphs across heterogeneous core counts."""
    n = 1200 if quick else 10_000
    out = [
        Scenario(
            f"layered-{n}",
            "scale",
            layered_graph(n, seed=seed, cores=64),
            64,
            big=True,
        ),
        Scenario(
            f"layered-{n}-juropa",
            "scale",
            layered_graph(n, seed=seed + 1, cores=32),
            32,
            platform="juropa",
            big=True,
        ),
    ]
    return out


def _faulty(seed: int) -> List[Scenario]:
    """Moderate graphs under bursty deterministic fault plans."""
    rng = random.Random(seed)
    layers = [
        [_task(f"f{li}_{j}", rng.uniform(5e8, 2e9)) for j in range(8)]
        for li in range(4)
    ]
    g1 = _layered(rng, "adv/faulty-burst", layers)
    g2 = layered_graph(96, seed=seed, cores=16)
    g2.name = "adv/faulty-gen"
    return [
        Scenario("faulty-burst", "faulty", g1, 16, fault_spec=f"{seed}:0.4"),
        Scenario("faulty-gen", "faulty", g2, 16, fault_spec=f"{seed + 1}:0.5"),
    ]


def adversarial_suite(
    seed: int = 0, *, quick: bool = False
) -> Dict[str, List[Scenario]]:
    """All adversarial scenarios, grouped by regime (report order)."""
    compute, comm = _cost_regimes(seed + 1)
    return {
        "degenerate": _degenerate(seed),
        "compute": compute,
        "comm": comm,
        "bounds": _bounds(seed + 2),
        "scale": _scale(seed + 3, quick),
        "faulty": _faulty(seed + 4),
    }
