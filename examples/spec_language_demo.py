#!/usr/bin/env python
"""The CM-task specification language front end (Fig. 3 of the paper).

Parses the extrapolation-method specification program, shows the
hierarchical M-task graphs the builder extracts (Fig. 4), the linear
chains and layers the scheduler identifies (Fig. 5), and the three
schedules of Fig. 6 (data parallel, R/2 groups, R groups with adjusted
sizes).

Run:  python examples/spec_language_demo.py
"""

from repro.cluster import generic_cluster
from repro.core import CollectiveSpec, CostModel
from repro.scheduling import (
    LayerBasedScheduler,
    build_layers,
    contract_chains,
    find_linear_chains,
    fixed_group_scheduler,
)
from repro.spec import TaskCost, build_program

SPEC = """
const R = 4;                       // number of approximations
const Tend = 100;                  // end of integration interval
type Rvectors = vector[R];

task init_step(t : scalar : out : replic, h : scalar : out : replic);
task step(j : int : in : replic, i : int : in : replic,
          t : scalar : in : replic, h : scalar : in : replic,
          eta_k : vector : in : replic, v : vector : inout : block);
task combine(t : scalar : inout : replic, h : scalar : inout : replic,
             V : Rvectors : in : block, eta_k : vector : inout : replic);

cmmain EPOL(eta_k : vector : inout : replic) {
  var t, h : scalar;
  var V : Rvectors;
  var i, j : int;
  seq {
    init_step(t, h);
    while (t < Tend) {             // time stepping loop
      seq {
        parfor (i = 1 : R) {
          for (j = 1 : i) { step(j, i, t, h, eta_k, V[i]); }
        }
        combine(t, h, V, eta_k);
      }
    }
  }
}
"""

N = 100_000  # ODE system size


def main() -> None:
    costs = {
        "step": TaskCost(
            work=lambda env, sz: 2.0 * sz["vector"] + 14.0 * sz["vector"],
            comm=lambda env, sz: (CollectiveSpec("allgather", sz["vector"]),),
        ),
        "combine": TaskCost(work=lambda env, sz: 50.0 * sz["vector"]),
        "init_step": TaskCost(work=lambda env, sz: float(sz["vector"])),
    }
    result = build_program(SPEC, sizes={"vector": N}, costs=costs)

    print("=== upper-level M-task graph ===")
    for t in result.graph.topological_order():
        succ = ", ".join(s.name for s in result.graph.successors(t))
        print(f"  {t.name:<22s} -> {succ or '-'}")

    loop = result.composed_nodes()[0]
    body = result.body_of(loop)
    print(f"\n=== body of the while loop ({len(body)} tasks, Fig. 4) ===")
    chains = find_linear_chains(body)
    print(f"linear chains found (Fig. 5 left): "
          f"{sorted(len(c) for c in chains)} members each")

    contracted, _ = contract_chains(body)
    print("\nlayers after contraction (Fig. 5 right):")
    for i, layer in enumerate(build_layers(contracted)):
        print(f"  W{i}: {[t.name.split('#')[0][:28] for t in layer]}")

    platform = generic_cluster(nodes=4, procs_per_node=2, cores_per_proc=2)
    cost = CostModel(platform)
    print(f"\n=== the three schedules of Fig. 6 on {platform.total_cores} cores ===")
    for label, g, adjust in (
        ("data parallel (g=1)", 1, False),
        ("task parallel (g=R/2)", 2, False),
        ("task parallel (g=R, adjusted sizes)", 4, True),
    ):
        result = fixed_group_scheduler(cost, g, adjust=adjust).schedule(body)
        makespan = result.symbolic_timeline(cost).makespan
        mid = result.layered.layers[1]
        print(f"  {label:<38s} groups={mid.group_sizes}  "
              f"est. step time {makespan * 1e3:7.2f} ms")

    auto = LayerBasedScheduler(cost).schedule(body)
    makespan = auto.symbolic_timeline(cost).makespan
    print(f"  {'Algorithm 1 (searched g)':<38s} "
          f"groups={auto.layered.layers[1].group_sizes}  est. step time {makespan * 1e3:7.2f} ms")


if __name__ == "__main__":
    main()
