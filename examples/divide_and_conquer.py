#!/usr/bin/env python
"""Dynamic M-task scheduling for divide-and-conquer (Section 2.2.2).

The static layer-based algorithm needs the task graph up front; for
recursive algorithms the paper points to dynamic scheduling in the style
of the Tlib library, where running tasks create further tasks.  This
example runs a recursive mergesort-like decomposition: a split task,
when it starts, spawns the recursion -- each node splits its range until
a leaf threshold, leaves carry the computational work, and merge tasks
combine results upwards.

The dynamic scheduler grants groups of free cores at runtime and shrinks
moldable tasks when the machine is busy.  For comparison the same
(unrolled) task graph is also scheduled statically, and dispatched by
the dynamic scheduler through the same pipeline.

Run:  python examples/divide_and_conquer.py
"""

from repro.cluster import generic_cluster
from repro.core import CostModel, MTask, TaskGraph
from repro.pipeline import SchedulingPipeline
from repro.scheduling import DynamicScheduler, LayerBasedScheduler

SPLIT_WORK = 1e7
LEAF_WORK = 2e9
MERGE_WORK = 2e8
DEPTH = 3  # 8 leaves


def report(label: str, trace) -> float:
    print(f"  {label:8s}: makespan {trace.makespan * 1e3:7.2f} ms, "
          f"utilisation {trace.utilization() * 100:5.1f}%, tasks {len(trace)}")
    return trace.makespan


def run_dynamic(cost) -> float:
    dyn = DynamicScheduler(cost)

    def decompose(ctx) -> None:
        """Runs when the split task starts: spawn the whole recursion."""

        def build(name: str, depth: int):
            """Returns the task whose completion means 'subtree done'."""
            if depth == DEPTH:
                return ctx.spawn(MTask(f"leaf{name}", work=LEAF_WORK), preferred_width=4)
            left = build(name + "L", depth + 1)
            right = build(name + "R", depth + 1)
            return ctx.spawn(
                MTask(f"merge{name}", work=MERGE_WORK),
                deps=[left, right],
                preferred_width=8,
            )

        build("", 0)

    dyn.submit(MTask("split", work=SPLIT_WORK), on_start=decompose)
    return report("dynamic", dyn.run())


def unrolled_graph() -> TaskGraph:
    graph = TaskGraph("dnc")
    split = graph.add_task(MTask("split", work=SPLIT_WORK))

    def build(name: str, depth: int) -> MTask:
        if depth == DEPTH:
            leaf = graph.add_task(MTask(f"leaf{name}", work=LEAF_WORK))
            graph.add_dependency(split, leaf)
            return leaf
        left = build(name + "L", depth + 1)
        right = build(name + "R", depth + 1)
        merge = graph.add_task(MTask(f"merge{name}", work=MERGE_WORK))
        graph.add_dependency(left, merge)
        graph.add_dependency(right, merge)
        return merge

    build("", 0)
    return graph


def main() -> None:
    platform = generic_cluster(nodes=8, procs_per_node=2, cores_per_proc=2)
    cost = CostModel(platform)
    print(f"recursive decomposition, depth {DEPTH} "
          f"({2 ** DEPTH} leaves) on {platform.total_cores} cores:")
    t_dyn = run_dynamic(cost)
    graph = unrolled_graph()
    t_static = report("static", SchedulingPipeline(LayerBasedScheduler(cost)).run(graph).trace)
    report("dispatch", SchedulingPipeline(DynamicScheduler(cost)).run(graph).trace)
    print(f"  -> dynamic/static makespan ratio: {t_dyn / t_static:.2f} "
          "(the static scheduler sees the whole graph; the dynamic one "
          "needs no a-priori knowledge)")


if __name__ == "__main__":
    main()
