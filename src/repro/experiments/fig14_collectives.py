"""Figure 14: mapping impact on MPI_Allgather (Section 4.4).

Left: a *global* multi-broadcast over 256 CHiC cores.  The rank order of
the operation is the mapping strategy's physical core sequence, so a
consecutive mapping keeps the ring algorithm's neighbour transfers inside
the nodes while a scattered mapping pushes every transfer through the
network with NIC contention.

Right: the Intel MPI *Multi-Allgather* benchmark -- concurrent
multi-broadcasts in equal-sized core subsets.  The 4-groups case (64
cores each) corresponds to the group-based communication of a 4-stage
ODE solver; the 64-groups case (4 cores each, one per solver group)
corresponds to the orthogonal communication.  Groups are formed in rank
space and placed through the mapping, exactly like the solver's groups.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..cluster.platforms import Platform, chic
from ..comm.collectives import collective_time
from ..comm.patterns import orthogonal_sets
from ..mapping.strategies import MappingStrategy, consecutive, mixed, scattered
from .common import ExperimentResult

__all__ = [
    "DEFAULT_SIZES",
    "global_allgather",
    "multi_allgather",
    "run_fig14_left",
    "run_fig14_right",
]

#: per-core payload sizes in bytes (the benchmark's x axis)
DEFAULT_SIZES = [1 << k for k in range(10, 24, 2)]  # 1 KiB .. 8 MiB


def _strategies(platform: Platform) -> List[MappingStrategy]:
    return [consecutive(), mixed(2), scattered()]


def global_allgather(
    platform: Platform, strategy: MappingStrategy, per_core_bytes: float
) -> float:
    """Time of one global ``MPI_Allgather`` under a mapping strategy."""
    seq = list(strategy.sequence(platform.machine))
    total = per_core_bytes * len(seq)
    return collective_time(
        "allgather", platform.machine, platform.network, [seq], total
    )


def multi_allgather(
    platform: Platform,
    strategy: MappingStrategy,
    num_solver_groups: int,
    per_core_bytes: float,
    orthogonal: bool,
) -> float:
    """Concurrent allgathers in solver-style groups (Fig. 14 right).

    ``orthogonal=False`` measures the group-based pattern (one allgather
    per solver group); ``orthogonal=True`` the orthogonal pattern (one
    allgather per rank position across the groups).
    """
    seq = list(strategy.sequence(platform.machine))
    P = len(seq)
    if P % num_solver_groups:
        raise ValueError("group count must divide the core count")
    size = P // num_solver_groups
    groups = [seq[i * size : (i + 1) * size] for i in range(num_solver_groups)]
    comm_sets: Sequence[Sequence] = (
        orthogonal_sets(groups) if orthogonal else groups
    )
    total = per_core_bytes * len(comm_sets[0])
    return collective_time(
        "allgather", platform.machine, platform.network, comm_sets, total
    )


def run_fig14_left(
    platform: Optional[Platform] = None,
    sizes: Optional[List[int]] = None,
) -> ExperimentResult:
    """Global allgather on 256 CHiC cores vs message size per mapping."""
    platform = platform or chic().with_cores(256)
    sizes = sizes or DEFAULT_SIZES
    result = ExperimentResult(
        title=f"Fig 14 (left): MPI_Allgather on {platform.total_cores} cores of {platform.name}",
        xlabel="bytes/core",
        x=list(sizes),
        ylabel="time [s]",
    )
    for strat in _strategies(platform):
        result.add(strat.name, [global_allgather(platform, strat, s) for s in sizes])
    return result


def run_fig14_right(
    platform: Optional[Platform] = None,
    sizes: Optional[List[int]] = None,
    num_solver_groups: int = 4,
) -> List[ExperimentResult]:
    """Multi-Allgather with 4 x 64-core groups and 64 x 4-core orthogonal
    sets on 256 CHiC cores."""
    platform = platform or chic().with_cores(256)
    sizes = sizes or DEFAULT_SIZES
    out: List[ExperimentResult] = []
    for orthogonal, label in ((False, "group-based"), (True, "orthogonal")):
        groups = (
            platform.total_cores // num_solver_groups
            if orthogonal
            else num_solver_groups
        )
        res = ExperimentResult(
            title=(
                f"Fig 14 (right, {label}): Multi-Allgather, {groups} groups "
                f"on {platform.total_cores} cores of {platform.name}"
            ),
            xlabel="bytes/core",
            x=list(sizes),
            ylabel="time [s]",
        )
        for strat in _strategies(platform):
            res.add(
                strat.name,
                [
                    multi_allgather(platform, strat, num_solver_groups, s, orthogonal)
                    for s in sizes
                ],
            )
        out.append(res)
    return out
