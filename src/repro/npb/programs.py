"""M-task programs of the SP-MZ / BT-MZ benchmarks (Section 4.6).

One time step of a multi-zone solver computes every zone independently
(an M-task per zone, all in one layer) and then exchanges the overlap
region between adjacent zones.  In the paper's modified all-MPI versions
both levels of parallelism use MPI, so:

* the *intra-zone* solve is data parallel over the zone's group: each of
  the three ADI line sweeps transposes the zone's face data across the
  group, modelled as three ``alltoall`` operations over the zone's
  5-variable working set per step (this is what makes very small group
  counts uncompetitive -- Fig. 17's "high communication and
  synchronisation overhead within groups");
* the *border exchange* moves the shared faces between neighbouring
  zones; for zones in different groups this is communication between
  corresponding ranks of the groups -- the orthogonal pattern the
  scattered mapping accelerates.

Per-cell work factors follow the published NPB operation counts (BT
performs roughly 2.2x the flops of SP per grid point per step).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..core.graph import TaskGraph
from ..core.task import CollectiveSpec, DistributionSpec, MTask, Parameter, AccessMode
from .zones import Zone, ZoneGrid, btmz_zones, spmz_zones

__all__ = ["NPBConfig", "build_npb_step_graph", "npb_zone_grid"]

#: flops per grid point per time step (relative magnitudes from the NPB
#: reports; absolute scale cancels in the comparisons)
FLOPS_PER_POINT = {"SP": 900.0, "BT": 2000.0}
#: solution variables per grid point
VARIABLES = 5
#: ghost-layer depth of the border exchange
GHOST = {"SP": 1, "BT": 1}
#: fraction of a zone's working set transposed per ADI sweep
SWEEP_FRACTION = 0.2


@dataclass(frozen=True)
class NPBConfig:
    """A benchmark instance: solver and problem class."""

    benchmark: str = "SP"  #: "SP" or "BT"
    cls: str = "C"

    def __post_init__(self) -> None:
        if self.benchmark not in ("SP", "BT"):
            raise ValueError("benchmark must be 'SP' or 'BT'")


def npb_zone_grid(cfg: NPBConfig) -> ZoneGrid:
    """Zone grid for the configured benchmark and class."""
    return spmz_zones(cfg.cls) if cfg.benchmark == "SP" else btmz_zones(cfg.cls)


def _zone_task(zone: Zone, cfg: NPBConfig, grid: ZoneGrid) -> MTask:
    work = FLOPS_PER_POINT[cfg.benchmark] * zone.points
    sweep_elems = zone.points * VARIABLES * SWEEP_FRACTION
    ghost = GHOST[cfg.benchmark]
    border_points = sum(
        zone.face_points(axis) * ghost for _, axis in grid.neighbours(zone)
    )
    comm = (
        # three ADI line sweeps transpose part of the working set inside
        # the zone's group
        CollectiveSpec("alltoall", sweep_elems, scope="group", count=3),
        # border exchange with neighbouring zones (between groups)
        CollectiveSpec(
            "allgather", border_points * VARIABLES, scope="orthogonal", count=1
        ),
    )
    return MTask(
        name=f"zone{zone.id}(ix={zone.ix},iy={zone.iy})",
        work=work,
        comm=comm,
        params=(
            Parameter(
                f"u{zone.id}",
                AccessMode.INOUT,
                zone.points * VARIABLES,
                dist=DistributionSpec("block"),
            ),
        ),
        sync_points=3,
        meta={"zone": zone},
    )


def build_npb_step_graph(
    cfg: NPBConfig, grid: Optional[ZoneGrid] = None
) -> Tuple[TaskGraph, ZoneGrid]:
    """The M-task graph of one multi-zone time step: one layer of
    independent zone tasks, in zone order, and no edges.

    Nothing flows between tasks of the graph.  The border exchange with
    the neighbouring zones is part of each zone task's own cost: an
    orthogonal ``allgather`` of its ghost faces (:func:`_zone_task`).
    """
    if grid is None:
        grid = npb_zone_grid(cfg)
    graph = TaskGraph(f"{grid.name}-step")
    graph.add_tasks(_zone_task(zone, cfg, grid) for zone in grid.zones)
    return graph, grid
