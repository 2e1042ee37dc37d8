"""NAS Parallel Benchmarks, Multi-Zone versions (SP-MZ, BT-MZ)."""

from .programs import FLOPS_PER_POINT, NPBConfig, build_npb_step_graph, npb_zone_grid
from .zones import BTMZ_RATIO, CLASS_PARAMS, Zone, ZoneGrid, btmz_zones, spmz_zones

__all__ = [
    "Zone",
    "ZoneGrid",
    "spmz_zones",
    "btmz_zones",
    "CLASS_PARAMS",
    "BTMZ_RATIO",
    "NPBConfig",
    "build_npb_step_graph",
    "npb_zone_grid",
    "FLOPS_PER_POINT",
]
