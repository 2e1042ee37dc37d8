"""Hierarchical multi-core cluster models (architecture tree + network)."""

from .architecture import (
    LEVEL_NETWORK,
    LEVEL_NODE,
    LEVEL_PROCESSOR,
    CoreId,
    Machine,
)
from .network import HierarchicalNetwork, LinkLevel
from .platforms import Platform, by_name, chic, generic_cluster, juropa, sgi_altix

__all__ = [
    "CoreId",
    "Machine",
    "LEVEL_PROCESSOR",
    "LEVEL_NODE",
    "LEVEL_NETWORK",
    "HierarchicalNetwork",
    "LinkLevel",
    "Platform",
    "chic",
    "juropa",
    "sgi_altix",
    "generic_cluster",
    "by_name",
]
