"""The three evaluation platforms of the paper (Section 4.1).

=========  ==============================================  ==============
Platform   Node                                            Interconnect
=========  ==============================================  ==============
CHiC       2 x AMD Opteron 2218 dual-core, 2.6 GHz,        SDR InfiniBand
           5.2 GFlop/s per core, 530 nodes
JuRoPA     2 x Intel Xeon X5570 quad-core, 2.93 GHz,       QDR InfiniBand
           11.72 GFlop/s per core, 2208 nodes
SGI Altix  2 x Itanium2 Montecito dual-core, 1.6 GHz,      NUMAlink 4
           6.4 GFlop/s per core, 128 nodes per partition   (DSM system)
=========  ==============================================  ==============

The latency/bandwidth values below are the published characteristics of
the respective interconnect generations (SDR/QDR InfiniBand with MPI,
NUMAlink 4) and of shared-memory MPI transfers of that hardware era.  The
reproduction does not depend on their absolute accuracy -- only on the
*ratios* between hierarchy levels, which drive every mapping effect in the
paper.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import ceil
from typing import Callable, Dict

from .architecture import Machine
from .network import HierarchicalNetwork, LinkLevel

__all__ = ["Platform", "chic", "juropa", "sgi_altix", "generic_cluster", "by_name"]


@dataclass(frozen=True)
class Platform:
    """A machine (architecture tree) together with its network parameters."""

    machine: Machine
    network: HierarchicalNetwork

    @property
    def name(self) -> str:
        return self.machine.name

    @property
    def total_cores(self) -> int:
        return self.machine.total_cores

    def with_cores(self, cores: int) -> "Platform":
        """Restrict the platform to the smallest node prefix covering
        ``cores`` cores (the paper always uses whole nodes).

        ``cores`` must be a multiple of the per-node core count so the
        partition consists of full nodes.
        """
        per_node = self.machine.cores_per_node(0)
        if cores <= 0:
            raise ValueError("cores must be positive")
        if cores % per_node != 0:
            raise ValueError(
                f"{self.name} allocates whole nodes of {per_node} cores; "
                f"{cores} is not a multiple"
            )
        nodes = ceil(cores / per_node)
        return replace(self, machine=self.machine.subset(nodes))

    def describe(self) -> str:
        """Describe the machine and its network levels."""
        return f"{self.machine}\n{self.network.describe()}"


def chic(nodes: int = 530) -> Platform:
    """Chemnitz High Performance Linux cluster (CHiC)."""
    machine = Machine.homogeneous(
        "CHiC", nodes=nodes, procs_per_node=2, cores_per_proc=2, core_flops=5.2e9
    )
    network = HierarchicalNetwork(
        levels=(
            LinkLevel("shared L2/memory (socket)", latency=0.4e-6, bandwidth=2.2e9),
            LinkLevel("HyperTransport (node)", latency=0.7e-6, bandwidth=1.6e9),
            LinkLevel("SDR InfiniBand", latency=4.0e-6, bandwidth=0.95e9),
        ),
        nic_bandwidth=0.95e9,
    )
    return Platform(machine, network)


def juropa(nodes: int = 2208) -> Platform:
    """JuRoPA cluster at Juelich Supercomputing Centre."""
    machine = Machine.homogeneous(
        "JuRoPA", nodes=nodes, procs_per_node=2, cores_per_proc=4, core_flops=11.72e9
    )
    network = HierarchicalNetwork(
        levels=(
            LinkLevel("shared L3 (socket)", latency=0.3e-6, bandwidth=6.0e9),
            LinkLevel("QPI (node)", latency=0.5e-6, bandwidth=4.5e9),
            LinkLevel("QDR InfiniBand", latency=1.9e-6, bandwidth=3.2e9),
        ),
        nic_bandwidth=3.2e9,
    )
    return Platform(machine, network)


def sgi_altix(nodes: int = 128) -> Platform:
    """One partition of the SGI Altix 4700 (distributed shared memory).

    The NUMAlink 4 fabric gives each node two links of 6.4 GB/s
    bidirectional bandwidth; the DSM architecture allows OpenMP threads to
    span nodes (Section 4.7) and makes the inter-node level much closer to
    the intra-node level than on the InfiniBand clusters.
    """
    machine = Machine.homogeneous(
        "SGI-Altix",
        nodes=nodes,
        procs_per_node=2,
        cores_per_proc=2,
        core_flops=6.4e9,
        shared_memory_across_nodes=True,
    )
    network = HierarchicalNetwork(
        levels=(
            LinkLevel("shared bus (socket)", latency=0.3e-6, bandwidth=4.2e9),
            LinkLevel("SHUB (node)", latency=0.5e-6, bandwidth=3.8e9),
            LinkLevel("NUMAlink 4", latency=1.2e-6, bandwidth=3.2e9),
        ),
        nic_bandwidth=6.4e9,  # two NUMAlink ports per node
    )
    return Platform(machine, network)


def generic_cluster(
    nodes: int = 4,
    procs_per_node: int = 2,
    cores_per_proc: int = 2,
    core_flops: float = 4.0e9,
    inter_node_bandwidth: float = 1.0e9,
    inter_node_latency: float = 3.0e-6,
) -> Platform:
    """A small configurable cluster for examples and tests."""
    machine = Machine.homogeneous(
        "generic",
        nodes=nodes,
        procs_per_node=procs_per_node,
        cores_per_proc=cores_per_proc,
        core_flops=core_flops,
    )
    network = HierarchicalNetwork(
        levels=(
            LinkLevel("intra-socket", latency=0.3e-6, bandwidth=4 * inter_node_bandwidth),
            LinkLevel("intra-node", latency=0.6e-6, bandwidth=2 * inter_node_bandwidth),
            LinkLevel("inter-node", latency=inter_node_latency, bandwidth=inter_node_bandwidth),
        ),
        nic_bandwidth=inter_node_bandwidth,
    )
    return Platform(machine, network)


_REGISTRY: Dict[str, Callable[[], Platform]] = {
    "chic": chic,
    "juropa": juropa,
    "sgi-altix": sgi_altix,
    "sgi_altix": sgi_altix,
    "altix": sgi_altix,
    "generic": generic_cluster,
}

#: full-size platforms already built in this process, by factory (four
#: factories, so bounded by construction)
_BUILT: Dict[Callable[[], Platform], Platform] = {}


def by_name(name: str) -> Platform:
    """The full-size platform of a (case-insensitive) name.

    The platform is built once per process and shared: it is frozen and
    the arrays of its :class:`Machine` are read-only, so
    ``by_name(name).with_cores(c)`` costs O(``c``) instead of building
    all 2 120 (CHiC) or 17 664 (JuRoPA) cores to slice a prefix off.
    """
    try:
        factory = _REGISTRY[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown platform {name!r}; known: {sorted(_REGISTRY)}"
        ) from None
    platform = _BUILT.get(factory)
    if platform is None:
        platform = _BUILT[factory] = factory()
    return platform
