"""Hierarchical architecture model for multi-core clusters.

The paper (Section 3.3) represents the target platform as a tree with the
entire machine ``A`` as root, compute nodes ``N`` as first-level children,
processors (sockets) ``P`` below nodes and cores ``C`` as leaves.  A leaf is
identified by the label ``nid.pid.cid``.  The tree itself is *not*
annotated with performance parameters; those live in the cost functions
(see :mod:`repro.cluster.network` and :mod:`repro.comm`).

This module provides:

* :class:`CoreId` -- the ``nid.pid.cid`` label of a physical core,
* :class:`Machine` -- the architecture tree plus per-core compute rate,
* helpers to enumerate cores in the canonical (consecutive) order used by
  the mapping strategies of Section 3.4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Sequence, Tuple

import numpy as np

__all__ = ["CoreId", "Machine", "LEVEL_PROCESSOR", "LEVEL_NODE", "LEVEL_NETWORK"]

#: Communication levels between two cores (index into the network's link
#: table).  Smaller level means "closer" / faster interconnect.
LEVEL_PROCESSOR = 0  #: both cores share the same processor (socket)
LEVEL_NODE = 1  #: same node, different processors (memory bus)
LEVEL_NETWORK = 2  #: different nodes (cluster interconnect)


class CoreId(NamedTuple):
    """Identifier of a physical core, the ``nid.pid.cid`` label of Fig. 7.

    All three components are zero-based indices.  Instances are immutable,
    hashable and ordered lexicographically, which makes the *consecutive*
    order of Section 3.4 simply the sorted order of core ids.  A named
    tuple rather than a dataclass: core ids key every placement dict and
    memo entry of the simulator, so hashing and comparing them runs in C.
    """

    node: int
    proc: int
    core: int

    @property
    def label(self) -> str:
        """Human-readable ``nid.pid.cid`` label (1-based, as in the paper)."""
        return f"{self.node + 1}.{self.proc + 1}.{self.core + 1}"


@dataclass(frozen=True)
class Machine:
    """Architecture tree of a (possibly heterogeneous) multi-core cluster.

    Parameters
    ----------
    name:
        Display name, e.g. ``"CHiC"``.
    node_shapes:
        One entry per compute node; each entry is a tuple of per-processor
        core counts.  ``((2, 2), (2, 2))`` describes two nodes with two
        dual-core processors each.
    core_flops:
        Peak floating point rate of a single core in Flop/s.  Used by cost
        models to convert operation counts into seconds.
    shared_memory_across_nodes:
        ``True`` for distributed-shared-memory systems such as the SGI
        Altix, where OpenMP threads may span node boundaries (Section 4.7).
    """

    name: str
    node_shapes: Tuple[Tuple[int, ...], ...]
    core_flops: float
    shared_memory_across_nodes: bool = False
    _cores: Tuple[CoreId, ...] = field(init=False, repr=False, compare=False, default=())
    #: dense-index view of the leaves: position of every core in the
    #: consecutive order, and the node / processor id at each position
    _index: Dict[CoreId, int] = field(init=False, repr=False, compare=False, default=None)
    _nodes: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _procs: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        if not self.node_shapes:
            raise ValueError("machine must have at least one node")
        for shape in self.node_shapes:
            if not shape or any(c <= 0 for c in shape):
                raise ValueError(f"invalid node shape {shape!r}")
        if self.core_flops <= 0:
            raise ValueError("core_flops must be positive")
        cores = tuple(
            CoreId(n, p, c)
            for n, shape in enumerate(self.node_shapes)
            for p, ncores in enumerate(shape)
            for c in range(ncores)
        )
        object.__setattr__(self, "_cores", cores)
        object.__setattr__(self, "_index", {c: i for i, c in enumerate(cores)})
        for name, column in (("_nodes", 0), ("_procs", 1)):
            ids = np.array([c[column] for c in cores], dtype=np.intp)
            ids.flags.writeable = False
            object.__setattr__(self, name, ids)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def homogeneous(
        cls,
        name: str,
        nodes: int,
        procs_per_node: int,
        cores_per_proc: int,
        core_flops: float,
        shared_memory_across_nodes: bool = False,
    ) -> "Machine":
        """Build a machine where every node has the same shape."""
        if nodes <= 0 or procs_per_node <= 0 or cores_per_proc <= 0:
            raise ValueError("nodes, procs_per_node and cores_per_proc must be positive")
        shape = tuple([cores_per_proc] * procs_per_node)
        return cls(
            name=name,
            node_shapes=tuple([shape] * nodes),
            core_flops=core_flops,
            shared_memory_across_nodes=shared_memory_across_nodes,
        )

    def subset(self, nodes: int) -> "Machine":
        """Return a machine restricted to the first ``nodes`` nodes.

        Experiments typically use a partition of the full cluster (e.g.
        256 of the 2120 CHiC cores); this mirrors that.
        """
        if not 1 <= nodes <= self.num_nodes:
            raise ValueError(f"nodes must be in [1, {self.num_nodes}], got {nodes}")
        return Machine(
            name=self.name,
            node_shapes=self.node_shapes[:nodes],
            core_flops=self.core_flops,
            shared_memory_across_nodes=self.shared_memory_across_nodes,
        )

    # ------------------------------------------------------------------
    # Topology queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.node_shapes)

    @property
    def total_cores(self) -> int:
        return len(self._cores)

    def cores_of_node(self, node: int) -> Tuple[CoreId, ...]:
        """All cores of one node in consecutive order."""
        return tuple(c for c in self._cores if c.node == node)

    def cores_per_node(self, node: int = 0) -> int:
        """Number of cores of ``node`` (all nodes for homogeneous machines)."""
        return sum(self.node_shapes[node])

    def cores(self) -> Tuple[CoreId, ...]:
        """All cores in canonical consecutive order (Fig. 9 sequence)."""
        return self._cores

    # ------------------------------------------------------------------
    # Dense-index view (array kernels of :mod:`repro.comm`)
    # ------------------------------------------------------------------
    def core_index(self, cores: Sequence[CoreId]) -> np.ndarray:
        """Positions of ``cores`` in the consecutive order of
        :meth:`cores`, so ``machine.cores()[i]`` inverts it.  A contiguous
        run of that order -- what a consecutive mapping hands out -- is
        one range, found without a lookup per core."""
        index = self._index
        try:
            if cores:
                lo = index[cores[0]]
                if self._cores[lo : lo + len(cores)] == tuple(cores):
                    return np.arange(lo, lo + len(cores), dtype=np.intp)
            return np.fromiter((index[c] for c in cores), dtype=np.intp, count=len(cores))
        except KeyError as exc:
            raise ValueError(f"core {exc.args[0]} does not exist on {self.name}") from None

    @property
    def core_nodes(self) -> np.ndarray:
        """Node id of every core, by dense index (read-only)."""
        return self._nodes

    @property
    def core_procs(self) -> np.ndarray:
        """Processor id (within its node) of every core, by dense index
        (read-only)."""
        return self._procs

    def __str__(self) -> str:
        shape = self.node_shapes[0]
        homo = all(s == shape for s in self.node_shapes)
        desc = (
            f"{self.num_nodes} x {len(shape)} procs x {shape[0]} cores"
            if homo and len(set(shape)) == 1
            else f"{self.num_nodes} nodes (heterogeneous)"
        )
        return f"Machine({self.name}: {desc}, {self.total_cores} cores)"
