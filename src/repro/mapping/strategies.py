"""Mapping strategies: orderings of the physical cores (Section 3.4).

The mapping step assigns the symbolic cores of a layer's groups to
physical cores through a *sequence* of physical cores; symbolic core ``i``
(in group order) goes to the ``i``-th sequence element.  The strategies
differ only in how the sequence is built:

* **consecutive** -- node-major order; cores of the same node are adjacent,
  so groups occupy as few nodes as possible (Fig. 9),
* **scattered** -- position-major order; corresponding cores of different
  nodes are adjacent, so groups spread over all nodes (Fig. 10),
* **mixed(d)** -- runs of ``d`` consecutive cores per node, dealt to the
  nodes round-robin (Fig. 11).  ``d = 1`` degenerates to scattered and
  ``d = cores-per-node`` to consecutive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

from ..cluster.architecture import CoreId, Machine

__all__ = [
    "MappingStrategy",
    "consecutive",
    "scattered",
    "mixed",
    "strategy_by_name",
]


@dataclass(frozen=True)
class MappingStrategy:
    """A named physical-core ordering."""

    name: str
    _sequence: Callable[[Machine], Tuple[CoreId, ...]]

    def sequence(self, machine: Machine) -> Tuple[CoreId, ...]:
        """The full physical core sequence ``pc_1 .. pc_P``."""
        seq = self._sequence(machine)
        if len(seq) != machine.total_cores or len(set(seq)) != len(seq):
            raise AssertionError(
                f"strategy {self.name!r} produced an invalid sequence"
            )
        return seq

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


def _consecutive_seq(machine: Machine) -> Tuple[CoreId, ...]:
    return machine.cores()


def _mixed_seq(machine: Machine, d: int) -> Tuple[CoreId, ...]:
    # per-node queues of core blocks of size d, dealt round-robin
    blocks: List[List[CoreId]] = []
    per_node: List[List[List[CoreId]]] = []
    for n in range(machine.num_nodes):
        cores = list(machine.cores_of_node(n))
        node_blocks = [cores[i : i + d] for i in range(0, len(cores), d)]
        per_node.append(node_blocks)
    rounds = max(len(nb) for nb in per_node)
    for r in range(rounds):
        for nb in per_node:
            if r < len(nb):
                blocks.append(nb[r])
    return tuple(c for b in blocks for c in b)


def consecutive() -> MappingStrategy:
    """Consecutive mapping: minimise the nodes per group."""
    return MappingStrategy("consecutive", _consecutive_seq)


def scattered() -> MappingStrategy:
    """Scattered mapping: spread each group over all nodes."""
    return MappingStrategy("scattered", lambda m: _mixed_seq(m, 1))


def mixed(d: int) -> MappingStrategy:
    """Mixed mapping with ``d`` consecutive cores of a node per run."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return MappingStrategy(f"mixed(d={d})", lambda m: _mixed_seq(m, d))


def strategy_by_name(name: str) -> MappingStrategy:
    """Parse ``"consecutive"``, ``"scattered"`` or ``"mixed:<d>"``."""
    low = name.lower()
    if low == "consecutive":
        return consecutive()
    if low == "scattered":
        return scattered()
    if low.startswith("mixed:"):
        return mixed(int(low.split(":", 1)[1]))
    raise ValueError(f"unknown mapping strategy {name!r}")

