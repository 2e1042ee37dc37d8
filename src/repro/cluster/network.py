"""Link-level performance parameters of a hierarchical interconnect.

The architecture tree (:mod:`repro.cluster.architecture`) is deliberately
not annotated with performance numbers; instead, every communication level
(intra-processor, intra-node, inter-node) carries a latency/bandwidth pair
here, and the cost models of :mod:`repro.comm` combine them with the
communication pattern and the mapping.

A point-to-point message of ``size`` bytes between cores at communication
level ``l`` costs::

    t = alpha(l) + size * beta(l)

which is the classic Hockney model.  Inter-node transfers additionally pass
through a per-node network interface with finite injection bandwidth
(``nic_bandwidth``); when several concurrent messages of the same
communication phase cross the same NIC they share it, which is how the
mapping strategies of the paper acquire their different costs (Section 4.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["LinkLevel", "HierarchicalNetwork"]


@dataclass(frozen=True)
class LinkLevel:
    """Performance of one level of the interconnect hierarchy.

    Parameters
    ----------
    name:
        Descriptive name, e.g. ``"QDR InfiniBand"``.
    latency:
        Startup time of a message in seconds (the Hockney :math:`\\alpha`).
    bandwidth:
        Sustained point-to-point bandwidth in bytes/second.
    """

    name: str
    latency: float
    bandwidth: float

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ValueError("latency must be non-negative")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")

    @property
    def beta(self) -> float:
        """Per-byte transfer time in s/B."""
        return 1.0 / self.bandwidth


@dataclass(frozen=True)
class HierarchicalNetwork:
    """Three-level interconnect: intra-processor, intra-node, inter-node.

    ``levels[i]`` is used for messages at communication level ``i`` as
    returned by :func:`repro.comm.contention.link_levels`.

    ``nic_bandwidth`` bounds the aggregate traffic a single node can inject
    into / absorb from the inter-node network at once (bytes/s).  If zero
    or negative it defaults to the inter-node link bandwidth.
    """

    levels: Tuple[LinkLevel, LinkLevel, LinkLevel]
    nic_bandwidth: float = 0.0

    def __post_init__(self) -> None:
        if len(self.levels) != 3:
            raise ValueError("exactly three link levels are required")
        if self.nic_bandwidth <= 0:
            object.__setattr__(self, "nic_bandwidth", self.levels[2].bandwidth)

    def level(self, lvl: int) -> LinkLevel:
        """Link parameters of communication level ``lvl``."""
        if not 0 <= lvl < len(self.levels):
            raise ValueError(f"invalid communication level {lvl}")
        return self.levels[lvl]

    def alpha(self, lvl: int) -> float:
        """Latency of communication level ``lvl`` (seconds)."""
        return self.level(lvl).latency

    def beta(self, lvl: int) -> float:
        """Per-byte time of communication level ``lvl`` (s/B)."""
        return self.level(lvl).beta

    @property
    def slowest_level(self) -> int:
        """The level with minimum bandwidth; used for the default mapping
        pattern ``dmp`` of Section 3.2 (symbolic-core cost upper bound)."""
        betas = [lv.beta for lv in self.levels]
        return max(range(len(betas)), key=betas.__getitem__)

    def describe(self) -> str:
        """Render the level table as text."""
        rows = []
        for i, lv in enumerate(self.levels):
            rows.append(
                f"  level {i}: {lv.name:<24s} alpha={lv.latency * 1e6:8.2f} us  "
                f"bw={lv.bandwidth / 1e9:7.2f} GB/s"
            )
        rows.append(f"  NIC injection bandwidth: {self.nic_bandwidth / 1e9:.2f} GB/s")
        return "\n".join(rows)
