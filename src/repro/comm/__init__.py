"""Communication cost models: collectives, contention, patterns,
re-distribution.

Every mapped price is an array computation: a collective's rounds are
``(sender, receiver)`` rank arrays and a re-distribution's messages core
index arrays, both priced by :func:`~repro.comm.contention.edge_costs`
under a NIC load, the ``(out_count, in_count)`` pair of per-node arrays
:func:`~repro.comm.contention.node_counts` returns.
:func:`collective_time` prices one group or several concurrent groups.
"""

from .collectives import collective_time, collective_time_symbolic
from .patterns import orthogonal_sets, orthogonal_time
from .redistribution import redistribution_messages, redistribution_time

__all__ = [
    "collective_time",
    "collective_time_symbolic",
    "orthogonal_sets",
    "orthogonal_time",
    "redistribution_messages",
    "redistribution_time",
]
