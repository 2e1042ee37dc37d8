"""Cost of data re-distribution between cooperating M-tasks.

When an input-output relation connects task ``M1`` (executed on physical
cores ``src_cores`` with distribution ``d1``) to ``M2`` (``dst_cores``,
``d2``), the elements each target rank needs from each source rank follow
from the logical transfer matrix (:func:`repro.distribution.transfer_counts`).
Whether a logical transfer costs anything depends on the *mapping*: a
message between ranks backed by the same physical core is free, one inside
a node is cheap, one across nodes pays the network and shares the NIC.

The paper's ``TRe(M1, M2, q1, q2, mp1, mp2)`` (Section 3.1) is realised by
:func:`redistribution_time`.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from ..cluster.architecture import CoreId, Machine
from ..cluster.network import HierarchicalNetwork
from ..distribution import Distribution1D, transfer_counts
from .contention import edge_costs

__all__ = ["redistribution_messages", "redistribution_time"]


def _physical_messages(
    src_ids: np.ndarray,
    dst_ids: np.ndarray,
    src_dist: Distribution1D,
    dst_dist: Distribution1D,
    itemsize: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sender id, receiver id and bytes of every physical message.

    ``src_ids[i]`` / ``dst_ids[j]`` identify the physical core behind
    source rank ``i`` / target rank ``j`` (any non-negative integer
    labelling).  Messages come in row-major order of the transfer matrix;
    transfers between the same two cores (several ranks on one core)
    merge into the first of them, and transfers within one core are
    dropped -- the data never leaves the core.
    """
    if len(src_ids) != src_dist.nprocs:
        raise ValueError(
            f"source has {len(src_ids)} cores but distribution expects {src_dist.nprocs}"
        )
    if len(dst_ids) != dst_dist.nprocs:
        raise ValueError(
            f"target has {len(dst_ids)} cores but distribution expects {dst_dist.nprocs}"
        )
    counts = transfer_counts(src_dist, dst_dist)
    i, j = np.nonzero(counts)
    u, v, nbytes = src_ids[i], dst_ids[j], counts[i, j] * itemsize
    off_core = u != v
    u, v, nbytes = u[off_core], v[off_core], nbytes[off_core]
    # two cells can only name the same core pair when ranks share a core
    if len(np.unique(src_ids)) < len(src_ids) or len(np.unique(dst_ids)) < len(dst_ids):
        pair = u * (int(dst_ids.max()) + 1) + v
        _, first, group = np.unique(pair, return_index=True, return_inverse=True)
        keep = np.sort(first)
        slot = np.searchsorted(keep, first[group])
        # float64 weights hold integer byte sums exactly below 2**53
        nbytes = np.bincount(slot, weights=nbytes, minlength=len(keep)).astype(np.int64)
        u, v = u[keep], v[keep]
    return u, v, nbytes


def redistribution_messages(
    src_cores: Sequence[CoreId],
    dst_cores: Sequence[CoreId],
    src_dist: Distribution1D,
    dst_dist: Distribution1D,
    itemsize: int = 8,
) -> Dict[Tuple[CoreId, CoreId], int]:
    """Physical messages (in bytes) required by a re-distribution.

    Logical transfers between ranks that share a physical core are
    dropped -- the data never leaves the core.
    """
    cores = list(dict.fromkeys([*src_cores, *dst_cores]))
    label = {c: k for k, c in enumerate(cores)}
    u, v, nbytes = _physical_messages(
        np.array([label[c] for c in src_cores], dtype=np.intp),
        np.array([label[c] for c in dst_cores], dtype=np.intp),
        src_dist,
        dst_dist,
        itemsize,
    )
    return {
        (cores[a], cores[b]): n for a, b, n in zip(u.tolist(), v.tolist(), nbytes.tolist())
    }


def redistribution_time(
    machine: Machine,
    network: HierarchicalNetwork,
    src_cores: Sequence[CoreId],
    dst_cores: Sequence[CoreId],
    src_dist: Distribution1D,
    dst_dist: Distribution1D,
    itemsize: int = 8,
) -> float:
    """Time of the re-distribution phase.

    Every core serialises its own sends and its own receives (an MPI rank
    posts them one after another); different cores proceed concurrently,
    so the phase lasts as long as the busiest core.  Inter-node transfers
    additionally share each node's NIC with the other transfers of the
    phase.
    """
    u, v, nbytes = _physical_messages(
        machine.core_index(src_cores),
        machine.core_index(dst_cores),
        src_dist,
        dst_dist,
        itemsize,
    )
    if not len(u):
        return 0.0

    # Concurrency on a NIC comes from *different cores* of the node
    # sending/receiving at once; the fan-out of a single core is
    # serialised by that core and must not be double-counted.
    nodes = machine.core_nodes
    inter = nodes[u] != nodes[v]

    def busy_cores_per_node(ends: np.ndarray) -> np.ndarray:
        active = np.zeros(machine.total_cores, dtype=bool)
        active[ends[inter]] = True
        return np.maximum(np.bincount(nodes[active], minlength=machine.num_nodes), 1)

    out_count, in_count = busy_cores_per_node(u), busy_cores_per_node(v)

    t = edge_costs(machine, network, u, v, nbytes, out_count, in_count)
    # bincount adds in message order, the order a core posts its transfers
    send_busy = np.bincount(u, weights=t)
    recv_busy = np.bincount(v, weights=t)
    return float(max(send_busy.max(), recv_busy.max()))
