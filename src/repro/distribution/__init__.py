"""Block-cyclic / replicated data distributions and their transfer
matrices."""

from .distribution import (
    BlockCyclic,
    Distribution1D,
    Replicated,
    block,
    cyclic,
    transfer_counts,
)

__all__ = [
    "Distribution1D",
    "BlockCyclic",
    "block",
    "cyclic",
    "Replicated",
    "transfer_counts",
]
