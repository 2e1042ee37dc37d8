"""Architecture-aware mapping of symbolic cores to physical cores."""

from .mapper import map_layer, place_layered, place_result, place_timeline
from .strategies import (
    MappingStrategy,
    consecutive,
    mixed,
    scattered,
    strategy_by_name,
)

__all__ = [
    "MappingStrategy",
    "consecutive",
    "scattered",
    "mixed",
    "strategy_by_name",
    "map_layer",
    "place_layered",
    "place_timeline",
    "place_result",
]
