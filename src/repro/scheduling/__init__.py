"""M-task scheduling algorithms: the layer-based algorithm of the paper
plus the CPA/CPR and data-parallel comparison baselines and the
shoot-out competitors (AMTHA task-to-core mapping, dual-approximation
moldable scheduling)."""

from typing import Callable, Dict

from .allocation import (
    adjust_group_sizes,
    equal_partition,
)
from .amtha import AMTHAScheduler
from .base import Scheduler, SchedulingResult
from .baselines import (
    data_parallel_scheduler,
    fixed_group_scheduler,
)
from .chains import contract_chains, find_linear_chains
from .cpa import CPAScheduler
from .cpr import CPRScheduler
from .dynamic import DynamicScheduler, DynamicTask, SpawnContext
from .layered import LayerBasedScheduler
from .moldable import MoldableLayerScheduler
from .layers import build_layers, layer_index
from .listsched import bottom_levels, list_schedule

#: the one place a scheduler name becomes a scheduler: name ->
#: ``factory(cost, **kw)``.  ``tp`` takes the group count ``g``; the
#: CPA family takes ``granularity``.  Each front door (the service's
#: ``options.scheduler``, the shoot-out zoo, Fig. 13's legend, the
#: paper's ``tp``/``dp`` versions) accepts its own subset of these keys.
SCHEDULERS: Dict[str, Callable[..., Scheduler]] = {
    "gsearch": LayerBasedScheduler,
    "tp": fixed_group_scheduler,
    "dp": data_parallel_scheduler,
    "amtha": AMTHAScheduler,
    "moldable": MoldableLayerScheduler,
    "cpa": CPAScheduler,
    "cpr": CPRScheduler,
}

__all__ = [
    "SCHEDULERS",
    "Scheduler",
    "SchedulingResult",
    "LayerBasedScheduler",
    "AMTHAScheduler",
    "MoldableLayerScheduler",
    "CPAScheduler",
    "CPRScheduler",
    "DynamicScheduler",
    "DynamicTask",
    "SpawnContext",
    "data_parallel_scheduler",
    "fixed_group_scheduler",
    "find_linear_chains",
    "contract_chains",
    "build_layers",
    "layer_index",
    "equal_partition",
    "adjust_group_sizes",
    "bottom_levels",
    "list_schedule",
]
