"""Hybrid MPI+OpenMP execution model (Section 4.7).

In a hybrid execution scheme the lower level parallelism within an
M-task uses ``h`` OpenMP threads per MPI process: one process per ``h``
consecutive cores.  Consequences captured by
:class:`HybridCostModel`:

* **Collectives shrink**: an operation that a pure MPI run executes over
  ``q`` ranks now runs over ``q / h`` process leaders (the total payload
  is unchanged).  Fewer ring/tree rounds and no intra-node software
  stack -- the big win for the data parallel IRK version in Fig. 18.
* **Thread synchronisation costs**: every collective occurrence (and
  every additional synchronisation point a task declares) pays a
  fork/join barrier of the thread team, ``tau_omp * log2(h)``.  Programs
  with very frequent small collectives -- the data parallel DIIRK version
  and its per-pivot broadcasts -- lose more to this than they save,
  reproducing the slowdown in Fig. 18 (right).
* **Thread placement**: threads must share a node on clusters; the
  distributed-shared-memory Altix allows teams spanning nodes
  (Section 4.7, Fig. 19) at a NUMA penalty per remote member.

With ``h = 1`` the model reduces exactly to the pure-MPI
:class:`~repro.core.costmodel.CostModel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2
from typing import List, Optional, Sequence

from ..cluster.architecture import CoreId
from ..comm.contention import NicLoad
from ..comm.patterns import CommPlan
from ..core.costmodel import CostModel
from ..core.task import MTask

__all__ = ["HybridCostModel", "process_leaders"]


def process_leaders(cores: Sequence[CoreId], h: int) -> List[CoreId]:
    """One leader core per team of ``h`` consecutive cores.

    An incomplete trailing team still gets a leader (it simply runs with
    fewer threads).
    """
    if h < 1:
        raise ValueError("threads per process must be >= 1")
    return [cores[i] for i in range(0, len(cores), h)]


def _team_spans_nodes(cores: Sequence[CoreId], h: int) -> bool:
    for i in range(0, len(cores), h):
        team = cores[i : i + h]
        if len({c.node for c in team}) > 1:
            return True
    return False


@dataclass(frozen=True)
class HybridCostModel(CostModel):
    """Cost model of a hybrid MPI+OpenMP execution scheme.

    Parameters
    ----------
    threads_per_process:
        OpenMP team size ``h``.  Teams are formed from consecutive cores
        of the mapping sequence, which is why the paper combines hybrid
        execution with the consecutive mapping.
    tau_omp:
        Cost of one thread-team barrier / fork-join (seconds).
    tau_mpi:
        Per-rank-doubling cost of the extra leader synchronisation a
        funneled hybrid execution needs around every MPI call (the master
        thread issues MPI while the team waits; entering and leaving that
        region costs a two-level barrier whose MPI part grows with the
        leader count).
    numa_penalty:
        Multiplier on ``tau_omp`` when a team spans nodes (only possible
        on DSM machines such as the SGI Altix).
    """

    threads_per_process: int = 1
    tau_omp: float = 2.0e-6
    tau_mpi: float = 1.0e-6
    numa_penalty: float = 4.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.threads_per_process < 1:
            raise ValueError("threads_per_process must be >= 1")
        if self.tau_omp < 0 or self.tau_mpi < 0 or self.numa_penalty < 1:
            raise ValueError("invalid hybrid parameters")

    # ------------------------------------------------------------------
    def _check_team_placement(self, cores: Sequence[CoreId]) -> bool:
        spans = _team_spans_nodes(cores, self.threads_per_process)
        if spans and not self.platform.machine.shared_memory_across_nodes:
            raise ValueError(
                "thread teams span node boundaries but "
                f"{self.platform.name} is not a shared-memory machine; "
                "use a consecutive mapping or fewer threads"
            )
        return spans

    def sync_cost(self, spans_nodes: bool = False) -> float:
        """Cost of one team barrier."""
        h = self.threads_per_process
        if h == 1:
            return 0.0
        penalty = self.numa_penalty if spans_nodes else 1.0
        return self.tau_omp * log2(h) * penalty

    # ------------------------------------------------------------------
    def tcomm_mapped(
        self,
        task: MTask,
        cores: Sequence[CoreId],
        load: Optional[NicLoad] = None,
        peer_groups: Optional[Sequence[Sequence[CoreId]]] = None,
        all_cores: Optional[Sequence[CoreId]] = None,
        task_parallel_program: Optional[bool] = None,
        plan: Optional[CommPlan] = None,
    ) -> float:
        """Mapped communication cost plus thread-synchronisation term.

        With ``h > 1`` the collectives run over process leaders, core
        tuples of their own, so ``plan`` serves only the pure-MPI case."""
        h = self.threads_per_process
        if h == 1:
            return super().tcomm_mapped(
                task, cores, load, peer_groups, all_cores, task_parallel_program, plan
            )
        spans = self._check_team_placement(cores)
        machine = self.platform.machine
        if all_cores is None:
            all_cores = machine.cores()
        leaders = process_leaders(cores, h)
        leader_peers = (
            [process_leaders(g, h) for g in peer_groups] if peer_groups else None
        )
        all_leaders = process_leaders(list(all_cores), h)
        barrier = self.sync_cost(spans) + self.tau_mpi * log2(
            max(2.0, float(len(leaders)))
        )

        base = CostModel(self.platform, self.compute_efficiency)
        comm = base.tcomm_mapped(
            task,
            leaders,
            load,
            leader_peers,
            all_leaders,
            task_parallel_program,
        )
        # every collective occurrence and every declared synchronisation
        # point synchronises the thread team
        occurrences = sum(c.count for c in task.comm) + task.sync_points
        return comm + occurrences * barrier
