"""The M-task cost model of Section 3.1.

The execution time of task ``M`` on ``q`` cores with mapping pattern
``mp`` is

    ``T(M, q, mp) = Tcomp(M) / q + Tcomm(M, q, mp)``

with a linear-speedup computational part and a mapping-dependent internal
communication part.  Before mapping, the scheduler uses the symbolic cost
``Tsymb(M, q) = T(M, q, dmp)`` where the default mapping pattern ``dmp``
charges all communication at the slowest network level (an upper bound on
any actual placement).  After mapping, the same tasks are costed on their
physical core tuples, including NIC contention with concurrently
executing tasks.

Re-distribution costs ``TRe`` between cooperating tasks are provided by
:meth:`CostModel.redistribution_time` from the data flows of the graph
edge and the two placements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..cluster.architecture import CoreId
from ..cluster.platforms import Platform
from ..comm.collectives import collective_time, collective_time_symbolic
from ..comm.contention import NicLoad
from ..comm.patterns import orthogonal_time
from ..comm.redistribution import redistribution_time as _redist_time
from .costbatch import (
    TaskTable,
    stacked_cost_tables,
    symbolic_cost_pairs,
    symbolic_cost_table,
)
from .graph import DataFlow
from .task import MTask

__all__ = ["CostModel", "CachedCostEvaluator", "CacheStats"]


@dataclass(frozen=True)
class CostModel:
    """Cost model bound to one platform.

    Parameters
    ----------
    platform:
        Machine + network the program runs on.
    compute_efficiency:
        Fraction of peak flops a core sustains on the application kernels
        (real codes do not hit peak; the paper's model absorbs this into
        ``Tcomp``).  Applied uniformly, so it rescales all results without
        changing any comparison.
    node_speed:
        Optional per-node relative compute speed (``{node_id: factor}``,
        default 1.0).  Factors below one model stragglers / heterogeneous
        nodes: an SPMD task runs at the pace of its *slowest* member, so
        any group touching a slow node is slowed as a whole.  Only the
        mapped costs see this -- symbolic scheduling assumes homogeneous
        cores, as the paper's model does.
    """

    platform: Platform
    compute_efficiency: float = 0.25
    node_speed: Optional[Mapping[int, float]] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not 0 < self.compute_efficiency <= 1:
            raise ValueError("compute_efficiency must be in (0, 1]")
        if self.node_speed is not None:
            for node, f in self.node_speed.items():
                if f <= 0:
                    raise ValueError(f"node {node}: speed factor must be positive")

    # ------------------------------------------------------------------
    # Computation
    # ------------------------------------------------------------------
    @property
    def core_rate(self) -> float:
        """Sustained flop rate of one core."""
        return self.platform.machine.core_flops * self.compute_efficiency

    def sequential_time(self, task: MTask) -> float:
        """``Tcomp(M)``: the task's sequential execution time."""
        return task.work / self.core_rate

    def tcomp(self, task: MTask, q: int) -> float:
        """Computation part on ``q`` cores (linear speedup assumption)."""
        if q <= 0:
            raise ValueError("q must be positive")
        return self.sequential_time(task) / q

    def compute_speed(self, cores: Sequence[CoreId]) -> float:
        """Relative speed of an SPMD group: its slowest member's node."""
        if not self.node_speed:
            return 1.0
        return min(self.node_speed.get(c.node, 1.0) for c in cores)

    def tcomp_mapped(self, task: MTask, cores: Sequence[CoreId]) -> float:
        """Computation part on a concrete placement, honouring per-node
        speed factors (the group paces itself by its slowest member)."""
        return self.tcomp(task, len(cores)) / self.compute_speed(cores)

    # ------------------------------------------------------------------
    # Symbolic costs (scheduling phase, Section 3.2)
    # ------------------------------------------------------------------
    def tcomm_symbolic(self, task: MTask, q: int) -> float:
        """Internal communication under the default mapping pattern.

        Scope handling before a mapping exists: group operations run on
        the ``q`` symbolic cores of the task; global operations on all
        ``P`` cores; orthogonal operations on one core per concurrent
        group, estimated as ``P // q`` participants.  Operations marked
        ``task_parallel_only`` vanish when ``q == P``.
        """
        network = self.platform.network
        P = self.platform.total_cores
        total = 0.0
        for c in task.comm:
            nbytes = c.total_bytes
            if c.scope == "group":
                width = q
            elif c.scope == "global":
                if c.task_parallel_only and q >= P:
                    continue
                width = P
            else:  # orthogonal: one set per rank position, g slices each
                width = max(1, P // max(1, q))
                nbytes = c.total_bytes * width / max(1, q)
            if width <= 1:
                continue
            total += c.count * collective_time_symbolic(c.op, network, width, nbytes)
        return total

    def tsymb(self, task: MTask, q: int) -> float:
        """``Tsymb(M, q) = T(M, q, dmp)`` -- the scheduler's cost."""
        return self.tcomp(task, q) + self.tcomm_symbolic(task, q)

    def tsymb_table(self, tasks: Sequence[MTask], widths: Sequence[int]):
        """Vectorized ``Tsymb`` grid over ``tasks`` x candidate ``widths``.

        ``table[i, j]`` equals ``tsymb(tasks[i], w)`` for
        ``w = tasks[i].clamp_procs(max(widths[j], tasks[i].min_procs))``
        -- the exact probe the layer scheduler's ``g``-search issues --
        computed in one numpy evaluation (see :mod:`repro.core.costbatch`).
        Results are bitwise identical to the scalar :meth:`tsymb`.
        ``tasks`` may be a :class:`~repro.core.costbatch.TaskTable` row
        view; a plain task list is tabulated for the call.
        """
        return symbolic_cost_table(self, tasks, widths)

    def tsymb_tables(self, requests: Sequence[Tuple[Sequence[MTask], Sequence[int]]]):
        """:meth:`tsymb_table` of every ``(tasks, widths)`` request, all
        priced by one call (:func:`repro.core.costbatch.stacked_cost_tables`)."""
        return stacked_cost_tables(self.tsymb_table, requests)

    def sequential_times(self, tasks: TaskTable) -> List[float]:
        """``[sequential_time(t) for t in tasks]`` of a
        :class:`~repro.core.costbatch.TaskTable` row view, from its work
        column."""
        return (tasks.work / self.core_rate).tolist()

    def tsymb_pairs(self, tasks: Sequence[MTask], widths: Sequence[int]):
        """``[tsymb(t, q) for t, q in zip(tasks, widths)]`` as one numpy
        evaluation (:func:`repro.core.costbatch.symbolic_cost_pairs`),
        bitwise identical to the scalar calls; ``tasks`` may be a
        :class:`~repro.core.costbatch.TaskTable` row view."""
        return symbolic_cost_pairs(self, tasks, widths)

    # ------------------------------------------------------------------
    # Mapped costs (after the mapping step, Section 3.4)
    # ------------------------------------------------------------------
    def tcomm_mapped(
        self,
        task: MTask,
        cores: Sequence[CoreId],
        load: Optional[NicLoad] = None,
        peer_groups: Optional[Sequence[Sequence[CoreId]]] = None,
        all_cores: Optional[Sequence[CoreId]] = None,
        task_parallel_program: Optional[bool] = None,
    ) -> float:
        """Internal communication on a physical core tuple.

        ``load`` is the :data:`~repro.comm.contention.NicLoad` the
        group- and global-scope collectives share the NICs under;
        ``None`` prices the task alone.
        ``peer_groups`` lists the core tuples of *all* concurrently
        executing groups (including this task's own); orthogonal-scope
        operations communicate across the groups' equal rank positions.
        ``all_cores`` defaults to every core of the machine.
        ``task_parallel_program`` states whether the surrounding program
        version is task parallel (splits cores into groups anywhere);
        operations marked ``task_parallel_only`` are skipped otherwise.
        When ``None``, a task spanning all cores is assumed to live in a
        data-parallel program.
        """
        machine = self.platform.machine
        network = self.platform.network
        if all_cores is None:
            all_cores = machine.cores()
        total = 0.0
        for c in task.comm:
            if c.scope == "group":
                if len(cores) <= 1:
                    continue
                t = collective_time(c.op, machine, network, [cores], c.total_bytes, load)
            elif c.scope == "global":
                is_tp = (
                    task_parallel_program
                    if task_parallel_program is not None
                    else set(cores) != set(all_cores)
                )
                if c.task_parallel_only and not is_tp:
                    continue
                t = collective_time(
                    c.op, machine, network, [all_cores], c.total_bytes, load
                )
            else:  # orthogonal
                groups = self._orthogonal_groups(cores, peer_groups)
                if groups is None:
                    continue
                # every rank holds a 1/q slice of its group's data; the
                # orthogonal set at one position exchanges the g slices of
                # that position, i.e. g * E / q elements in total
                per_set = c.total_bytes * len(groups) / max(1, len(cores))
                t = orthogonal_time(c.op, machine, network, groups, per_set)
            total += c.count * t
        return total

    @staticmethod
    def _orthogonal_groups(
        cores: Sequence[CoreId],
        peer_groups: Optional[Sequence[Sequence[CoreId]]],
    ) -> Optional[Sequence[Sequence[CoreId]]]:
        """Concurrent groups for orthogonal communication.

        Groups of different sizes (the group-adjustment case) are
        truncated to the common minimum width: position ``j`` of every
        group participates in set ``j``; the surplus ranks of wider
        groups receive their share through group-internal communication.
        Returns ``None`` when there is effectively a single group (the
        data-parallel case): the orthogonal sets then contain one core
        each and the operation is free.
        """
        if not peer_groups:
            return None
        seen = set()
        groups = []
        for g in list(peer_groups) + [cores]:
            tg = tuple(g)
            if tg and tg not in seen:
                seen.add(tg)
                groups.append(tg)
        if len(groups) <= 1:
            return None
        width = min(len(g) for g in groups)
        return [g[:width] for g in groups]

    # ------------------------------------------------------------------
    # Re-distribution between tasks
    # ------------------------------------------------------------------
    def redistribution_time(
        self,
        flows: Sequence[DataFlow],
        src_cores: Sequence[CoreId],
        dst_cores: Sequence[CoreId],
    ) -> float:
        """``TRe(M1, M2)`` for all data flows of one graph edge.

        Flows are re-distributed one after another (MPI programs issue
        them sequentially per variable).
        """
        machine = self.platform.machine
        network = self.platform.network
        total = 0.0
        for f in flows:
            src_dist = f.src_dist.instantiate(f.elements, len(src_cores))
            dst_dist = f.dst_dist.instantiate(f.elements, len(dst_cores))
            total += _redist_time(
                machine, network, src_cores, dst_cores, src_dist, dst_dist, f.itemsize
            )
        return total

    def redistribution_time_symbolic(
        self, flows: Sequence[DataFlow], q_src: int, q_dst: int
    ) -> float:
        """Upper-bound re-distribution cost before mapping: all payload
        bytes cross the slowest level once, split over the receivers."""
        network = self.platform.network
        lvl = network.slowest_level
        alpha, beta = network.alpha(lvl), network.beta(lvl)
        total = 0.0
        for f in flows:
            if f.src_dist.kind == "replic" and f.dst_dist.kind == "replic":
                continue
            per_receiver = f.nbytes / max(1, q_dst)
            # every receiver gets its part, senders work concurrently
            total += alpha + per_receiver * beta * max(1.0, q_dst / max(1, q_src))
        return total


# ----------------------------------------------------------------------
# Memoized evaluation
# ----------------------------------------------------------------------
def _picked(items: Sequence, positions: Sequence[int]) -> Sequence:
    """The items at ``positions``: all of them as they are for the
    ``range`` of every position, a row view of a
    :class:`~repro.core.costbatch.TaskTable`, a list otherwise."""
    if isinstance(positions, range):
        return items
    if isinstance(items, TaskTable):
        return items.take(positions)
    return [items[p] for p in positions]


@dataclass
class CacheStats:
    """Hit/miss accounting of a :class:`CachedCostEvaluator`.

    ``hits``/``misses`` are per cached method; a *miss* is one real
    cost-model evaluation, a *hit* is one evaluation the cache saved.
    """

    hits: Dict[str, int] = field(default_factory=dict)
    misses: Dict[str, int] = field(default_factory=dict)
    #: evaluations performed through the *batched* (vectorized) path,
    #: per method; these bypass the per-call cache entirely
    batched: Dict[str, int] = field(default_factory=dict)

    def _bump(self, table: Dict[str, int], key: str, n: int = 1) -> None:
        table[key] = table.get(key, 0) + n

    @property
    def total_hits(self) -> int:
        return sum(self.hits.values())

    @property
    def total_misses(self) -> int:
        return sum(self.misses.values())

    @property
    def total_batched(self) -> int:
        """Evaluations answered by vectorized batch calls."""
        return sum(self.batched.values())

    @property
    def requests(self) -> int:
        return self.total_hits + self.total_misses

    @property
    def hit_rate(self) -> float:
        n = self.requests
        return self.total_hits / n if n else 0.0

    @property
    def evaluation_reduction(self) -> float:
        """Factor by which real evaluations shrank (requests / misses)."""
        m = self.total_misses
        return self.requests / m if m else float("inf") if self.total_hits else 1.0


class CachedCostEvaluator:
    """Memoizing proxy around a :class:`CostModel`.

    The layer-based ``g``-search and the CPA/CPR allocation loops probe
    ``Tsymb(M, q)`` for the same ``(task, q)`` pairs over and over; the
    simulator re-costs the same re-distribution edges on every contention
    pass.  This wrapper caches those pure evaluations keyed on the task
    identity, the core count / core tuple and (for re-distributions) the
    flow tuple, and counts hits and misses per method.

    Cached results are the stored return values of the wrapped model, so
    they are bitwise-identical to uncached evaluation.  Everything not
    cached (``tcomp_mapped``, ``tcomm_mapped`` with their contention
    contexts, properties such as ``platform``) delegates transparently,
    which makes the evaluator a drop-in ``CostModel`` for every scheduler
    and the simulator.
    """

    #: methods whose results are memoized
    CACHED = (
        "sequential_time",
        "tsymb",
        "tcomm_symbolic",
        "redistribution_time_symbolic",
        "redistribution_time",
    )

    def __init__(self, model: CostModel) -> None:
        if isinstance(model, CachedCostEvaluator):
            model = model.model
        self.model = model
        self.stats = CacheStats()
        self._cache: Dict[tuple, float] = {}

    # ------------------------------------------------------------------
    def _memo(self, key: tuple, compute) -> float:
        try:
            value = self._cache[key]
        except KeyError:
            self.stats._bump(self.stats.misses, key[0])
            value = self._cache[key] = compute()
        else:
            self.stats._bump(self.stats.hits, key[0])
        return value

    def sequential_time(self, task: MTask) -> float:
        """Memoized ``CostModel.sequential_time``."""
        return self._memo(
            ("sequential_time", task), lambda: self.model.sequential_time(task)
        )

    #: ``CostModel.tcomp`` itself, so its ``Tcomp(M)`` is the memoized one
    tcomp = CostModel.tcomp

    def tsymb(self, task: MTask, q: int) -> float:
        """Memoized symbolic total cost Tsymb(M, q)."""
        return self._memo(("tsymb", task, q), lambda: self.model.tsymb(task, q))

    def tsymb_table(self, tasks: Sequence[MTask], widths: Sequence[int]):
        """Vectorized ``Tsymb`` grid (see :meth:`CostModel.tsymb_table`).

        Batch evaluation sidesteps the per-call cache on purpose -- one
        numpy call is cheaper than ``len(tasks) * len(widths)`` dict
        probes -- and is accounted separately in ``stats.batched`` so the
        observability layer can report how much work the batch path
        absorbed.
        """
        table = self.model.tsymb_table(tasks, widths)
        self.stats._bump(self.stats.batched, "tsymb", int(table.size))
        return table

    def tsymb_tables(self, requests: Sequence[Tuple[Sequence[MTask], Sequence[int]]]):
        """:meth:`CostModel.tsymb_tables` through the wrapped model's one
        ``tsymb_table`` call; each request counts its own ``tasks x
        widths`` cells in ``stats.batched``, as its own
        :meth:`tsymb_table` call would."""
        tables = stacked_cost_tables(self.model.tsymb_table, requests)
        for table in tables:
            self.stats._bump(self.stats.batched, "tsymb", int(table.size))
        return tables

    def _memo_batch(self, keys: List[tuple], compute) -> List[float]:
        """What one :meth:`_memo` call per key returns, with the misses
        priced by one ``compute(positions)`` call: the position in
        ``keys`` of each missing key, in first-seen order.  It leaves the
        cache entries and hit/miss counts those scalar calls would leave
        (a key repeated in the request misses once and hits afterwards),
        so run records and cache counters do not depend on whether values
        were requested one by one or at once."""
        cache = self._cache
        missing = dict.fromkeys(k for k in keys if k not in cache)
        if missing:
            if len(missing) == len(keys):  # a cold request: every key, in order
                positions = range(len(keys))
            else:  # a repeated key has one value, so any of its positions does
                at = dict(zip(keys, range(len(keys))))
                positions = [at[k] for k in missing]
            cache.update(zip(missing, compute(positions)))
            self.stats._bump(self.stats.misses, keys[0][0], len(missing))
        if len(keys) > len(missing):
            self.stats._bump(self.stats.hits, keys[0][0], len(keys) - len(missing))
        return [cache[k] for k in keys]

    def sequential_times(self, tasks: TaskTable) -> List[float]:
        """``[self.sequential_time(t) for t in tasks]`` of a
        :class:`~repro.core.costbatch.TaskTable` row view in one pass over
        the memo (:meth:`_memo_batch`); the misses are a row view of it."""
        return self._memo_batch(
            [("sequential_time", t) for t in tasks],
            lambda pos: self.model.sequential_times(_picked(tasks, pos)),
        )

    def tsymb_pairs(self, tasks: Sequence[MTask], widths: Sequence[int]) -> List[float]:
        """``[self.tsymb(t, q) for t, q in zip(tasks, widths)]`` with the
        misses priced in one batch evaluation; unlike :meth:`tsymb_table`
        this is the memoized request path (:meth:`_memo_batch`).  The
        misses of a :class:`~repro.core.costbatch.TaskTable` are priced
        from a row view of it."""
        return self._memo_batch(
            [("tsymb", t, q) for t, q in zip(tasks, widths)],
            lambda pos: self.model.tsymb_pairs(
                _picked(tasks, pos), _picked(widths, pos)
            ).tolist(),
        )

    def redistribution_time_symbolic(
        self, flows: Sequence[DataFlow], q_src: int, q_dst: int
    ) -> float:
        """Memoized symbolic redistribution bound."""
        key = ("redistribution_time_symbolic", tuple(flows), q_src, q_dst)
        return self._memo(
            key, lambda: self.model.redistribution_time_symbolic(flows, q_src, q_dst)
        )

    def redistribution_time(
        self,
        flows: Sequence[DataFlow],
        src_cores: Sequence[CoreId],
        dst_cores: Sequence[CoreId],
    ) -> float:
        """Memoized mapped redistribution cost ``TRe`` (the simulator
        re-costs the same edges on every contention pass)."""
        key = (
            "redistribution_time",
            tuple(flows),
            tuple(src_cores),
            tuple(dst_cores),
        )
        return self._memo(
            key,
            lambda: self.model.redistribution_time(flows, src_cores, dst_cores),
        )

    # ------------------------------------------------------------------
    def __getattr__(self, name: str):
        # everything un-cached (platform, tcomp_mapped, tcomm_mapped,
        # tcomm_symbolic, compute_speed, ...) delegates to the wrapped model
        return getattr(self.model, name)
