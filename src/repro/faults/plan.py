"""Deterministic fault plans.

A :class:`FaultPlan` decides, reproducibly, which task executions fail,
which tasks run slow (stragglers) and whether the platform permanently
loses compute nodes mid-run.  The plan is *generative*: instead of
pre-listing every task, each decision is drawn from a private
``random.Random`` stream seeded by ``(seed, kind, task name)``, so the
same plan gives the same answers regardless of execution order, process,
or which executor (the simulator's or the functional runtime's) asks.
Explicit per-task overrides take precedence over the generated
decisions, which is how the targeted tests pin exact fault sites.

``python -m repro.obs`` and ``python -m repro.experiments`` accept the
compact spec syntax parsed by :func:`parse_faults_spec`::

    --faults SEED:RATE            task failures only
    --faults SEED:RATE:LAYER:N    additionally lose N nodes before LAYER
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

__all__ = ["CoreLoss", "FaultPlan", "parse_faults_spec"]


@dataclass(frozen=True)
class CoreLoss:
    """Permanent loss of whole compute nodes at a layer boundary.

    The platforms allocate whole nodes (``Platform.with_cores``), so the
    loss granularity is nodes as well: ``nodes`` nodes disappear before
    layer ``after_layer`` of the layered schedule starts, and all
    remaining layers must be re-scheduled on the reduced core count.
    """

    after_layer: int
    nodes: int = 1

    def __post_init__(self) -> None:
        if self.after_layer < 0:
            raise ValueError("after_layer must be >= 0")
        if self.nodes < 1:
            raise ValueError("at least one node must be lost")


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, deterministic injection of failures, stragglers, node loss.

    Parameters
    ----------
    seed:
        Root of every decision stream; two plans with equal parameters
        answer every query identically.
    failure_rate:
        Probability that a task fails at all; an affected task fails its
        first ``1..max_failures`` attempts (drawn from the same stream)
        and then succeeds.
    slowdown_rate / max_slowdown:
        Probability that a task is a straggler and the upper bound of
        its uniform slowdown factor (``1.0`` = full speed).
    core_loss:
        Optional permanent :class:`CoreLoss` event.
    task_faults / slowdowns:
        Explicit per-task overrides (task name -> number of failing
        attempts / slowdown factor); they win over the generated draws.
    """

    seed: int = 0
    failure_rate: float = 0.0
    max_failures: int = 2
    slowdown_rate: float = 0.0
    max_slowdown: float = 4.0
    core_loss: Optional[CoreLoss] = None
    task_faults: Mapping[str, int] = field(default_factory=dict)
    slowdowns: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 <= self.failure_rate <= 1.0:
            raise ValueError("failure_rate must be in [0, 1]")
        if not 0.0 <= self.slowdown_rate <= 1.0:
            raise ValueError("slowdown_rate must be in [0, 1]")
        if self.max_failures < 1:
            raise ValueError("max_failures must be >= 1")
        if self.max_slowdown < 1.0:
            raise ValueError("max_slowdown must be >= 1.0")
        for name, k in self.task_faults.items():
            if k < 0:
                raise ValueError(f"task {name!r}: failure count must be >= 0")
        for name, f in self.slowdowns.items():
            if f < 1.0:
                raise ValueError(f"task {name!r}: slowdown factor must be >= 1.0")

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return bool(
            self.failure_rate > 0
            or self.slowdown_rate > 0
            or self.core_loss is not None
            or self.task_faults
            or self.slowdowns
        )

    # ------------------------------------------------------------------
    def _stream(self, kind: str, task: str) -> random.Random:
        return random.Random(f"{self.seed}:{kind}:{task}")

    def failures_of(self, task: str) -> int:
        """Number of leading attempts of ``task`` that fail."""
        if task in self.task_faults:
            return self.task_faults[task]
        if self.failure_rate <= 0:
            return 0
        rng = self._stream("fail", task)
        if rng.random() >= self.failure_rate:
            return 0
        return 1 + rng.randrange(self.max_failures)

    def fails(self, task: str, attempt: int) -> bool:
        """Does attempt ``attempt`` (0-based) of ``task`` fail?"""
        return attempt < self.failures_of(task)

    def slowdown(self, task: str, attempt: int = 0) -> float:
        """Straggler factor of ``task`` (``>= 1.0``; 1.0 = full speed).

        ``attempt`` distinguishes speculative backup attempts: attempt 0
        (the primary) keeps the historical ``(seed, "slow", task)``
        stream -- bit-identical to the pre-speculation draws -- while
        attempt ``a >= 1`` draws from its own per-attempt stream, so a
        backup of a straggler may itself be slow, deterministically.
        """
        if attempt == 0 and task in self.slowdowns:
            return self.slowdowns[task]
        if self.slowdown_rate <= 0:
            return 1.0
        rng = self._stream("slow", task if attempt == 0 else f"{task}#b{attempt}")
        if rng.random() >= self.slowdown_rate:
            return 1.0
        return 1.0 + rng.random() * (self.max_slowdown - 1.0)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Export the fault plan parameters as a dict."""
        out: Dict[str, Any] = {
            "seed": self.seed,
            "failure_rate": self.failure_rate,
            "max_failures": self.max_failures,
            "slowdown_rate": self.slowdown_rate,
            "max_slowdown": self.max_slowdown,
        }
        if self.core_loss is not None:
            out["core_loss"] = {
                "after_layer": self.core_loss.after_layer,
                "nodes": self.core_loss.nodes,
            }
        if self.task_faults:
            out["task_faults"] = dict(self.task_faults)
        if self.slowdowns:
            out["slowdowns"] = dict(self.slowdowns)
        return out


def _spec_int(spec: str, field: str, raw: str) -> int:
    """``raw`` as an integer, or a one-line error naming the bad field."""
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"fault spec {spec!r}: {field} must be an integer, got {raw!r}"
        ) from None


def parse_faults_spec(spec: str) -> FaultPlan:
    """Parse the ``SEED:RATE[:LAYER:NODES]`` CLI fault spec.

    ``SEED`` seeds the plan, ``RATE`` is the task failure rate (also used
    as the straggler rate at half strength), and the optional
    ``LAYER:NODES`` pair adds a permanent node loss before ``LAYER``.

    Every malformed field raises a one-line :class:`ValueError` naming
    the offending field, so CLI users see a message instead of a
    traceback: out-of-range rates, non-integer seed/layer/node counts
    and trailing garbage are all rejected.
    """
    parts = spec.split(":")
    if len(parts) not in (2, 4):
        raise ValueError(
            f"fault spec {spec!r} must be SEED:RATE or SEED:RATE:LAYER:NODES"
        )
    seed = _spec_int(spec, "seed", parts[0])
    try:
        rate = float(parts[1])
    except ValueError:
        raise ValueError(
            f"fault spec {spec!r}: rate must be a number, got {parts[1]!r}"
        ) from None
    if not 0.0 <= rate <= 1.0:
        raise ValueError(
            f"fault spec {spec!r}: rate must be in [0, 1], got {rate:g}"
        )
    core_loss = None
    if len(parts) == 4:
        layer = _spec_int(spec, "layer", parts[2])
        nodes = _spec_int(spec, "nodes", parts[3])
        if layer < 0:
            raise ValueError(
                f"fault spec {spec!r}: layer must be >= 0, got {layer}"
            )
        if nodes < 1:
            raise ValueError(
                f"fault spec {spec!r}: nodes must be >= 1, got {nodes}"
            )
        core_loss = CoreLoss(after_layer=layer, nodes=nodes)
    return FaultPlan(
        seed=seed,
        failure_rate=rate,
        slowdown_rate=rate / 2.0,
        core_loss=core_loss,
    )
