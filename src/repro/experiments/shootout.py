"""Scheduler shoot-out: the zoo vs the adversarial scenario suite.

``python -m repro.experiments --shootout`` runs every scheduler of the
*zoo* -- the paper's layer-based g-search, the CPA baseline and the two
competitors (AMTHA task-to-core mapping, dual-approximation moldable
scheduling) -- on every scenario of
:func:`repro.graphs.adversarial.adversarial_suite` and reports a
per-regime **win matrix**: for each scenario the scheduler with the
smallest simulated makespan scores the win (ties to the first zoo
entry; a scheduler that raises scores an automatic loss and the error
is reported, because surfacing those crashes is half the point of the
sweep).

The harness emits a deterministic ``BENCH_shootout.json`` (schema
``repro.obs.bench/1``): one row per ``scheduler|regime`` pair whose
``makespan`` field (mean simulated makespan over the regime) is gated
in CI via ``repro.obs diff``, exactly like the other committed
benchmarks.  Simulated makespans are pure cost-model arithmetic, so the
file is bit-stable across machines.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..core.costmodel import CostModel
from ..faults import parse_faults_spec
from ..graphs.adversarial import REGIMES, Scenario, adversarial_suite
from ..pipeline import SchedulingPipeline
from ..scheduling import SCHEDULERS
from ..sim.executor import SimulationOptions

__all__ = ["ZOO", "ShootoutCell", "ShootoutResult", "run_shootout"]

#: the zoo, in tie-break order: keys of :data:`repro.scheduling.SCHEDULERS`
ZOO = ("gsearch", "amtha", "moldable", "cpa")


@dataclass
class ShootoutCell:
    """One (scheduler, scenario) run of the shoot-out."""

    scheduler: str
    scenario: str
    regime: str
    makespan: float = math.inf
    predicted_makespan: float = math.inf
    error: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass
class ShootoutResult:
    """Win matrix plus per-cell makespans of one shoot-out sweep."""

    cells: List[ShootoutCell]
    seed: int
    quick: bool
    #: wins[scheduler][regime] and scenario counts per regime
    wins: Dict[str, Dict[str, int]] = field(default_factory=dict)
    scenarios_per_regime: Dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def regimes(self) -> List[str]:
        """Regimes present in the sweep, in canonical report order."""
        present = {c.regime for c in self.cells}
        return [r for r in REGIMES if r in present]

    def schedulers(self) -> List[str]:
        """Zoo schedulers present in the sweep, in zoo order."""
        present = {c.scheduler for c in self.cells}
        return [s for s in ZOO if s in present]

    def table_str(self) -> str:
        """The win matrix as a paper-style text table."""
        regs = self.regimes()
        width = max(len(s) for s in self.schedulers()) + 2
        head = "scheduler".ljust(width) + "".join(f"{r:>12s}" for r in regs)
        head += f"{'total':>12s}"
        lines = [head, "-" * len(head)]
        for s in self.schedulers():
            row = s.ljust(width)
            total = 0
            for r in regs:
                w = self.wins.get(s, {}).get(r, 0)
                total += w
                row += f"{w:>9d}/{self.scenarios_per_regime[r]:<2d}"
            row += f"{total:>12d}"
            lines.append(row)
        failures = [c for c in self.cells if c.failed]
        if failures:
            lines.append("")
            lines.append(f"{len(failures)} failed cell(s):")
            for c in failures:
                lines.append(f"  {c.scheduler} on {c.scenario}: {c.error}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def to_bench(self) -> Dict[str, Any]:
        """Deterministic ``repro.obs.bench/1`` payload (diff-gateable).

        One row per ``scheduler|regime``: ``makespan`` is the mean
        simulated makespan over the regime's scenarios (the gated,
        lower-is-better metric); ``wins``/``scenarios``/``failures``
        ride along ungated (no known direction).
        """
        rows: List[Dict[str, Any]] = []
        for s in self.schedulers():
            for r in self.regimes():
                sub = [c for c in self.cells if c.scheduler == s and c.regime == r]
                good = [c.makespan for c in sub if not c.failed]
                rows.append(
                    {
                        "name": f"{s}|{r}",
                        "scheduler": s,
                        "regime": r,
                        "wins": self.wins.get(s, {}).get(r, 0),
                        "scenarios": len(sub),
                        "failures": sum(1 for c in sub if c.failed),
                        "makespan": sum(good) / len(good) if good else float("inf"),
                    }
                )
        return {
            "schema": "repro.obs.bench/1",
            "benchmark": "scheduler shoot-out (win matrix over adversarial scenarios)",
            "seed": self.seed,
            "quick": self.quick,
            "results": rows,
        }

    def write_bench(self, path) -> Path:
        """Write :meth:`to_bench` as pretty JSON to ``path``."""
        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(self.to_bench(), indent=1) + "\n")
        return out


# ----------------------------------------------------------------------
def _run_cell(name: str, scenario: Scenario) -> ShootoutCell:
    """Run one zoo scheduler on one scenario through the full pipeline."""
    cell = ShootoutCell(
        scheduler=name, scenario=scenario.name, regime=scenario.regime
    )
    try:
        cost = CostModel(scenario.platform_obj())
        # CPA is coarsened on big scenarios so allocation stays tractable
        coarse = {"granularity": 8} if name == "cpa" and scenario.big else {}
        scheduler = SCHEDULERS[name](cost, **coarse)
        faults = (
            parse_faults_spec(scenario.fault_spec) if scenario.fault_spec else None
        )
        pipe = SchedulingPipeline(scheduler, options=SimulationOptions(faults=faults))
        result = pipe.run(scenario.graph)
        cell.predicted_makespan = float(result.predicted_makespan)
        cell.makespan = (
            float(result.trace.makespan)
            if result.trace is not None
            else cell.predicted_makespan
        )
    except Exception as exc:  # noqa: BLE001 -- crashes are shoot-out losses
        cell.error = f"{type(exc).__name__}: {exc}"
    return cell


def run_shootout(
    *,
    quick: bool = False,
    seed: int = 0,
    schedulers: Optional[List[str]] = None,
    suite: Optional[Dict[str, List[Scenario]]] = None,
) -> ShootoutResult:
    """Run the full shoot-out sweep and score the win matrix.

    ``schedulers`` restricts the zoo (default: all of :data:`ZOO`);
    ``suite`` substitutes a pre-built scenario suite (the tests pass
    reduced ones).
    """
    names = list(schedulers or ZOO)
    unknown = [n for n in names if n not in ZOO]
    if unknown:
        raise ValueError(f"unknown scheduler(s) {unknown}; known: {list(ZOO)}")
    if suite is None:
        suite = adversarial_suite(seed, quick=quick)
    cells: List[ShootoutCell] = []
    wins: Dict[str, Dict[str, int]] = {n: {} for n in names}
    per_regime: Dict[str, int] = {}
    for regime, scenarios in suite.items():
        per_regime[regime] = len(scenarios)
        for scenario in scenarios:
            row = [_run_cell(n, scenario) for n in names]
            cells.extend(row)
            finishers = [c for c in row if not c.failed]
            if finishers:
                best = min(finishers, key=lambda c: c.makespan)
                wins[best.scheduler][regime] = (
                    wins[best.scheduler].get(regime, 0) + 1
                )
    return ShootoutResult(
        cells=cells,
        seed=seed,
        quick=quick,
        wins=wins,
        scenarios_per_regime=per_regime,
    )
