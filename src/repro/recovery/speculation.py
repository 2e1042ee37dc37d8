"""Speculative straggler mitigation: backup attempts for slow tasks.

A :class:`SpeculationPolicy` decides *when* a running attempt counts as
a straggler and a backup attempt should be launched.  The threshold is

* ``factor`` times the cost-model estimate of the attempt (the
  simulator's mode -- it knows ``Tcomp/q + Tcomm`` before dispatch), or
* ``factor`` times a ``quantile`` of the attempts completed so far (the
  functional runtime's mode -- it has history, not a model; also used by
  the simulator when ``quantile`` is set and enough samples exist).

Whichever attempt finishes first wins; the loser is cancelled.  In the
simulator the backup occupies idle cores and is charged as time; in the
functional runtime both attempts compute the same (deterministic)
outputs, so speculation never changes results -- only the accounted
schedule.  A disabled policy (``SpeculationPolicy(enabled=False)``) and a policy
that never fires leave every execution bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence

__all__ = ["SpeculationPolicy", "SpeculationRecord", "parse_speculation_spec"]


def _percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of ``values`` (q in [0, 1])."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    rank = q * (len(xs) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    frac = rank - lo
    return xs[lo] * (1.0 - frac) + xs[hi] * frac


@dataclass(frozen=True)
class SpeculationPolicy:
    """When to launch a backup attempt for a suspected straggler.

    Parameters
    ----------
    factor:
        Threshold multiplier: an attempt running longer than
        ``factor x base`` triggers a backup (``> 1.0``).
    quantile:
        With a value in ``(0, 1]``, ``base`` is that quantile of the
        completed attempt durations (needs ``min_samples`` of history);
        with ``None``, ``base`` is the caller's cost-model estimate.
    min_samples:
        Minimum completed attempts before the quantile mode fires.
    min_seconds:
        Never speculate below this threshold (guards tiny tasks whose
        backup would cost more than it saves).
    enabled:
        Master switch; ``SpeculationPolicy(enabled=False)`` is the explicit
        disabled value.
    """

    factor: float = 1.5
    quantile: Optional[float] = None
    min_samples: int = 3
    min_seconds: float = 0.0
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.factor <= 1.0:
            raise ValueError("factor must be > 1.0 (1.0 would always fire)")
        if self.quantile is not None and not 0.0 < self.quantile <= 1.0:
            raise ValueError("quantile must be in (0, 1]")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if self.min_seconds < 0:
            raise ValueError("min_seconds must be >= 0")

    # ------------------------------------------------------------------
    def threshold(
        self,
        estimate: Optional[float] = None,
        completed: Sequence[float] = (),
    ) -> Optional[float]:
        """Duration past which a backup launches; ``None`` = never.

        ``estimate`` is the executor's model-based guess for the attempt
        (the simulator's clean ``comp + comm``); ``completed`` the
        durations of attempts already finished.  Quantile mode wins when
        configured and fed enough history; otherwise the estimate is
        used; with neither, speculation stays off for this attempt.
        """
        if not self.enabled:
            return None
        base: Optional[float] = None
        if self.quantile is not None and len(completed) >= self.min_samples:
            base = _percentile(completed, self.quantile)
        elif estimate is not None and estimate > 0:
            base = estimate
        if base is None or base <= 0:
            return None
        return max(self.factor * base, self.min_seconds)

    def to_dict(self) -> Dict[str, Any]:
        """Export the policy parameters as a dict."""
        out: Dict[str, Any] = {"factor": self.factor}
        if self.quantile is not None:
            out["quantile"] = self.quantile
            out["min_samples"] = self.min_samples
        if self.min_seconds:
            out["min_seconds"] = self.min_seconds
        if not self.enabled:
            out["enabled"] = False
        return out


@dataclass(frozen=True)
class SpeculationRecord:
    """One task whose slow attempt raced a backup attempt."""

    task: str
    #: duration the primary attempt took (or would have taken)
    primary_seconds: float
    #: launch-threshold-relative finish of the backup attempt
    backup_seconds: float
    #: ``True`` when the backup finished first
    win: bool

    def to_dict(self) -> Dict[str, Any]:
        """Export the speculation outcome as a dict."""
        return {
            "task": self.task,
            "primary_seconds": self.primary_seconds,
            "backup_seconds": self.backup_seconds,
            "win": self.win,
        }


def parse_speculation_spec(spec: str) -> SpeculationPolicy:
    """Parse the ``FACTOR[:QUANTILE]`` CLI speculation spec.

    ``--speculate 1.5`` speculates past 1.5x the cost-model estimate;
    ``--speculate 1.3:0.75`` past 1.3x the p75 of completed attempts.
    One-line :class:`ValueError` on malformed fields.
    """
    parts = spec.split(":")
    if len(parts) not in (1, 2):
        raise ValueError(
            f"speculation spec {spec!r} must be FACTOR or FACTOR:QUANTILE"
        )
    try:
        factor = float(parts[0])
    except ValueError:
        raise ValueError(
            f"speculation spec {spec!r}: factor must be a number, got "
            f"{parts[0]!r}"
        ) from None
    quantile = None
    if len(parts) == 2:
        try:
            quantile = float(parts[1])
        except ValueError:
            raise ValueError(
                f"speculation spec {spec!r}: quantile must be a number, got "
                f"{parts[1]!r}"
            ) from None
    try:
        return SpeculationPolicy(factor=factor, quantile=quantile)
    except ValueError as exc:
        raise ValueError(f"speculation spec {spec!r}: {exc}") from None
