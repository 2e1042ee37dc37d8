"""A small deterministic discrete-event simulation kernel.

The executor (:mod:`repro.sim.executor`) drives M-task programs through
this engine: cores are FIFO resources, task completions are events, and
successors are released when their last predecessor's data has arrived.
The kernel is generic -- events are plain callbacks ordered by
``(time, sequence)``, so simultaneous events fire in scheduling order and
every run is reproducible.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, List, Optional

__all__ = ["Simulator"]


@dataclass(order=True)
class _Event:
    time: float
    seq: int
    fn: Callable[[], None] = field(compare=False)


class Simulator:
    """Event loop with a virtual clock."""

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        self._heap: List[_Event] = []

    @property
    def now(self) -> float:
        return self._now

    def at(self, time: float, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` to run at absolute virtual ``time``."""
        if time < self._now - 1e-12:
            raise ValueError(
                f"cannot schedule event at {time} before current time {self._now}"
            )
        heapq.heappush(self._heap, _Event(max(time, self._now), self._seq, fn))
        self._seq += 1

    def run(self, until: Optional[float] = None) -> float:
        """Process events until the queue drains (or ``until`` is hit).

        Returns the final virtual time.
        """
        while self._heap:
            if until is not None and self._heap[0].time > until:
                self._now = until
                return self._now
            ev = heapq.heappop(self._heap)
            self._now = ev.time
            ev.fn()
        return self._now
