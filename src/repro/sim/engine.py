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
from typing import Callable, List, Optional, Tuple

__all__ = ["Simulator"]

#: ``(time, sequence, callback)``: ordered by the first two, which the
#: unique sequence number decides, so the callback is never compared
_Event = Tuple[float, int, Callable[[], None]]


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
        heapq.heappush(self._heap, (max(time, self._now), self._seq, fn))
        self._seq += 1

    def run(self, until: Optional[float] = None) -> float:
        """Process events until the queue drains (or ``until`` is hit).

        Returns the final virtual time.
        """
        while self._heap:
            if until is not None and self._heap[0][0] > until:
                self._now = until
                return self._now
            self._now, _, fn = heapq.heappop(self._heap)
            fn()
        return self._now
