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

__all__ = ["Simulator", "CoreResource"]


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

    def after(self, delay: float, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` to run ``delay`` time units from now."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.at(self._now + delay, fn)

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


class CoreResource:
    """A core as a serially reusable resource.

    :meth:`earliest_start` answers when the core can take a new
    occupation, :meth:`book` records one and refuses a start before the
    previous occupation ends.  Bookings arrive in non-decreasing time
    order, so a single free-from timestamp suffices (a core never runs
    two tasks at once).  The executor keeps the same state for all cores
    of the machine in one array; this class is the per-core definition
    its tests compare against.
    """

    __slots__ = ("free_from", "busy_time")

    def __init__(self) -> None:
        self.free_from = 0.0
        self.busy_time = 0.0

    def earliest_start(self, not_before: float) -> float:
        """Earliest time the core can start at or after ``not_before``."""
        return max(self.free_from, not_before)

    def book(self, start: float, duration: float) -> float:
        """Occupy the core for ``[start, start + duration)``."""
        if start < self.free_from - 1e-12:
            raise ValueError(
                f"core booked at {start} while busy until {self.free_from}"
            )
        end = start + duration
        self.free_from = end
        self.busy_time += duration
        return end
