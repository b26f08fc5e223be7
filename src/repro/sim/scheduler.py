"""Deterministic discrete-event scheduler.

The scheduler is a priority queue of timestamped callbacks.  Two events at
the same timestamp fire in insertion order (a monotonic sequence number
breaks ties), so a run is fully determined by its inputs — the property
every reproducibility claim in this repository rests on.

Time is a float in seconds and only ever moves forward.  Callbacks may
schedule further events; exceptions propagate out of :meth:`Scheduler.run`
so tests fail loudly instead of silently losing events.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

from ..errors import SimulationError


class EventHandle:
    """Cancellation token for a scheduled event."""

    __slots__ = ("time", "seq", "cancelled", "_scheduler")

    def __init__(self, time: float, seq: int, scheduler: "Optional[Scheduler]" = None) -> None:
        self.time = time
        self.seq = seq
        self.cancelled = False
        self._scheduler = scheduler

    def cancel(self) -> None:
        """Mark the event so the scheduler skips it when its time comes."""
        if not self.cancelled:
            self.cancelled = True
            if self._scheduler is not None:
                self._scheduler._note_cancelled()


#: Compact the queue once cancelled events outnumber live ones and the
#: queue is at least this large.  Long adversarial runs cancel far-future
#: timers by the thousands; without compaction they pin memory until their
#: (possibly distant) deadlines drain off the heap.
COMPACT_MIN_QUEUE = 256

#: Shared sentinel handle for fire-and-forget events (see
#: :meth:`Scheduler.post_at`).  Never cancelled, so one instance serves
#: every such event — message deliveries, which dominate event volume,
#: skip the per-event :class:`EventHandle` allocation entirely.
_FIRE_AND_FORGET = EventHandle(0.0, -1, None)


class Scheduler:
    """The simulation event loop."""

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[Tuple[float, int, EventHandle, Callable[..., None], tuple]] = []
        self._seq = itertools.count()
        self._events_processed = 0
        self._cancelled_pending = 0
        self._compactions = 0

    @property
    def now(self) -> float:
        """Current simulated time, seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (for diagnostics)."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of queued (possibly cancelled) events."""
        return len(self._queue)

    @property
    def cancelled_pending(self) -> int:
        """Number of queued events already cancelled (awaiting compaction)."""
        return self._cancelled_pending

    @property
    def compactions(self) -> int:
        """Number of lazy heap compactions performed (for diagnostics)."""
        return self._compactions

    def _note_cancelled(self) -> None:
        """A handle in the queue was cancelled; compact when they dominate."""
        self._cancelled_pending += 1
        if (
            len(self._queue) >= COMPACT_MIN_QUEUE
            and self._cancelled_pending * 2 > len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify the survivors."""
        self._queue = [entry for entry in self._queue if not entry[2].cancelled]
        heapq.heapify(self._queue)
        self._cancelled_pending = 0
        self._compactions += 1

    def at(self, time: float, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute simulated time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time:.6f}, now is {self._now:.6f}"
            )
        handle = EventHandle(time, next(self._seq), self)
        heapq.heappush(self._queue, (time, handle.seq, handle, fn, args))
        return handle

    def after(self, delay: float, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.at(self._now + delay, fn, *args)

    def post_at(self, time: float, fn: Callable[..., None], *args: Any) -> None:
        """Schedule a fire-and-forget event at absolute time ``time``.

        Identical ordering semantics to :meth:`at` (same timestamp/sequence
        tie-breaking; the sequence counter is shared), but returns no
        handle and allocates none — the event cannot be cancelled.  This
        is the hot path for message deliveries.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time:.6f}, now is {self._now:.6f}"
            )
        heapq.heappush(self._queue, (time, next(self._seq), _FIRE_AND_FORGET, fn, args))

    def step(self) -> bool:
        """Execute the next non-cancelled event; False when queue is empty."""
        while self._queue:
            time, _seq, handle, fn, args = heapq.heappop(self._queue)
            if handle.cancelled:
                self._cancelled_pending = max(0, self._cancelled_pending - 1)
                continue
            self._now = time
            self._events_processed += 1
            fn(*args)
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> None:
        """Drain events, optionally bounded by time, count, or predicate.

        Args:
            until: stop once the next event would be after this time
                (the clock is advanced to ``until``).
            max_events: stop after executing this many events.
            stop_when: evaluated after each event; True stops the run.
        """
        # Fused peek/pop loop: equivalent to _peek_time() + step() per
        # event, but touches the heap root once per event instead of twice.
        heappop = heapq.heappop
        if max_events is None and stop_when is None:
            # Tight variant for the dominant call shape (bounded by time
            # only): no per-event bound bookkeeping.
            while self._queue:
                entry = self._queue[0]
                if entry[2].cancelled:
                    heappop(self._queue)
                    self._cancelled_pending = max(0, self._cancelled_pending - 1)
                    continue
                time = entry[0]
                if until is not None and time > until:
                    self._now = max(self._now, until)
                    return
                heappop(self._queue)
                self._now = time
                self._events_processed += 1
                entry[3](*entry[4])
            if until is not None:
                self._now = max(self._now, until)
            return
        executed = 0
        while self._queue:
            if max_events is not None and executed >= max_events:
                return
            entry = self._queue[0]
            if entry[2].cancelled:
                heappop(self._queue)
                self._cancelled_pending = max(0, self._cancelled_pending - 1)
                continue
            time = entry[0]
            if until is not None and time > until:
                self._now = max(self._now, until)
                return
            heappop(self._queue)
            self._now = time
            self._events_processed += 1
            entry[3](*entry[4])
            executed += 1
            if stop_when is not None and stop_when():
                return
        if until is not None:
            self._now = max(self._now, until)

    def _peek_time(self) -> Optional[float]:
        while self._queue:
            time, _seq, handle, _fn, _args = self._queue[0]
            if handle.cancelled:
                heapq.heappop(self._queue)
                self._cancelled_pending = max(0, self._cancelled_pending - 1)
                continue
            return time
        return None
