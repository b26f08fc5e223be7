"""Execution context abstraction.

Protocol code is written against :class:`Context` and therefore runs
unchanged on the discrete-event simulator (:class:`SimContext`) and on the
real asyncio transport (:class:`repro.net.transport.AsyncioContext`).  A
context provides the clock, message primitives, and named timers.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol, Tuple, Union

from ..sim.scheduler import EventHandle, Scheduler

#: Where ``Context.send`` delivers: one replica id, or a tuple of distinct
#: ids — one offer, sized and accounted once, as a broadcast is.
Destination = Union[int, Tuple[int, ...]]


class TimerHandle(Protocol):
    """Cancellation token for a pending timer."""

    def cancel(self) -> None: ...


class Context(Protocol):
    """What a replica may do to the outside world."""

    node_id: int
    n: int

    @property
    def now(self) -> float: ...

    def send(self, dst: Destination, msg: object) -> None: ...

    def broadcast(self, msg: object, include_self: bool = True) -> None: ...

    def set_timer(self, delay: float, tag: str, payload: Any = None) -> TimerHandle: ...

    def trace(self, kind: str) -> None: ...


#: Signature of the timer callback a context fires: (tag, payload).
TimerCallback = Callable[[str, Any], None]


class SimContext:
    """Context implementation over the simulator.

    The network attachment (how incoming messages reach the replica) is
    wired by the cluster builder; this object only covers the outbound
    and timer surface.
    """

    def __init__(
        self,
        node_id: int,
        n: int,
        scheduler: Scheduler,
        network: "SimNetwork",
        timer_callback: TimerCallback,
    ) -> None:
        self.node_id = node_id
        self.n = n
        self._scheduler = scheduler
        self._network = network
        self._timer_callback = timer_callback

    @property
    def now(self) -> float:
        return self._scheduler.now

    def send(self, dst: Destination, msg: object) -> None:
        self._network.send(self.node_id, dst, msg)

    def broadcast(self, msg: object, include_self: bool = True) -> None:
        self._network.broadcast(self.node_id, msg, include_self=include_self)

    def set_timer(self, delay: float, tag: str, payload: Any = None) -> EventHandle:
        return self._scheduler.after(delay, self._fire_timer, tag, payload)

    def _fire_timer(self, tag: str, payload: Any) -> None:
        self._timer_callback(tag, payload)

    def trace(self, kind: str) -> None:
        """Count one ``kind`` in the network's trace."""
        self._network.trace.emit(kind)


from ..net.simnet import SimNetwork  # noqa: E402  (typing reference only)
