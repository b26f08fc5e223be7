"""Epoch/view pacemaker.

Owns the progress timer of a replica: when an epoch makes no progress for
the (adaptively growing) timeout, the pacemaker invokes the protocol's
timeout callback (typically "broadcast a blame" or "send a new-view").
The exponential back-off is what gives the partially-synchronous parts of
the protocols their liveness after GST — ablated in experiment E10.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .context import Context, TimerHandle

#: Callback fired when the current epoch's timer expires: cb(epoch).
TimeoutCallback = Callable[[int], None]


class Pacemaker:
    """Adaptive progress timer for epoch-based protocols."""

    def __init__(
        self,
        ctx: Context,
        base_timeout: float,
        growth: float,
        on_timeout: TimeoutCallback,
        timeout_scale: Optional[Callable[[], float]] = None,
    ) -> None:
        self.ctx = ctx
        self.base_timeout = base_timeout
        self.growth = growth
        self.on_timeout = on_timeout
        #: Optional multiplicative scale sampled at every (re)arm — the
        #: synchrony guard hooks this so a re-calibrated Δ stretches the
        #: progress timeout proportionally (the base timeout was
        #: provisioned as a multiple of the original Δ).  None (default)
        #: keeps the timeout computation untouched.
        self.timeout_scale = timeout_scale
        self.epoch = 0
        self.consecutive_failures = 0
        self._timer: Optional[TimerHandle] = None
        self._fired_for_epoch: Optional[int] = None

    def current_timeout(self) -> float:
        """The timeout in force, after back-off (none at ``growth=1.0``)."""
        scale = 1.0 if self.timeout_scale is None else self.timeout_scale()
        return self.base_timeout * (self.growth**self.consecutive_failures) * scale

    def enter_epoch(self, epoch: int, made_progress: bool) -> None:
        """Move to a new epoch and (re)arm the progress timer.

        Args:
            epoch: the epoch being entered.
            made_progress: True when the previous epoch committed
                something — resets the back-off; False grows it.
        """
        self.epoch = epoch
        if made_progress:
            self.consecutive_failures = 0
        else:
            self.consecutive_failures += 1
        self._rearm()

    def record_progress(self) -> None:
        """Progress inside the epoch: reset back-off and restart timer."""
        self.consecutive_failures = 0
        self._rearm()

    def stop(self) -> None:
        """Cancel the timer (replica is quitting the epoch)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _rearm(self) -> None:
        self.stop()
        epoch_at_arm = self.epoch
        self._timer = self.ctx.set_timer(
            self.current_timeout(), "pacemaker", epoch_at_arm
        )

    def handle_timer(self, epoch_at_arm: Any) -> None:
        """Route the 'pacemaker' timer tag (called by the replica)."""
        if epoch_at_arm != self.epoch:
            return  # stale timer from a previous epoch
        if self._fired_for_epoch == self.epoch:
            return  # already blamed this epoch
        self._fired_for_epoch = self.epoch
        self.on_timeout(self.epoch)
