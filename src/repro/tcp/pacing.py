"""TCP internal packet pacing, with the paper's *pacing stride* (§6).

Linux's internal pacing sends one socket buffer per pacing period: after
a send it computes an idle time (Eq. 1)

    ``idleTime = socketBufferLength / pacingRate``

arms an hrtimer, and blocks transmission until expiry. Every period costs
a timer fire plus a socket reschedule — the overhead the paper identifies.

The *pacing stride* modification (Eq. 2) scales the idle time while
letting the same factor more data go out per period, so the long-run
pacing rate is unchanged but the timer frequency drops by the stride:

* per-period send budget  = ``stride × autosize_goal`` bytes,
* idle time               = ``stride × autosize_goal / pacingRate``.

When the congestion window (or the socket buffer) caps the per-period
burst below the budget, the idle time still reflects the intended budget
— which is exactly the saturation regime of the paper's Table 2, where
throughput collapses for over-large strides.

:class:`PacingController` is pure policy (no timers, no CPU accounting);
the connection drives it and owns the timer so that timer-fire CPU costs
are charged in one place.
"""

from __future__ import annotations

from typing import Optional

from ..core.spec import PacingMode
from ..units import SEC
from .segmentation import GSO_MAX_BYTES, tso_autosize_bytes

__all__ = ["PacingController", "PacingMode"]


class PacingController:
    """Per-connection pacing state: rate, stride, and period accounting."""

    __slots__ = (
        "mss",
        "stride",
        "min_tso_segs",
        "gso_max_bytes",
        "rate_bps",
        "next_send_at_ns",
        "_period_budget",
        "_period_opened_ns",
        "periods",
        "idle_ns_total",
        "bytes_per_period_total",
        "_period_bytes",
        "_goal_rate_bps",
        "_goal_bytes",
    )

    def __init__(
        self,
        mss: int,
        stride: float = 1.0,
        min_tso_segs: int = 2,
        gso_max_bytes: int = GSO_MAX_BYTES,
    ):
        if stride < 1.0:
            raise ValueError("pacing stride must be >= 1")
        self.mss = int(mss)
        self.stride = float(stride)
        self.min_tso_segs = int(min_tso_segs)
        self.gso_max_bytes = int(gso_max_bytes)
        #: current pacing rate, bits/s (set by the CC module every ACK)
        self.rate_bps: float = 0.0
        #: absolute time before which no new period may open
        self.next_send_at_ns: int = 0
        #: bytes still sendable in the currently open period (None = closed)
        self._period_budget: Optional[int] = None
        self._period_opened_ns: int = 0
        # stats
        self.periods = 0
        self.idle_ns_total = 0
        self.bytes_per_period_total = 0
        self._period_bytes = 0
        # memoized autosize goal: goal_bytes() is a pure function of the
        # rate (mss/min_tso/gso are fixed per controller) but is read
        # several times between rate updates — open, close, and every
        # budget check of a period.
        self._goal_rate_bps = -1.0
        self._goal_bytes = 0

    # -- queries ---------------------------------------------------------------

    def blocked(self, now_ns: int) -> bool:
        """True while pacing forbids opening a new period."""
        return self._period_budget is None and now_ns < self.next_send_at_ns

    def goal_bytes(self) -> int:
        """The 1x autosize goal at the current rate (one skb's worth)."""
        rate = self.rate_bps
        if rate != self._goal_rate_bps:
            self._goal_rate_bps = rate
            self._goal_bytes = tso_autosize_bytes(
                rate, self.mss, self.min_tso_segs, self.gso_max_bytes
            )
        return self._goal_bytes

    def period_budget_bytes(self) -> int:
        """Bytes allowed in one pacing period (= stride × goal)."""
        return int(self.stride * self.goal_bytes())

    @property
    def in_period(self) -> bool:
        """True between :meth:`open_period` and :meth:`close_period`."""
        return self._period_budget is not None

    @property
    def budget_remaining(self) -> int:
        """Bytes left in the open period (0 when closed)."""
        return self._period_budget or 0

    @property
    def period_bytes_sent(self) -> int:
        """Bytes sent so far in the currently open period."""
        return self._period_bytes if self.in_period else 0

    # -- period life cycle --------------------------------------------------------

    def open_period(self, now_ns: int) -> int:
        """Open a pacing period; returns its byte budget."""
        if self.blocked(now_ns):
            raise RuntimeError("pacing period opened while blocked")
        self._period_budget = self.period_budget_bytes()
        self._period_bytes = 0
        self._period_opened_ns = now_ns
        return self._period_budget

    def consume(self, nbytes: int) -> None:
        """Charge *nbytes* sent against the open period."""
        if self._period_budget is None:
            raise RuntimeError("consume() outside a pacing period")
        budget = self._period_budget - nbytes
        self._period_budget = budget if budget > 0 else 0
        self._period_bytes += nbytes

    def close_period(self, now_ns: int) -> int:
        """Close the period; returns the idle time (ns) before the next.

        The idle time is computed from the *intended* period budget (Eq. 1
        with Eq. 2's stride scaling), so under-filled periods — e.g. when
        cwnd caps the burst — still idle the full stride, reproducing the
        socket-buffer-saturation regime of Table 2.

        The next period is scheduled ``idle`` after the period *opened*,
        not after the transmit work finished: the pacing clock runs
        concurrently with the stack's CPU work (the hrtimer is free-
        running hardware; user-space copies pipeline on other cores).
        When the CPU work exceeds the idle time the returned delay is 0
        and the sender is CPU-bound rather than pacing-bound — the
        paper's overload regime.
        """
        if self._period_budget is None:
            raise RuntimeError("close_period() without an open period")
        self._period_budget = None
        if self.rate_bps <= 0:
            self.next_send_at_ns = now_ns
            return 0
        intended = self.period_budget_bytes()
        idle_ns = int(intended * 8 * SEC / self.rate_bps)
        self.next_send_at_ns = self._period_opened_ns + idle_ns
        self.periods += 1
        self.idle_ns_total += idle_ns
        self.bytes_per_period_total += self._period_bytes
        idle = self.next_send_at_ns - now_ns
        return idle if idle > 0 else 0

    def abandon_period(self) -> None:
        """Close the period without pacing (nothing was sent)."""
        self._period_budget = None

    # -- reporting -------------------------------------------------------------------

    @property
    def mean_idle_ns(self) -> float:
        """Average idle time per closed period."""
        return self.idle_ns_total / self.periods if self.periods else 0.0

    @property
    def mean_period_bytes(self) -> float:
        """Average bytes actually sent per period (Table 2's skbuff length)."""
        return self.bytes_per_period_total / self.periods if self.periods else 0.0
