"""Pacing-stride study helpers (§6) and the adaptive-stride extension.

:func:`sweep_strides` reproduces Figure 8's experiment grid.
:class:`AdaptiveStrideController` implements the paper's future work
(§7.1.2): instead of a fixed stride, it hill-climbs the stride online
using the measured CPU busy fraction and goodput — pacing as finely as
the CPU can afford, no more coarsely than necessary.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ..units import MSEC
from .spec import ExperimentSpec, ReplicatedResult

if TYPE_CHECKING:
    from ..devices import DeviceSetup
    from ..sim import EventLoop

__all__ = ["PAPER_STRIDES", "sweep_strides", "AdaptiveStrideController"]

#: The six strides evaluated in the paper (§6.2).
PAPER_STRIDES = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0)


def sweep_strides(
    spec: ExperimentSpec,
    strides: Sequence[float] = PAPER_STRIDES,
    runs: int = 3,
    jobs: Optional[int] = None,
    cache=None,
    chunk: Optional[int] = None,
    monitor=None,
    ledger=None,
) -> Dict[float, ReplicatedResult]:
    """Run *spec* at each stride; returns ``{stride: aggregate}``.

    Points fan out across *jobs* worker processes (``None`` resolves via
    ``REPRO_JOBS`` / cpu count; see :mod:`repro.runner`); results are
    deterministic and independent of the worker count. *cache*, *chunk*,
    *monitor* (live progress), and *ledger* pass through to
    :func:`repro.runner.run_grid_report`.
    """
    from ..runner import run_replicated_grid  # deferred: avoids import cycle

    stride_specs = [
        replace(spec, pacing_stride=float(stride)) for stride in strides
    ]
    aggregates = run_replicated_grid(
        stride_specs, runs=runs, jobs=jobs, cache=cache, chunk=chunk,
        monitor=monitor, ledger=ledger,
    )
    return {
        float(stride): agg for stride, agg in zip(strides, aggregates)
    }


@dataclass
class _StrideSample:
    stride: float
    goodput_bytes: int


class AdaptiveStrideController:
    """Online stride tuner (the §7.1.2 future-work extension).

    Every ``period_ns`` it compares goodput against the previous period
    and hill-climbs the stride over a discrete ladder: move up while the
    CPU is saturated and goodput keeps improving, back off when a larger
    stride stopped paying (the buffer-saturation regime). All of the
    paper's observations — optimum depends on device configuration and
    load — motivate exactly this controller shape.
    """

    LADDER = (1.0, 2.0, 3.0, 5.0, 8.0, 10.0, 15.0, 20.0, 30.0, 50.0)
    #: CPU busy fraction above which pacing overhead is presumed binding
    CPU_HIGH_WATER = 0.90
    #: relative goodput loss that triggers a step back down
    REGRESSION = 0.03

    def __init__(
        self,
        loop: EventLoop,
        connections: Sequence[object],
        device: DeviceSetup,
        period_ns: int = 500 * MSEC,
    ):
        # the controller runs inside a simulation; sweep_strides above
        # only describes one, and must load without the simulator
        from ..sim.timer import PeriodicTimer

        self._loop = loop
        self._connections = list(connections)
        self._device = device
        self._timer = PeriodicTimer(loop, period_ns, self._tick, name="adaptive-stride")
        self._index = 0
        self._last_delivered = 0
        self._last_busy = 0
        self._last_goodput = -1.0
        self._last_direction = +1
        self.history: List[_StrideSample] = []

    @property
    def stride(self) -> float:
        """Current stride applied to every connection."""
        return self.LADDER[self._index]

    def start(self) -> None:
        """Begin periodic adaptation."""
        self._apply()
        self._last_delivered = self._total_delivered()
        self._last_busy = self._device_busy()
        self._timer.start()

    def stop(self) -> None:
        """Stop adapting (the current stride stays in force)."""
        self._timer.stop()

    # -- internals -------------------------------------------------------------

    def _total_delivered(self) -> int:
        return sum(c.delivered_bytes for c in self._connections)

    def _device_busy(self) -> int:
        return sum(core.busy_ns_up_to_now() for core in self._device.cpu.all_cores())

    def _apply(self) -> None:
        for conn in self._connections:
            conn.pacer.stride = self.stride

    def _tick(self) -> None:
        delivered = self._total_delivered()
        busy = self._device_busy()
        goodput = float(delivered - self._last_delivered)
        busy_frac = (busy - self._last_busy) / self._timer.period_ns
        self._last_delivered = delivered
        self._last_busy = busy
        self.history.append(_StrideSample(self.stride, int(goodput)))

        if self._last_goodput < 0:
            self._last_goodput = goodput
            return

        direction = self._last_direction
        if goodput < self._last_goodput * (1.0 - self.REGRESSION):
            # The last move hurt: reverse.
            direction = -direction
        elif busy_frac < self.CPU_HIGH_WATER and self.stride > 1.0:
            # CPU has slack: pace more finely for lower RTT.
            direction = -1
        elif busy_frac >= self.CPU_HIGH_WATER:
            # CPU saturated: amortize harder.
            direction = +1
        new_index = min(max(self._index + direction, 0), len(self.LADDER) - 1)
        self._last_direction = direction if new_index != self._index else self._last_direction
        self._index = new_index
        self._last_goodput = goodput
        self._apply()
