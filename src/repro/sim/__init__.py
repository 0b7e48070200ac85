"""Discrete-event simulation kernel.

Public surface:

* :class:`~repro.sim.engine.EventLoop` — the clock and scheduler,
* :class:`~repro.sim.engine.Event` — a cancellable scheduled callback,
* :class:`~repro.sim.timer.Timer` / :class:`~repro.sim.timer.PeriodicTimer`
  — hrtimer-style re-armable timers,
* :class:`~repro.sim.rng.RngStreams` — named deterministic RNG streams,
* :class:`~repro.sim.trace.Tracer` — structured tracing.
"""

from ..registry import lazy_exports

__all__ = [
    "Event",
    "EventLoop",
    "SimulationError",
    "RngStreams",
    "Timer",
    "PeriodicTimer",
    "Tracer",
    "TraceRecord",
    "NULL_TRACER",
]

_SUBMODULES = {
    ".engine": ("Event", "EventLoop", "SimulationError"),
    ".rng": ("RngStreams",),
    ".timer": ("PeriodicTimer", "Timer"),
    ".trace": ("NULL_TRACER", "TraceRecord", "Tracer"),
}

__getattr__, __dir__ = lazy_exports(__name__, _SUBMODULES, globals())
