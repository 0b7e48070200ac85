"""Deterministic discrete-event simulation engine.

The scheduler is one binary heap (:mod:`heapq`) of ``(when, seq, event)``
entries — the same single-heap design the compiled kernel
(``repro._ckernel``) implements in C. Three design rules make every
simulation in this package reproducible bit-for-bit:

1. time is an integer nanosecond counter (see :mod:`repro.units`);
2. events scheduled for the same instant fire in insertion order (a
   monotonically increasing sequence number breaks heap ties);
3. all randomness flows through named, seeded streams
   (:class:`repro.sim.rng.RngStreams`), never the global ``random`` module.

Cancellation is lazy (an :class:`Event` is flagged and skipped when it
reaches the top of the heap), which keeps ``cancel`` O(1). The loop counts
cancelled entries still buried in the heap and compacts when they dominate,
so workloads that re-arm timers millions of times (pacing, RTO) keep the
heap proportional to the number of *live* events. Compaction rebuilds the
heap from the live entries' ``(when, seq)`` keys, so it can never change
firing order.
"""

from __future__ import annotations

import heapq
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Event", "EventLoop", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised when the engine is used inconsistently.

    Examples: scheduling in the past, a negative delay, re-entering
    :meth:`EventLoop.run` from a callback, or exceeding ``max_events``.
    """


# Heap entries are plain (when, seq, event) tuples: the monotonically
# increasing seq breaks time ties deterministically and guarantees the
# Event object itself is never compared (tuple comparison short-circuits).
_HeapEntry = Tuple[int, int, "Event"]

# Compaction policy: rebuild the heap when at least _COMPACT_MIN cancelled
# entries are buried in it AND they make up at least half of it. The floor
# keeps small simulations from compacting over and over; the fraction
# bounds heap size at ~2x the live event count. The floor is low because
# a testbed holds ~50-100 live events while its RTO and delayed-ACK timers
# re-arm on every ACK, and each buried entry is three GC-tracked objects:
# hundreds at a time drive enough collections to age the whole testbed
# into the oldest generation, where it outlives its run.
_COMPACT_MIN = 64


class Event:
    """A scheduled callback.

    Instances are returned by :meth:`EventLoop.call_at` /
    :meth:`EventLoop.call_after` and can be cancelled. A cancelled event
    stays in the heap and is skipped when popped (lazy deletion), which
    keeps cancellation O(1); cancelling twice, or after the event fired,
    is a no-op.
    """

    __slots__ = ("when", "callback", "args", "cancelled", "_fired", "_loop")

    def __init__(
        self,
        when: int,
        callback: Callable[..., None],
        args: tuple,
        loop: Optional["EventLoop"] = None,
    ):
        self.when = when
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._fired = False
        self._loop = loop

    def cancel(self) -> None:
        """Cancel the event; a no-op if it already fired."""
        if self.cancelled:
            return
        self.cancelled = True
        # Only events still buried in the heap count toward compaction.
        if not self._fired and self._loop is not None:
            self._loop._note_cancelled()

    @property
    def pending(self) -> bool:
        """True while the event is scheduled and not cancelled/fired."""
        return not self.cancelled and not self._fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("fired" if self._fired else "pending")
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"<Event t={self.when} {name} {state}>"


class EventLoop:
    """The simulation clock and scheduler.

    A single :class:`EventLoop` instance is shared by every component of a
    simulated testbed (CPU model, links, TCP stacks, applications). Typical
    use::

        loop = EventLoop()
        loop.call_after(milliseconds(5), hello)
        loop.run(until=seconds(1))

    Pending events wait in a single heap ordered by ``(when, seq)``;
    :meth:`run` pops and fires them one at a time. This is the readable
    reference for the compiled kernel's loop, which keeps the same heap,
    the same lazy cancellation and the same compaction rule in C.
    """

    def __init__(self) -> None:
        self._now: int = 0
        self._heap: List[_HeapEntry] = []
        #: scheduling sequence number (the (when, seq) tie-break key)
        self._seq: int = 0
        self._running = False
        self._stopped = False
        self._events_processed = 0
        #: cancelled events still sitting in the heap (lazy deletion debt)
        self._cancelled_in_heap = 0
        #: heap rebuilds triggered by cancellation debt (for tests/stats)
        self.compactions = 0
        #: arbitrary per-simulation scratch space (used by tracing helpers)
        self.context: Dict[str, Any] = {}
        #: opt-in profiler (see :meth:`set_profiler`); None = free dispatch
        self._profiler = None

    # -- clock ------------------------------------------------------------

    @property
    def now(self) -> int:
        """Current simulated time in integer nanoseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Count of callbacks that have fired (excludes cancelled events)."""
        return self._events_processed

    # -- scheduling --------------------------------------------------------

    def call_at(self, when: int, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule *callback(*args)* at absolute time *when* (ns).

        *when* may equal :attr:`now` (the event fires after currently
        pending same-time events) but may not be in the past.
        """
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at t={when} before now={self._now}"
            )
        # Event construction is spelled out (not Event(...)) to skip one
        # Python call frame on the hottest allocation site in the kernel.
        event = Event.__new__(Event)
        event.when = when
        event.callback = callback
        event.args = args
        event.cancelled = False
        event._fired = False
        event._loop = self
        self._seq = seq = self._seq + 1
        heapq.heappush(self._heap, (when, seq, event))
        return event

    def call_after(self, delay: int, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule *callback(*args)* after *delay* ns (must be >= 0)."""
        # Folded fast path: delay >= 0 implies now + delay >= now, so the
        # past-scheduling guard of call_at is subsumed by the delay check
        # and the push happens without a second call.
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        when = self._now + delay
        event = Event.__new__(Event)
        event.when = when
        event.callback = callback
        event.args = args
        event.cancelled = False
        event._fired = False
        event._loop = self
        self._seq = seq = self._seq + 1
        heapq.heappush(self._heap, (when, seq, event))
        return event

    def call_soon(self, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule *callback(*args)* at the current instant.

        The callback runs after everything already queued for ``now``.
        """
        return self.call_after(0, callback, *args)

    # -- execution ----------------------------------------------------------

    def stop(self) -> None:
        """Request the running loop to stop after the current callback."""
        self._stopped = True

    def set_profiler(self, profiler) -> None:
        """Install (or with ``None`` remove) a per-callback profiler.

        *profiler* exposes a ``records`` dict mapping callback qualname
        to a mutable ``[count, sim_ns, wall_ns]`` triple (see
        :class:`repro.obs.profiler.SimProfiler`). Profiling uses a
        separate dispatch loop inside :meth:`run`, so the unprofiled
        path stays untouched.
        """
        self._profiler = profiler

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run the simulation.

        Parameters
        ----------
        until:
            Absolute stop time in ns. Events scheduled at exactly *until*
            still fire; later ones remain queued. ``None`` runs to queue
            exhaustion.
        max_events:
            Optional safety valve against runaway simulations.

        Returns the simulated time at exit.
        """
        if self._running:
            raise SimulationError("loop is already running")
        self._running = True
        self._stopped = False
        # Hot path: this loop dispatches every simulated event. Heap and
        # function lookups are bound to locals; `until`/`max_events` are
        # normalized to plain comparisons (int/inf compare exactly in
        # Python, so an integer horizon keeps its precision).
        heap = self._heap
        heappop = heapq.heappop
        horizon = float("inf") if until is None else until
        limit = float("inf") if max_events is None else max_events
        processed = 0
        profiler = self._profiler
        try:
            if profiler is not None:
                # Profiled dispatch: same semantics, plus per-callback
                # accounting. Kept as a separate loop so the unprofiled
                # path below pays nothing for the feature.
                records = profiler.records
                perf_ns = time.perf_counter_ns
                prev_when = self._now
                while heap and not self._stopped:
                    entry = heap[0]
                    when = entry[0]
                    if when > horizon:
                        break
                    event = entry[2]
                    if event.cancelled:
                        self._pop_cancelled_head()
                        continue
                    heappop(heap)
                    self._now = when
                    event._fired = True
                    callback = event.callback
                    t0 = perf_ns()
                    callback(*event.args)
                    wall = perf_ns() - t0
                    key = (getattr(callback, "__qualname__", None)
                           or type(callback).__qualname__)
                    rec = records.get(key)
                    if rec is None:
                        records[key] = [1, when - prev_when, wall]
                    else:
                        rec[0] += 1
                        rec[1] += when - prev_when
                        rec[2] += wall
                    prev_when = when
                    processed += 1
                    if processed >= limit:
                        raise SimulationError(
                            f"exceeded max_events={max_events} (runaway simulation?)"
                        )
            else:
                while heap and not self._stopped:
                    entry = heap[0]
                    when = entry[0]
                    if when > horizon:
                        break
                    event = entry[2]
                    if event.cancelled:
                        self._pop_cancelled_head()
                        continue
                    heappop(heap)
                    self._now = when
                    event._fired = True
                    event.callback(*event.args)
                    processed += 1
                    if processed >= limit:
                        raise SimulationError(
                            f"exceeded max_events={max_events} (runaway simulation?)"
                        )
            if until is not None and self._now < until:
                # Advance the clock to the horizon so back-to-back run()
                # calls observe contiguous time.
                self._now = until
        finally:
            self._events_processed += processed
            self._running = False
        return self._now

    def run_until_idle(self) -> int:
        """Run until no events remain; returns the final time."""
        return self.run(until=None)

    def peek_next_time(self) -> Optional[int]:
        """Time of the next pending event, or ``None`` if the queue is empty."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            self._pop_cancelled_head()
        return heap[0][0] if heap else None

    def pending_count(self) -> int:
        """Number of scheduled, non-cancelled events (O(1))."""
        return len(self._heap) - self._cancelled_in_heap

    # -- lazy-deletion bookkeeping ------------------------------------------

    def _pop_cancelled_head(self) -> None:
        """Pop one cancelled event off the heap head, settling its debt.

        Shared by both ``run`` dispatch loops and :meth:`peek_next_time`
        so the lazy-deletion accounting lives in exactly one place.
        """
        heapq.heappop(self._heap)
        self._cancelled_in_heap -= 1

    def _note_cancelled(self) -> None:
        """Record one more cancelled-in-heap event; compact when they dominate."""
        self._cancelled_in_heap += 1
        if (
            self._cancelled_in_heap >= _COMPACT_MIN
            and self._cancelled_in_heap * 2 >= len(self._heap)
        ):
            self.compact()

    def compact(self) -> None:
        """Drop cancelled entries from the heap and re-heapify.

        Heap order among live entries is fully determined by their
        (when, seq) keys, so rebuilding never perturbs firing order.
        """
        if not self._cancelled_in_heap:
            return
        self._heap[:] = [e for e in self._heap if not e[2].cancelled]
        heapq.heapify(self._heap)
        self._cancelled_in_heap = 0
        self.compactions += 1
