"""Opt-in per-callback-type profiling for the event loop.

:class:`SimProfiler` aggregates, per callback qualname, how many events
fired, how much *simulated* time elapsed while that callback type was at
the head of the calendar queue, and how much *wall-clock* time the
Python callback consumed. The event loop only pays for this when a
profiler is installed (:meth:`repro.sim.engine.EventLoop.set_profiler`);
the disabled dispatch path is unchanged — the repo benchmark's
``sim.dispatch_ns_per_event.pure`` (``benchmarks/perf/bench.py``)
measures it.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..metrics.report import render_table

__all__ = ["SimProfiler"]


class SimProfiler:
    """Per-callback-type counters: (count, simulated ns, wall ns)."""

    def __init__(self) -> None:
        #: callback qualname -> mutable ``[count, sim_ns, wall_ns]``.
        #: The loop mutates these lists in place on its hot path.
        self.records: Dict[str, List[int]] = {}

    @property
    def total_events(self) -> int:
        """Events dispatched while this profiler was installed."""
        return sum(rec[0] for rec in self.records.values())

    @property
    def total_wall_ns(self) -> int:
        """Wall-clock nanoseconds spent inside profiled callbacks."""
        return sum(rec[2] for rec in self.records.values())

    def rows(self, top: int = 0) -> List[Dict[str, Any]]:
        """One dict per callback type, sorted by wall time, descending.

        *top* > 0 keeps only the heaviest *top* callback types.
        """
        ranked = sorted(
            self.records.items(), key=lambda kv: kv[1][2], reverse=True
        )
        if top > 0:
            ranked = ranked[:top]
        out = []
        for name, (count, sim_ns, wall_ns) in ranked:
            out.append(
                {
                    "callback": name,
                    "count": count,
                    "sim_ms": sim_ns / 1e6,
                    "wall_ms": wall_ns / 1e6,
                    "wall_us_per_event": wall_ns / count / 1e3 if count else 0.0,
                }
            )
        return out

    def as_dict(self) -> Dict[str, Dict[str, int]]:
        """JSON-friendly snapshot keyed by callback qualname."""
        return {
            name: {"count": rec[0], "sim_ns": rec[1], "wall_ns": rec[2]}
            for name, rec in self.records.items()
        }

    def render(self, top: int = 0) -> str:
        """ASCII table of the profile, heaviest callbacks first.

        *top* > 0 limits the table to the heaviest *top* callback types
        (the title still reports totals across all of them).
        """
        rows = self.rows(top)
        if not rows:
            return "(no events profiled)"
        total = len(self.records)
        title = (f"simulation profile: {self.total_events} events, "
                 f"{self.total_wall_ns / 1e6:.1f} ms wall")
        if 0 < top < total:
            title += f" (top {len(rows)} of {total} callback types)"
        headers = ["callback", "count", "sim_ms", "wall_ms", "wall_us/event"]
        table = render_table(
            headers,
            [
                [r["callback"], r["count"], r["sim_ms"], r["wall_ms"],
                 r["wall_us_per_event"]]
                for r in rows
            ],
            title=title,
        )
        return table
