"""Measurement and reporting: interval counters, accumulators, run
aggregation, and text rendering of tables/figures."""

from ..registry import lazy_exports

__all__ = [
    "IntervalCounter",
    "StatAccumulator",
    "jain_fairness_index",
    "goodput_shares",
    "MetricSummary",
    "RunSet",
    "render_table",
    "render_series",
    "render_bars",
]

_SUBMODULES = {
    ".collector": ("IntervalCounter", "StatAccumulator"),
    ".fairness": ("goodput_shares", "jain_fairness_index"),
    ".report": ("render_bars", "render_series", "render_table"),
    ".summary": ("MetricSummary", "RunSet"),
}

__getattr__, __dir__ = lazy_exports(__name__, _SUBMODULES, globals())
