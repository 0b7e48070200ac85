"""Observability: time-series probes, trace export, and the profiler.

The paper's core figures are *time series* — goodput, pacing rate, CPU
utilization, BBR state over the life of a transfer. This package turns
any experiment into those figures:

* :mod:`repro.obs.probes` — named periodic samplers selected per spec
  (``ExperimentSpec(probes=("pacing_rate", "cpu_util"))``), recorded
  into ``ExperimentResult.timeseries``,
* :mod:`repro.obs.trace_export` — JSONL and Chrome trace-event exports
  of :class:`~repro.sim.trace.Tracer` ring buffers,
* :mod:`repro.obs.profiler` — per-callback-type event-loop profiling,
* :mod:`repro.obs.ledger` — the persistent run ledger (every
  experiment/grid invocation appends a manifest record),
* :mod:`repro.obs.live` — live grid progress: worker heartbeat events,
  the in-place status view, OpenMetrics/JSONL exports.
"""

from ..registry import Registry, lazy_exports

__all__ = [
    "PROBES",
    "ProbeContext",
    "ProbeSet",
    "probe",
    "DEFAULT_PROBE_PERIOD_NS",
    "SimProfiler",
    "TimeSeries",
    "RunLedger",
    "default_ledger_dir",
    "diff_records",
    "ledger_enabled",
    "merge_ledgers",
    "resolve_ledger",
    "DistMonitor",
    "GridMonitor",
    "validate_openmetrics",
    "export_jsonl",
    "load_jsonl",
    "validate_jsonl",
    "export_chrome_trace",
    "validate_chrome_trace",
]

#: name -> probe factory ``(ProbeContext) -> Sampler``; the built-in
#: probes are registered by reference into :mod:`repro.obs.probes`
PROBES: Registry = Registry("probe")
for _name, _factory in (
    ("cwnd", "_cwnd_probe"),
    ("inflight", "_inflight_probe"),
    ("pacing_rate", "_pacing_rate_probe"),
    ("srtt", "_srtt_probe"),
    ("delivery_rate", "_delivery_rate_probe"),
    ("goodput", "_goodput_probe"),
    ("bbr_state", "_bbr_state_probe"),
    ("cpu_util", "_cpu_util_probe"),
    ("cpu_freq", "_cpu_freq_probe"),
    ("softirq", "_softirq_probe"),
    ("qdisc", "_qdisc_probe"),
    ("flow_goodput", "_flow_goodput_probe"),
    ("flow_cwnd", "_flow_cwnd_probe"),
):
    PROBES.register_ref(_name, f"repro.obs.probes:{_factory}")
del _name, _factory

_SUBMODULES = {
    ".ledger": (
        "RunLedger",
        "default_ledger_dir",
        "diff_records",
        "ledger_enabled",
        "merge_ledgers",
        "resolve_ledger",
    ),
    ".live": ("DistMonitor", "GridMonitor", "validate_openmetrics"),
    ".probes": ("DEFAULT_PROBE_PERIOD_NS", "ProbeContext", "ProbeSet", "probe"),
    ".profiler": ("SimProfiler",),
    ".series": ("TimeSeries",),
    ".trace_export": (
        "export_chrome_trace",
        "export_jsonl",
        "load_jsonl",
        "validate_chrome_trace",
        "validate_jsonl",
    ),
}

__getattr__, __dir__ = lazy_exports(__name__, _SUBMODULES, globals())
